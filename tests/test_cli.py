"""End-to-end tests for the ``cap`` command line tool."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from symcap import cli
from symcap.capacities import NO_FORMULA, ech_sequence, eh_sequence
from symcap.cli import main
from symcap.novikov import fmt_rational


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMCAP_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# capacity tables


def test_ech_table(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "ech", "--domain", "E:1,2", "--k", "1..8"
    )
    assert code == 0
    assert out == "1,2,2,3,3,4,4,4\n"


def test_eh_single_value(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "eh", "--domain", "E:1.5,1.5", "--k", "2"
    )
    assert code == 0
    assert out == "3/2\n"


def test_gh_is_an_alias_for_eh(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "gh", "--domain", "E:1.5,1.5", "--k", "1..7"
    )
    assert code == 0
    assert out == "3/2,3/2,3,3,9/2,9/2,6\n"


def test_eh_accepts_balls_and_infinite_factors(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "eh", "--domain", "B:2", "--k", "1..4"
    )
    assert (code, out) == (0, "2,2,4,4\n")
    code, out, _ = run(
        capsys, "capacity", "--family", "eh", "--domain", "E:1,inf", "--k", "1..3"
    )
    assert (code, out) == (0, "1,2,3\n")
    # eh takes any number of ellipsoid axes; ech and the obstructions take two
    code, out, _ = run(
        capsys, "capacity", "--family", "eh", "--domain", "E:1,2,3", "--k", "1..5"
    )
    assert (code, out) == (0, "1,2,2,3,3\n")


def test_tangency_family(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "g-tangency", "--domain", "P:1,3", "--k", "5"
    )
    assert code == 0
    assert out == "5\n"


def test_tangency_without_formula_is_infeasible(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "g-tangency", "--domain", "E:1,2", "--k", "5"
    )
    assert code == 2
    assert out == "no-formula\n"


def test_point_counts_on_the_ball(capsys):
    code, out, _ = run(
        capsys, "capacity", "--family", "r-points", "--domain", "B", "--k", "1..7"
    )
    assert code == 0
    assert out == "1,1,2,2,2,3,3\n"


@pytest.mark.parametrize(
    "family,domain",
    [
        ("eh", "E:1,13/2"),
        ("ech", "E:2/3,7/5"),
        ("g-tangency", "E:1,20"),
        ("r-points", "B:2"),
    ],
)
def test_range_not_starting_at_one_matches_single_indices(capsys, family, domain):
    argv = ["capacity", "--family", family, "--domain", domain, "--k"]
    code, out, _ = run(capsys, *argv, "5..9")
    assert code == 0
    singles = []
    for k in range(5, 10):
        single_code, single_out, _ = run(capsys, *argv, str(k))
        assert single_code == 0
        singles.append(single_out.rstrip("\n"))
    assert out == ",".join(singles) + "\n"


def test_csv_table_and_sentinel_rows(capsys, tmp_path):
    dest = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        "capacity", "--family", "g-tangency", "--domain", "E:1,2",
        "--k", "1..3", "--output", str(dest),
    )
    assert code == 0  # a multi-row table is printed even with sentinel cells
    assert out == "1,2,no-formula\n"
    assert dest.read_text() == "k,exact,decimal\n1,1,1\n2,2,2\n3,no-formula,\n"


def test_cache_round_trip(capsys, isolated_cache, tmp_path):
    argv = ["capacity", "--family", "ech", "--domain", "E:1,2", "--k", "1..8"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    man1 = tmp_path / "a.json"
    man2 = tmp_path / "b.json"
    code, out1, _ = run(
        capsys, *argv, "--output", str(first), "--manifest", str(man1)
    )
    assert code == 0
    cached = sorted(p.name for p in (isolated_cache / "capacity").iterdir())
    assert len(cached) == 2
    assert cached[0].endswith(".csv") and cached[1].endswith(".manifest.json")

    code, out2, _ = run(
        capsys, *argv, "--output", str(second), "--manifest", str(man2)
    )
    assert code == 0
    assert out1 == out2
    assert first.read_bytes() == second.read_bytes()
    assert man1.read_bytes() == man2.read_bytes()
    manifest = json.loads(man1.read_text())
    assert manifest["command"] == "capacity"
    assert manifest["parameters"]["domain"] == "E:1,2"
    assert list(manifest["outputs"].values())[0]  # digest of the CSV table


def test_changed_sources_miss_a_warm_cache(capsys, isolated_cache, monkeypatch):
    argv = ["capacity", "--family", "ech", "--domain", "E:1,2", "--k", "1..8"]
    tables = isolated_cache / "capacity"
    _, cold, _ = run(capsys, *argv)
    before = {p.name: p.read_bytes() for p in tables.iterdir()}
    _, warm, _ = run(capsys, *argv)
    assert {p.name: p.read_bytes() for p in tables.iterdir()} == before

    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    _, changed, _ = run(capsys, *argv)
    assert cold == warm == changed == "1,2,2,3,3,4,4,4\n"
    after = {p.name: p.read_bytes() for p in tables.iterdir()}
    added = {name: data for name, data in after.items() if name not in before}
    assert len(before) == len(added) == 2  # the warm table missed
    (old_csv,) = [d for n, d in before.items() if n.endswith(".csv")]
    (new_csv,) = [d for n, d in added.items() if n.endswith(".csv")]
    assert new_csv == old_csv
    (old_man,) = [json.loads(d) for n, d in before.items() if n.endswith(".json")]
    (new_man,) = [json.loads(d) for n, d in added.items() if n.endswith(".json")]
    assert list(new_man.pop("outputs").values()) == list(
        old_man.pop("outputs").values()
    )
    assert new_man == old_man


def test_source_digest_follows_the_package_sources(tmp_path):
    package = pathlib.Path(cli.__file__).parent
    same = tmp_path / "same"
    edited = tmp_path / "edited"
    for dest in (same, edited):
        shutil.copytree(package, dest, ignore=shutil.ignore_patterns("__pycache__"))
    with open(edited / "words.py", "a") as fh:
        fh.write("\n")
    assert cli.source_digest(same) == cli.source_digest()
    assert cli.source_digest(edited) != cli.source_digest()


# the per-index ``Fraction`` table path that the integer lattices replaced,
# kept as the reference: one closed-form value per index, a ``Fraction``
# comparison per row and ``fmt_rational``/``float`` per distinct value


def _reference_g_tangency(kind, params, k):
    if kind == "ball":
        (c,) = params
        return c * math.ceil(Fraction(k + 1, 3)) if k % 3 == 2 else NO_FORMULA
    a, b = params
    x = b / a
    if kind == "ellipsoid":
        return NO_FORMULA if k > x else a * k
    return a * min(Fraction(k), x + Fraction(k - 1, 2)) if k % 2 else NO_FORMULA


def _reference_capacity_values(family, kind, axes, ks):
    if family == "eh":
        if kind == "polydisk":
            raise cli.CliUsageError(
                "the eh family has closed forms for ellipsoids and balls only"
            )
        seq_axes = axes * 2 if kind == "ball" else axes
        return eh_sequence(seq_axes, ks[-1])[ks[0] - 1 :]
    if family == "ech":
        if kind == "polydisk":
            raise cli.CliUsageError("the ech family covers ellipsoids and balls")
        a, b = (cli._descriptor(kind, axes).params * 2)[:2]
        return ech_sequence(a, b, ks[-1])[ks[0] :]
    if family == "g-tangency":
        params = cli._descriptor(kind, axes).params
        return [_reference_g_tangency(kind, params, k) for k in ks]
    if kind != "ball":
        raise cli.CliUsageError("the r-points family is a ball invariant")
    return [axes[0] * math.ceil(Fraction(k + 1, 3)) for k in ks]


def _reference_capacity_csv(family, kind, axes, ks):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("k", "exact", "decimal"))
    for k, value in zip(ks, _reference_capacity_values(family, kind, axes, ks)):
        if isinstance(value, str):
            writer.writerow((k, value, ""))
        else:
            writer.writerow((k, fmt_rational(value), f"{float(value):.6g}"))
    return buf.getvalue().encode("utf-8")


_AXIS = st.builds(Fraction, st.integers(1, 60), st.integers(1, 9))


@st.composite
def _capacity_cases(draw):
    family = draw(st.sampled_from(["eh", "gh", "ech", "g-tangency", "r-points"]))
    kind = draw(st.sampled_from("BEP"))
    if kind == "B":
        axes = draw(st.lists(_AXIS, max_size=1))
    else:
        axes = draw(st.lists(_AXIS, min_size=2, max_size=2))
        # eh alone takes an infinite factor or a third axis
        extra = draw(st.sampled_from([None] * 6 + ["inf", "axis"]))
        if extra is not None:
            axes.append(draw(_AXIS) if extra == "axis" else extra)
    domain = kind + "".join(
        (":" if i == 0 else ",") + (x if isinstance(x, str) else fmt_rational(x))
        for i, x in enumerate(axes)
    )
    lo = draw(st.integers(1, 40))
    hi = lo + draw(st.integers(0, 60))
    return family, domain, str(lo) if hi == lo else f"{lo}..{hi}"


@settings(max_examples=300, deadline=None)
@example(("g-tangency", "B:3/2", "4"))  # one no-formula row: exit 2
@example(("g-tangency", "E:2/3,31/9", "1..12"))  # a run of no-formula rows
@example(("g-tangency", "P:5/3,17/2", "2..40"))
@example(("gh", "E:1,13/2", "3..30"))
@example(("r-points", "B:7/3", "5..45"))
@example(("ech", "B:4/9", "1..50"))
@given(case=_capacity_cases())
def test_capacity_tables_match_the_per_index_fraction_reference(case):
    family, domain, k = case
    kind, axes = cli._parse_domain(domain)
    ks = cli._parse_k_range(k)
    family = "eh" if family == "gh" else family
    try:
        want = _reference_capacity_csv(family, kind, axes, ks)
    except (cli.CliUsageError, ValueError) as exc:
        want_run = (1, "", f"cap: error: {exc}\n")
    else:
        assert cli._capacity_csv(family, kind, axes, ks) == want
        cells = [line.split(",")[1] for line in want.decode().splitlines()[1:]]
        if len(cells) == 1 and cells[0] == NO_FORMULA:
            want_run = (2, f"{NO_FORMULA}\n", "")
        else:
            want_run = (0, ",".join(cells) + "\n", "")
    out, err = io.StringIO(), io.StringIO()
    argv = ["capacity", "--family", case[0], "--domain", domain, "--k", k, "--no-cache"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == want_run


# the bench's four range tables: sha256 of stdout, of the CSV table and of
# the manifest, recorded before ``_capacity_csv`` formatted each run of equal
# values once; the source digest and version are pinned so that the manifest
# names the same cache file on every tree
RANGE_TABLE_DIGESTS = {
    ("eh", "E:1,13/2", "1..500"): (
        "c85d605eaa544cfc02762edb58c355f1df1811d643ca95990bf0c9e91a628685",
        "7047a9b508029378d9504570d148dae3a04fde31bda886524069442f31b1694e",
        "de85d0234d84710a4ca4eb52501360f3660843131406e4fc913c775d8a9c70d0",
    ),
    ("ech", "E:1,13/2", "1..2000"): (
        "1788e46aa5d0d6ec2c2c8f9e8f2d8bd7e715367a8ccaf5092fbf806c2933cf57",
        "74a7077c406b07abe58737177f4111c64a0dd9870e065dc86b79083550a63542",
        "ecebbb8dd9ca2cc7fa9787e10ecccadc36b60ef25b6667151db00b600e666b34",
    ),
    ("g-tangency", "P:1,3", "1..2000"): (
        "7a8c87bbc96c3396f4fc9f17a8b38fd9ca7ed5991f049f2dead48f424f30ce63",
        "d74c36b4b4d46edc56ff583cd6f0afa0e581541f7823f61c18f845325f7686aa",
        "215b7148aa99ac6c9300b00f4352eb1cac66d03871d2d8c21a16eabf023b31a7",
    ),
    ("r-points", "B:2", "1..2000"): (
        "7214febe38f3a50624e9f536693693734f1fa183c7c464d159313a25a0ef739f",
        "4b7d25496dc6e0583aa9cee41d69ce226fdff3ba420d0a02b76f2b50c47c081d",
        "e1f78b59e348e9cf23be9b7d188f8daa804dd8c2a95d7fe0abdd1f8913b66ed3",
    ),
}


@pytest.mark.parametrize("family,domain,k", list(RANGE_TABLE_DIGESTS))
def test_range_tables_are_byte_identical(
    capsys, isolated_cache, monkeypatch, family, domain, k
):
    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    monkeypatch.setattr(cli, "__version__", "0")
    argv = ["capacity", "--family", family, "--domain", domain, "--k", k]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    (table,) = (isolated_cache / "capacity").glob("*.csv")
    manifest = table.with_suffix(".manifest.json")
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (out.encode(), table.read_bytes(), manifest.read_bytes())
    )
    assert digests == RANGE_TABLE_DIGESTS[family, domain, k]


def test_no_cache_leaves_no_files(capsys, isolated_cache):
    code, out, _ = run(
        capsys,
        "capacity", "--family", "ech", "--domain", "E:1,2", "--k", "3",
        "--no-cache",
    )
    assert (code, out) == (0, "2\n")
    assert not isolated_cache.exists()


# ---------------------------------------------------------------------------
# obstructions


def test_stabilized_bound(capsys):
    for target, want in (
        ("B", "bound 8/3, witness k=8\n"),
        ("B:1", "bound 8/3, witness k=8\n"),
        ("B:2", "bound 4/3, witness k=8\n"),
        ("B:1/2", "bound 16/3, witness k=8\n"),
    ):
        code, out, _ = run(
            capsys, "obstruct", "--source", "E:1,8", "--target", target,
            "--stabilized",
        )
        assert (code, out) == (0, want), target


def test_stabilized_polydisk_target(capsys):
    for target, want in (
        ("P", "bound 3/2, witness k=3\n"),
        ("P:2,2", "bound 3/4, witness k=3\n"),
    ):
        code, out, _ = run(
            capsys, "obstruct", "--source", "P:1,2", "--target", target,
            "--stabilized",
        )
        assert (code, out) == (0, want), target
    for target in ("P:5,9", "P:2,2,2", "P:inf,inf", "E:1,2", "Q"):
        code, out, err = run(
            capsys, "obstruct", "--source", "P:1,2", "--target", target,
            "--stabilized",
        )
        assert (code, out) == (1, ""), target
        assert err.startswith("cap: error:"), target


def test_four_dimensional_comparison(capsys):
    code, out, _ = run(
        capsys, "obstruct", "--source", "E:1,2", "--target", "E:1.5,1.5"
    )
    assert code == 0
    assert out == "obstructed at k=2: c_2(E(1,2)) = 2 > 3/2 = c_2(E(3/2,3/2))\n"


def test_four_dimensional_no_obstruction(capsys):
    code, out, _ = run(
        capsys, "obstruct", "--source", "E:1,1", "--target", "E:1,1"
    )
    assert code == 0
    assert out == "no obstruction below K=100\n"


def test_four_dimensional_comparison_with_a_large_common_denominator(capsys):
    code, out, _ = run(
        capsys, "obstruct", "--source", "E:1,1.000001", "--target", "B:2",
        "--K", "8",
    )
    assert (code, out) == (0, "no obstruction below K=8\n")


# ---------------------------------------------------------------------------
# model files


def test_check_passes_on_good_model(capsys, fixtures_dir):
    code, out, _ = run(capsys, "linf", "check", str(fixtures_dir / "b2.model"))
    assert code == 0
    assert out == "pass\n"


def test_check_locates_broken_relation(capsys, fixtures_dir, tmp_path):
    code, out, err = run(
        capsys, "linf", "check", str(fixtures_dir / "broken.model")
    )
    assert code == 3
    assert out == ""
    assert "first at word (x)" in err
    assert "residual (z): 1*T^0" in err
    # the whole report, with the word length cap spelled out
    report = run(
        capsys, "linf", "check", str(fixtures_dir / "broken.model"), "--l", "3"
    )
    assert report == (
        3,
        "",
        "fail: 9 violated relations up to word length 3; first at word (x)\n"
        "  residual (z): 1*T^0\n",
    )
    # in cdga mode the letters of a word are monomials, named by their factors
    path = tmp_path / "monomials.model"
    path.write_text(
        "[flags]\ngrading_mode = Z\nalgebra_mode = cdga\ncutoff = none\n"
        "filtered = true\n\n[generators]\nx | 0 | 1\ny | 1 | 1\nz | 2 | 1\n\n"
        "[operations]\n1 | x | (1*T^0) * (y)\n1 | y | (1*T^0) * (x*z)\n"
    )
    assert run(capsys, "linf", "check", str(path), "--l", "2") == (
        3,
        "",
        "fail: 10 violated relations up to word length 2; first at word (x)\n"
        "  residual (x*z): 1*T^0\n",
    )


def test_bad_numbers_in_a_model_file_exit_three(capsys, tmp_path):
    model = tmp_path / "bad.model"
    gens = "[generators]\nx | 0 | 0\ny | 1 | 0\n"
    ops, augs = gens + "[operations]\n", gens + "[augmentations]\n"
    for body, message in (
        ("[generators]\nx | a | 0\n", "bad number 'a' in line 'x | a | 0'"),
        ("[generators]\nx | 0 | 1/0\n", "bad number '1/0' in line 'x | 0 | 1/0'"),
        (
            "[generators]\nx | 0 | 0\n[operations]\nabc | x | (1*T^0) * (x)\n",
            "bad number 'abc' in line 'abc | x | (1*T^0) * (x)'",
        ),
        (
            "[generators]\nx | 0 | 0\n[augmentations]\neps | x | (1*T^0) * t^a\n",
            "bad number 'a' in line 'eps | x | (1*T^0) * t^a'",
        ),
        ("[generators]\nx | 0 | -1\n", "action must be >= 0 in line 'x | 0 | -1'"),
        ("[flags]\ncutoff = -1\n", "cutoff must be positive in line 'cutoff = -1'"),
        ("[generators]\n | 0 | 1/2\n", "generator name is empty in line '| 0 | 1/2'"),
        (ops + "1 | x | (1*T^0 * (x)\n", "unbalanced parentheses in '(1*T^0 * (x)'"),
        (ops + "1 | x | (1*T^0) * y\n", "expected a parenthesized word, got 'y'"),
        (ops + "1 | x | (1*T^0) * (y)\n" * 2, "duplicate operation key 'x'"),
        (
            augs + "eps | x | (1*T^0) * s^0\n",
            "augmentation terms end in t^<power>: '(1*T^0) * s^0'",
        ),
        (
            augs + "eps | x | (1*T^0) * t^0\n" * 2,
            "duplicate augmentation component 'x' for eps",
        ),
    ):
        model.write_text(body)
        assert run(capsys, "linf", "check", str(model)) == (
            3,
            "",
            f"cap: integrity: {message}\n",
        ), body


def test_malformed_table_lines_exit_three(capsys, tmp_path):
    table = tmp_path / "bad.tbl"
    bad = "bad class, group sizes or value in line"
    degree = "degree must be >= 1 in line"
    for body, message in (
        (
            "CP2 | 1 | 1,1 | 1",
            "table lines look like 'surface | class | group sizes | value | "
            "provenance': 'CP2 | 1 | 1,1 | 1'",
        ),
        (
            "CP3 | 1 | 1,1 | 1 | x",
            "unknown surface 'CP3' in line 'CP3 | 1 | 1,1 | 1 | x'",
        ),
        ("CP2 | d | 1,1 | 1 | x", f"{bad} 'CP2 | d | 1,1 | 1 | x'"),
        ("CP1xCP1 | 1 | 1,1 | 1 | x", f"{bad} 'CP1xCP1 | 1 | 1,1 | 1 | x'"),
        ("CP2 | 1 | 1,a | 1 | x", f"{bad} 'CP2 | 1 | 1,a | 1 | x'"),
        ("CP2 | 1 | 1,1 | 1/0 | x", f"{bad} 'CP2 | 1 | 1,1 | 1/0 | x'"),
        ("CP2 | 1 | 1,1 | one | x", f"{bad} 'CP2 | 1 | 1,1 | one | x'"),
        # rows no constraint key can reach
        ("CP2 | 0 | 1,1 | 1 | x", f"{degree} 'CP2 | 0 | 1,1 | 1 | x'"),
        ("CP1 | -2 | 1 | 1 | x", f"{degree} 'CP1 | -2 | 1 | 1 | x'"),
        (
            "CP1xCP1 | -1,2 | 1 | 1 | z",
            "bidegree components must be >= 0 in line 'CP1xCP1 | -1,2 | 1 | 1 | z'",
        ),
        (
            "CP2 | 1 | 0,-3 | 1 | y",
            "group sizes must be >= 1 in line 'CP2 | 1 | 0,-3 | 1 | y'",
        ),
        (
            "CP2 | 1 | 1,1 | 1 | one\nCP2 | 1 | 1,1 | 2 | two",
            "duplicate table entry ('CP2', 1, (1, 1)) "
            "in line 'CP2 | 1 | 1,1 | 2 | two'",
        ),
    ):
        table.write_text(body + "\n")
        argv = ["gw", "evaluate", "CP2 d=1 <(T^1 p)>", "--table", str(table)]
        assert run(capsys, *argv) == (3, "", f"cap: integrity: {message}\n"), body


def test_solver_levels(capsys, fixtures_dir):
    model = str(fixtures_dir / "b2_lin.model")
    code, out, _ = run(
        capsys,
        "linf", "solve-gb", model, "--b", "t^3", "--l", "2",
        "--action-cutoff", "12",
    )
    assert (code, out) == (0, "4\n")
    code, out, _ = run(
        capsys, "linf", "solve-gb", model, "--b", "t^11", "--action-cutoff", "5"
    )
    assert code == 2
    assert out == "not-found-below-cutoff (word cap 3, action cutoff 5)\n"
    # a zero cutoff is valid: no word has action 0, so no level is found
    code, out, _ = run(
        capsys, "linf", "solve-gb", model, "--b", "t^0", "--action-cutoff", "0"
    )
    assert (code, out) == (2, "not-found-below-cutoff (word cap 3, action cutoff 0)\n")
    # without --action-cutoff the cutoff is the top generator action (12 in
    # b2_lin) times the word cap
    default = run(capsys, "linf", "solve-gb", model, "--b", "t^3", "--l", "2")
    assert default == (0, "4\n", "")
    assert run(capsys, "linf", "solve-gb", model, "--b", "t^12", "--l", "1") == (
        2,
        "not-found-below-cutoff (word cap 1, action cutoff 12)\n",
        "",
    )
    # a bare t is t^1
    bare = run(capsys, "linf", "solve-gb", model, "--b", "t")
    assert bare == run(capsys, "linf", "solve-gb", model, "--b", "t^1")
    assert bare[0] == 0


def test_mc_check(capsys, fixtures_dir):
    model = str(fixtures_dir / "dgla.model")
    code, out, _ = run(
        capsys, "linf", "mc", model, "--m", "x:1*T^1,y:1*T^1"
    )
    assert code == 2
    assert out == "Maurer-Cartan: fail; residual at (z) is 1*T^2\n"
    code, out, _ = run(
        capsys, "linf", "mc", model, "--m", "x:1*T^1,y:1*T^1,w:1*T^2"
    )
    assert (code, out) == (0, "Maurer-Cartan: pass\n")


# da = 1/2*T^(3/2)*bc + 3/2*T^(5/2), and eps kills it: b -> T^(1/3),
# c -> -3*T^(2/3)
FRACTIONAL_MODEL = """\
[flags]
grading_mode = Z
algebra_mode = cdga
cutoff = none
filtered = true

[generators]
a | -1 | 5/2
b | 0  | 1/3
c | 0  | 2/3

[operations]
1 | a | (1/2*T^(3/2)) * (b*c) + (3/2*T^(5/2)) * 1

[augmentations]
eps | b | (1*T^(1/3)) * t^0
eps | c | (-3*T^(2/3)) * t^0
"""


def test_linf_prints_fractional_coefficients_and_exponents(
    capsys, fixtures_dir, tmp_path
):
    """Fractional coefficients and exponents, and a product of fractions
    that comes out integral, print byte for byte as pinned here."""
    model = tmp_path / "fractional.model"
    model.write_text(FRACTIONAL_MODEL)
    assert run(capsys, "linf", "check", str(model), "--l", "3") == (0, "pass\n", "")
    assert run(capsys, "linf", "linearize", str(model), "--aug", "eps") == (
        0,
        "[flags]\n"
        "grading_mode = Z\n"
        "algebra_mode = module\n"
        "cutoff = none\n"
        "filtered = true\n"
        "\n"
        "[generators]\n"
        "b | 0 | 1/3\n"
        "c | 0 | 2/3\n"
        "a | -1 | 5/2\n"
        "\n"
        "[operations]\n"
        "1 | a | (-3/2*T^(13/6)) * (b) + (1/2*T^(11/6)) * (c)\n",
        "",
    )
    dgla = str(fixtures_dir / "dgla.model")
    fail = "Maurer-Cartan: fail; residual at (z) is "
    for m, want in (
        ("x:1/2*T^(1/2),y:3*T^(1/3)", (2, fail + "3/2*T^(5/6)\n")),
        ("x:1/2*T^(1/2),y:2*T^(1/2)", (2, fail + "1*T^1\n")),
        ("x:1/2*T^(1/2),y:3*T^(1/3),w:3/2*T^(5/6)", (0, "Maurer-Cartan: pass\n")),
    ):
        assert run(capsys, "linf", "mc", dgla, "--m", m) == (*want, "")


def test_mc_rejects_valuation_zero(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "linf", "mc", str(fixtures_dir / "dgla.model"), "--m", "x:1"
    )
    assert code == 3
    assert err == (
        "cap: integrity: MC element coefficients need strictly positive valuation\n"
    )


def test_linearize_prints_a_model_file(capsys, fixtures_dir, tmp_path):
    code, out, _ = run(
        capsys, "linf", "linearize", str(fixtures_dir / "cdga_aug.model")
    )
    assert code == 0
    assert out.startswith("[flags]")
    assert "algebra_mode = module" in out
    assert "(-1*T^(1/2)) * (b) + (1*T^(1/2)) * (c)" in out
    dest = tmp_path / "lin.model"
    code, out, _ = run(
        capsys,
        "linf", "linearize", str(fixtures_dir / "cdga_aug.model"),
        "--output", str(dest),
    )
    assert (code, out) == (0, "")
    assert "algebra_mode = module" in dest.read_text()


def test_linearize_rejects_a_non_scalar_augmentation(capsys, fixtures_dir, tmp_path):
    text = (fixtures_dir / "cdga_aug.model").read_text()
    text = text.replace("eps |", "a2 |") + "a2 | b , c | (1*T^2) * t^0\n"
    path = tmp_path / "arity2.model"
    path.write_text(text)
    code, out, err = run(capsys, "linf", "linearize", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("cap: integrity: F^ε needs a scalar augmentation")


def test_linearize_rejects_an_augmentation_off_the_scalars(
    capsys, fixtures_dir, tmp_path
):
    text = (fixtures_dir / "cdga_aug.model").read_text()
    path = tmp_path / "off.model"
    for generator, component, message in (
        ("y | 1 | 1", "y | (1*T^1) * t^0", "is nonzero on the odd generator y"),
        (
            "x | 2 | 1",
            "x | (1*T^1) * t^0",
            "is nonzero on x of degree 2; scalar augmentations live on degree 0",
        ),
        ("x | 0 | 1", "x | (1*T^1) * t^1", "is not scalar-valued on x"),
    ):
        body = text.replace("[operations]", f"{generator}\n\n[operations]")
        path.write_text(body + f"eps | {component}\n")
        assert run(capsys, "linf", "linearize", str(path)) == (
            3,
            "",
            f"cap: integrity: augmentation eps {message}\n",
        ), generator


# ---------------------------------------------------------------------------
# tangency counts


def test_gw_evaluate(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "gw", "evaluate", "CP2 d=2 <(T^4 p)>",
        "--table", str(fixtures_dir / "base.tbl"),
    )
    assert (code, out) == (0, "1\n")


def test_gw_evaluate_vanishing_cover(capsys):
    code, out, _ = run(capsys, "gw", "evaluate", "CP1 d=2 <(T^2 p)>")
    assert (code, out) == (0, "0\n")


def test_gw_evaluate_reports_missing_rows(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "gw", "evaluate", "CP2 d=3 <(T^7 p)>",
        "--table", str(fixtures_dir / "base.tbl"),
    )
    assert code == 2
    assert err.startswith("cap: base table is missing 22 entries: CP2 d=3")


def test_gw_reduce_trace(capsys):
    code, out, _ = run(capsys, "gw", "reduce", "CP2 d=1 <(T^1 p)>")
    assert code == 0
    assert out == (
        "CP2 d=1 <(T^1 p)> ->\n"
        "    1 * CP2 d=1 <(p),(p)>\n"
        "    -1 * CP2 d=1 <(p,p)>\n"
        "result: -1 * CP2 d=1 <(p,p)>  +  1 * CP2 d=1 <(p),(p)>\n"
    )


def test_gw_reduce_is_seed_invariant(capsys):
    outputs = set()
    for seed in ("0", "1", "7"):
        code, out, _ = run(
            capsys, "gw", "reduce", "CP2 d=2 <(T^4 p)>", "--seed", seed
        )
        assert code == 0
        outputs.add(out.splitlines()[-1])
    assert len(outputs) == 1



@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "reduce", "<(T^1100 p)>"],
        ["gw", "evaluate", "CP2 d=400 <(T^1198 p)>", "--table", "base.tbl"],
    ],
)
def test_gw_rewrites_nested_too_deeply_exit_one(capsys, fixtures_dir, argv):
    """The depth-first expand pass stops at the recursion limit, within a
    fraction of a second, instead of printing a traceback."""
    argv = [str(fixtures_dir / a) if a == "base.tbl" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert (code, out) == (1, "")
    assert err == "cap: error: the rewrite nests too deeply to reduce\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "reduce", "<(T^900 p)>"],
        ["gw", "evaluate", "CP2 d=300 <(T^898 p)>", "--table", "base.tbl"],
    ],
)
def test_gw_rewrites_past_the_dag_bound_exit_one(capsys, fixtures_dir, argv):
    """These nest below the recursion limit, but their rewrite DAGs grow
    without bound (``<(T^900 p)>`` ran past 100 s before the bound); the
    expand pass stops at ``gw.MAX_DAG_SIZE`` group ids instead."""
    argv = [str(fixtures_dir / a) if a == "base.tbl" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert (code, out) == (1, "")
    assert err == "cap: error: the rewrite grows too large to reduce\n"


def test_indices_past_the_budget_exit_one_before_any_work(capsys, monkeypatch):
    """``--k`` and ``--K`` above ``cli.MAX_INDEX`` are refused before any
    lattice or index list is built (``--k 99999999999999999999`` used to
    run until killed); the 10**6-index ECH table stays admitted."""

    def no_work(*args):
        raise AssertionError("a lattice was built past the budget")

    for name in ("eh_lattice", "ech_lattice", "obstruct_4d_ellipsoid"):
        monkeypatch.setattr(cli, name, no_work)
    refused = "cap: error: indices above 1000000 are not computed\n"
    capacity = ["capacity", "--domain", "E:1,2", "--no-cache", "--family"]
    for argv in (
        capacity + ["eh", "--k", "99999999999999999999"],
        capacity + ["ech", "--k", "1000001"],
        capacity + ["ech", "--k", "999999..1000001"],
        ["obstruct", "--source", "E:1,2", "--target", "B:3", "--K", "1000001"],
    ):
        assert run(capsys, *argv) == (1, "", refused), argv
    assert cli.MAX_INDEX == 10**6
    assert cli._parse_k_range("1..1000000") == list(range(1, 10**6 + 1))


def test_values_past_the_float_range_exit_one(capsys, isolated_cache, tmp_path):
    """The decimal column is a float: a value too large for one, or nonzero
    but rounding to 0.0, is refused in one error line, and nothing is
    cached or written; a value just inside the range, subnormal quotients
    included, still gets its cell."""
    table = tmp_path / "t.csv"
    for argv, k, size in (
        (["r-points", "--domain", "B:1e400", "--k", "2"], 2, "large"),
        (["eh", "--domain", "E:1e400,2e400", "--k", "1..2"], 1, "large"),
        (["r-points", "--domain", "B:1e-400", "--k", "1..2", "-o", str(table)], 1, "small"),
        (["eh", "--domain", "E:1e-400,2e-400", "--k", "2"], 2, "small"),
    ):
        code, out, err = run(capsys, "capacity", "--family", *argv)
        message = f"cap: error: c_{k} is too {size} for the decimal column\n"
        assert (code, out, err) == (1, "", message)
    assert not isolated_cache.exists()
    assert not table.exists()
    for domain, exact, decimal in (
        ("B:1e300", f"{10**300}", "1e+300"),
        ("B:1e-300", f"1/{10**300}", "1e-300"),
        ("B:1e-310", f"1/{10**310}", "1e-310"),
    ):
        code, out, _ = run(
            capsys, "capacity", "--family", "eh", "--domain", domain, "--k", "1",
            "--output", str(table),
        )
        assert (code, out) == (0, f"{exact}\n")
        assert table.read_text() == f"k,exact,decimal\n1,{exact},{decimal}\n"


# ---------------------------------------------------------------------------
# exit codes and wiring


def test_usage_errors_exit_one(capsys, fixtures_dir, tmp_path):
    two_augs = {}
    for name, extra in (
        ("b2_lin", "other | xa1 | (1*T^1) * t^0\n"),
        ("cdga_aug", "other | b | (1*T^(1/2)) * t^0\n"),
    ):
        two_augs[name] = tmp_path / f"{name}_two_augs.model"
        text = (fixtures_dir / f"{name}.model").read_text()
        two_augs[name].write_text(text + extra)
    b2_lin = str(fixtures_dir / "b2_lin.model")
    cdga_aug = str(fixtures_dir / "cdga_aug.model")
    bad = [
        ["capacity", "--family", "xyz", "--domain", "B", "--k", "1"],
        ["capacity", "--family", "eh", "--domain", "B", "--k", "0..3"],
        ["capacity", "--family", "eh", "--domain", "Q:1", "--k", "1"],
        ["capacity", "--family", "eh", "--domain", "P:1,2", "--k", "1"],
        ["capacity", "--family", "ech", "--domain", "E:1,inf", "--k", "1"],
        ["capacity", "--family", "r-points", "--domain", "E:1,2", "--k", "1"],
        ["linf", "check", str(fixtures_dir / "nope.model")],
        ["linf", "solve-gb", b2_lin, "--b", "t^0", "--aug", "nope"],
        ["linf", "linearize", cdga_aug, "--aug", "nope"],
        ["linf", "solve-gb", str(two_augs["b2_lin"]), "--b", "t^0"],
        ["linf", "linearize", str(two_augs["cdga_aug"])],
        ["linf", "mc", str(fixtures_dir / "b2.model"), "--m", "zz:1*T^1"],
        ["linf", "check", b2_lin, "--l", "0"],
        ["linf", "solve-gb", b2_lin, "--b", "t^0", "--l", "0"],
        ["linf", "solve-gb", b2_lin, "--b", "t^3,t^4"],
        ["linf", "solve-gb", b2_lin, "--b", "t^0", "--action-cutoff", "-1"],
        ["linf", "solve-gb", b2_lin, "--b", "t^0", "--action-cutoff=-1/2"],
    ]
    for argv in bad:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("cap: error:"), argv
        if "--aug" in argv:
            assert err == "cap: error: no augmentation named 'nope'\n", argv
        if "--m" in argv:
            assert err == "cap: error: unknown generator 'zz'\n", argv
        if "--l" in argv:
            assert err == "cap: error: --l must be >= 1\n", argv
        if any(a.startswith("--action-cutoff") for a in argv):
            assert err == "cap: error: --action-cutoff must be >= 0\n", argv
        if "t^3,t^4" in argv:
            assert err == (
                "cap: error: cannot parse 't^3,t^4': expected t-powers like t^0*t^3\n"
            ), argv
    capacity = ["capacity", "--family"]
    mc = ["linf", "mc", str(fixtures_dir / "dgla.model"), "--m", "x:1*T^1,y:1*T^1"]
    three_axes = "ellipsoid needs 2 parameters, got 3"
    positive = "domain parameters must be positive"
    base = str(fixtures_dir / "base.tbl")
    with_messages = [
        (capacity + ["ech", "--domain", "E:1,2,3", "--k", "1..5"], three_axes),
        (capacity + ["g-tangency", "--domain", "E:1,2,3", "--k", "1"], three_axes),
        (["obstruct", "--source", "E:1,2,3", "--target", "B"], three_axes),
        (["obstruct", "--source", "E:1,2", "--target", "E:1,2,3"], three_axes),
        (["obstruct", "--source", "E:1,2,3", "--target", "B", "--stabilized"], three_axes),
        (capacity + ["ech", "--domain", "E:1,2", "--k", "abc"], "bad index range 'abc'"),
        (mc + ["--max-terms", "0"], "--max-terms must be >= 1"),
        (mc + ["--max-terms", "-1"], "--max-terms must be >= 1"),
        # a zero denominator is refused before any Fraction is built
        (
            ["linf", "solve-gb", b2_lin, "--b", "t^3", "--action-cutoff", "1/0"],
            "argument --action-cutoff: invalid rational value: '1/0'",
        ),
        (mc[:-1] + ["x:1/0*T^1"], "zero denominator in '1/0'"),
        (
            capacity + ["eh", "--domain", "B:1/0", "--k", "1"],
            "cannot parse domain 'B:1/0': zero denominator in '1/0'",
        ),
        (
            capacity + ["eh", "--domain", "E:1,1/0", "--k", "1"],
            "cannot parse domain 'E:1,1/0': zero denominator in '1/0'",
        ),
        (["gw", "reduce", "CP2 d=x <(p)>"], "cannot parse class 'x'"),
        (["gw", "reduce", "CP1xCP1 d=1,x <(p)>"], "cannot parse class '1,x'"),
        (["gw", "reduce", "CP2 d=1,2 <(p)>"], "CP2 classes are degrees"),
        (["gw", "reduce", "CP1 d=1,2 <(p)>"], "CP1 classes are degrees"),
        (["gw", "reduce", "CP2 d=1 <(T^x p)>"], "cannot parse constraint 'T^x p'"),
        (capacity + ["eh", "--domain", "E:0,2", "--k", "1"], positive),
        (capacity + ["eh", "--domain", "B:0", "--k", "1"], positive),
        (
            capacity + ["eh", "--domain", "E:2", "--k", "1"],
            "E needs at least two parameters",
        ),
        (
            capacity + ["ech", "--domain", "P:1,2", "--k", "1"],
            "the ech family covers ellipsoids and balls",
        ),
        (
            ["obstruct", "--source", "P:1,2", "--target", "B"],
            "the four-dimensional comparison uses ellipsoid/ball sequences",
        ),
        (["linf", "solve-gb", b2_lin, "--b", "t^-1"], "t-powers must be nonnegative"),
        (mc[:-1] + ["x"], "cannot parse 'x': expected generator:coefficient"),
        (["gw", "reduce", "<(T^1 p>"], "unbalanced parentheses in '<(T^1 p>'"),
        (["gw", "reduce", "<(T^1 p))>"], "unbalanced parentheses in '<(T^1 p))>'"),
        (["gw", "reduce", "<>"], "no constraint groups found"),
        (["gw", "reduce", "<(r)>"], "cannot parse constraint 'r'"),
        # table rows are keyed by surface and class, so none could match
        (
            ["gw", "evaluate", "<(T^1 p),(p)>", "--table", base],
            "evaluate needs a surface and class",
        ),
        (["gw", "evaluate", "<(p)>"], "evaluate needs a surface and class"),
        # text outside the groups is an error, not silently dropped
        (
            ["gw", "evaluate", "CP2 d=2 <(T^1 p),(T^2 p) p>", "--table", base],
            "unexpected 'p' outside the groups in '<(T^1 p),(T^2 p) p>'",
        ),
        (
            ["gw", "reduce", "CP2 d=2 <(T^1 p)garbage(p)>"],
            "unexpected 'g' outside the groups in '<(T^1 p)garbage(p)>'",
        ),
        (
            ["gw", "reduce", "<(T^1 p),(p)> extra>"],
            "unexpected '>' outside the groups in '<(T^1 p),(p)> extra>'",
        ),
    ]
    for argv, message in with_messages:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"cap: error: {message}\n"), argv


def test_unusable_paths_exit_one(capsys, fixtures_dir, tmp_path, monkeypatch):
    folder = str(tmp_path)
    cache_file = tmp_path / "cache_file"
    cache_file.write_text("")
    monkeypatch.setenv("SYMCAP_CACHE_DIR", str(cache_file))
    for argv in (
        ["linf", "check", folder],
        ["gw", "evaluate", "CP2 d=1 <(T^1 p)>", "--table", folder],
        ["linf", "linearize", str(fixtures_dir / "cdga_aug.model"), "-o", folder],
        ["capacity", "--family", "ech", "--domain", "E:1,2", "--k", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("cap: error: ") and "Traceback" not in err, argv


# ---------------------------------------------------------------------------
# the parser


# sha256 of stdout (stderr empty, exit 0) for help and version requests, and
# the one ``cap: error:`` line (stdout empty, exit 1) for parser errors, as
# recorded when every command's parser was built on each call; help is
# wrapped at 80 columns
PARSER_STDOUT_DIGESTS = {
    "--help": "982c77c6f9723c65125be8b9c25644b994acbd6000a5e15a507c27aebdfe9fb2",
    "--version": "6ba7e2db162dd1e059ca26431ba5349ad35d227f5c5e5ef10dd7c60e138f221e",
    "--version capacity": "6ba7e2db162dd1e059ca26431ba5349ad35d227f5c5e5ef10dd7c60e138f221e",
    "-h capacity": "982c77c6f9723c65125be8b9c25644b994acbd6000a5e15a507c27aebdfe9fb2",
    "capacity --help": "780c9cabb4ccca03ac2f3320a13bf8c64468c900c445285e24375c38a0c857f9",
    "gw --help": "edf589597e204a2fddc563babe0822bf48dcdd512477fd423c53e5bb43e3ef44",
    "gw evaluate --help": "6f3210279dae8e27869af1ef3b8c73fb952611836812e93173bb85a6612a2039",
    "gw reduce --help": "6b30dd5b6f7120d98e3948bf2a28364eb95aed41529de265baa6234aa2decd8c",
    "linf --help": "bf57b132e86d9cc6eb98bcd6c3ac3d7c8c7b086c6a70e4423fe2d2de2cc6fc6f",
    "linf check --help": "cec737df97dda9144edcad223c44977b5e0b5e10f42a898485a2722b8c251ec5",
    "linf linearize --help": "a544855a472d0d1d2f043f48baad4d759aff4c4ca7a24b1ec38fe03ebe771b03",
    "linf mc --help": "111b928a2843dff5f97cc11a506cbf97e99c763840511c6e37ac9fc16d95ee33",
    "linf solve-gb --help": "71495afa2605a3ebb53e1274713679f0b0b86bf2204d080ef58540f52786aeb5",
    "obstruct --help": "ac3fbec4ec3a06268aae9d292bb1d01f7b6559de71974fac5984e68bda1fa2e0",
    # the word after ``cap`` or after the command names a parser, or does not
    "-h linf check": "982c77c6f9723c65125be8b9c25644b994acbd6000a5e15a507c27aebdfe9fb2",
    "linf -h": "bf57b132e86d9cc6eb98bcd6c3ac3d7c8c7b086c6a70e4423fe2d2de2cc6fc6f",
    "obstruct -h": "ac3fbec4ec3a06268aae9d292bb1d01f7b6559de71974fac5984e68bda1fa2e0",
    "linf check --help extra": "cec737df97dda9144edcad223c44977b5e0b5e10f42a898485a2722b8c251ec5",
}
PARSER_ERRORS = {
    "capacity": "the following arguments are required: --family, --domain, --k",
    "capacity --family x --domain B --k 1": (
        "argument --family: invalid choice: 'x' "
        "(choose from 'eh', 'gh', 'ech', 'g-tangency', 'r-points')"
    ),
    "gw": "the following arguments are required: gw_cmd",
    "gw nope": (
        "argument gw_cmd: invalid choice: 'nope' (choose from 'reduce', 'evaluate')"
    ),
    "linf": "the following arguments are required: linf_cmd",
    "linf nope": (
        "argument linf_cmd: invalid choice: 'nope' "
        "(choose from 'check', 'linearize', 'mc', 'solve-gb')"
    ),
    "linf solve-gb m --action-cutoff 1/0 --b t": (
        "argument --action-cutoff: invalid rational value: '1/0'"
    ),
    "nope": (
        "argument command: invalid choice: 'nope' "
        "(choose from 'capacity', 'obstruct', 'linf', 'gw')"
    ),
    "obstruct --source B --target B --K x": "argument --K: invalid int value: 'x'",
    "gw nope --help": (
        "argument gw_cmd: invalid choice: 'nope' (choose from 'reduce', 'evaluate')"
    ),
    "linf check": "the following arguments are required: model",
    "gw reduce": "the following arguments are required: expression",
    "capacity --version": "the following arguments are required: --family, --domain, --k",
    "gw reduce x --version": "unrecognized arguments: --version",
    # Python 3.11 hands ``--`` to the command positional
    "-- gw reduce <(T^1 p)>": (
        "argument command: invalid choice: '--' "
        "(choose from 'capacity', 'obstruct', 'linf', 'gw')"
    ),
}


@pytest.mark.parametrize("argv", [*PARSER_STDOUT_DIGESTS, *PARSER_ERRORS])
def test_parser_output_is_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv.split())
    except SystemExit as exc:  # help and --version exit through argparse
        code = exc.code
    out, err = capsys.readouterr()
    if argv in PARSER_STDOUT_DIGESTS:
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest, err) == (0, PARSER_STDOUT_DIGESTS[argv], "")
    else:
        assert (code, out, err) == (1, "", f"cap: error: {PARSER_ERRORS[argv]}\n")



@pytest.mark.parametrize(
    "argv,command",
    [
        (["--version"], None),
        (["nope", "capacity"], None),
        (["capacity", "--family", "ech"], "capacity"),
        (["-h", "linf", "check"], "linf"),
        (["--", "gw", "reduce", "<(T^1 p)>"], "gw"),
        (["linf", "-h"], "linf"),
        (["gw", "evaluate", "<(p)>"], "gw"),
    ],
)
def test_build_parser_configures_only_the_command_it_runs(argv, command):
    """Only the command that the first argument not starting with ``-``
    names gets its arguments.  Its siblings are built, and so listed for
    help and errors, only when ``argv[0]`` names no command; the same holds
    for the ``linf`` and ``gw`` subcommands and the word after the command."""

    def listed(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    parser = cli.build_parser(argv)
    commands = listed(parser)
    everything = ["capacity", "obstruct", "linf", "gw"]
    assert list(commands) == ([argv[0]] if argv[0] in everything else everything)
    configured = {name for name, p in commands.items() if len(p._actions) > 1}
    assert configured == ({command} if command else set())
    subcommands = {
        ("-h", "linf", "check"): ["check"],
        ("--", "gw", "reduce", "<(T^1 p)>"): ["reduce"],
        ("linf", "-h"): ["check", "linearize", "mc", "solve-gb"],
        ("gw", "evaluate", "<(p)>"): ["evaluate"],
    }
    if command in ("linf", "gw"):
        assert list(listed(commands[command])) == subcommands[tuple(argv)]


def test_version_flag(capsys):
    from symcap import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == f"cap {__version__}\n"


HASH_SEED_SCRIPT = """
from symcap.cli import main
for argv in {commands!r}:
    print("$ cap", " ".join(argv))
    print("exit", main(argv))
"""


def test_output_does_not_depend_on_the_hash_seed(fixtures_dir, tmp_path):
    """Generators hash by identity and str hashes are randomized per process,
    so nothing printed may follow a set or hash order."""
    fx = str(fixtures_dir)
    commands = [
        ["linf", "check", f"{fx}/b2.model", "--l", "4"],
        ["linf", "linearize", f"{fx}/cdga_aug.model"],
        ["linf", "mc", f"{fx}/dgla.model", "--m", "x:1*T^1,y:1*T^1,w:1*T^2"],
        ["linf", "solve-gb", f"{fx}/b2_lin.model", "--b", "t^3", "--l", "2"]
        + ["--action-cutoff", "12"],
    ]
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(src),
            SYMCAP_CACHE_DIR=str(tmp_path / f"cache{seed}"),
        )
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT.format(commands=commands)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("exit 0") == len(commands)


IMPORT_SCRIPT = """
import sys
import symcap.cli
heavy = ("dataclasses", "inspect", "symcap.spectra", "hashlib", "json")
loaded = [m for m in heavy if m in sys.modules]
import json
import symcap
from symcap import spectra
lazy = ["OrbitSpectrum", "conley_zehnder_ellipsoid", "ellipsoid_orbits",
        "fredholm_index", "polydisk_orbits", "capacity_sequence_ECH",
        "capacity_sequence_EH"]
wrong = [n for n in lazy if getattr(symcap, n) is not getattr(spectra, n)]
try:
    symcap.no_such_name
    missing = "resolved"
except AttributeError as err:
    missing = str(err)
star = {}
exec("from symcap import *", star)
unbound = [n for n in symcap.__all__ if n not in star]
domain = symcap.ellipsoid_orbits([1, 2], 2).domain
print(json.dumps([loaded, wrong, missing, unbound, domain]))
"""


def test_cli_import_loads_no_dataclasses_and_spectra_resolve_lazily():
    """``cap`` pays for ``import symcap.cli`` on every command; the orbit
    spectra, the package's only dataclasses, load on first use instead, and
    so do ``hashlib`` and ``json``, which only the capacity cache uses."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, wrong, missing, unbound, domain = json.loads(proc.stdout)
    assert loaded == []
    assert wrong == []
    assert missing == "module 'symcap' has no attribute 'no_such_name'"
    assert unbound == []
    assert domain == "E(1,2)"


API_SCRIPT = """
import importlib, json, sys
import symcap
bare = sorted(m for m in sys.modules if m.startswith("symcap."))
from symcap import capacities, spectra
library = sorted(m for m in sys.modules if m.startswith("symcap."))
submodule = symcap.linfty is sys.modules["symcap.linfty"]
wrong = [
    name for name, module in symcap._API.items()
    if getattr(symcap, name) is not getattr(
        importlib.import_module("symcap." + module), name)
]
star = {}
exec("from symcap import *", star)
star.pop("__builtins__")
print(json.dumps({
    "bare": bare, "library": library, "submodule": submodule,
    "wrong": wrong, "star": sorted(star), "all": symcap.__all__,
    "dir": [n for n in symcap.__all__ if n not in dir(symcap)],
}))
"""


def test_package_names_come_from_one_table_and_load_their_module_on_use(
    tmp_path,
):
    """``symcap/__init__.py`` is one table from public name to module: a bare
    ``import symcap`` loads no submodule, ``capacities`` and ``spectra``
    load no model-file code, every name is its module's object, and
    ``from symcap import *`` binds exactly ``__all__``."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), SYMCAP_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", API_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    found = json.loads(proc.stdout)
    assert found["bare"] == []
    assert "symcap.modelfile" not in found["library"]
    assert {"symcap.capacities", "symcap.spectra"} <= set(found["library"])
    assert found["submodule"] is True
    assert found["wrong"] == []
    assert found["star"] == sorted(found["all"]) == found["all"]
    assert found["dir"] == []
    # the command still runs end to end in a fresh process, cache code and all
    argv = ["capacity", "--family", "ech", "--domain", "E:1,2", "--k", "1..8"]
    for extra in (["--no-cache"], []):
        proc = subprocess.run(
            [sys.executable, "-m", "symcap.cli", *argv, *extra],
            env=env, capture_output=True, text=True, check=True,
        )
        assert (proc.stdout, proc.stderr) == ("1,2,2,3,3,4,4,4\n", "")
    assert len(list(tmp_path.rglob("*.csv"))) == 1
