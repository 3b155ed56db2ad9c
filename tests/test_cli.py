"""End-to-end tests for the ``cap`` command line tool."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from symcap import cli
from symcap.cli import main


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


def test_check_locates_broken_relation(capsys, fixtures_dir):
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


def test_bad_numbers_in_a_model_file_exit_three(capsys, tmp_path):
    model = tmp_path / "bad.model"
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


def test_mc_rejects_valuation_zero(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "linf", "mc", str(fixtures_dir / "dgla.model"), "--m", "x:1"
    )
    assert code == 3
    assert err.startswith("cap: integrity:")


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
        if "t^3,t^4" in argv:
            assert err == (
                "cap: error: cannot parse 't^3,t^4': expected t-powers like t^0*t^3\n"
            ), argv
    capacity = ["capacity", "--family"]
    mc = ["linf", "mc", str(fixtures_dir / "dgla.model"), "--m", "x:1*T^1,y:1*T^1"]
    three_axes = "ellipsoid needs 2 parameters, got 3"
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
    ]
    for argv, message in with_messages:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"cap: error: {message}\n"), argv


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
