"""The ``cap`` command line tool.  Each call builds only the parsers on the
path it runs: the command's and, under ``linf`` and ``gw``, the
subcommand's.  Siblings are built only where they are listed: for help,
``--version`` and a bad or missing name.
Standard-library modules that only one command uses (``hashlib``, ``json``
and ``tempfile`` for the capacity cache, ``random`` for ``gw --seed``) are
imported inside that command.  The symcap names stay bound at module level,
where a traced benchmark run wraps them.

Subcommands
-----------

``cap capacity``
    Capacity tables for a domain: ``--family`` one of ``eh`` (``gh`` is an
    alias), ``ech``, ``g-tangency``, ``r-points``; ``--domain`` like
    ``E:1,2``, ``P:1,3``, ``B`` or ``B:2`` (``E:1,inf`` and ellipsoids with
    more than two axes are accepted for the eh family only); ``--k`` a
    single index or an ``a..b`` range up to ``MAX_INDEX`` (10**6), which
    also bounds ``obstruct --K``.  Range entries are computed in one
    pass and emitted in ascending order.  The CSV table is cached under a
    content key of the parameters and a digest of the package sources (one
    file per command kind and key, next to its manifest);
    ``--no-cache`` bypasses the cache and the ``SYMCAP_CACHE_DIR``
    environment variable overrides the cache root.

``cap obstruct``
    Embedding obstructions: with ``--stabilized``, the best closed-form
    lower bound on the scaling factor for the stabilized problem, whose
    ``--target`` is a ball ``B[:c]`` or a cube ``P:c,c``; without it, a
    four-dimensional capacity-sequence comparison up to ``--K``.

``cap linf``
    Model-file operations: ``check``, ``linearize``, ``mc``, ``solve-gb``.
    ``linearize`` and ``solve-gb`` use the augmentation named by ``--aug``,
    which may be left out when the model has exactly one; an unknown name,
    or a left-out name on a model without exactly one, is a usage error.
    So are an unknown generator in ``mc --m``, a word length cap ``--l``
    below 1 or past ``linfty.MAX_WORDS`` words (``solve-gb``: past
    ``capacities.MAX_GB_WORDS``), a negative ``solve-gb --action-cutoff``
    and an ``mc --max-terms`` below 1.

``cap gw``
    The tangency rewriting calculus: ``reduce`` prints the step-by-step
    expansion, ``evaluate`` reduces and evaluates against ``--table``.  An
    ``evaluate`` expression without a surface and class is a usage error:
    no table row could match it.

Machine-readable output (CSV cells, solver levels, evaluated counts) uses
exact rationals; decimal renderings only appear in human-facing summaries
and in the CSV's ``decimal`` column, which refuses a value outside the
float range.

Exit codes: 0 success, 1 usage error, 2 infeasible / not found below the
configured cutoff, 3 integrity failure (a model or table violating its
contract).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, gw
from .capacities import (
    NO_FORMULA,
    NO_OBSTRUCTION,
    NOT_FOUND,
    DomainDescriptor,
    ech_lattice,
    ech_sequence,
    eh_lattice,
    g_tangency_lattice,
    gb_solver,
    obstruct_4d_ellipsoid,
    r_points_lattice,
    stabilized_obstruction,
)
from .linfty import (
    IntegrityError,
    MaurerCartanElement,
    ModelError,
    check_linfty_relations,
    linearize,
    mc_check,
)
from .modelfile import load_model, print_model
from .novikov import INF, fmt_rational, parse_novikov, parse_rational
from .words import Word, mono_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTEGRITY = 3

# the largest capacity index ``--k`` and ``--K`` may ask for: the lattices
# enumerate every index up to it, so time and memory grow with it
MAX_INDEX = 10**6


class CliUsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# shared plumbing


def cache_root() -> Path:
    env = os.environ.get("SYMCAP_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "symcap"


@functools.cache
def source_digest(package: Path = Path(__file__).parent) -> str:
    """sha256 of the package's module sources, part of every cache key.

    A code change without a version bump thus misses tables computed by
    other code.  Computed on the first cache lookup, not at import.
    """
    import hashlib

    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_k_range(text: str) -> list[int]:
    lo_text, _, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if ".." in text else lo
    except ValueError:
        raise CliUsageError(f"bad index range {text!r}") from None
    if lo < 1 or hi < lo:
        raise CliUsageError(f"bad index range {text!r}")
    if hi > MAX_INDEX:
        raise CliUsageError(f"indices above {MAX_INDEX} are not computed")
    return list(range(lo, hi + 1))


def rational(text: str) -> Fraction:
    """A command-line number: ``13/2`` through ``parse_rational``, which
    refuses a zero denominator, or a decimal such as ``1.5``.

    As an argparse ``type`` its name reads "invalid rational value"."""
    return parse_rational(text) if "/" in text else Fraction(text)


def _parse_axis(text: str):
    if text.strip().lower() in ("inf", "infinity"):
        return INF
    value = rational(text)
    if value <= 0:
        raise CliUsageError("domain parameters must be positive")
    return value


def _parse_domain(text: str) -> tuple[str, tuple]:
    """``E:1,2`` / ``P:2,3`` / ``B`` / ``B:2`` -> (kind, sorted axes)."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().upper()
    try:
        if kind == "B":
            scale = rational(rest) if rest else Fraction(1)
            if scale <= 0:
                raise CliUsageError("domain parameters must be positive")
            return "ball", (scale,)
        if kind in ("E", "P"):
            axes = tuple(sorted(_parse_axis(x) for x in rest.split(",")))
            if len(axes) < 2:
                raise CliUsageError(f"{kind} needs at least two parameters")
            name = "ellipsoid" if kind == "E" else "polydisk"
            return name, axes
    except ValueError as exc:
        raise CliUsageError(f"cannot parse domain {text!r}: {exc}") from None
    raise CliUsageError(f"unknown domain {text!r} (use E:a,b / P:a,b / B[:c])")


def _descriptor(kind: str, axes: tuple) -> DomainDescriptor:
    if any(x == INF for x in axes):
        raise CliUsageError(
            "infinite factors are supported only in the eh family"
        )
    return DomainDescriptor(kind, axes)


def _domain_text(kind: str, axes: tuple) -> str:
    prefix = {"ball": "B", "ellipsoid": "E", "polydisk": "P"}[kind]
    return prefix + ":" + ",".join(
        "inf" if x == INF else fmt_rational(x) for x in axes
    )


# ---------------------------------------------------------------------------
# cap capacity


def _capacity_values(family: str, kind: str, axes: tuple, ks: list[int]) -> tuple:
    """The values at the contiguous indices ``ks``, in order, as the family's
    integer lattice: ``(values, scale)``, each value an int in units of
    1/scale or a sentinel string."""
    if family == "eh":
        if kind == "polydisk":
            raise CliUsageError(
                "the eh family has closed forms for ellipsoids and balls only"
            )
        seq_axes = axes * 2 if kind == "ball" else axes
        values, scale = eh_lattice(seq_axes, ks[-1])
        return values[ks[0] - 1 :], scale
    if family == "ech":
        if kind == "polydisk":
            raise CliUsageError("the ech family covers ellipsoids and balls")
        a, b = (_descriptor(kind, axes).params * 2)[:2]
        values, scale = ech_lattice(a, b, ks[-1])
        return values[ks[0] :], scale
    if family == "g-tangency":
        return g_tangency_lattice(_descriptor(kind, axes), ks)
    # r-points: argparse admits no other family
    if kind != "ball":
        raise CliUsageError("the r-points family is a ball invariant")
    return r_points_lattice(axes[0], ks)


def _capacity_csv(family: str, kind: str, axes: tuple, ks: list[int]) -> bytes:
    """The ``k,exact,decimal`` table; a string value (no formula, not found)
    is its own exact cell and leaves the decimal cell empty.

    The values come as integers over one scale and repeat in runs, so each
    run is formatted once: the exact cell is the reduced ``n/d`` (or ``n``),
    and the decimal cell divides the two ints, which rounds correctly and so
    equals ``float`` of the ``Fraction``; a value outside the float range
    (too large, or nonzero but rounding to 0.0) is refused.  No cell needs
    CSV quoting."""
    values, scale = _capacity_values(family, kind, axes, ks)
    rows = ["k,exact,decimal\n"]
    last = cells = None
    for k, value in zip(ks, values, strict=True):
        if isinstance(value, str):
            rows.append(f"{k},{value},\n")
            continue
        if value != last:
            g = math.gcd(value, scale)
            n, d = value // g, scale // g
            exact = f"{n}/{d}" if d != 1 else str(n)
            try:
                decimal = value / scale
            except OverflowError:
                raise CliUsageError(
                    f"c_{k} is too large for the decimal column"
                ) from None
            if value and not decimal:
                raise CliUsageError(
                    f"c_{k} is too small for the decimal column"
                )
            last, cells = value, f",{exact},{decimal:.6g}\n"
        rows.append(f"{k}{cells}")
    return "".join(rows).encode("utf-8")


def cmd_capacity(args) -> int:
    import hashlib
    import json

    family = "eh" if args.family == "gh" else args.family
    kind, axes = _parse_domain(args.domain)
    ks = _parse_k_range(args.k)
    parameters = {
        "domain": _domain_text(kind, axes),
        "family": family,
        "k": [ks[0], ks[-1]],
    }
    key = hashlib.sha256(
        json.dumps(parameters, sort_keys=True).encode("utf-8")
        + source_digest().encode("utf-8")
    ).hexdigest()
    table_path = cache_root() / "capacity" / f"{key}.csv"
    cached = not args.no_cache and table_path.exists()
    data = table_path.read_bytes() if cached else _capacity_csv(family, kind, axes, ks)
    store = not cached and not args.no_cache
    if store or args.manifest:
        # the reproducibility record: no timestamps, so identical runs collide
        manifest = {
            "command": "capacity",
            "parameters": parameters,
            "version": __version__,
            "outputs": {table_path.name: hashlib.sha256(data).hexdigest()},
        }
        manifest_bytes = json.dumps(manifest, sort_keys=True, indent=2).encode() + b"\n"
    if store:
        _atomic_write(table_path, data)
        _atomic_write(table_path.with_suffix(".manifest.json"), manifest_bytes)
    if args.output:
        _atomic_write(Path(args.output), data)
    if args.manifest:
        _atomic_write(Path(args.manifest), manifest_bytes)
    cells = [line.split(",")[1] for line in data.decode().splitlines()[1:]]
    if len(cells) == 1 and cells[0] in (NO_FORMULA, NOT_FOUND):
        print(cells[0])
        return EXIT_INFEASIBLE
    print(",".join(cells))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cap obstruct


def _stabilized_target(text: str) -> tuple[str, Fraction]:
    """``B[:c]`` / ``P`` / ``P:c,c`` -> (target family, scale c)."""
    if text.strip().upper() == "P":
        return "polydisk", Fraction(1)
    kind, axes = _parse_domain(text)
    if kind == "ball":
        return kind, axes[0]
    if kind == "polydisk" and len(axes) == 2 and axes[0] == axes[1] != INF:
        return kind, axes[0]
    raise CliUsageError(f"a stabilized target is B[:c] or P:c,c, not {text!r}")


def cmd_obstruct(args) -> int:
    src_kind, src_axes = _parse_domain(args.source)
    source = _descriptor(src_kind, src_axes)
    if args.stabilized:
        family, scale = _stabilized_target(args.target)
        bound, witness = stabilized_obstruction(source, family)
        # capacities scale like area, so the bound for c*target is bound/c
        print(f"bound {fmt_rational(bound / scale)}, witness k={witness}")
        return EXIT_OK
    tgt_kind, tgt_axes = _parse_domain(args.target)
    target = _descriptor(tgt_kind, tgt_axes)
    for dom in (source, target):
        if dom.kind == "polydisk":
            raise CliUsageError(
                "the four-dimensional comparison uses ellipsoid/ball sequences"
            )
    if args.K > MAX_INDEX:
        raise CliUsageError(f"indices above {MAX_INDEX} are not computed")
    a, b = (source.params * 2)[:2]
    c, d = (target.params * 2)[:2]
    verdict = obstruct_4d_ellipsoid(a, b, c, d, args.K)
    if verdict == NO_OBSTRUCTION:
        print(f"no obstruction below K={args.K}")
        return EXIT_OK
    k = verdict
    cs = ech_sequence(a, b, k)[k]
    ct = ech_sequence(c, d, k)[k]
    print(
        f"obstructed at k={k}: c_{k}({source}) = {fmt_rational(cs)} > "
        f"{fmt_rational(ct)} = c_{k}({target})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# cap linf


def _word_text(word) -> str:
    # cdga letters are monomials
    names = [mono_text(l) if isinstance(l, Word) else l.name for l in word]
    return "(" + ",".join(names) + ")"


def cmd_linf(args) -> int:
    if args.linf_cmd in ("check", "solve-gb") and args.l < 1:
        raise CliUsageError("--l must be >= 1")
    if (
        args.linf_cmd == "solve-gb"
        and args.action_cutoff is not None
        and args.action_cutoff < 0
    ):
        # actions are >= 0, so no level lies below a negative cutoff
        raise CliUsageError("--action-cutoff must be >= 0")
    if args.linf_cmd == "mc" and args.max_terms is not None and args.max_terms < 1:
        raise CliUsageError("--max-terms must be >= 1")
    model = load_model(args.model)
    if args.linf_cmd in ("linearize", "solve-gb"):
        try:
            eps = model.augmentation(args.aug)
        except ModelError as exc:
            raise CliUsageError(str(exc)) from None
    if args.linf_cmd == "check":
        violations = check_linfty_relations(model, args.l)
        if not violations:
            print("pass")
            return EXIT_OK
        word, residual = violations[0]
        print(
            f"fail: {len(violations)} violated relations up to word length "
            f"{args.l}; first at word {_word_text(word)}",
            file=sys.stderr,
        )
        for u in sorted(residual, key=lambda w: w.sort_key):
            print(f"  residual {_word_text(u)}: {residual[u]}", file=sys.stderr)
        return EXIT_INTEGRITY
    if args.linf_cmd == "solve-gb":
        b = _parse_t_word(args.b)
        cutoff = args.action_cutoff
        if cutoff is None:
            top = max(g.action for g in model.ordered_generators)
            cutoff = top * args.l
        level = gb_solver(model, b, args.l, cutoff, augmentation=eps.name)
        if level == NOT_FOUND:
            print(
                f"{NOT_FOUND} (word cap {args.l}, action cutoff "
                f"{fmt_rational(cutoff)})"
            )
            return EXIT_INFEASIBLE
        print(fmt_rational(level))
        return EXIT_OK
    if args.linf_cmd == "mc":
        element = _parse_mc_element(model, args.m)
        ok, residual = mc_check(
            model, element, max_terms=args.max_terms
        )
        if ok:
            print("Maurer-Cartan: pass")
            return EXIT_OK
        worst = min(residual, key=lambda w: w.sort_key)
        print(
            f"Maurer-Cartan: fail; residual at {_word_text(worst)} is "
            f"{residual[worst]}"
        )
        return EXIT_INFEASIBLE
    # linearize, the one subcommand left
    _, linearized = linearize(model, eps)
    text = print_model(linearized)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def _parse_t_word(text: str) -> tuple[int, ...]:
    powers = []
    for chunk in text.replace("⊙", "*").split("*"):
        chunk = chunk.strip()
        if chunk == "t":
            powers.append(1)
            continue
        digits = chunk[2:] if chunk.startswith("t^") else ""
        try:
            powers.append(int(digits))
        except ValueError:
            raise CliUsageError(
                f"cannot parse {text!r}: expected t-powers like t^0*t^3"
            ) from None
    if any(p < 0 for p in powers):
        raise CliUsageError("t-powers must be nonnegative")
    return tuple(sorted(powers))


def _parse_mc_element(model, text: str) -> MaurerCartanElement:
    value = {}
    for pair in text.split(","):
        name, sep, coeff_text = pair.partition(":")
        if not sep:
            raise CliUsageError(
                f"cannot parse {pair!r}: expected generator:coefficient"
            )
        try:
            g = model.gen(name.strip())
        except ModelError as exc:
            raise CliUsageError(str(exc)) from None
        value[g] = parse_novikov(coeff_text.strip(), model.cutoff)
    return MaurerCartanElement(model, value)


# ---------------------------------------------------------------------------
# cap gw


def cmd_gw(args) -> int:
    import random

    expr = gw.parse_constraint_expression(args.expression)
    if args.gw_cmd == "evaluate" and any(surface is None for surface, _, _ in expr):
        # table rows are keyed by surface and class: nothing could match
        raise CliUsageError("evaluate needs a surface and class")
    table = gw.load_table(args.table) if args.table else gw.BaseInvariantTable({})
    rng = random.Random(args.seed) if args.seed is not None else None
    if args.gw_cmd == "reduce":
        trace: list = []
        reduced = gw.reduce_combination(expr, rng=rng, trace=trace)
        # a term recurs in many expansions, and the trace shares few
        # distinct coefficients: each is formatted once, by id and by pair
        names = gw.term_names(trace[0][0]) if trace else []
        prefixes: dict = {}
        lines = []
        for _, i, den, edges in trace:
            lines.append(f"{names[i]} ->")
            for j, c in edges:
                prefix = prefixes.get((c, den))
                if prefix is None:
                    prefix = prefixes[c, den] = f"    {Fraction(c, den)} * "
                lines.append(prefix + names[j])
        lines.append(f"result: {gw.format_combination(reduced)}\n")
        sys.stdout.write("\n".join(lines))
        return EXIT_OK
    reduced = gw.reduce_combination(expr, rng=rng)
    try:
        value = gw.evaluate(reduced, table)
    except KeyError as exc:
        print(f"cap: {exc.args[0]}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(fmt_rational(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2; remap usage errors to 1
        raise CliUsageError(message)


def _named(names, argv: Sequence[str]):
    """The names whose parsers are built: the one ``argv[0]`` names, or all
    of them when it names none, so that help and errors list every one."""
    return (argv[0],) if argv and argv[0] in names else names


def _configure_capacity(cap: _Parser, argv: Sequence[str]) -> None:
    cap.add_argument(
        "--family",
        required=True,
        choices=["eh", "gh", "ech", "g-tangency", "r-points"],
    )
    cap.add_argument("--domain", required=True, help="E:a,b / P:a,b / B[:c]")
    cap.add_argument("--k", required=True, help="index or range a..b")
    cap.add_argument("--output", "-o", help="also write the CSV table here")
    cap.add_argument("--manifest", help="write the run manifest JSON here")
    cap.add_argument("--no-cache", action="store_true")
    cap.set_defaults(func=cmd_capacity)


def _configure_obstruct(obs: _Parser, argv: Sequence[str]) -> None:
    obs.add_argument("--source", required=True)
    obs.add_argument("--target", required=True)
    obs.add_argument(
        "--stabilized",
        action="store_true",
        help="closed-form bound for the stabilized problem (target B[:c] or P:c,c)",
    )
    obs.add_argument("--K", type=int, default=100, help="comparison depth")
    obs.set_defaults(func=cmd_obstruct)


def _configure_linf(linf: _Parser, argv: Sequence[str]) -> None:
    linf_sub = linf.add_subparsers(dest="linf_cmd", required=True)
    for name in _named(("check", "linearize", "mc", "solve-gb"), argv):
        p = linf_sub.add_parser(name)
        p.add_argument("model")
        p.set_defaults(func=cmd_linf)
        if name == "check":
            p.add_argument("--l", type=int, default=3, help="word length cap")
        elif name == "linearize":
            p.add_argument("--aug", help="augmentation name")
            p.add_argument("--output", "-o")
        elif name == "mc":
            p.add_argument(
                "--m", required=True, help="element, e.g. x:1*T^1,y:1*T^1"
            )
            p.add_argument("--max-terms", type=int, default=None)
        else:
            p.add_argument("--b", required=True, help="t-power word, e.g. t^3")
            p.add_argument("--l", type=int, default=3, help="word length cap")
            p.add_argument("--aug", default=None, help="augmentation name")
            p.add_argument(
                "--action-cutoff",
                type=rational,
                default=None,
                help="search levels up to this action",
            )


def _configure_gw(gwp: _Parser, argv: Sequence[str]) -> None:
    gw_sub = gwp.add_subparsers(dest="gw_cmd", required=True)
    for name in _named(("reduce", "evaluate"), argv):
        p = gw_sub.add_parser(name)
        p.add_argument("expression", help='e.g. "CP2 d=2 <(T^4 p)>"')
        p.add_argument("--table", help="base invariant table file")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=cmd_gw)


# each command's help line and configure(parser, argv after the command)
COMMANDS = {
    "capacity": ("capacity tables for a domain", _configure_capacity),
    "obstruct": ("embedding obstructions", _configure_obstruct),
    "linf": ("model-file operations", _configure_linf),
    "gw": ("tangency rewriting calculus", _configure_gw),
}


def build_parser(argv: Sequence[str]) -> _Parser:
    """The ``cap`` parser for one call.  The root takes no option with a
    value, so its first argument not starting with ``-`` names the command,
    and only that command gets its arguments.  Siblings, of the command and
    of a ``linf`` or ``gw`` subcommand, are built only when the word in their
    place names none of them: help, ``--version`` and errors list them all."""
    parser = _Parser(
        prog="cap",
        description="Symplectic capacity tables and embedding obstructions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    command = None if at is None else argv[at]
    for name in _named(COMMANDS, argv):
        help_text, configure = COMMANDS[name]
        command_parser = sub.add_parser(name, help=help_text)
        if name == command:
            configure(command_parser, argv[at + 1 :])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ModelError, IntegrityError) as exc:  # a ModelError is a ValueError
        print(f"cap: integrity: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (CliUsageError, OSError, ValueError) as exc:
        print(f"cap: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
