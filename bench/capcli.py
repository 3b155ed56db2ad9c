"""``cli``: ``cap`` invocations, one at a time, through ``symcap.cli.main``.

Each measured invocation calls ``symcap.cli.main(argv)`` in the benchmark
process with stdout captured, exactly as the ``cap`` script does after
start-up.  Start-up is measured separately, in fresh interpreters:
``setup_s`` is one ``cap --version`` against a fresh cache directory,
normalized by ``probe.py``; ``startup_s`` is the raw latency of
``python -m symcap.cli --version``; and the traced ``cli.import_s`` times
the import.  Timing each invocation in its own
interpreter was tried first and dropped: on a shared host the cost of
starting a process drifts in a way no calibration tracked (the spread of
run medians reached 0.2 to 0.34), while the in-process timing follows the
``Fraction`` calibration of ``harness.py``.

The run repeats a cycle: a fresh, empty ``SYMCAP_CACHE_DIR``; a *cold* pass
over every invocation, in which every capacity table misses the cache and
writes a CSV and a manifest; then a *warm* pass over the same invocations,
in which every table is a cache hit.  Writes sit beside reads, so a change
that speeds misses but slows hits shows.  The cache directory lives under
the checkout's ``.bench_tmp/`` and is deleted after each cycle: the cache
key carries no source digest, so a shared cache would serve one commit's
tables to another.

Every answer is checked against an oracle that does not use ``symcap``: the
README's outputs, the closed forms and integer brute force of
``oracles.py``, and, across the two passes of a cycle, identical stdout and
identical cache bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import boundaries
import oracles
from harness import CHILD_TIMEOUT_S, Recorder, ScratchDir, clock, end_to_end, run_passes, setup_burst, traced_run
from spans import Tracer

SEED_SLOT = "{gw-seed}"  # replaced by the run's seed for ``gw --seed``
REFERENCE_GW_SEED = 0  # gw results must not depend on --seed: compared with this one
SEED_INVARIANT = ("gw reduce d=5", "gw reduce d=6")
IMPORT_PROBES = 5


@dataclass(frozen=True)
class Outcome:
    returncode: int
    stdout: str


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple
    check: Callable[[str], bool]
    rc: int = 0
    table: bool = False  # a capacity table that goes through the cache


def _exactly(text: str) -> Callable[[str], bool]:
    return lambda out: out == text + "\n"


def _cells(values) -> Callable[[str], bool]:
    return _exactly(",".join(oracles.fmt(v) for v in values))


_TERM = re.compile(r"^(-?\d+(?:/\d+)?) \* CP2 d=(\d+) <(.*)>$")


def parse_result_line(out: str, degree: int) -> Optional[list[tuple[Fraction, tuple]]]:
    """Terms of ``gw reduce``'s ``result:`` line, or None unless every term is
    an order-zero CP2 term of this degree with 3d-1 points."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("result: "):
        return None
    terms = []
    for chunk in lines[-1][len("result: "):].split("  +  "):
        m = _TERM.match(chunk)
        if m is None or int(m.group(2)) != degree:
            return None
        groups = re.findall(r"\(([^()]*)\)", m.group(3))
        if any(p != "p" for g in groups for p in g.split(",")):
            return None  # a positive order survived the reduction
        sizes = tuple(sorted((len(g.split(",")) for g in groups), reverse=True))
        if sum(sizes) != 3 * degree - 1:
            return None
        terms.append((Fraction(m.group(1)), sizes))
    return terms


def load_base_table(path: Path) -> dict[tuple, Fraction]:
    table = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        surface, cls, sizes, value, _ = (f.strip() for f in line.split("|"))
        if surface == "CP2":
            key = (int(cls), tuple(sorted((int(s) for s in sizes.split(",")), reverse=True)))
            table[key] = Fraction(value)
    return table


def invocations(root: Path) -> list[Invocation]:
    """Every invocation with its oracle; ``gw`` commands carry SEED_SLOT."""
    version = re.search(
        r'^version = "([^"]+)"', (root / "pyproject.toml").read_text(), re.M
    ).group(1)
    base = load_base_table(root / "fixtures" / "base.tbl")

    def reduced(degree: int, want: Optional[int]) -> Callable[[str], bool]:
        def check(out: str) -> bool:
            terms = parse_result_line(out, degree)
            if terms is None:
                return False
            if want is None:
                return True
            return sum(c * base[(degree, s)] for c, s in terms) == want

        return check

    one, x = Fraction(1), Fraction(13, 2)
    ech_e12 = oracles.ech_values(1, 2, 2001)
    ech_b2 = oracles.ech_values(2, 2, 2001)
    first = next((k for k in range(1, 2001) if ech_e12[k] > ech_b2[k]), None)
    bound, witness = oracles.stabilized_ball_bound(x)
    seed = ("--seed", SEED_SLOT)
    table = "fixtures/base.tbl"
    return [
        Invocation("version", ("--version",), _exactly(f"cap {version}")),
        # the README examples, with the outputs the README prints
        Invocation("readme ech", ("capacity", "--family", "ech", "--domain", "E:1,2", "--k", "1..8"),
                   _exactly("1,2,2,3,3,4,4,4"), table=True),
        Invocation("readme eh", ("capacity", "--family", "eh", "--domain", "E:1.5,1.5", "--k", "2"),
                   _exactly("3/2"), table=True),
        Invocation("readme g-tangency", ("capacity", "--family", "g-tangency", "--domain", "P:1,3", "--k", "5"),
                   _exactly("5"), table=True),
        Invocation("readme obstruct", ("obstruct", "--source", "E:1,2", "--target", "E:1.5,1.5"),
                   _exactly("obstructed at k=2: c_2(E(1,2)) = 2 > 3/2 = c_2(E(3/2,3/2))")),
        Invocation("readme stabilized", ("obstruct", "--source", "E:1,8", "--target", "B", "--stabilized"),
                   _exactly("bound 8/3, witness k=8")),
        Invocation("readme linf check", ("linf", "check", "fixtures/b2.model"), _exactly("pass")),
        Invocation("readme solve-gb", ("linf", "solve-gb", "fixtures/b2_lin.model", "--b", "t^3", "--l", "2",
                                       "--action-cutoff", "12"), _exactly("4")),
        Invocation("readme mc", ("linf", "mc", "fixtures/dgla.model", "--m", "x:1*T^1,y:1*T^1,w:1*T^2"),
                   _exactly("Maurer-Cartan: pass")),
        # fixtures/cdga_aug.model: the linearized differential of a is T^(1/2)*c - T^(1/2)*b
        Invocation("readme linearize", ("linf", "linearize", "fixtures/cdga_aug.model"),
                   lambda out: "algebra_mode = module" in out
                   and "1 | a | (-1*T^(1/2)) * (b) + (1*T^(1/2)) * (c)\n" in out),
        Invocation("readme gw reduce d=1", ("gw", "reduce", "CP2 d=1 <(T^1 p)>", *seed), reduced(1, 1)),
        Invocation("readme gw evaluate d=2", ("gw", "evaluate", "CP2 d=2 <(T^4 p)>", "--table", table, *seed),
                   _exactly("1")),
        # range tables against integer brute force and closed forms
        Invocation("eh E(1,13/2) 1..500", ("capacity", "--family", "eh", "--domain", "E:1,13/2", "--k", "1..500"),
                   _cells(oracles.eh_values((one, x), 500)), table=True),
        Invocation("ech E(1,13/2) 1..2000", ("capacity", "--family", "ech", "--domain", "E:1,13/2", "--k", "1..2000"),
                   _cells(oracles.ech_values(one, x, 2001)[1:]), table=True),
        Invocation("g-tangency P(1,3) 1..2000",
                   ("capacity", "--family", "g-tangency", "--domain", "P:1,3", "--k", "1..2000"),
                   _cells(oracles.g_polydisk(one, Fraction(3), k) for k in range(1, 2001)), table=True),
        Invocation("r-points B(2) 1..2000", ("capacity", "--family", "r-points", "--domain", "B:2", "--k", "1..2000"),
                   _cells(oracles.r_points(Fraction(2), r) for r in range(1, 2001)), table=True),
        Invocation("obstruct K=2000", ("obstruct", "--source", "E:1,2", "--target", "B:2", "--K", "2000"),
                   _exactly("no obstruction below K=2000") if first is None
                   else lambda out: out.startswith(f"obstructed at k={first}:")),
        Invocation("stabilized E(1,13/2)", ("obstruct", "--source", "E:1,13/2", "--target", "B", "--stabilized"),
                   _exactly(f"bound {oracles.fmt(bound)}, witness k={witness}")),
        Invocation("linf check --l 4", ("linf", "check", "fixtures/b2.model", "--l", "4"), _exactly("pass")),
        Invocation("gw reduce d=2", ("gw", "reduce", "CP2 d=2 <(T^4 p)>", *seed), reduced(2, 1)),
        Invocation("gw reduce d=5", ("gw", "reduce", "CP2 d=5 <(T^13 p)>", *seed), reduced(5, None)),
        Invocation("gw reduce d=6", ("gw", "reduce", "CP2 d=6 <(T^16 p)>", *seed), reduced(6, None)),
        # base.tbl has no rows for d >= 3, so evaluation is infeasible: exit 2
        Invocation("gw evaluate d=6", ("gw", "evaluate", "CP2 d=6 <(T^16 p)>", "--table", table, *seed),
                   lambda out: out == "", rc=2),
    ]


# ---------------------------------------------------------------------------


def _snapshot(cache: Path) -> dict[str, bytes]:
    if not cache.exists():
        return {}
    return {
        str(p.relative_to(cache)): p.read_bytes() for p in sorted(cache.rglob("*")) if p.is_file()
    }


def with_seed(invs: list[Invocation], gw_seed: int) -> list[Invocation]:
    return [
        dataclasses.replace(inv, argv=tuple(str(gw_seed) if a == SEED_SLOT else a for a in inv.argv))
        for inv in invs
    ]


class CliRun:
    """State of one ``cli`` run: the cache directories, the environment it
    changes and what the invocations printed."""

    def __init__(self, root: Path, seed: int) -> None:
        import symcap.cli

        self.cli = symcap.cli
        self.root = root
        self.seed = seed
        self.tracer: Optional[Tracer] = None
        self.scratch = ScratchDir(root, "cli-")
        self.tmp = self.scratch.path
        self.recorder = Recorder()
        self.startups: list[float] = []  # raw ``cap --version`` latencies
        catalogue = invocations(root)
        self.catalogue = with_seed(catalogue, seed)
        self._saved_env = {k: os.environ.get(k) for k in ("SYMCAP_CACHE_DIR", "XDG_CACHE_HOME")}
        # never read while SYMCAP_CACHE_DIR is set; a guard against fallbacks
        os.environ["XDG_CACHE_HOME"] = str(self.tmp / "xdg")
        os.environ["SYMCAP_CACHE_DIR"] = str(self.tmp / "reference")
        self.reference = {
            inv.label: self.execute(inv.argv).stdout
            for inv in with_seed(catalogue, REFERENCE_GW_SEED)
            if inv.label in SEED_INVARIANT
        }

    def trace(self, tracer: Tracer) -> None:
        """Record spans and counts into ``tracer`` from now on."""
        self.tracer = tracer
        self.recorder = Recorder(tracer)

    def close(self) -> None:
        for key, value in self._saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        self.scratch.close()

    def execute(self, argv) -> Outcome:
        """``cap ARGV`` in this process, as the console script runs it."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:  # --version exits through argparse
                rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return Outcome(rc, out.getvalue())

    def setup_once(self) -> float:
        """One ``cap --version`` against a fresh cache directory, in a fresh
        interpreter, normalized (``probe.py``)."""
        cache = Path(tempfile.mkdtemp(prefix="setup-", dir=self.tmp))
        try:
            return self.scratch.probe("cli", self.seed, SYMCAP_CACHE_DIR=str(cache))
        finally:
            shutil.rmtree(cache)

    def startup_once(self) -> None:
        """Time one ``python -m symcap.cli --version`` as a user sees it:
        raw, interpreter start-up included."""
        cache = Path(tempfile.mkdtemp(prefix="startup-", dir=self.tmp))
        start = clock()
        subprocess.run(
            [sys.executable, "-m", "symcap.cli", "--version"], cwd=self.root,
            env=self.scratch.child_env(SYMCAP_CACHE_DIR=str(cache)), capture_output=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        self.startups.append(clock() - start)
        shutil.rmtree(cache)

    def import_s(self) -> float:
        """Median time of ``import symcap.cli`` in a fresh interpreter."""
        code = "import time; t = time.perf_counter(); import symcap.cli; print(time.perf_counter() - t)"
        times = []
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run(
                [sys.executable, "-c", code], cwd=self.root,
                env=self.scratch.child_env(SYMCAP_CACHE_DIR=str(self.tmp / "probe")),
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
            )
            times.append(float(proc.stdout))
        return statistics.median(times)

    def query(self, inv: Invocation, cache: Path, seen: dict) -> Optional[Outcome]:
        """One timed, checked invocation; in a traced run, also what it did
        to the cache."""
        watch = inv.table and self.tracer is not None
        before = _snapshot(cache) if watch else None
        outcome = self.recorder(
            inv.label,
            lambda: self.execute(inv.argv),
            lambda o: o.returncode == inv.rc and inv.check(o.stdout),
        )
        if watch:
            counts = self.tracer.counts
            after = _snapshot(cache)
            written = {k: v for k, v in after.items() if before.get(k) != v}
            if written:
                counts["cli.cache_misses"] += 1
                counts["cli.cache_write_bytes"] += sum(len(v) for v in written.values())
                for name, data in written.items():
                    if name.endswith(".csv"):
                        seen[inv.label] = name
                        counts["cli.rows_computed"] += data.count(b"\n") - 1
            else:
                counts["cli.cache_hits"] += 1
                counts["cli.cache_read_bytes"] += len(after.get(seen.get(inv.label, ""), b""))
        return outcome

    def cycle(self, number: int) -> tuple[tuple[float, float], tuple[float, float]]:
        """Cold pass then warm pass against one fresh cache directory;
        returns the (normalized, raw) wall time of each."""
        cache = self.tmp / f"cache-{number}"
        os.environ["SYMCAP_CACHE_DIR"] = str(cache)
        order = list(self.catalogue)
        random.Random(f"cli:{self.seed}:{number}").shuffle(order)
        seen: dict[str, str] = {}
        walls, outputs, caches = [], [], []
        for _ in ("cold", "warm"):
            out = {inv.label: self.query(inv, cache, seen) for inv in order}
            walls.append(self.recorder.end_pass())
            outputs.append({k: (o.stdout if o is not None else None) for k, o in out.items()})
            caches.append(hashlib.sha256(repr(sorted(_snapshot(cache).items())).encode()).hexdigest())
        shutil.rmtree(cache, ignore_errors=True)
        for inv in order:
            self.recorder.verify(f"{inv.label} warm == cold", outputs[0][inv.label] == outputs[1][inv.label])
        self.recorder.verify("cache bytes warm == cold", caches[0] == caches[1])
        for label in SEED_INVARIANT:
            result_line = (outputs[0][label] or "").rstrip("\n").rsplit("\n", 1)[-1]
            want = self.reference[label].rstrip("\n").rsplit("\n", 1)[-1]
            self.recorder.verify(f"{label} same as with --seed {REFERENCE_GW_SEED}", result_line == want)
        return walls[0], walls[1]


def run(root: Path, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result, extra): the contract result and the extra figures."""
    if trace:
        return _run_traced(root, seed, seconds)
    state = CliRun(root, seed)
    try:
        setups: list[float] = []
        cycles = []

        def one_cycle(i: int) -> float:
            setup_burst(state.setup_once, setups)
            state.startup_once()
            cycles.append(state.cycle(i))
            return cycles[-1][0][0] + cycles[-1][1][0]

        walls = run_passes(seconds, one_cycle)
    finally:
        state.close()
    res, extra = end_to_end(
        state.recorder,
        statistics.median(setups),
        walls,
        statistics.median(cold[0] for cold, _ in cycles),
        statistics.median(warm[0] for _, warm in cycles),
    )
    extra["raw_pass_s"] = [(cold[1], warm[1]) for cold, warm in cycles]
    extra["startup_s"] = statistics.median(state.startups)
    return res, extra


def _run_traced(root: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    """``harness.traced_run`` with a cold-plus-warm cycle as the pass."""
    plain_state = CliRun(root, seed)
    plain_state.recorder.host.enabled = False
    state = CliRun(root, seed)
    try:
        import_s = plain_state.import_s()

        def plain() -> tuple[float, Recorder]:
            cold, warm = plain_state.cycle(0)
            return cold[1] + warm[1], plain_state.recorder

        def instrument(tracer: Tracer):
            state.trace(tracer)
            boundaries.install_cli(tracer)
            return lambda i: sum(raw for _, raw in state.cycle(i)), state.recorder

        return traced_run(seconds, plain, instrument, {"cli.import_s": import_s})
    finally:
        state.close()  # the reverse of opening: each puts back the environment it found
        plain_state.close()
