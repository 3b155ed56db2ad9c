#!/usr/bin/env python3
"""The symcap benchmark.

Run from the root of a checkout; it measures that tree (``src`` is put on
the path, and ``cap`` runs as ``python -m symcap.cli``)::

    python3 bench/run.py --workload spectral --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --all                 # every workload, plain and traced
    python3 bench/run.py --workload engine --record runs.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

The last line of a run's stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
exit code is 0 when the run completed, whether or not every answer was
right; it is 2 when the directory is not a symcap checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

import capcli
import engine
import spectral
from harness import HostSpeed, Recorder, ScratchDir, end_to_end, run_passes, setup_burst, traced_run
from metrics import BETTER, BOUNDS, END_TO_END, PER_LAYER, UNITS
from spans import Tracer
from stats import pair_wins, quartiles, verdict

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("spectral", "engine", "cli")
IN_PROCESS = {"spectral": spectral, "engine": engine}
DEFAULT_SEED = 1
DEFAULT_SECONDS = 36


class NotACheckout(Exception):
    pass


def checkout_root() -> Path:
    root = Path.cwd()
    for need in ("src/symcap/__init__.py", "src/symcap/cli.py", "fixtures", "pyproject.toml"):
        if not (root / need).exists():
            raise NotACheckout(f"{root} is not a symcap checkout: {need} is missing")
    sys.path.insert(0, str(root / "src"))
    return root


def _check_origin(root: Path) -> None:
    origin = Path(sys.modules["symcap"].__file__).resolve()
    if root / "src" not in origin.parents:
        raise NotACheckout(f"imported symcap from {origin}, not from {root / 'src'}")


def pass_rng(workload: str, seed: int, number: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{number}")


# ---------------------------------------------------------------------------
# in-process workloads


def run_in_process(workload: str, root: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    mod = IN_PROCESS[workload]
    state = mod.build(mod.make_api(), root, seed)
    _check_origin(root)
    rec = Recorder()
    scratch = ScratchDir(root, f"{workload}-")
    setups: list[float] = []

    def one_pass(i: int) -> tuple[float, float]:
        setup_burst(lambda: scratch.probe(workload, seed), setups)
        mod.run_pass(state, pass_rng(workload, seed, i), rec)
        return rec.end_pass()

    try:
        passes = run_passes(seconds, one_pass)
    finally:
        scratch.close()
    walls = [norm for norm, _ in passes]
    warm = statistics.median(walls[1:] or walls)
    res, extra = end_to_end(rec, statistics.median(setups), walls, walls[0], warm)
    extra["raw_pass_s"] = [raw for _, raw in passes]
    return res, extra


def run_in_process_traced(workload: str, root: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    mod = IN_PROCESS[workload]
    api = mod.make_api()

    def plain() -> tuple[float, Recorder]:
        state = mod.build(api, root, seed)
        _check_origin(root)
        rec = Recorder(host=HostSpeed(enabled=False))
        mod.run_pass(state, pass_rng(workload, seed, 0), rec)
        return rec.end_pass()[1], rec

    def instrument(tracer: Tracer):
        mod.instrument(api, tracer)
        state = mod.build(api, root, seed)
        rec = Recorder(tracer)

        def one_pass(i: int) -> float:
            mod.run_pass(state, pass_rng(workload, seed, i), rec)
            return rec.end_pass()[1]

        return one_pass, rec

    return traced_run(seconds, plain, instrument)


# ---------------------------------------------------------------------------
# one run


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    root = checkout_root()
    if workload == "cli":
        result, extra = capcli.run(root, seed, seconds, trace)
    elif trace:
        result, extra = run_in_process_traced(workload, root, seed, seconds)
    else:
        result, extra = run_in_process(workload, root, seed, seconds)
    tracer = extra.pop("tracer", None)
    if tracer is not None:
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        extra["spans"] = len(tracer.start)
        tracer.dump(out / f"spans-{workload}.bin", {"workload": workload, "seed": seed})
    names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    result["metrics"] = {n: {"value": _number(result["metrics"][n]), "unit": UNITS[n]} for n in names}
    extra["fail_ratio"] = result["failed"] / result["attempted"]
    return result, extra


def _number(value: float):
    """Counts per pass are whole numbers whenever every pass did the same work."""
    return int(value) if float(value).is_integer() else float(value)


def print_report(workload: str, seed: int, trace: bool, result: dict, extra: dict) -> None:
    print(f"{workload} seed={seed} trace={int(trace)} passes={extra['passes']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        note = f"  (n={extra['queries']})" if name.startswith("query_p") else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':36s} {extra['fail_ratio']:.6g} ratio  ({result['failed']}/{result['attempted']})")
    if "startup_s" in extra:
        print(f"  {'startup_s':36s} {extra['startup_s']:.6g} s  (median cap --version)")


def record_line(workload: str, seed: int, seconds: float, trace: bool, result: dict, extra: dict) -> str:
    return json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "result": result, "extra": extra,
    }, sort_keys=True)


# ---------------------------------------------------------------------------
# comparing two result sets (choosing-metrics section 8)


def load_records(path: Path) -> dict[tuple[str, str], list[float]]:
    series: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            series.setdefault((rec["workload"], name), []).append(m["value"])
        for name in ("fail_ratio", "startup_s"):
            if not rec["trace"] and name in rec["extra"]:
                series.setdefault((rec["workload"], name), []).append(rec["extra"][name])
    return series


def compare(base_path: Path, change_path: Path) -> int:
    base, change = load_records(base_path), load_records(change_path)
    print(f"{'workload':9s} {'metric':36s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'wins':>9s}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        b, c = base[key], change[key]
        better = BETTER.get(name, "lower")
        unit = UNITS.get(name, "ratio")
        exact = unit in ("count", "bytes") or name == "fail_ratio"
        if name in BOUNDS or exact:
            v = verdict(b, c, better, None if exact else BOUNDS[name])
        else:
            v = "trace only"  # per-layer times and ratios carry no bound
        wins, losses, ties, pairs = pair_wins(b, c, better)
        fmt = lambda xs: "/".join(f"{x:.4g}" for x in quartiles(xs))
        print(f"{workload:9s} {name:36s} {fmt(b):>32s} {fmt(c):>32s} {wins:>3d}/{pairs:<3d}  "
              f"{v}{'' if not ties else f' ({ties} ties)'}")
    return 0


# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, record: Path | None) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if record is not None:
                cmd += ["--record", str(record)]
            status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the run as one JSON line to this file")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        if args.all:
            checkout_root()
            return run_all(args.seed, args.seconds, args.record)
        if args.workload is None:
            parser.error("--workload, --all or --compare is required")
        result, extra = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except NotACheckout as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_report(args.workload, args.seed, bool(args.trace), result, extra)
    if args.record is not None:
        with open(args.record, "a") as fh:
            fh.write(record_line(args.workload, args.seed, args.seconds, bool(args.trace), result, extra) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
