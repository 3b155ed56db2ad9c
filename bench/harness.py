"""Closed-loop driving shared by the workloads: one caller, one query at a
time, each answer checked before the next query starts.

Timings are normalized to a reference host speed.  On a shared host the
speed of ``Fraction``-heavy Python code drifts by up to 1.9x over tens of
seconds (one ``spectral`` pass took 7.7 to 14.9 s in one four-minute
series), and the drift tracks a short ``Fraction`` loop run close in time:
over 10 s windows, the spread of engine and spectral query latencies fell
from 0.15 to 0.43 of the median to 0.02 to 0.05 once each was divided by
the loop's time measured within a quarter second of it.  So
:class:`HostSpeed` runs that loop between queries, at most every
``CALIBRATE_EVERY_S``, and each timed item is scaled by
``REFERENCE_S / min(loop times within CALIBRATION_WINDOW_S of it)``; the
minimum, because whatever disturbs one loop (an interrupt, a preemption)
only ever makes it slower:
the result reads as seconds on a host where the loop takes
``REFERENCE_S``.  The loop uses only the standard library, so a change to
``symcap`` cannot move it.  Raw times are kept beside the normalized ones.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Optional

import boundaries
from calibration import REFERENCE_S, calibration_unit
from metrics import layer_values
from spans import Tracer, summarize
from stats import percentile

clock = time.perf_counter

MAX_REPORTED_FAILURES = 5
SETUP_BURST = 3
CHILD_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 0.15
PROBE = Path(__file__).resolve().parent / "probe.py"


class HostSpeed:
    """Times of the calibration loop, by when they were taken.  A disabled
    instance (traced runs, whose counters must not see the loop) never
    samples and scales by 1."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        if not self.enabled:
            return
        start = clock()
        calibration_unit()
        end = clock()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or clock() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for an item timed over [start, end]."""
        if not self.enabled or not self.times:
            return 1.0
        lo = bisect.bisect_left(self.times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CALIBRATION_WINDOW_S)
        if hi - lo < 3:  # too few nearby: the three nearest in time
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - 1, len(self.times) - 3))
            hi = lo + 3
        return REFERENCE_S / min(self.durations[lo:hi])


class Recorder:
    """Times each query, checks its answer and counts failures.

    Work is timed item by item, between calibration samples; a pass's
    normalized wall time is the sum of its normalized items, and its raw
    wall time the sum of the raw ones, so the calibration loop itself is
    never counted.
    """

    def __init__(self, tracer: Optional[Tracer] = None, host: Optional[HostSpeed] = None) -> None:
        self.tracer = tracer
        self.host = host if host is not None else HostSpeed(enabled=tracer is None)
        self.samples: list[float] = []  # normalized query latencies
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._items: list[tuple[float, float, Optional[str]]] = []

    def _timed(self, call: Callable, label: Optional[str]):
        self.host.maybe_sample()
        start = clock()
        try:
            return call()
        finally:
            self._items.append((start, clock(), label))

    def __call__(self, label: str, call: Callable, check: Callable):
        """Time ``call()`` as one query and check its result; returns the
        result, or None when the call raised."""
        if self.tracer is not None:
            self.tracer.query_id = self.attempted
        self.attempted += 1
        try:
            result = self._timed(call, label)
        except Exception:  # a crashing query is a wrong answer, not the end of the run
            self._fail(label, traceback.format_exc(limit=3))
            return None
        if self.tracer is None:
            ok = check(result)
        else:
            with self.tracer.pause():
                ok = check(result)
        if not ok:
            self._fail(label, f"wrong answer: {result!r:.300}")
        return result

    def segment(self, call: Callable):
        """Time work of the pass that is not a query (building its inputs)."""
        return self._timed(call, None)

    def verify(self, label: str, ok: bool) -> None:
        """Count a check that is not a timed query."""
        self.attempted += 1
        if not ok:
            self._fail(label, "check failed")

    def end_pass(self) -> tuple[float, float]:
        """Close the items timed since the last call: (normalized, raw) wall."""
        self.host.sample()
        norm = raw = 0.0
        for start, end, label in self._items:
            took = end - start
            scaled = took * self.host.factor(start, end)
            norm += scaled
            raw += took
            if label is not None:
                self.samples.append(scaled)
                self.labels.append(label)
        self._items = []
        return norm, raw

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAIL {label}: {detail}", file=sys.stderr)


def run_passes(seconds: float, run_pass: Callable[[int], float], first: int = 0) -> list:
    """Run passes while half a pass of the mean length still fits in
    ``seconds`` of wall-clock time, so a run ends within half a pass of
    ``seconds``; always at least one.  Returns what each ``run_pass``
    returned."""
    walls: list = []
    start = clock()
    while True:
        walls.append(run_pass(first + len(walls)))
        elapsed = clock() - start
        if elapsed + elapsed / len(walls) / 2 > seconds:
            return walls


class ScratchDir:
    """A run's own directory under the checkout's ``.bench_tmp/``, deleted by
    :meth:`close`, and the fresh interpreters the run starts there."""

    def __init__(self, root: Path, prefix: str) -> None:
        self.root = root
        parent = root / ".bench_tmp"
        parent.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))

    def child_env(self, **extra: str) -> dict:
        """The environment of a child: ``symcap`` from the checkout, and
        bytecode cached in this directory whatever the caller's environment
        says, so that in every run the first child compiles and the rest
        load the cache."""
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.path / "pycache")
        env["PYTHONPATH"] = str(self.root / "src")
        env.update(extra)
        return env

    def probe(self, workload: str, seed: int, **env: str) -> float:
        """One normalized set-up in a fresh interpreter (``probe.py``)."""
        out = subprocess.run(
            [sys.executable, str(PROBE), workload, str(seed)],
            cwd=self.root, env=self.child_env(**env), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])["setup_s"]

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def setup_burst(probe: Callable[[], float], times: list) -> None:
    """Append ``SETUP_BURST`` set-ups to ``times``.  Runs take a burst before
    every pass, so that ``setup_s``, the median of all of them, samples the
    host over the whole run and not one moment of it."""
    times.extend(probe() for _ in range(SETUP_BURST))


def result(rec: Recorder, metrics: dict) -> dict:
    """The contract's result object."""
    return {"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}


def end_to_end(rec: Recorder, setup_s: float, walls: list, cold_s: float, warm_s: float) -> tuple[dict, dict]:
    """The untraced result of a run, and the extra figures printed beside
    it (the latency sample count among them)."""
    p50, n = percentile(rec.samples, 50)
    p90, _ = percentile(rec.samples, 90)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "query_p50_s": p50,
        "query_p90_s": p90,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"passes": len(walls), "queries": n, "calibration_s": statistics.median(rec.host.durations)}
    return result(rec, metrics), extra


def traced_run(
    seconds: float,
    plain: Callable[[], tuple[float, Recorder]],
    instrument: Callable[[Tracer], tuple[Callable[[int], float], Recorder]],
    extra: Optional[dict] = None,
) -> tuple[dict, dict]:
    """The traced run of every workload: one untraced pass, then traced
    passes for the rest of ``seconds``, all timed raw, because the
    calibration loop would show in the ``Fraction`` counters.

    ``plain()`` runs the untraced pass and returns its raw wall time and
    Recorder.  ``instrument(tracer)`` installs the wrappers (the module
    boundaries and the workload's own), repeats any set-up under them and
    returns ``(one_pass, recorder)``, where ``one_pass(i)`` runs traced pass
    ``i`` and returns its raw wall time.  What the set-up counted is counted
    once; everything else is per pass.
    """
    start = clock()
    untraced, plain_rec = plain()
    tracer = Tracer()
    try:
        boundaries.install(tracer)
        one_pass, rec = instrument(tracer)
        at_setup = dict(tracer.counts)
        cpu0 = cpu_seconds()
        walls = run_passes(max(seconds - (clock() - start), 0.0), one_pass, first=1)
        cpu = cpu_seconds() - cpu0
    finally:
        tracer.restore()
    passes = len(walls)
    counts = {k: at_setup.get(k, 0) + (v - at_setup.get(k, 0)) / passes for k, v in tracer.counts.items()}
    values = layer_values(
        summarize(tracer, passes),
        counts,
        {
            "proc.cpu_s": cpu / passes,
            "trace.overhead_ratio": statistics.median(walls) / untraced,
            **(extra or {}),
        },
    )
    rec.attempted += plain_rec.attempted
    rec.failed += plain_rec.failed
    return result(rec, values), {"passes": passes, "tracer": tracer}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
