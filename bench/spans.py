"""Spans and counters recorded from outside the program.

A :class:`Tracer` replaces attributes at layer boundaries with recording
wrappers and puts them back on :meth:`Tracer.restore`.  A boundary is an
attribute one ``symcap`` module imported from another (``symcap.linfty``'s
``normalize_word`` is the words layer seen from linfty), an entry of the
benchmark's own ``api`` namespace, or a class attribute such as
``NovikovPolynomial.__mul__``.  Calls a module makes to its own functions
look the name up in its own globals and are therefore not intercepted; the
per-layer metrics are defined that way.

Spans live in flat arrays (name id, start, end, parent index, query id), so
a few million of them fit in tens of megabytes; they are written out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

NO_PARENT = -1
SETUP_QUERY = -1

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.query = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.query_id = SETUP_QUERY
        self.paused = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def pause(self):
        """Count no calls inside: the benchmark's own answer checks build
        and hash ``Fraction``s too."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def current(self) -> int:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(threading.current_thread(), "_bench_parent", NO_PARENT)

    def open(self, nid: int) -> int:
        parent = self.current()
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.query.append(self.query_id)
            self.end.append(0.0)
            self.start.append(_clock())
        self._stack().append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack().pop()

    # -- installing wrappers -----------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr: str, make: Callable) -> None:
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            self.replace(owner, attr, classmethod(make(raw.__func__)))
        else:
            self.replace(owner, attr, make(getattr(owner, attr)))

    def span(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``;
        ``after(args, kwargs, result)`` may add counts."""
        nid = self.name_id(name)
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        self._wrap(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot leaf calls)."""
        counts = self.counts
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.paused:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._wrap(owner, attr, make)

    def follow_threads(self) -> None:
        """Count threads started and make each thread's first span a child
        of the span that was open when the thread was started."""
        start = threading.Thread.start
        tracer = self

        def wrapper(thread, *args, **kwargs):
            tracer.counts["cli.threads_started"] += 1
            thread._bench_parent = tracer.current()
            return start(thread, *args, **kwargs)

        self.replace(threading.Thread, "start", wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- persistence ---------------------------------------------------------

    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write an 8-byte little-endian header length, a JSON header (span
        names, counts, span count, ``extra``), then the arrays name, start,
        end, parent and query in native byte order."""
        header = json.dumps(
            {
                "names": self.names,
                "counts": dict(self.counts),
                "spans": len(self.start),
                "extra": extra or {},
            }
        ).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for arr in (self.name, self.start, self.end, self.parent, self.query):
                arr.tofile(fh)


# ---------------------------------------------------------------------------
# self time


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Child spans overlap when a layer fans work out to threads, so their
    durations cannot simply be summed.
    """
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        elif e > cur_hi:
            cur_hi = e
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children: Sequence[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - union_length(children, start, end)


def span_self_times(tracer: Tracer) -> list[float]:
    """Self time of every recorded span, by span index."""
    n = len(tracer.start)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    start, end, parent = tracer.start, tracer.end, tracer.parent
    for i in range(n):
        p = parent[i]
        if p != NO_PARENT:
            children[p].append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        out[p] = self_time(start[p], end[p], kids)
    return out


def summarize(tracer: Tracer, passes: int) -> dict[str, dict[str, float]]:
    """Per span name: calls and self seconds per pass.

    Spans recorded during set-up (query id -1) are counted once; spans of
    measured queries are divided by the number of traced passes.  Calls are
    summed as whole numbers before the one division, so a count that every
    pass repeats comes out whole.
    """
    selfs = span_self_times(tracer)
    # per name: [set-up calls, set-up seconds, query calls, query seconds]
    sums: dict[str, list] = defaultdict(lambda: [0, 0.0, 0, 0.0])
    for i, s in enumerate(selfs):
        acc = sums[tracer.names[tracer.name[i]]]
        at = 0 if tracer.query[i] == SETUP_QUERY else 2
        acc[at] += 1
        acc[at + 1] += s
    return {
        name: {"calls": sc + qc / passes, "self_s": ss + qs / passes}
        for name, (sc, ss, qc, qs) in sums.items()
    }
