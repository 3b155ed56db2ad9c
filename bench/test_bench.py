"""Tests of the benchmark's own helpers; they never import ``symcap``.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import metrics
import oracles
from spans import Tracer, self_time, span_self_times, summarize, union_length
from stats import (
    IMPROVED,
    NO_WORSE,
    REGRESSED,
    UNRESOLVED,
    pair_wins,
    percentile,
    quartiles,
    verdict,
)

ROOT = Path(__file__).resolve().parent.parent


# -- percentiles ------------------------------------------------------------


def test_percentile_interpolates_between_ranks_with_sample_count():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == (3.0, 5)
    assert percentile(samples, 100) == (5.0, 5)
    assert percentile(samples, 0) == (1.0, 5)
    assert percentile(samples, 90) == (pytest.approx(4.6), 5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == (2.5, 4)
    assert percentile([7.0], 90) == (7.0, 1)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_match_statistics_quantiles():
    q1, med, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


# -- self time ----------------------------------------------------------------


def test_union_of_overlapping_children_is_counted_once():
    # two worker threads overlap in [2, 3]; a third child sticks out past the parent
    children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]
    assert union_length(children, 0.0, 10.0) == 3.0 + 2.0
    assert self_time(0.0, 10.0, children) == 10.0 - 5.0


def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 3.5, []) == 2.5


def _tracer_with(spans):
    t = Tracer()
    for name, start, end, parent, query in spans:
        t.name.append(t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.query.append(query)
    return t


def test_span_self_times_subtract_nested_and_threaded_children():
    t = _tracer_with([
        ("cli.cmd", 0.0, 10.0, -1, 0),
        ("spectra.eh", 1.0, 4.0, 0, 0),  # thread 1
        ("spectra.eh", 2.0, 6.0, 0, 0),  # thread 2, overlapping
        ("novikov.mul", 2.5, 3.0, 2, 0),
    ])
    assert span_self_times(t) == [10.0 - 5.0, 3.0, 3.5, 0.5]
    summary = summarize(t, passes=2)
    assert summary["spectra.eh"] == {"calls": 1.0, "self_s": 3.25}
    assert summary["cli.cmd"]["self_s"] == 2.5


def test_setup_spans_are_not_divided_by_passes():
    t = _tracer_with([("modelfile.load", 0.0, 1.0, -1, -1), ("words.coproduct", 1.0, 2.0, -1, 3)])
    summary = summarize(t, passes=4)
    assert summary["modelfile.load"]["calls"] == 1.0
    assert summary["words.coproduct"]["calls"] == 0.25


def test_calls_every_pass_repeats_come_out_whole():
    t = _tracer_with([("novikov.mul", i, i + 0.5, -1, i // 10) for i in range(30)])
    assert summarize(t, passes=3)["novikov.mul"]["calls"] == 10


class _Thing:
    def work(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return x * 2


def test_wrappers_record_and_restore():
    original = _Thing.__dict__["work"]
    t = Tracer()
    t.span(_Thing, "work", "thing.work")
    t.count(_Thing, "build", "thing.build")
    assert _Thing().work(1) == 2
    assert _Thing.build(3) == 6
    assert t.counts["thing.build"] == 1
    assert [t.names[i] for i in t.name] == ["thing.work"]
    t.restore()
    assert _Thing.__dict__["work"] is original
    assert isinstance(_Thing.__dict__["build"], classmethod)


def test_paused_tracer_counts_nothing():
    t = Tracer()
    t.count(_Thing, "build", "thing.build")
    try:
        _Thing.build(1)
        with t.pause():
            _Thing.build(2)
        _Thing.build(3)
    finally:
        t.restore()
    assert t.counts["thing.build"] == 2
    assert not t.paused


def test_threads_inherit_the_span_that_started_them():
    t = Tracer()
    t.follow_threads()
    try:
        outer = t.open(t.name_id("cli.cmd"))
        inner_id = t.name_id("spectra.eh")
        worker = threading.Thread(target=lambda: t.close(t.open(inner_id)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        t.close(outer)
    finally:
        t.restore()
    assert list(t.parent) == [-1, outer]
    assert t.counts["cli.threads_started"] == 1


# -- compare verdicts -----------------------------------------------------------


def test_pair_wins_ties_count_for_neither_side():
    assert pair_wins([10, 10, 10], [9, 10, 11], "lower") == (1, 1, 1, 3)
    assert pair_wins([1, 2], [2, 3], "higher") == (2, 0, 0, 2)


def test_verdict_improved_needs_nine_tenths_and_a_gap_beyond_the_spread():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [x * 0.8 for x in base]
    assert verdict(base, faster, "lower", 0.1) == IMPROVED
    # nine wins of ten but one tie is not enough once ties count for neither
    tied = faster[:8] + [base[8], base[9]]
    assert verdict(base, tied, "lower", 0.1) != IMPROVED


def test_verdict_no_worse_and_regressed_against_the_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert verdict(base, [x * 1.05 for x in base], "lower", 0.1) == NO_WORSE
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1) == REGRESSED
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.1) == REGRESSED


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    base = [6.0, 8.0, 10.0, 12.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
    same = [x * 1.02 for x in reversed(base)]
    assert verdict(base, same, "lower", 0.1) == UNRESOLVED
    # unless every change run reads better than every base run
    assert verdict(base, [5.9] * 10, "lower", 0.1) == NO_WORSE


def test_verdict_on_counts_is_exact():
    assert verdict([100, 100], [99, 99], "lower", None) == IMPROVED
    assert verdict([100, 100], [100, 100], "lower", None) == NO_WORSE
    assert verdict([100, 100], [101, 101], "lower", None) == REGRESSED


# -- oracles --------------------------------------------------------------------


def test_oracles_reproduce_the_readme_values():
    assert oracles.ech_values(1, 2, 9)[1:] == [1, 2, 2, 3, 3, 4, 4, 4]
    assert oracles.eh_values((1, 2), 7) == [1, 2, 2, 3, 4, 4, 5]
    assert oracles.eh_values((Fraction(3, 2), Fraction(3, 2)), 2)[-1] == Fraction(3, 2)
    assert oracles.g_polydisk(Fraction(1), Fraction(3), 5) == 5
    assert oracles.stabilized_ball_bound(Fraction(8)) == (Fraction(8, 3), 8)
    assert [oracles.fmt(v) for v in (Fraction(3, 2), Fraction(4), "no-formula")] == ["3/2", "4", "no-formula"]


# -- the catalogue --------------------------------------------------------------


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == ["spectral", "engine", "cli"]
