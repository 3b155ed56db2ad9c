"""The names the benchmark in ``bench/`` wraps still resolve.

``bench/boundaries.py`` and the workloads' ``instrument`` functions replace
attributes of ``symcap`` modules and classes by name, most of them without
a guard, so deleting or renaming one of them breaks every traced benchmark
run.  This test installs every wrapper, calls through a few of them with
the signatures the wrappers assume, and takes them all out again.  It reads
``bench/`` and changes nothing there.
"""

from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import boundaries
    import engine
    import spans
    import spectral

    return boundaries, engine, spectral, spans


def test_benchmark_wrappers_install_and_call_through(bench, models):
    boundaries, engine, spectral, spans = bench
    import symcap.cli  # noqa: F401  imports every module the boundaries name
    from symcap import capacities, gw

    cdga = models["cdga_aug"]
    eps = cdga.augmentations["eps"]
    tracer = spans.Tracer()
    try:
        boundaries.install(tracer)
        boundaries.install_cli(tracer)
        api = engine.make_api()
        engine.instrument(api, tracer)
        spectral.instrument(spectral.make_api(), tracer)

        gw.reduce_combination(gw.make_term([(1,)], surface="CP2", cls=1))
        b2 = models["b2"]
        b2.apply_operation([b2.gen("ac2")])
        assert capacities.solve_linear_system([{0: Fraction(2)}], [Fraction(1)]) == {
            0: Fraction(1, 2)
        }
        minus = api.inverse_scalar_augmentation(cdga, eps)
        api.f_epsilon_map(cdga, minus)
        assert api.check_linfty_relations(api.linearize(cdga, eps)[1], 2) == []
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["gw.reduce.steps"] == 1 and counts["gw.reduce.terms"] == 2
    assert counts["linfty.apply_operation.calls"] == 1
    assert counts["linsolve.solve.cells"] == 1
    # restored: calls after the test are not counted
    gw.reduce_combination(gw.make_term([(1,)], surface="CP2", cls=1))
    assert counts["gw.reduce.steps"] == 1


def test_gb_solver_engine_spans_survive_the_lazy_engine_import(bench, models):
    """``symcap.capacities`` loads the engine with its first g_b solve and
    binds ``extend_coderivation`` and ``augmentation_hat`` then.  A traced
    run installs its wrappers after an untraced first pass, so the
    boundaries must find both names, a traced solve must record their
    spans, and a later solve must not rebind them."""
    boundaries, _, _, spans = bench
    from symcap import capacities, linfty

    b2_lin = models["b2_lin"]
    assert capacities.gb_solver(b2_lin, [3], 2, 12) == 4  # the untraced pass
    assert capacities.extend_coderivation is linfty.extend_coderivation
    assert capacities.augmentation_hat is linfty.augmentation_hat
    words = len(b2_lin.basis_words(2, Fraction(12)))
    tracer = spans.Tracer()
    try:
        boundaries.install(tracer)
        wrapped = capacities.extend_coderivation, capacities.augmentation_hat
        assert wrapped[0] is not linfty.extend_coderivation
        assert wrapped[1] is not linfty.augmentation_hat
        assert capacities.gb_solver(b2_lin, [3], 2, 12) == 4
        assert capacities.gb_solver(b2_lin, [3], 2, 12) == 4
        assert (capacities.extend_coderivation, capacities.augmentation_hat) == wrapped
    finally:
        tracer.restore()
    summary = spans.summarize(tracer, 1)
    for name in ("linfty.extend_coderivation", "linfty.augmentation_hat"):
        assert summary[name]["calls"] == 2 * words
        assert summary[name]["self_s"] > 0
    assert capacities.extend_coderivation is linfty.extend_coderivation
    assert capacities.augmentation_hat is linfty.augmentation_hat
