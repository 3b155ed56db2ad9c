"""The hot paths leave no reference cycles behind.

A recursive search written as a closure holds itself, and so everything it
reaches, until the cyclic collector runs.  These calls must free their whole
working set by reference counting when they return, so a full collection
right after one finds nothing.
"""

import gc
import random

import pytest

from symcap import gw
from symcap.capacities import gb_solver, spectral_lower_bound
from symcap.linfty import check_linfty_relations
from symcap.modelfile import load_model
from symcap.spectra import ellipsoid_orbits


def cyclic_garbage(call) -> int:
    """Objects that a full collection finds unreachable right after
    ``call``, with automatic collection off around it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _refused(call) -> None:
    """Run ``call``, which must raise ValueError."""
    try:
        call()
    except ValueError:
        return
    raise AssertionError("not refused")


def _calls(fixtures):
    d5 = gw.parse_constraint_expression("CP2 d=5 <(T^13 p)>")
    ball = ellipsoid_orbits([1, 1], 15)
    b2_lin = load_model(fixtures / "b2_lin.model")
    return {
        "reduce_combination": lambda: gw.reduce_combination(
            d5, rng=random.Random(1), trace=[]
        ),
        "basis_words": lambda: load_model(fixtures / "b2.model").basis_words(4),
        # more than MAX_WORDS words (149,829): the refusal frees the search too
        "basis_words_refused": lambda: _refused(
            lambda: load_model(fixtures / "b2.model").basis_words(9)
        ),
        "check_linfty_relations": lambda: check_linfty_relations(
            load_model(fixtures / "b2.model"), 3
        ),
        "gb_solver": lambda: gb_solver(b2_lin, [3], 2, 12),
        "spectral_lower_bound": lambda: spectral_lower_bound(ball, 10, 15),
    }


@pytest.mark.parametrize(
    "name",
    [
        "reduce_combination",
        "basis_words",
        "basis_words_refused",
        "check_linfty_relations",
        "gb_solver",
        "spectral_lower_bound",
    ],
)
def test_hot_paths_free_their_working_set_by_refcount(fixtures_dir, name):
    call = _calls(fixtures_dir)[name]
    call()  # a first call may fill lazy imports and per-process caches
    assert cyclic_garbage(call) == 0
