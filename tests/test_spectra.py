"""Tests for orbit spectra, Conley-Zehnder indices, and capacity sequences."""

import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcap.capacities import eh_lattice, spectral_search
from symcap.spectra import (
    INF,
    OrbitRecord,
    OrbitSpectrum,
    capacity_sequence_ECH,
    capacity_sequence_EH,
    conley_zehnder_ellipsoid,
    ech_sequence,
    eh_sequence,
    ellipsoid_orbits,
    fredholm_index,
    polydisk_orbits,
)


def actions(spectrum):
    return [o.action for o in spectrum.orbits]


def cz_list(spectrum):
    return [o.cz for o in spectrum.orbits]


# ---------------------------------------------------------------------------
# Conley-Zehnder indices


def test_round_ball_cz_ladder():
    assert [conley_zehnder_ellipsoid([1, 1], 1, k) for k in (1, 2, 3)] == [3, 7, 11]
    assert [conley_zehnder_ellipsoid([1, 1], 2, k) for k in (1, 2, 3)] == [5, 9, 13]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_ball_merged_cz_values(n):
    spectrum = ellipsoid_orbits([1] * n, 5)
    merged = sorted(cz_list(spectrum))
    assert merged == [n - 1 + 2 * m for m in range(1, len(merged) + 1)]


def test_exact_ratio_tie_break():
    # the iterate k*a_j/a_i lands exactly on a lattice point: the perturbation
    # pushes it below when the other axis sits before this one
    assert conley_zehnder_ellipsoid([1, 2], 1, 2) == 5
    assert conley_zehnder_ellipsoid([1, 2], 2, 1) == 7


def test_skinny_ellipsoid_low_spectrum():
    spectrum = ellipsoid_orbits([1, Fraction(13, 2)], 7)
    assert cz_list(spectrum) == [3, 5, 7, 9, 11, 13, 15, 17]
    assert [o.label for o in spectrum.orbits] == [
        "g1^1", "g1^2", "g1^3", "g1^4", "g1^5", "g1^6", "g2^1", "g1^7",
    ]
    assert spectrum.orbits[6].action == Fraction(13, 2)


axes_strategy = st.lists(
    st.fractions(
        min_value=Fraction(1, 4), max_value=8, max_denominator=6
    ),
    min_size=1,
    max_size=3,
)


@given(axes=axes_strategy, j=st.integers(1, 3), k=st.integers(1, 6))
def test_cz_parity_and_growth(axes, j, k):
    axes = sorted(axes)
    j = min(j, len(axes))
    n = len(axes)
    cz = conley_zehnder_ellipsoid(axes, j, k)
    assert (cz - (n - 1)) % 2 == 0
    assert conley_zehnder_ellipsoid(axes, j, k + 1) > cz


def test_cz_input_validation():
    with pytest.raises(ValueError):
        conley_zehnder_ellipsoid([1, 2], 3, 1)
    with pytest.raises(ValueError):
        conley_zehnder_ellipsoid([1, 2], 1, 0)
    with pytest.raises(ValueError):
        conley_zehnder_ellipsoid([], 1, 1)
    with pytest.raises(ValueError):
        conley_zehnder_ellipsoid([1, -2], 1, 1)
    with pytest.raises(ValueError, match="capacity_sequence_EH"):
        ellipsoid_orbits([1, INF], 3)


# ---------------------------------------------------------------------------
# orbit spectra


def test_ellipsoid_orbit_listing():
    spectrum = ellipsoid_orbits([1, 2], 4)
    assert [o.label for o in spectrum.orbits] == [
        "g1^1", "g1^2", "g2^1", "g1^3", "g1^4", "g2^2",
    ]
    assert actions(spectrum) == [1, 2, 2, 3, 4, 4]
    assert cz_list(spectrum) == [3, 5, 7, 9, 11, 13]
    assert spectrum.domain == "E(1,2)"


def test_polydisk_orbit_listing_long():
    spectrum = polydisk_orbits(3, 3)
    assert [o.label for o in spectrum.orbits] == [
        "beta_1,0", "beta_2,0", "beta_3,0", "beta_0,1",
    ]
    assert cz_list(spectrum) == [3, 5, 7, 3]
    assert actions(spectrum) == [1, 2, 3, 3]


def test_polydisk_orbit_listing_square():
    spectrum = polydisk_orbits(1, 2)
    assert [o.label for o in spectrum.orbits] == [
        "beta_1,0", "beta_0,1", "beta_2,0", "alpha_1,1", "beta_1,1", "beta_0,2",
    ]
    assert cz_list(spectrum) == [3, 3, 5, 4, 5, 5]


# Fraction references: the enumerators and the CZ tie-break as they were
# before the spectra moved onto the integer action lattice


def _floor_perturbed(ratio: Fraction, other_below: bool) -> int:
    """floor(ratio) after the symbolic tie-break; exact integers round down
    by one when the other axis is perturbed upward past this one."""
    if ratio.denominator == 1:
        r = ratio.numerator
        return r if other_below else r - 1
    return ratio.numerator // ratio.denominator


def _reference_cz(axes, j, k):
    total = len(axes) - 1 + 2 * k
    for i, ai in enumerate(axes, start=1):
        if i != j:
            total += 2 * _floor_perturbed(Fraction(k) * axes[j - 1] / ai, i < j)
    return total


def _reference_ellipsoid_orbits(axes, cutoff):
    axes = [Fraction(x) for x in axes]
    cutoff = Fraction(cutoff)
    records = []
    for j, aj in enumerate(axes, start=1):
        k = 1
        while k * aj <= cutoff:
            records.append(OrbitRecord(f"g{j}^{k}", k * aj, _reference_cz(axes, j, k), j, (k,)))
            k += 1
    records.sort(key=lambda o: (o.action, o.simple, o.multiplicity))
    return OrbitSpectrum("E(" + ",".join(str(x) for x in axes) + ")", records)


def _reference_polydisk_orbits(x, cutoff):
    x = Fraction(x)
    cutoff = Fraction(cutoff)
    records = []
    for i in range(0, int(cutoff) + 1):
        j = 0
        while i + j * x <= cutoff:
            action = i + j * x
            if action > 0:
                records.append(OrbitRecord(f"beta_{i},{j}", action, 1 + 2 * i + 2 * j, 2, (i, j)))
                if i >= 1 and j >= 1:
                    records.append(OrbitRecord(f"alpha_{i},{j}", action, 2 * i + 2 * j, 1, (i, j)))
            j += 1
    records.sort(key=lambda o: (o.action, o.multiplicity[1], o.cz, o.label))
    return OrbitSpectrum(f"P(1,{x})", records)


# small denominators in a short range: equal axes and exact integer ratios
# between axes, where the CZ tie-break decides, come up often
tie_prone_axes = st.lists(
    st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3),
    min_size=1,
    max_size=3,
)
cutoffs = st.fractions(min_value=0, max_value=16, max_denominator=7)


def _assert_same_records(got, want):
    assert got == want  # the domain and every field of every record, in order
    assert all(type(o.action) is Fraction for o in got.orbits)


@settings(max_examples=300, deadline=None)
@given(axes=tie_prone_axes, cutoff=cutoffs)
def test_ellipsoid_orbits_match_the_fraction_reference(axes, cutoff):
    axes = sorted(axes)
    _assert_same_records(ellipsoid_orbits(axes, cutoff), _reference_ellipsoid_orbits(axes, cutoff))
    for j in range(1, len(axes) + 1):
        for k in (1, 2, 3, 6):
            assert conley_zehnder_ellipsoid(axes, j, k) == _reference_cz(axes, j, k)


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(
        st.integers(1, 4).map(Fraction),
        st.fractions(min_value=1, max_value=5, max_denominator=4),
    ),
    cutoff=cutoffs,
)
def test_polydisk_orbits_match_the_fraction_reference(x, cutoff):
    _assert_same_records(polydisk_orbits(x, cutoff), _reference_polydisk_orbits(x, cutoff))


def test_polydisk_orbits_need_normalized_factor():
    with pytest.raises(ValueError):
        polydisk_orbits(Fraction(1, 2), 3)


def test_spectra_are_immutable_and_keep_lattices_out_of_equality():
    built = ellipsoid_orbits([1, 2], 4)
    spectrum = OrbitSpectrum(built.domain, list(built.orbits))
    assert type(spectrum.orbits) is tuple and spectrum.orbits == built.orbits
    with pytest.raises(AttributeError):
        spectrum.orbits.append(built.orbits[0])
    # lattices are built by the first search, never at construction
    assert spectrum._lattices == {} and built._lattices == {}
    spectral_search(spectrum, 4, 4)
    spectral_search(spectrum, 4, 3)
    assert set(spectrum._lattices) == {3, 4} and built._lattices == {}
    assert spectrum == built and hash(spectrum) == hash(built)
    assert spectrum != OrbitSpectrum(built.domain, built.orbits[:-1])
    copy = dataclasses.replace(spectrum)
    assert copy == spectrum and copy._lattices == {}
    renamed = dataclasses.replace(spectrum, domain="E(1,2) again")
    assert renamed._lattices == {} and renamed.orbits is spectrum.orbits


# ---------------------------------------------------------------------------
# classical capacity sequences


def test_eh_sequence_e12():
    values = [capacity_sequence_EH([1, 2], k) for k in range(1, 8)]
    assert values == [1, 2, 2, 3, 4, 4, 5]
    axes = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]
    brute = sorted(i * x for x in axes for i in range(1, 40))
    assert eh_sequence(axes, 25) == brute[:25]


def test_eh_sequence_round():
    values = [capacity_sequence_EH([Fraction(3, 2)] * 2, k) for k in range(1, 8)]
    expected = [Fraction(3, 2) * m for m in (1, 1, 2, 2, 3, 3, 4)]
    assert values == expected


def test_eh_sequence_with_infinite_factor():
    assert [capacity_sequence_EH([1, INF], k) for k in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(ValueError):
        capacity_sequence_EH([INF, INF], 1)
    with pytest.raises(ValueError):
        capacity_sequence_EH([1, 2], 0)


def test_ech_sequence_e12():
    values = [capacity_sequence_ECH(1, 2, k) for k in range(1, 9)]
    assert values == [1, 2, 2, 3, 3, 4, 4, 4]
    assert capacity_sequence_ECH(1, 2, 0) == 0


def test_ech_sequence_round():
    values = [capacity_sequence_ECH(Fraction(3, 2), Fraction(3, 2), k) for k in range(1, 10)]
    expected = [Fraction(3, 2) * m for m in (1, 1, 2, 2, 2, 3, 3, 3, 3)]
    assert values == expected


def test_ech_sequence_against_brute_force():
    a, b = Fraction(1, 3), Fraction(2, 5)
    brute = sorted(i * a + j * b for i in range(40) for j in range(40))
    for k in range(25):
        assert capacity_sequence_ECH(a, b, k) == brute[k]
    assert ech_sequence(a, b, 24) == brute[:25]


def test_ech_sequence_cost_does_not_grow_with_the_common_denominator():
    b = Fraction(1000001, 1000000)
    brute = sorted(i + j * b for i in range(10) for j in range(10))
    start = time.perf_counter()
    values = ech_sequence(1, b, 8)
    assert time.perf_counter() - start < 2.0
    assert values == brute[:9]


@pytest.mark.parametrize(
    "a,b,brute",
    [
        # the K+1 smallest are the points (i, 0)
        (1, 10**12, list(range(2001))),
        # every value with i + j = n lies below every value with i + j = n + 1,
        # and the 63*64/2 = 2016 points with i + j <= 62 hold the 2001 smallest
        (
            10**6,
            10**6 + 1,
            sorted(i * 10**6 + j * (10**6 + 1) for i in range(63) for j in range(63)),
        ),
    ],
)
def test_ech_sequence_cost_stays_small_for_extreme_axis_ratios(a, b, brute):
    start = time.perf_counter()
    values = ech_sequence(a, b, 2000)
    assert time.perf_counter() - start < 2.0
    assert values == brute[:2001]


positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=20, max_denominator=12
)


@settings(max_examples=100, deadline=None)
@given(positive_rationals, positive_rationals, st.integers(0, 60))
def test_ech_sequence_matches_the_square_brute_force(a, b, K):
    """The K+1 smallest of {i*a + j*b} all have i, j <= K: the K+1 values
    (0, j) or (i, 0) up to K lie at or below any value with i or j > K."""
    brute = sorted(i * a + j * b for i in range(K + 1) for j in range(K + 1))
    assert ech_sequence(a, b, K) == brute[: K + 1]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(positive_rationals, min_size=1, max_size=3), st.integers(0, 2), st.integers(1, 40)
)
def test_eh_sequence_matches_the_brute_force(axes, infinite, K):
    brute = sorted(i * x for x in axes for i in range(1, K + 1))[:K]
    values = eh_sequence([INF] * infinite + axes, K)
    assert values == brute
    assert all(type(v) is Fraction for v in values)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]), positive_rationals),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 200),
)
def test_eh_lattice_keeps_the_k_smallest_products(axes, K):
    """The K smallest i·a_j over every axis and every i <= K, repeated axes
    and ties at the last kept value included, as ints over the lcm."""
    values, scale = eh_lattice(axes, K)
    brute = sorted(i * x for x in axes for i in range(1, K + 1))[:K]
    assert scale == math.lcm(*(x.denominator for x in axes))
    assert all(type(v) is int for v in values)
    assert [Fraction(v, scale) for v in values] == brute


def test_eh_lattice_memory_follows_k_not_the_axis_count():
    """50 equal axes at K = 2·10^4 built 10^6 products before keeping K of
    them (a tracemalloc peak of ≈44 MB); now it builds at most K + 49."""
    tracemalloc.start()
    try:
        values, scale = eh_lattice([1] * 50, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6
    assert (values, scale) == ([m for m in range(1, 401) for _ in range(50)], 1)


def test_ech_sequence_is_nondecreasing():
    values = [capacity_sequence_ECH(1, 2, k) for k in range(30)]
    assert values == sorted(values)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2)])
def test_ech_sequence_volume_growth(a, b):
    k = 5000
    c = capacity_sequence_ECH(a, b, k)
    assert abs(float(c * c) / (2 * a * b * k) - 1) < 0.05


def test_ech_sequence_input_validation():
    with pytest.raises(ValueError):
        capacity_sequence_ECH(1, 2, -1)
    with pytest.raises(ValueError):
        capacity_sequence_ECH(0, 2, 1)


# ---------------------------------------------------------------------------
# Fredholm indices and stabilization


def test_fredholm_index_hand_values():
    assert fredholm_index(2, 0, [3], []) == 2
    assert fredholm_index(2, 0, [5], [], constraint_codim=4) == 0
    assert fredholm_index(3, 1, [4, 6], [2]) == 8
    assert fredholm_index(2, 0, [9], [9]) == 0  # trivial cylinder


def test_fredholm_index_validation():
    with pytest.raises(ValueError):
        fredholm_index(2, 0, [3], [], constraint_codim=3)
    with pytest.raises(ValueError):
        fredholm_index(2, 0, [3], [], constraint_codim=-2)


def test_cz_gains_one_under_stabilization():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 3)
        axes = sorted(
            Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(n)
        )
        j = rng.randint(1, n)
        k = rng.randint(1, 5)
        wide = max(axes) * k + Fraction(7, 3)
        assert (
            conley_zehnder_ellipsoid(axes + [wide], j, k)
            == conley_zehnder_ellipsoid(axes, j, k) + 1
        )


def test_index_shift_under_stabilization():
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randint(2, 5)
        genus = rng.randint(0, 3)
        pos = [rng.randint(-4, 12) for _ in range(rng.randint(1, 4))]
        neg = [rng.randint(-4, 12) for _ in range(rng.randint(0, 4))]
        c1 = rng.randint(-3, 3)
        codim = 2 * rng.randint(0, 5)
        base = fredholm_index(n, genus, pos, neg, c1, codim)
        lifted = fredholm_index(
            n + 1,
            genus,
            [c + 1 for c in pos],
            [c + 1 for c in neg],
            c1,
            codim,
        )
        assert lifted == 2 - 2 * genus - 2 * len(neg) + base


def test_trivial_cylinder_index_is_stable():
    for n in (2, 3, 4, 5):
        cz = 2 * n + 1
        assert fredholm_index(n, 0, [cz], [cz]) == 0
        assert fredholm_index(n + 1, 0, [cz + 1], [cz + 1]) == 0
