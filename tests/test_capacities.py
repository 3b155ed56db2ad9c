"""Tests for the capacity layer: closed forms, spectral search, the finite
word solver, four-dimensional sequences, weights, and stabilized bounds."""

import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcap import capacities
from symcap.capacities import (
    INFINITE,
    NO_FORMULA,
    NO_OBSTRUCTION,
    NOT_FOUND,
    DomainDescriptor,
    capacity_sequence_ECH,
    capacity_sequence_EH,
    ech_lattice,
    ech_sequence,
    g_tangency,
    g_tangency_lattice,
    gb_solver,
    mcduff_f,
    obstruct_4d_ellipsoid,
    one_positive_end,
    packing_lower_bounds,
    polydisk_slice_rule,
    r_points_ball,
    r_points_lattice,
    solve_linear_system,
    spectral_lower_bound,
    spectral_search,
    stabilized_obstruction,
    weight_decomposition,
)
from symcap.linfty import (
    Augmentation,
    LInfinityModel,
    ModelError,
    augmentation_hat,
    check_linfty_relations,
    extend_coderivation,
)
from symcap.modelfile import load_model, parse_model
from symcap.novikov import NovikovPolynomial
from symcap.spectra import (
    OrbitRecord,
    OrbitSpectrum,
    ellipsoid_orbits,
    polydisk_orbits,
)
from symcap.words import Generator, Word, normalize_word


# ---------------------------------------------------------------------------
# domains


def test_domain_descriptor_text_forms():
    assert str(DomainDescriptor.ball(1)) == "B4(1)"
    assert str(DomainDescriptor.ellipsoid(1, 2)) == "E(1,2)"
    assert str(DomainDescriptor.polydisk(1, Fraction(3, 2))) == "P(1,3/2)"


def test_domain_descriptor_is_an_immutable_value():
    ball = DomainDescriptor.ball(2)
    assert ball == DomainDescriptor("ball", (Fraction(2),))
    assert hash(ball) == hash(DomainDescriptor("ball", [Fraction(4, 2)]))
    assert ball.params == (Fraction(2),) and type(ball.params[0]) is Fraction
    assert {ball, DomainDescriptor.ball(Fraction(2))} == {ball}
    assert ball != DomainDescriptor.ball(3)
    assert DomainDescriptor.ellipsoid(1, 2) != DomainDescriptor.polydisk(1, 2)
    assert ball != ("ball", (Fraction(2),))
    assert repr(DomainDescriptor.polydisk(1, Fraction(3, 2))) == (
        "DomainDescriptor(kind='polydisk', params=(Fraction(1, 1), Fraction(3, 2)))"
    )
    assert str(DomainDescriptor.ball(Fraction(5, 2))) == "B4(5/2)"
    for name in ("kind", "params", "other"):
        with pytest.raises(AttributeError):
            setattr(ball, name, "ball")
        with pytest.raises(AttributeError):
            delattr(ball, name)
    assert ball == DomainDescriptor.ball(2)
    assert copy.deepcopy(ball) == ball and pickle.loads(pickle.dumps(ball)) == ball
    for kind, params, message in (
        ("cube", (1,), "unsupported domain kind 'cube'"),
        ("ellipsoid", (2, 1), "domain parameters must be sorted"),
        ("ball", (0,), "domain parameters must be positive"),
        ("ball", (), "ball needs 1 parameter, got 0"),
        ("ball", (1, 2), "ball needs 1 parameter, got 2"),
        ("ellipsoid", (1,), "ellipsoid needs 2 parameters, got 1"),
        ("ellipsoid", (1, 2, 3), "ellipsoid needs 2 parameters, got 3"),
        ("polydisk", (1, 2, 3), "polydisk needs 2 parameters, got 3"),
    ):
        with pytest.raises(ValueError) as err:
            DomainDescriptor(kind, params)
        assert str(err.value) == message


def test_domain_descriptor_validation():
    with pytest.raises(ValueError):
        DomainDescriptor("cube", (1,))
    with pytest.raises(ValueError):
        DomainDescriptor.ellipsoid(2, 1)
    with pytest.raises(ValueError):
        DomainDescriptor.ball(0)
    for kind, params in (
        ("ball", ()),
        ("ball", (1, 2)),
        ("ellipsoid", (1,)),
        ("ellipsoid", (1, 2, 3)),
        ("polydisk", (1, 2, 3)),
    ):
        with pytest.raises(ValueError, match=f"{kind} needs"):
            DomainDescriptor(kind, params)


# ---------------------------------------------------------------------------
# closed forms


def test_ball_tangency_closed_form():
    ball = DomainDescriptor.ball(1)
    for k in range(1, 51):
        value = g_tangency(ball, k)
        if k % 3 == 2:
            assert value == math.ceil(Fraction(k + 1, 3))
        else:
            assert value == NO_FORMULA
    assert g_tangency(DomainDescriptor.ball(Fraction(5, 2)), 5) == 5


def test_ellipsoid_tangency_closed_form():
    rng = random.Random(2)
    for _ in range(20):
        a = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        x = rng.randint(2, 9) + Fraction(1, 2)
        dom = DomainDescriptor.ellipsoid(a, a * x)
        k = rng.randint(1, int(x))
        assert g_tangency(dom, k) == a * k
        assert g_tangency(dom, int(x) + 1) == NO_FORMULA


def test_polydisk_tangency_closed_form():
    for x in (1, 2, 3, Fraction(7, 2)):
        dom = DomainDescriptor.polydisk(1, x)
        for k in range(1, 26):
            value = g_tangency(dom, k)
            if k % 2:
                assert value == min(Fraction(k), x + Fraction(k - 1, 2))
            else:
                assert value == NO_FORMULA
    assert g_tangency(DomainDescriptor.polydisk(2, 6), 5) == 2 * 5


def test_tangency_index_validation():
    with pytest.raises(ValueError):
        g_tangency(DomainDescriptor.ball(1), 0)


def test_r_points_ball_values():
    values = [r_points_ball(r) for r in range(1, 13)]
    assert values == [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5]
    with pytest.raises(ValueError):
        r_points_ball(0)


# the per-index ``Fraction`` closed forms that the integer lattices replaced,
# kept as references


def _reference_g_tangency(domain, k):
    if domain.kind == "ball":
        (c,) = domain.params
        return c * math.ceil(Fraction(k + 1, 3)) if k % 3 == 2 else NO_FORMULA
    a, b = domain.params
    x = b / a
    if domain.kind == "ellipsoid":
        return NO_FORMULA if k > x else a * k
    return a * min(Fraction(k), x + Fraction(k - 1, 2)) if k % 2 else NO_FORMULA


_PARAM = st.builds(Fraction, st.integers(1, 60), st.integers(1, 9))


@st.composite
def _domains(draw):
    kind = draw(st.sampled_from(["ball", "ellipsoid", "polydisk"]))
    params = draw(st.lists(_PARAM, min_size=1 if kind == "ball" else 2, max_size=2))
    return DomainDescriptor(kind, sorted(params)[: 1 if kind == "ball" else 2])


@settings(max_examples=300, deadline=None)
@given(domain=_domains(), ks=st.lists(st.integers(1, 80), min_size=1, max_size=30))
def test_tangency_lattice_matches_the_fraction_closed_forms(domain, ks):
    values, scale = g_tangency_lattice(domain, ks)
    want = [_reference_g_tangency(domain, k) for k in ks]
    assert [v if isinstance(v, str) else Fraction(v, scale) for v in values] == want
    for k, w in zip(ks, want):
        got = g_tangency(domain, k)
        assert got == w and type(got) is type(w)


@settings(max_examples=100, deadline=None)
@given(c=_PARAM, rs=st.lists(st.integers(1, 200), min_size=1, max_size=30))
def test_point_count_lattice_matches_the_fraction_closed_form(c, rs):
    values, scale = r_points_lattice(c, rs)
    assert [Fraction(v, scale) for v in values] == [
        c * math.ceil(Fraction(r + 1, 3)) for r in rs
    ]


def test_lattice_routines_keep_the_index_validation():
    with pytest.raises(ValueError, match="index must be >= 1"):
        g_tangency_lattice(DomainDescriptor.ellipsoid(1, 3), [2, 0])
    with pytest.raises(ValueError, match="need r >= 1"):
        r_points_lattice(Fraction(1), [0])


@settings(max_examples=100, deadline=None)
@given(domain=_domains(), family=st.sampled_from(["ball", "polydisk"]))
def test_stabilized_obstruction_matches_the_fraction_ratio_scan(domain, family):
    target = DomainDescriptor.ball(1) if family == "ball" else DomainDescriptor.polydisk(1, 1)
    x = 1 if domain.kind == "ball" else domain.params[1] / domain.params[0]
    best, witness = None, 0
    for k in range(1, 6 * math.ceil(x) + 7):
        num = _reference_g_tangency(domain, k)
        den = _reference_g_tangency(target, k)
        if NO_FORMULA not in (num, den) and (best is None or num / den > best):
            best, witness = num / den, k
    if best is None:
        with pytest.raises(ValueError, match="no index admits"):
            stabilized_obstruction(domain, family)
    else:
        assert stabilized_obstruction(domain, family) == (best, witness)


# ---------------------------------------------------------------------------
# spectral search against the closed forms


def test_spectral_bound_matches_ball_formula():
    spectrum = ellipsoid_orbits([1, 1], 15)
    for k in (2, 5, 8, 11):
        expected = g_tangency(DomainDescriptor.ball(1), k)
        assert spectral_lower_bound(spectrum, 2 * k, 15) == expected


def test_spectral_bound_matches_point_counts():
    spectrum = ellipsoid_orbits([1, 1], 15)
    for r in range(1, 13):
        assert spectral_lower_bound(spectrum, 2 * r, 15) == r_points_ball(r)


def test_spectral_bound_matches_ellipsoid_formula():
    x = Fraction(9, 2)
    spectrum = ellipsoid_orbits([1, x], 15)
    dom = DomainDescriptor.ellipsoid(1, x)
    for k in range(1, 5):
        bound = spectral_lower_bound(
            spectrum, 2 * k, 15, admissible=one_positive_end
        )
        assert bound == g_tangency(dom, k) == k
    # without the single-end exclusion, broken configurations win
    assert spectral_lower_bound(spectrum, 6, 15) < 3


def test_spectral_bound_matches_polydisk_formula():
    for x in (2, 3):
        spectrum = polydisk_orbits(x, 15)
        dom = DomainDescriptor.polydisk(1, x)
        for k in (1, 3, 5, 7, 9):
            bound = spectral_lower_bound(
                spectrum, 2 * k, 15, admissible=polydisk_slice_rule
            )
            assert bound == g_tangency(dom, k)
    # the short-row exclusion is what rules out the cheap multi-covers
    assert spectral_lower_bound(polydisk_orbits(3, 15), 6, 15) == 2


def test_spectral_bound_max_ends_cap():
    spectrum = ellipsoid_orbits([1, 1], 15)
    assert spectral_lower_bound(spectrum, 10, 15) == 2
    assert spectral_lower_bound(spectrum, 10, 15, max_ends=1) == 3


def test_spectral_bound_infinite_and_errors():
    spectrum = ellipsoid_orbits([1, 1], 2)
    assert spectral_lower_bound(spectrum, 100, 2) == INFINITE
    with pytest.raises(ValueError, match="smallest orbit action"):
        spectral_lower_bound(spectrum, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        spectral_lower_bound(spectrum, 3, 2)


def _rescaled(spectrum, c):
    return OrbitSpectrum(
        spectrum.domain,
        [dataclasses.replace(o, action=o.action * c) for o in spectrum.orbits],
    )


def _index_zero_ends(spectrum, codim, cutoff, max_ends):
    """Every end multiset of index zero within the cutoff, enumerated outright."""
    orbits = sorted(
        (o for o in spectrum.orbits if o.action <= cutoff), key=lambda o: o.action
    )
    target = codim + 2
    # every end acts at least the smallest action > 0, which bounds the
    # number of ends; when every end also costs CZ + 1 > 0, so does the index
    size = int(cutoff / orbits[0].action)
    cheapest = min(o.cz + 1 for o in orbits)
    if cheapest > 0:
        size = min(size, target // cheapest)
    if max_ends is not None:
        size = min(size, max_ends)
    return [
        ends
        for r in range(1, size + 1)
        for ends in itertools.combinations_with_replacement(orbits, r)
        if sum(o.cz + 1 for o in ends) == target
        and sum(o.action for o in ends) <= cutoff
    ]


def _least_action(candidates, admissible):
    actions = [
        sum(o.action for o in ends)
        for ends in candidates
        if admissible is None or admissible(ends)
    ]
    return min(actions) if actions else INFINITE


def _brute_force_bound(spectrum, codim, cutoff, max_ends, admissible):
    """Minimum action over every admissible end multiset."""
    candidates = _index_zero_ends(spectrum, codim, cutoff, max_ends)
    return _least_action(candidates, admissible)


def _assert_witness(result, codim, cutoff, max_ends, admissible):
    """The witness alone certifies the value: index zero, its action, the
    rule and the end cap, checked without the search."""
    if result.value == INFINITE:
        assert result.witness == ()
        return
    ends = result.witness
    assert sum(o.cz + 1 for o in ends) == codim + 2
    assert sum(o.action for o in ends) == result.value <= cutoff
    assert admissible is None or admissible(ends)
    assert max_ends is None or len(ends) <= max_ends


@st.composite
def _small_spectra(draw):
    """E(c, cx) up to 3c..6c or P(c, cx) up to 2c..3c, with c = p/q and
    q > 1: at most 12 orbits."""
    q = draw(st.integers(2, 9))
    p = draw(st.integers(1, 40).filter(lambda p: p % q))
    c = Fraction(p, q)
    x = 1 + Fraction(draw(st.integers(0, 8)), 4)
    if draw(st.booleans()):
        units = Fraction(draw(st.integers(6, 12)), 2)
        spectrum = ellipsoid_orbits([c, c * x], units * c)
    else:
        units = Fraction(draw(st.integers(4, 6)), 2)
        spectrum = _rescaled(polydisk_orbits(x, units), c)
    assert len(spectrum.orbits) <= 12
    return spectrum, units * c


@pytest.mark.parametrize(
    "admissible", [None, one_positive_end, polydisk_slice_rule]
)
@settings(max_examples=60, deadline=None)
@given(
    spectrum_cutoff=_small_spectra(),
    k=st.integers(1, 8),
    max_ends=st.none() | st.integers(1, 3),
)
def test_spectral_bound_against_brute_force(admissible, spectrum_cutoff, k, max_ends):
    spectrum, cutoff = spectrum_cutoff
    got = spectral_lower_bound(
        spectrum, 2 * k, cutoff, max_ends=max_ends, admissible=admissible
    )
    assert got == _brute_force_bound(spectrum, 2 * k, cutoff, max_ends, admissible)


@st.composite
def _hand_queries(draw):
    """Up to six orbits with p/q actions in [1, 3], some sharing one
    action-per-index ratio exactly, and an index target k.  Half the time
    one more orbit, above all the others in action, makes a drawn multiset
    of one or two of them index zero.  Its CZ + 1 is often <= 0, which
    switches the action-per-index bound off and lets partial multisets
    overshoot the index."""
    q = draw(st.integers(1, 6))
    tie = Fraction(draw(st.integers(q, 2 * q)), 2 * q)
    drawn = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(q, 3 * q), st.integers(0, 5)),
            min_size=1,
            max_size=6,
        )
    )
    # a tied orbit takes CZ 1 or 2, which keeps its action in [1, 3]
    ends = [  # (action, cz)
        (tie * (2 + cz % 2), 1 + cz % 2) if tied else (Fraction(p, q), cz)
        for tied, p, cz in drawn
    ]
    floor = min(a for a, _ in ends)
    k, times, plant, low_k, top_p, slack = draw(
        st.tuples(
            st.integers(0, 6),
            st.integers(1, 6),
            st.booleans(),
            st.booleans(),
            st.integers(q, 3 * q),
            st.integers(0, 2),
        )
    )
    planted = floor * times
    if plant:
        chosen = draw(st.lists(st.sampled_from(ends), min_size=1, max_size=2))
        cost = sum(cz + 1 for _, cz in chosen)
        if low_k:
            k = min(k, max(0, cost // 2 - 1))
        top = 3 + Fraction(top_p, 3 * q)
        ends.append((top, 2 * k + 1 - cost))
        planted = sum(a for a, _ in chosen) + top
    cutoff = planted + floor * Fraction(slack, 2)
    orbits = [OrbitRecord(f"o{j}", a, cz, j, (1,)) for j, (a, cz) in enumerate(ends)]
    return OrbitSpectrum("hand", orbits), cutoff, k


def _labels(ends):
    return tuple(sorted(o.label for o in ends))


@settings(max_examples=200, deadline=None)
@given(
    query=_hand_queries(),
    max_ends=st.none() | st.integers(1, 3),
    picks=st.lists(st.integers(0, 7), max_size=3),
)
def test_spectral_search_on_hand_built_spectra(query, max_ends, picks):
    spectrum, cutoff, k = query
    # the rule turns away the picked cheapest multisets, so the search must
    # step past leaves that beat every admissible one
    candidates = _index_zero_ends(spectrum, 2 * k, cutoff, max_ends)
    floor = _least_action(candidates, None)
    cheapest = [
        _labels(ends) for ends in candidates if sum(o.action for o in ends) == floor
    ]
    rejected = {cheapest[i % len(cheapest)] for i in picks} if cheapest else set()

    def admissible(ends):
        return _labels(ends) not in rejected

    result = spectral_search(
        spectrum, 2 * k, cutoff, max_ends=max_ends, admissible=admissible
    )
    assert result.value == _least_action(candidates, admissible)
    _assert_witness(result, 2 * k, cutoff, max_ends, admissible)
    assert result.value == spectral_lower_bound(
        spectrum, 2 * k, cutoff, max_ends=max_ends, admissible=admissible
    )


def test_spectral_search_work_and_witness():
    ball = ellipsoid_orbits([1, 1], 15)
    polydisk = polydisk_orbits(2, 15)
    for spectrum, k, rule in (
        (ball, 44, None),
        (polydisk, 27, polydisk_slice_rule),
    ):
        result = spectral_search(spectrum, 2 * k, 15, admissible=rule)
        assert result.nodes <= 700 and result.pruned > 0
        assert result.value == spectral_lower_bound(spectrum, 2 * k, 15, admissible=rule)
        _assert_witness(result, 2 * k, 15, None, rule)
    capped = spectral_search(ball, 10, 15, max_ends=1)
    assert capped.value == 3 and len(capped.witness) == 1
    _assert_witness(capped, 10, 15, 1, None)
    empty = spectral_search(ellipsoid_orbits([1, 1], 2), 100, 2)
    assert empty.value == INFINITE and empty.witness == () and empty.nodes >= 1


def test_spectral_bound_with_nonpositive_costs():
    x = OrbitRecord("x", Fraction(1), 2, 1, (1,))
    # x alone overshoots the index, and z (CZ + 1 = -1) brings it back
    z = OrbitRecord("z", Fraction(2), -2, 2, (1,))
    assert spectral_lower_bound(OrbitSpectrum("xz", [x, z]), 0, 10) == 3
    # the rule rejects the leaf y, but y plus the index-free w is admissible
    y = OrbitRecord("y", Fraction(1), 1, 1, (1,))
    w = OrbitRecord("w", Fraction(1), -1, 2, (1,))
    result = spectral_search(
        OrbitSpectrum("yw", [y, w]), 0, 10, admissible=lambda ends: len(ends) > 1
    )
    assert result.value == 2 and _labels(result.witness) == ("w", "y")


def test_spectral_search_refuses_nonpositive_actions_and_empty_spectra():
    """A zero action would divide by zero, a negative one would let the
    search report INFINITE, and an empty spectrum has no smallest action:
    each is refused by name, at every cutoff."""
    x = OrbitRecord("x", Fraction(1), 1, 1, (1,))
    zero = OrbitRecord("z", Fraction(0), 1, 2, (1,))
    negative = OrbitRecord("n", Fraction(-1, 2), 1, 3, (1,))
    cases = [
        (OrbitSpectrum("zero", [zero, x]), "orbit z has action 0"),
        (OrbitSpectrum("negative", [x, negative]), "orbit n has action -1/2"),
        (OrbitSpectrum("empty", []), "spectrum has no orbits"),
    ]
    for spectrum, message in cases:
        for cutoff in (5, Fraction(1, 3)):
            with pytest.raises(ValueError, match=message):
                spectral_search(spectrum, 0, cutoff)
            with pytest.raises(ValueError, match=message):
                spectral_lower_bound(spectrum, 2, cutoff)
        assert spectrum._lattices == {}


def test_spectral_bound_on_the_action_lattice():
    c = Fraction(17, 13)
    x = Fraction(13, 2)
    queries = [
        (ellipsoid_orbits([1, 1], 15), k, None) for k in (2, 5, 8, 11, 14)
    ]
    queries += [(ellipsoid_orbits([1, x], 15), k, one_positive_end) for k in range(1, 7)]
    queries += [(polydisk_orbits(3, 15), k, polydisk_slice_rule) for k in (1, 3, 5, 7)]
    queries.append((ellipsoid_orbits([1, 1], 2), 50, None))
    for spectrum, k, rule in queries:
        unit = spectral_lower_bound(spectrum, 2 * k, 15, admissible=rule)
        scaled = spectral_lower_bound(
            _rescaled(spectrum, c), 2 * k, 15 * c, admissible=rule
        )
        assert scaled == (INFINITE if unit == INFINITE else unit * c)

    # plain int actions still give an exact Fraction
    hand = OrbitSpectrum(
        "hand",
        [
            OrbitRecord("a", 1, 3, 1, (1,)),
            OrbitRecord("b", 3, 1, 2, (1,)),
            OrbitRecord("c", 4, 3, 1, (2,)),
        ],
    )
    bound = spectral_lower_bound(hand, 4, 10)
    assert type(bound) is Fraction and bound == 4  # a + b beats b + b + b
    assert spectral_lower_bound(hand, 4, Fraction(9, 2)) == 4
    assert spectral_lower_bound(hand, 4, Fraction(7, 2)) == INFINITE
    assert spectral_lower_bound(hand, 4, 10, max_ends=1) == INFINITE
    assert spectral_lower_bound(hand, 2, 10) == 1


def _search_or_error(spectrum, k, cutoff, max_ends, admissible):
    try:
        return spectral_search(
            spectrum, 2 * k, cutoff, max_ends=max_ends, admissible=admissible
        )
    except ValueError as err:
        return str(err)


@settings(max_examples=150, deadline=None)
@given(
    spectrum_cutoff=_small_spectra() | _hand_queries().map(lambda q: q[:2]),
    queries=st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 8),
            st.none() | st.integers(1, 3),
            st.sampled_from([None, one_positive_end, polydisk_slice_rule]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_kept_lattices_answer_as_a_fresh_spectrum(spectrum_cutoff, queries):
    """One spectrum object, asked a run of repeated and interleaved queries,
    answers each exactly as a fresh equal copy does: the same value, witness,
    nodes and prunes, or the same refusal of a cutoff below every action,
    which is never kept and leaves later cutoffs working."""
    spectrum, cutoff = spectrum_cutoff
    floor = min(o.action for o in spectrum.orbits)
    # below every action, the drawn cutoff, one with a new denominator, the
    # smallest action, and an int (the drawn cutoff itself when it is whole)
    cutoffs = [floor / 2, cutoff, cutoff * Fraction(5, 7), floor, math.ceil(cutoff)]
    kept = set()
    for which, k, max_ends, admissible in queries:
        at = cutoffs[which]
        fresh = OrbitSpectrum(spectrum.domain, list(spectrum.orbits))
        want = _search_or_error(fresh, k, at, max_ends, admissible)
        got = _search_or_error(spectrum, k, at, max_ends, admissible)
        assert got == want
        if isinstance(want, str):
            assert "smallest orbit action" in want
        else:
            assert type(got) is capacities.SearchResult
            kept.add(Fraction(at))
        assert set(spectrum._lattices) == kept


def _test_06_queries():
    """test_06's 48 (spectrum, k, rule) queries at cutoff 15, on four spectra."""
    ball = ellipsoid_orbits([1, 1], 15)
    queries = [(ball, k, None) for k in range(2, 45, 3)]
    skinny = ellipsoid_orbits([1, Fraction(13, 2)], 15)
    queries += [(skinny, k, one_positive_end) for k in range(1, 7)]
    for x in (2, 3):
        spectrum = polydisk_orbits(x, 15)
        dom = DomainDescriptor.polydisk(1, x)
        ks = [k for k in range(1, 29, 2) if g_tangency(dom, k) <= 15]
        queries += [(spectrum, k, polydisk_slice_rule) for k in ks]
    assert len(queries) == 48
    return queries


def test_test_06_queries_build_one_lattice_per_spectrum(monkeypatch):
    built = []
    real = capacities._action_lattice

    def spy(orbits, cutoff):
        built.append(cutoff)
        return real(orbits, cutoff)

    monkeypatch.setattr(capacities, "_action_lattice", spy)
    for spectrum, k, rule in _test_06_queries():
        spectral_search(spectrum, 2 * k, 15, admissible=rule)
    assert built == [15] * 4


def test_test_06_queries_cut_to_whole_lattice_units():
    """Every leaf action is a whole number of lattice units, so the bound
    rounds the missing action up: at c = 1 the 48 queries enter no more
    nodes than at the benchmark's non-integer scales (1,246), and the rules
    see the same multisets in the same order as under the unrounded cut."""
    calls, nodes = [], 0
    for spectrum, k, rule in _test_06_queries():

        def spy(ends, spectrum=spectrum, k=k, rule=rule):
            calls.append((spectrum.domain, k, tuple(e.label for e in ends)))
            return rule(ends)

        result = spectral_search(
            spectrum, 2 * k, 15, admissible=None if rule is None else spy
        )
        nodes += result.nodes
    assert nodes <= 1246
    assert len(calls) == 89
    # the call sequence under the unrounded cut, (best - action) * c <= ...
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == (
        "4c25652c33ddb6423652e360bf1e314ffc44e01468fff5ead1067dddf0192575"
    )


def test_threads_sharing_spectra_get_the_serial_results():
    threads_n, rounds = 8, 5
    want = [
        spectral_search(s, 2 * k, 15, admissible=rule)
        for s, k, rule in _test_06_queries()
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            queries = _test_06_queries()
            got = [None] * threads_n

            def run(i, queries=queries, got=got):
                order = list(range(len(queries)))
                random.Random(f"{r}:{i}").shuffle(order)
                results = {}
                for j in order:
                    s, k, rule = queries[j]
                    results[j] = spectral_search(s, 2 * k, 15, admissible=rule)
                got[i] = [results[j] for j in range(len(queries))]

            threads = [threading.Thread(target=run, args=(i,)) for i in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert all(results == want for results in got), r
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the finite word solver


def test_gb_solver_ball_levels(models):
    model = models["b2_lin"]
    for m in range(0, 11):
        assert gb_solver(model, [m], 2, 12) == m + 1


def test_gb_solver_two_letter_word(models):
    assert gb_solver(models["b2_lin"], [0, 1], 2, 12) == 3


def test_gb_solver_ellipsoid_levels(models):
    model = models["e1x"]
    for m in range(1, 7):
        assert gb_solver(model, [m - 1], 2, 8) == m


def test_gb_solver_skips_silent_generator(models):
    # b1 sits at action 13/2 but carries no augmentation component, so the
    # t^6 target is first hit by a7 at level 7
    assert gb_solver(models["e1x"], [6], 1, 8) == 7


def test_gb_solver_not_found(models):
    assert gb_solver(models["b2_lin"], [11], 1, 5) == NOT_FOUND
    assert gb_solver(models["b2_lin"], [99], 2, 12) == NOT_FOUND


def test_gb_solver_input_validation(models):
    with pytest.raises(ModelError, match="module"):
        gb_solver(models["cdga_aug"], [0], 2, 4)
    with pytest.raises(ModelError, match="filtered"):
        gb_solver(models["complex"], [0], 2, 4)
    with pytest.raises(ModelError, match="nonnegative"):
        gb_solver(models["b2_lin"], [], 2, 4)
    with pytest.raises(ModelError, match="nonnegative"):
        gb_solver(models["b2_lin"], [-1], 2, 4)
    with pytest.raises(ModelError, match="word cap"):
        gb_solver(models["b2_lin"], [0], 0, 4)
    with pytest.raises(ModelError, match="augmentation"):
        gb_solver(models["b2_lin"], [0], 2, 4, augmentation="nope")
    # l^1(x) = (T + T^2) y: evaluating at T = 1 would merge two action levels
    two_powers = parse_model(
        "[flags]\nfiltered = true\n"
        "[generators]\nx | 0 | 2\ny | 1 | 1\n"
        "[operations]\n1 | x | (1*T^1 + 1*T^2) * (y)\n"
        "[augmentations]\neps | y | (1*T^1) * t^0\n"
    )
    with pytest.raises(ModelError, match="several T-powers"):
        gb_solver(two_powers, [0], 1, 4)


# A filtered module model whose operations make closedness bind:
# l^1(a) = c and l^1(b) = -T c, so a alone is not closed but a + b is;
# l^2(a, b) = T f spoils the closed square (a + b)^2 until g, with
# l^1(g) = -T^2 f, repairs it.
def _closedness_model():
    return parse_model(
        "[flags]\nfiltered = true\n"
        "[generators]\na | 0 | 1\nc | 1 | 2\nb | 0 | 3\nf | 1 | 5\ng | 0 | 7\n"
        "[operations]\n"
        "1 | a | (1*T^0) * (c)\n"
        "1 | b | (-1*T^1) * (c)\n"
        "1 | g | (-1*T^2) * (f)\n"
        "2 | a,b | (1*T^1) * (f)\n"
        "[augmentations]\n"
        "eps | a | (1*T^1) * t^0\n"
        "eps | b | (1*T^3) * t^0\n"
    )


def _at_one(combo: dict) -> dict:
    return {k: sum((c for _, c in p.terms), Fraction(0)) for k, p in combo.items()}


def _reduce(vec: dict, combo: dict, echelon: list) -> tuple[dict, dict]:
    """Reduce ``vec`` against the echelon vectors, tracking ``combo``."""
    for pivot, u, u_combo in echelon:
        f = vec.get(pivot)
        if f:
            for k, x in u.items():
                vec[k] = vec.get(k, 0) - f * x
            for k, x in u_combo.items():
                combo[k] = combo.get(k, 0) - f * x
    return {k: x for k, x in vec.items() if x}, combo


def _echelon_and_kernel(vectors: list) -> tuple[list, list]:
    """Column reduction: an echelon basis of the span, and a kernel basis
    as index -> coefficient maps with Σ c_i·vectors[i] = 0."""
    echelon, kernel = [], []
    for i, v in enumerate(vectors):
        v, combo = _reduce(dict(v), {i: Fraction(1)}, echelon)
        if not v:
            kernel.append(combo)
            continue
        pivot = next(iter(v))
        f = v[pivot]
        echelon.append(
            (
                pivot,
                {k: x / f for k, x in v.items()},
                {k: x / f for k, x in combo.items()},
            )
        )
    return echelon, kernel


def _kernel_then_image_level(model, b, word_cap, cutoff, closed=True):
    """The least level whose closed words (all words if not ``closed``)
    have ε̂-image containing the t-word ``b``: the kernel of l̂ first, then
    its image under ε̂, by column reduction."""
    words = model.basis_words(word_cap, cutoff)
    aug = model.augmentation()
    target = tuple(sorted(b))
    for level in sorted({w.action for w in words}):
        cols = [w for w in words if w.action <= level]
        if closed:
            diffs = [_at_one(extend_coderivation(model, w)) for w in cols]
            kernel = _echelon_and_kernel(diffs)[1]
        else:
            kernel = [{i: Fraction(1)} for i in range(len(cols))]
        eps = [_at_one(augmentation_hat(aug, w)) for w in cols]
        images = []
        for x in kernel:
            image: dict = {}
            for i, c in x.items():
                for t, v in eps[i].items():
                    image[t] = image.get(t, 0) + c * v
            images.append(image)
        echelon = _echelon_and_kernel(images)[0]
        if not _reduce({target: Fraction(1)}, {}, echelon)[0]:
            return level
    return NOT_FOUND


def test_gb_solver_closedness_raises_the_level():
    model = _closedness_model()
    assert check_linfty_relations(model, 3) == []
    # a alone hits t^0 at level 1, but the first closed preimage is a + b
    assert _kernel_then_image_level(model, [0], 1, 12, closed=False) == 1
    assert gb_solver(model, [0], 1, 12) == 3
    # (a + b)^2 would be closed at level 6 without l^2; with it, g is needed
    assert _kernel_then_image_level(model, [0, 0], 2, 12, closed=False) == 2
    assert gb_solver(model, [0, 0], 2, 12) == 7


@pytest.mark.parametrize("name", ["closedness", "e1x"])
def test_gb_solver_on_one_model_matches_fresh_models(fixtures_dir, name):
    # l̂ is memoized per model: levels on a model reused across word caps
    # and cutoffs equal those on a model built for each query
    def fresh():
        if name == "closedness":
            return _closedness_model()
        return load_model(fixtures_dir / f"{name}.model")

    shared = fresh()
    for word_cap, cutoff in itertools.product((3, 1, 2), (12, 4, 7, 2)):
        for b in ([0], [3], [0, 0], [0, 1]):
            want = gb_solver(fresh(), b, word_cap, cutoff)
            assert gb_solver(shared, b, word_cap, cutoff) == want, (b, word_cap, cutoff)


def _cheaper_pair_model():
    # x reaches t^0 at level 3, and the longer but cheaper y·y at level 2
    return parse_model(
        "[flags]\nfiltered = true\n"
        "[generators]\nx | 0 | 3\ny | 0 | 1\n"
        "[augmentations]\n"
        "eps | x | (1*T^3) * t^0\n"
        "eps | y,y | (1*T^2) * t^0\n"
    )


@pytest.mark.parametrize("name", ["closedness", "b2_lin", "e1x", "cheaper_pair"])
def test_gb_solver_matches_kernel_then_image(models, name):
    hand = {"closedness": _closedness_model, "cheaper_pair": _cheaper_pair_model}
    model = hand[name]() if name in hand else models[name]
    for word_cap, cutoff in itertools.product((1, 2, 3), (4, 7, 10)):
        for b in ([0], [1], [3], [0, 0], [0, 1], [0, 0, 0]):
            expected = _kernel_then_image_level(model, b, word_cap, cutoff)
            got = gb_solver(model, b, word_cap, cutoff)
            assert got == expected, (b, word_cap, cutoff)


@st.composite
def _filtered_module_models(draw):
    """A filtered module model with degree +1 operations of arity 1 and 2
    that respect the filtration, and one augmentation; actions are drawn
    from a few values, so many words tie in action.

    Each generator g gets a weight φ(g) = action + s with s in {0, 1},
    additive on words, and every T-power is a difference of weights: the
    terms of l̂ and ε̂ that meet on one word then share one T-power, as
    the solver needs.
    """
    n = draw(st.integers(min_value=3, max_value=5))
    offset = st.integers(min_value=0, max_value=2)
    phi = {}
    for i in range(n):
        # offsets shrink to 0, which still alternates the degrees
        g = Generator(f"h{i}", (i + draw(offset)) % 2, 1 + (i + draw(offset)) % 3)
        phi[g] = g.action + draw(st.integers(min_value=0, max_value=1))
    gens = list(phi)

    def weight(word):
        return sum(phi[g] for g in word)

    coeff = st.sampled_from([1, -1, 2, 0])  # 0 leaves the term out

    def some_outputs(key):
        # T^(φ(key) - φ(h)) h: a T-power >= 0, at level >= key.action
        return {
            Word([h]): NovikovPolynomial([(weight(key) - phi[h], draw(coeff))])
            for h in gens
            if h.degree == key.degree + 1
            and phi[h] <= weight(key)
            and phi[h] - h.action <= weight(key) - key.action
        }

    keys = [Word([g]) for g in gens]
    for g1, g2 in itertools.combinations_with_replacement(gens, 2):
        sign, word = normalize_word([g1, g2])
        if sign == 1 and draw(st.booleans()):
            keys.append(word)
    operations = {(len(key), key): some_outputs(key) for key in keys}
    components = {
        key: {m: NovikovPolynomial([(weight(key), draw(coeff))]) for m in range(3)}
        for key in keys
    }
    return LInfinityModel(
        gens,
        operations,
        filtered=True,
        augmentations={"eps": Augmentation("eps", components)},
    )


@settings(max_examples=100, deadline=None)
@given(
    _filtered_module_models(),
    st.sampled_from([[0], [1], [2], [0, 0], [0, 1], [1, 2]]),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(range(8)),
)
def test_gb_solver_matches_kernel_then_image_on_random_models(
    model, b, word_cap, cutoff
):
    expected = _kernel_then_image_level(model, b, word_cap, cutoff)
    assert gb_solver(model, b, word_cap, cutoff) == expected


def test_gb_solver_solves_once_per_query(models, monkeypatch):
    calls = []

    def spy(matrix, rhs):
        calls.append(len(matrix))
        return solve_linear_system(matrix, rhs)

    monkeypatch.setattr(capacities, "solve_linear_system", spy)
    queries = [
        (_closedness_model(), [0, 0], 2, 12),
        (models["b2_lin"], [10], 2, 12),
        (models["b2_lin"], [99], 2, 12),
        (models["e1x"], [6], 1, 8),
        (models["e1x"], [0], 1, 0),
    ]
    for model, b, word_cap, cutoff in queries:
        calls.clear()
        gb_solver(model, b, word_cap, cutoff)
        assert len(calls) == 1, (b, word_cap, cutoff)


def _scaled(model, c):
    """The model with every action, T-exponent and the cutoff times c."""
    gens = {
        g.name: Generator(g.name, g.degree, g.action * c)
        for g in model.ordered_generators
    }

    def word(w):
        return Word([gens[g.name] for g in w])

    def coeff(p):
        return NovikovPolynomial([(e * c, x) for e, x in p.terms])

    operations = {
        (k, word(w)): {word(u): coeff(p) for u, p in combo.items()}
        for (k, w), combo in model.operations.items()
    }
    augmentations = {
        name: Augmentation(
            name,
            {
                word(w): {m: coeff(p) for m, p in tpoly.items()}
                for w, tpoly in aug.components.items()
            },
        )
        for name, aug in model.augmentations.items()
    }
    return LInfinityModel(
        list(gens.values()),
        operations,
        model.grading_mode,
        model.algebra_mode,
        None if model.cutoff is None else model.cutoff * c,
        model.filtered,
        augmentations,
    )


@pytest.mark.parametrize("c", [Fraction(2), Fraction(3, 2)])
def test_gb_solver_is_conformal(models, c):
    cases = [
        (_closedness_model(), [0], 1),
        (_closedness_model(), [0, 0], 2),
        (models["b2_lin"], [2], 2),
        (models["b2_lin"], [0, 1], 2),
        (models["e1x"], [6], 1),
        (models["e1x"], [9], 1),
    ]
    for model, b, word_cap in cases:
        level = gb_solver(model, b, word_cap, 10)
        scaled = gb_solver(_scaled(model, c), b, word_cap, 10 * c)
        assert scaled == (level if level == NOT_FOUND else c * level), b


@pytest.mark.parametrize("name", ["closedness", "b2_lin", "e1x"])
def test_gb_solver_word_cap_is_monotone(models, name):
    model = _closedness_model() if name == "closedness" else models[name]

    def key(level):
        return math.inf if level == NOT_FOUND else level

    for b in ([0], [2], [5], [0, 0], [0, 1], [0, 0, 0]):
        levels = [key(gb_solver(model, b, cap, 10)) for cap in (1, 2, 3)]
        assert levels == sorted(levels, reverse=True), (b, levels)


def test_gb_solver_stops_past_the_word_bound(models, monkeypatch):
    """The bound counts the words one solve takes: exactly ``MAX_GB_WORDS``
    words solve as before, and one less raises a usage error, not a
    ``ModelError``."""
    model = models["b2_lin"]
    level = gb_solver(model, [3], 2, 12)
    monkeypatch.setattr(capacities, "MAX_GB_WORDS", len(model.basis_words(2, 12)))
    assert gb_solver(model, [3], 2, 12) == level
    monkeypatch.setattr(capacities, "MAX_GB_WORDS", capacities.MAX_GB_WORDS - 1)
    with pytest.raises(ValueError, match="words for one g_b solve") as refused:
        gb_solver(model, [3], 2, 12)
    assert not isinstance(refused.value, ModelError)


def test_gb_solver_memory_follows_the_sparse_rows(fixtures_dir):
    """The 793-word b2_lin system at word cap 4 peaked at 6.6 MB while it was
    padded into a dense matrix; as sparse rows it stays near 1 MB."""
    model = load_model(fixtures_dir / "b2_lin.model")
    cutoff = 4 * max(g.action for g in model.ordered_generators)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        level = gb_solver(model, [3], 4, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10
    assert peak < 2 * 10**6
    assert level == 4


# ---------------------------------------------------------------------------
# four-dimensional sequences


def test_ech_sequence_matches_single_values():
    seq = ech_sequence(1, 2, 20)
    assert seq == [capacity_sequence_ECH(1, 2, k) for k in range(21)]
    a, b = Fraction(2, 3), Fraction(7, 5)
    seq = ech_sequence(a, b, 15)
    assert seq == [capacity_sequence_ECH(a, b, k) for k in range(16)]
    assert ech_sequence(1, 1, 0) == [0]


def test_second_eh_capacity_obstructs_round_into_skinny():
    assert capacity_sequence_EH([1, 2], 2) == 2
    assert capacity_sequence_EH([Fraction(3, 2), Fraction(3, 2)], 2) == Fraction(3, 2)


def _ech_brute(a, b, K):
    # i, j <= K suffice: c_K <= K * min(a, b) < (K + 1) * min(a, b)
    return sorted(i * a + j * b for i in range(K + 1) for j in range(K + 1))[: K + 1]


@settings(max_examples=150, deadline=None)
@given(
    axes=st.lists(_PARAM, min_size=4, max_size=4),
    K=st.integers(1, 40),
)
def test_obstruct_4d_matches_the_fraction_comparison(axes, K):
    a, b, c, d = axes
    src, tgt = _ech_brute(a, b, K), _ech_brute(c, d, K)
    want = next((k for k in range(1, K + 1) if src[k] > tgt[k]), NO_OBSTRUCTION)
    assert obstruct_4d_ellipsoid(a, b, c, d, K) == want
    values, scale = ech_lattice(a, b, K)
    assert [Fraction(v, scale) for v in values] == src


@settings(max_examples=150, deadline=None)
@given(
    x=st.builds(Fraction, st.integers(9, 90), st.integers(1, 9)).filter(
        lambda x: x >= 1
    ),
    K=st.integers(1, 40),
)
def test_mcduff_function_matches_the_fraction_ratio_scan(x, K):
    num, den = _ech_brute(1, x, K), _ech_brute(1, 1, K)
    want = max(num[k] / den[k] for k in range(1, K + 1))
    got = mcduff_f(x, K)
    assert got == want and type(got) is Fraction


def test_obstruct_4d_finds_the_witness():
    assert obstruct_4d_ellipsoid(1, 2, Fraction(3, 2), Fraction(3, 2), 100) == 2
    assert obstruct_4d_ellipsoid(1, 1, 1, 1, 100) == NO_OBSTRUCTION
    assert obstruct_4d_ellipsoid(1, 1, 1, 2, 50) == NO_OBSTRUCTION
    with pytest.raises(ValueError):
        obstruct_4d_ellipsoid(1, 2, 1, 1, 0)


def test_mcduff_function_small_arguments():
    assert mcduff_f(1, 10) == 1
    assert mcduff_f(2, 50) == 2
    with pytest.raises(ValueError):
        mcduff_f(Fraction(1, 2), 5)
    with pytest.raises(ValueError):
        mcduff_f(2, 0)


def test_mcduff_function_monotone_in_x():
    values = [mcduff_f(x, 60) for x in (2, 3, 4, 5)]
    assert values == sorted(values)
    for x, v in zip((2, 3, 4, 5), values):
        assert 1 <= v <= x


def test_mcduff_function_near_nine():
    value = mcduff_f(9, 5000)
    assert Fraction(294, 100) <= value <= 3


def test_mcduff_function_matches_published_values():
    """Published values of the ellipsoid-into-ball function, in ≈3 ms.

    At the integers f(n)^2 · density(n) = n, with the ball-packing densities
    of n equal balls (McDuff–Polterovich 1994; Biran 1997); 13/2 and 34/5
    are corners of the Fibonacci staircase (McDuff–Schlenk), whose first
    witnesses, like that of f(8), lie just past the smaller K.
    """
    start = time.perf_counter()
    densities = [1, Fraction(1, 2), Fraction(3, 4), 1, Fraction(4, 5),
                 Fraction(24, 25), Fraction(63, 64), Fraction(288, 289), 1]
    for n, density in enumerate(densities, 1):
        assert mcduff_f(n, 30) ** 2 * density == n
    assert mcduff_f(Fraction(13, 2), 30) == Fraction(13, 5)
    assert mcduff_f(Fraction(34, 5), 200) == Fraction(34, 13)
    # the first witnesses are k = 27 and k = 104
    assert mcduff_f(8, 26) < Fraction(17, 6)
    assert mcduff_f(Fraction(34, 5), 103) < Fraction(34, 13)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# weight expansions and packing bounds


def test_weight_decomposition_55_over_8():
    weights = weight_decomposition(55, 8)
    assert weights == [1] * 6 + [Fraction(7, 8)] + [Fraction(1, 8)] * 7


def test_weight_decomposition_identities():
    rng = random.Random(3)
    done = 0
    while done < 50:
        q = rng.randint(1, 30)
        p = rng.randint(q, 400)
        if math.gcd(p, q) != 1:
            continue
        done += 1
        weights = weight_decomposition(p, q)
        assert sum(w * w for w in weights) == Fraction(p, q)
        assert sum(weights) == Fraction(p + q - 1, q)
        assert weights == sorted(weights, reverse=True)


def test_weight_decomposition_validation():
    with pytest.raises(ValueError):
        weight_decomposition(4, 6)
    with pytest.raises(ValueError):
        weight_decomposition(3, 5)


def test_packing_bounds_spread_points():
    weights = weight_decomposition(55, 8)
    assert packing_lower_bounds(weights, ("r_points", 5)) == 5
    assert packing_lower_bounds(weights, ("r_points", 1)) == 1
    assert packing_lower_bounds(weights, ("g_tangency", 5)) == 2
    assert packing_lower_bounds(weights, ("r_multipoint", 4)) == 4


def test_packing_bounds_validation():
    with pytest.raises(ValueError):
        packing_lower_bounds([], ("r_points", 1))
    with pytest.raises(ValueError):
        packing_lower_bounds([Fraction(1, 2), 1], ("r_points", 1))
    with pytest.raises(ValueError):
        packing_lower_bounds([1], ("mystery", 1))
    with pytest.raises(ValueError):
        packing_lower_bounds([1], ("r_points", 0))


# ---------------------------------------------------------------------------
# stabilized obstructions


def test_stabilized_family_into_the_ball():
    for d in range(1, 11):
        source = DomainDescriptor.ellipsoid(1, 3 * d - 1)
        bound, witness = stabilized_obstruction(source, "ball")
        assert bound == Fraction(3 * d - 1, d)
        assert witness == 3 * d - 1


def test_stabilized_family_approaches_three():
    bound, _ = stabilized_obstruction(DomainDescriptor.ellipsoid(1, 299), "ball")
    assert bound == 3 - Fraction(1, 100)


def test_stabilized_polydisk_sources():
    assert stabilized_obstruction(DomainDescriptor.polydisk(1, 2), "polydisk") == (
        Fraction(3, 2),
        3,
    )
    assert stabilized_obstruction(DomainDescriptor.polydisk(1, 3), "ball") == (
        Fraction(5, 2),
        5,
    )


def test_stabilized_scaling_and_trivial_cases():
    small = stabilized_obstruction(DomainDescriptor.ellipsoid(1, 8), "ball")
    large = stabilized_obstruction(DomainDescriptor.ellipsoid(2, 16), "ball")
    assert small == (Fraction(8, 3), 8)
    assert large == (Fraction(16, 3), 8)
    assert stabilized_obstruction(DomainDescriptor.ball(1), "ball") == (1, 2)
    with pytest.raises(ValueError):
        stabilized_obstruction(DomainDescriptor.ball(1), "cube")
