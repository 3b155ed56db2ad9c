"""Release gate: twelve end-to-end checks with one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each check re-derives its expected values from scratch (closed forms,
hand-counted fixtures, or published staircase data) rather than trusting
any intermediate of the code under test.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from symcap import gw
from symcap.capacities import (
    DomainDescriptor,
    capacity_sequence_ECH,
    capacity_sequence_EH,
    g_tangency,
    gb_solver,
    mcduff_f,
    one_positive_end,
    polydisk_slice_rule,
    spectral_lower_bound,
    stabilized_obstruction,
    weight_decomposition,
)
from symcap.linfty import (
    Augmentation,
    Generator,
    LInfinityModel,
    MaurerCartanElement,
    augmentation_hat_combo,
    augmentation_pushforward_mc,
    check_linfty_relations,
    exp_mc,
    extend_coderivation,
    f_epsilon_map,
    inverse_scalar_augmentation,
    linearize,
    morphism_on_combo,
)
from symcap.novikov import NovikovPolynomial
from symcap.spectra import (
    ellipsoid_orbits,
    fredholm_index,
    polydisk_orbits,
)
from symcap.words import Word, coproduct

ONE = NovikovPolynomial.unit()

SUITE = ["b2", "b2_lin", "e1x", "dgla", "cdga_aug", "complex"]


@contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"[{number:2d}] {label}: FAIL")
        raise
    print(f"[{number:2d}] {label}: pass")


def best_time(fn, repeats=5):
    fn()  # warm up imports and caches before timing
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------


def test_01_eh_values():
    with verdict(1, "EH capacity values"):
        e12 = lambda: [capacity_sequence_EH((1, 2), k) for k in range(1, 8)]
        round_ball = lambda: [
            capacity_sequence_EH((Fraction(3, 2), Fraction(3, 2)), k)
            for k in range(1, 8)
        ]
        assert e12() == [1, 2, 2, 3, 4, 4, 5]
        assert round_ball() == [
            Fraction(n, 2) for n in (3, 3, 6, 6, 9, 9, 12)
        ]
        assert best_time(e12) < 0.001
        assert best_time(round_ball) < 0.001


def test_02_ech_values():
    with verdict(2, "ECH capacity values"):
        e12 = lambda: [capacity_sequence_ECH(1, 2, k) for k in range(1, 9)]
        round_ball = lambda: [
            capacity_sequence_ECH(Fraction(3, 2), Fraction(3, 2), k)
            for k in range(1, 10)
        ]
        assert e12() == [1, 2, 2, 3, 3, 4, 4, 4]
        assert round_ball() == [
            Fraction(n, 2) for n in (3, 3, 6, 6, 6, 9, 9, 9, 9)
        ]
        assert best_time(e12) < 0.001
        assert best_time(round_ball) < 0.001


def test_03_second_capacity_obstruction():
    with verdict(3, "four-dimensional obstruction fixture"):
        skinny = capacity_sequence_EH((1, 2), 2)
        round_ball = capacity_sequence_EH((Fraction(3, 2), Fraction(3, 2)), 2)
        assert skinny == 2
        assert round_ball == Fraction(3, 2)
        assert skinny > round_ball


def test_04_staircase_asymptote():
    with verdict(4, "ball-embedding staircase asymptote"):
        start = time.perf_counter()
        near_limit = mcduff_f(9, 5000)
        elapsed = time.perf_counter() - start
        assert Fraction(294, 100) <= near_limit <= 3  # f(9) = sqrt(9)
        assert elapsed < 10.0
        for big in (1, 10, 400):
            assert mcduff_f(1, big) == 1
        assert mcduff_f(2, 2) == 2
        assert mcduff_f(2, 50) == 2
        # inclusion E(1,x) into B(x) caps the ratio sup from above by x
        for x in (2, Fraction(7, 2), 9):
            value = mcduff_f(x, 300)
            assert 1 <= value <= x


def test_05_closed_form_tangency_capacities():
    with verdict(5, "closed-form tangency capacities"):
        ball = DomainDescriptor.ball(1)
        for k in range(2, 51, 3):
            assert g_tangency(ball, k) == -(-(k + 1) // 3)
        rng = random.Random(55)
        for _ in range(20):
            x = 1 + Fraction(rng.randint(0, 40), rng.randint(1, 5))
            m = rng.randint(1, int(x))
            assert g_tangency(DomainDescriptor.ellipsoid(1, x), m) == m
        for x in (1, 2, 3, Fraction(7, 2)):
            dom = DomainDescriptor.polydisk(1, x)
            for m in range(1, 26, 2):
                assert g_tangency(dom, m) == min(m, x + (m - 1) // 2)


def test_06_spectral_search_matches_closed_forms():
    with verdict(6, "spectral search matches closed forms"):
        start = time.perf_counter()
        cutoff = 15

        ball = ellipsoid_orbits([1, 1], cutoff)
        for k in range(2, 45, 3):
            want = g_tangency(DomainDescriptor.ball(1), k)
            assert spectral_lower_bound(ball, 2 * k, cutoff) == want

        x = Fraction(13, 2)
        skinny = ellipsoid_orbits([1, x], cutoff)
        for k in range(1, 7):  # the linear range runs up to floor(x)
            bound = spectral_lower_bound(
                skinny, 2 * k, cutoff, admissible=one_positive_end
            )
            assert bound == g_tangency(DomainDescriptor.ellipsoid(1, x), k) == k

        for x in (2, 3):
            spectrum = polydisk_orbits(x, cutoff)
            dom = DomainDescriptor.polydisk(1, x)
            for k in range(1, 29, 2):
                want = g_tangency(dom, k)
                if want > cutoff:
                    break
                bound = spectral_lower_bound(
                    spectrum, 2 * k, cutoff, admissible=polydisk_slice_rule
                )
                assert bound == want

        assert time.perf_counter() - start < 30.0


def test_07_stabilized_obstruction_bounds():
    with verdict(7, "stabilized obstruction bounds"):
        bounds = []
        for d in range(1, 11):
            source = DomainDescriptor.ellipsoid(1, 3 * d - 1)
            got = stabilized_obstruction(source, "ball")
            assert got == (Fraction(3 * d - 1, d), 3 * d - 1)
            bounds.append(got[0])
        assert bounds == sorted(bounds)
        assert all(b < 3 for b in bounds)
        assert 3 - bounds[-1] == Fraction(1, 10)  # gap 1/d closes to zero

        p12 = DomainDescriptor.polydisk(1, 2)
        assert stabilized_obstruction(p12, "polydisk") == (Fraction(3, 2), 3)
        p13 = DomainDescriptor.polydisk(1, 3)
        assert stabilized_obstruction(p13, "ball") == (Fraction(5, 2), 5)


# ---------------------------------------------------------------------------
# the operation-engine identities (criterion 8) need two small helpers that
# re-derive the coalgebra axioms directly from the shuffle coproduct


def _pair_add(acc, key, coeff):
    prev = acc.get(key)
    total = coeff if prev is None else prev + coeff
    if (total.is_zero() if hasattr(total, "is_zero") else not total):
        acc.pop(key, None)
    else:
        acc[key] = total


def _coleibniz_residual(model, w):
    acc = {}
    for u, c in extend_coderivation(model, w).items():
        for left, right, s in coproduct(u):
            _pair_add(acc, (left, right), c.scale(s))
    for left, right, s in coproduct(w):
        for u, c in extend_coderivation(model, left).items():
            _pair_add(acc, (u, right), c.scale(-s))
        tail = -1 if left.degree % 2 else 1
        for u, c in extend_coderivation(model, right).items():
            _pair_add(acc, (left, u), c.scale(-s * tail))
    return acc


def _coassociativity_residual(w):
    acc = {}
    for left, right, s in coproduct(w):
        for a, b, s2 in coproduct(left):
            _pair_add(acc, (a, b, right), s * s2)
        for b, c, s2 in coproduct(right):
            _pair_add(acc, (left, b, c), -s * s2)
    return acc


def _uv_model():
    u = Generator("u", 0, Fraction(1))
    v = Generator("v", 0, Fraction(1))
    model = LInfinityModel([u, v], {}, cutoff=6)
    eps = Augmentation(
        "eps",
        {
            Word([u]): {0: model.nov(((1, 1),))},
            Word([v]): {1: model.nov(((1, 1),))},
            Word([u, v]): {0: model.nov(((2, 1),))},
        },
    )
    element = MaurerCartanElement(
        model, {u: model.nov(((1, 1),)), v: model.nov(((2, 1),))}
    )
    return eps, element


def test_08_operation_engine_identities(models):
    with verdict(8, "operation-engine identities"):
        start = time.perf_counter()
        suite = [models[name] for name in SUITE]
        assert len(suite) >= 5

        for model in suite:
            assert check_linfty_relations(model, 3) == []
            for w in model.basis_words(4):
                assert _coleibniz_residual(model, w) == {}, w
                assert _coassociativity_residual(w) == {}, w

        cdga = models["cdga_aug"]
        eps = cdga.augmentations["eps"]
        forward = f_epsilon_map(cdga, eps)
        backward = f_epsilon_map(cdga, inverse_scalar_augmentation(cdga, eps))
        for w in cdga.basis_words(4):
            halfway = morphism_on_combo(backward, {w: ONE})
            assert morphism_on_combo(forward, halfway) == {w: ONE}

        _, lin = linearize(cdga, eps)
        assert check_linfty_relations(lin, 2) == []  # (d_lin)^2 = 0

        eps_uv, element = _uv_model()
        pushed = augmentation_pushforward_mc(eps_uv, element)
        hat = augmentation_hat_combo(eps_uv, exp_mc(element))
        assert pushed == {k[0]: c for k, c in hat.items() if len(k) == 1}

        assert time.perf_counter() - start < 60.0


def test_09_solver_levels(models):
    with verdict(9, "solver levels on fixture models"):
        for m in range(0, 11):
            assert gb_solver(models["b2_lin"], [m], 2, 12) == m + 1
        for m in range(1, 7):
            assert gb_solver(models["e1x"], [m - 1], 2, 8) == m


def test_10_weight_expansions():
    with verdict(10, "weight expansions"):
        expected = [1] * 6 + [Fraction(7, 8)] + [Fraction(1, 8)] * 7
        assert weight_decomposition(55, 8) == expected

        rng = random.Random(10)
        seen = 0
        while seen < 50:
            q = rng.randint(1, 60)
            p = rng.randint(q, 600)
            if math.gcd(p, q) != 1:
                continue
            seen += 1
            weights = weight_decomposition(p, q)
            assert sum(w * w for w in weights) == Fraction(p, q)
            assert sum(weights) == Fraction(p + q - 1, q)


def test_11_tangency_counts(fixtures_dir):
    with verdict(11, "tangency counts from base tables"):
        table = gw.load_table(fixtures_dir / "base.tbl")
        start = time.perf_counter()

        lines = gw.reduce_combination(gw.make_term([(1,)], "CP2", 1))
        assert gw.evaluate(lines, table) == 1  # T_1

        conics = gw.reduce_combination(gw.make_term([(4,)], "CP2", 2))
        assert gw.evaluate(conics, table) == 1  # T_2: one tangent conic

        covers = gw.reduce_combination(gw.make_term([(2,)], "CP1", 2))
        assert gw.evaluate(covers, table) == 0

        assert time.perf_counter() - start < 1.0


def test_12_index_arithmetic():
    with verdict(12, "index arithmetic"):
        rng = random.Random(12)
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
        for n in (2, 3, 4, 5):
            cz = 2 * n + 1
            assert fredholm_index(n, 0, [cz], [cz]) == 0
