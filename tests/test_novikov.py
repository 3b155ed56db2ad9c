from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcap.novikov import NovikovPolynomial, fmt_rational, parse_novikov

rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=8),
)
exponents = st.builds(
    Fraction,
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=4),
)
polys = st.lists(st.tuples(exponents, rationals), max_size=5).map(
    NovikovPolynomial
)


positive_cutoffs = st.builds(
    Fraction, st.integers(min_value=1, max_value=24), st.integers(1, 4)
)
cutoffs = st.one_of(st.none(), positive_cutoffs)
# two cutoffs c1 < c2
distinct_cutoffs = st.tuples(positive_cutoffs, positive_cutoffs).map(
    lambda t: (t[0], t[0] + t[1])
)
cut_polys = st.builds(
    NovikovPolynomial, st.lists(st.tuples(exponents, rationals), max_size=5), cutoffs
)
scalars = st.one_of(
    st.sampled_from([1, -1, 0, Fraction(1), Fraction(-1)]),
    st.integers(min_value=-5, max_value=5),
    rationals,
)


def nov(*terms, cutoff=None):
    return NovikovPolynomial(terms, cutoff)


def assert_canonical(p, cutoff):
    """The value decides the type: exponents are ``Fraction``s, and a
    coefficient is an ``int`` exactly when it is integral."""
    exps = [e for e, _ in p.terms]
    assert p.cutoff == cutoff
    assert all(type(e) is Fraction for e in exps)
    for _, c in p.terms:
        if type(c) is int:
            continue
        assert type(c) is Fraction and c.denominator > 1, c
    assert all(a < b for a, b in zip(exps, exps[1:]))
    assert all(c != 0 for _, c in p.terms)
    assert cutoff is None or all(e < cutoff for e in exps)


def test_terms_are_merged_sorted_and_nonzero():
    p = nov((2, 1), (0, 3), (2, -1), (1, 0))
    assert p.terms == ((Fraction(0), Fraction(3)),)
    assert_canonical(p, None)


def test_negative_exponents_are_rejected():
    with pytest.raises(ValueError):
        nov((-1, 1))


def test_cutoff_must_be_positive():
    with pytest.raises(ValueError):
        nov(cutoff=0)


def test_cutoff_drops_high_exponents_on_construction():
    p = nov((1, 5), (3, 7), cutoff=3)
    assert p.terms == ((Fraction(1), Fraction(5)),)
    assert p.cutoff == 3


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_additive_and_multiplicative_units(a):
    assert a + NovikovPolynomial.zero() == a
    assert a * NovikovPolynomial.unit() == a
    assert (a - a).is_zero()


@given(polys, polys)
def test_truncation_is_a_ring_quotient(a, b):
    cut = Fraction(5, 2)
    ta, tb = a.truncate(cut), b.truncate(cut)
    assert (a + b).truncate(cut) == ta + tb
    assert (a * b).truncate(cut) == (ta * tb).truncate(cut)


@given(polys, polys)
def test_valuation_is_multiplicative_without_truncation(a, b):
    got = (a * b).valuation()
    if a.is_zero() or b.is_zero():
        assert got == float("inf")
    else:
        assert got == a.valuation() + b.valuation()


def test_valuation_and_at_one():
    p = nov((Fraction(1, 2), 3), (2, -3))
    assert p.valuation() == Fraction(1, 2)
    assert p.at_one() == 0
    assert NovikovPolynomial.zero().valuation() == float("inf")


def test_shift_scale_monomial():
    p = NovikovPolynomial.monomial(1, 2)
    assert p.scale(Fraction(1, 2)) == nov((1, 1))
    assert p.scale(0).is_zero()


def test_mixed_cutoff_arithmetic_takes_the_finer_one():
    a = nov((1, 1), cutoff=4)
    b = nov((3, 1), cutoff=2)
    assert (a + b).cutoff == 2
    assert (a + b).terms == ((Fraction(1), Fraction(1)),)
    c = nov((1, 1))
    assert (a * c).cutoff == 4


@given(polys)
def test_str_parse_round_trip(p):
    assert parse_novikov(str(p)) == p


def test_canonical_text_form():
    p = nov((Fraction(1, 2), Fraction(-3, 4)), (2, 5))
    assert str(p) == "-3/4*T^(1/2) + 5*T^2"
    assert parse_novikov("-3/4*T^(1/2) + 5*T^2") == p


def test_parse_shorthands():
    assert parse_novikov("0").is_zero()
    assert parse_novikov("7/3") == nov((0, Fraction(7, 3)))
    assert parse_novikov("1*T^1", cutoff=5).cutoff == 5


@pytest.mark.parametrize(
    "bad", ["T^1", "1*T", "x", "1*T^1 * 2", "", "1/0", "1/0*T^1", "1*T^(1/00)"]
)
def test_parse_rejects_malformed_terms(bad):
    with pytest.raises(ValueError):
        parse_novikov(bad)


def test_fmt_rational():
    assert fmt_rational(Fraction(3)) == "3"
    assert fmt_rational(Fraction(3, 2)) == "3/2"
    # an int prints as the equal Fraction does; a bool is not an int here
    assert fmt_rational(3) == fmt_rational(Fraction(3)) == "3"
    assert fmt_rational(-7) == "-7" and fmt_rational(0) == "0"
    assert fmt_rational(True) == "1"


def finer(*cutoffs):
    known = [x for x in cutoffs if x is not None]
    return min(known) if known else None


def expanded_product(a, b):
    return [(e1 + e2, k1 * k2) for e1, k1 in a.terms for e2, k2 in b.terms]


# one nonzero term, often a zero shift or a unit scale, under a cutoff that
# may drop it
single_terms = st.builds(
    lambda e, k, cutoff: NovikovPolynomial([(e, k)], cutoff),
    st.one_of(st.just(Fraction(0)), exponents),
    st.one_of(st.just(Fraction(1)), rationals.filter(bool)),
    cutoffs,
)


@given(cut_polys, cut_polys, scalars, distinct_cutoffs, single_terms)
def test_results_equal_the_constructor_on_expanded_terms(p, q, c, mixed, s):
    both = finer(p.cutoff, q.cutoff)
    c1, c2 = mixed
    cases = [
        (p.scale(c), [(e, k * c) for e, k in p.terms], p.cutoff),
        (-p, [(e, -k) for e, k in p.terms], p.cutoff),
        (p + q, list(p.terms) + list(q.terms), both),
        (p * q, expanded_product(p, q), both),
        # a single-term factor on either side
        (s * q, expanded_product(s, q), finer(s.cutoff, q.cutoff)),
        (p * s, expanded_product(p, s), finer(p.cutoff, s.cutoff)),
    ]
    # the same terms under different cutoffs: None + c, and c1 + c2 with c1 != c2
    for x, y in ((None, c1), (c2, None), (c1, c2), (c2, c1)):
        a, b = NovikovPolynomial(p.terms, x), NovikovPolynomial(q.terms, y)
        cases.append((a + b, list(a.terms) + list(b.terms), finer(x, y)))
        cases.append((a * b, expanded_product(a, b), finer(x, y)))
        t = NovikovPolynomial(s.terms, x)
        cases.append((t * b, expanded_product(t, b), finer(x, y)))
        cases.append((b * t, expanded_product(b, t), finer(x, y)))
    for got, expanded, cutoff in cases:
        assert got.terms == NovikovPolynomial(expanded, cutoff).terms
        assert_canonical(got, cutoff)


def test_products_cancel_and_cut():
    # (1 + T)(1 - T) = 1 - T^2: the T terms cancel, and T^2 survives only
    # below the cutoff, on either factor
    one_and_t = [(0, 1), (1, 1)]
    one_minus_t = [(0, 1), (1, -1)]
    for cutoff, want in ((None, [(0, 1), (2, -1)]), (3, [(0, 1), (2, -1)]),
                         (2, [(0, 1)]), (Fraction(3, 2), [(0, 1)])):
        for x, y in ((cutoff, None), (None, cutoff), (cutoff, cutoff)):
            a, b = nov(*one_and_t, cutoff=x), nov(*one_minus_t, cutoff=y)
            got = a * b
            assert got.terms == tuple((Fraction(e), Fraction(k)) for e, k in want)
            assert got.terms == NovikovPolynomial(expanded_product(a, b), cutoff).terms
            assert_canonical(got, None if cutoff is None else Fraction(cutoff))
    # a single term stops at the first product at or above the cutoff
    t = nov((1, 2))
    got = t * nov((0, 1), (1, -1), (3, 5), cutoff=2)
    assert got.terms == ((1, 2),) and got.cutoff == 2
    assert_canonical(got, 2)
    assert (nov((2, 1), cutoff=5) * nov((0, 1), cutoff=2)).terms == ()
    # the unit keeps the other factor's terms below the smaller cutoff
    got = nov((0, 1), cutoff=2) * nov((1, 3), (2, 5))
    assert got.terms == ((1, 3),) and got.cutoff == 2
    assert_canonical(got, 2)


@st.composite
def cancelling_pairs(draw):
    """(p, q) where q negates some terms of p, shifts others, and adds its
    own; q's exponents are equal copies of p's, not the same objects."""
    p = draw(cut_polys)
    q_terms = []
    for e, c in p.terms:
        kind = draw(st.sampled_from(["negate", "shift", "skip"]))
        e_copy = Fraction(e.numerator, e.denominator)
        if kind == "negate":
            q_terms.append((e_copy, -c))
        elif kind == "shift":
            q_terms.append((e_copy, -c + draw(rationals)))
    q_terms += draw(st.lists(st.tuples(exponents, rationals), max_size=3))
    q = NovikovPolynomial(q_terms, draw(cutoffs))
    return p, q


@given(cancelling_pairs())
def test_merged_sum_equals_the_constructor_on_both_term_lists(pair):
    p, q = pair
    cutoff = finer(p.cutoff, q.cutoff)
    for a, b in ((p, q), (q, p)):
        got = a + b
        want = NovikovPolynomial(a.terms + b.terms, cutoff)
        assert got.terms == want.terms and got.cutoff == want.cutoff
        assert_canonical(got, cutoff)
    assert (p + (-p)).terms == () and (p - p).is_zero()


def test_merged_sum_edge_cases():
    half = Fraction(1, 2)
    # cancellation to zero, with and without cutoffs
    assert (nov((half, 2)) + nov((half, -2))).terms == ()
    assert (nov((half, 2), cutoff=3) + nov((half, -2), cutoff=1)).terms == ()
    # the smaller cutoff drops the other side's high exponents
    s = nov((0, 1), (2, 1), cutoff=5) + nov((1, 1), cutoff=2)
    assert s.terms == ((0, 1), (1, 1)) and s.cutoff == 2
    s = nov((0, 1), (3, 1)) + nov((1, 1), cutoff=3)
    assert s.terms == ((0, 1), (1, 1)) and s.cutoff == 3
    # zero on either side, and None cutoffs on both
    p = nov((1, 3), (2, -1))
    assert (p + NovikovPolynomial.zero()).terms == p.terms
    assert (NovikovPolynomial.zero() + p).terms == p.terms
    assert (p + p).terms == ((1, 6), (2, -2)) and (p + p).cutoff is None


# ---------------------------------------------------------------------------
# against an all-Fraction reference, written here: a polynomial is a dict
# {exponent: coefficient} of Fractions with its cutoff, and shares no code
# with symcap.novikov


def ref_poly(terms, cutoff):
    cutoff = None if cutoff is None else Fraction(cutoff)
    acc = {}
    for e, c in terms:
        e = Fraction(e)
        if cutoff is None or e < cutoff:
            acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in acc.items() if c}, cutoff


def ref_apply(op, ref, other):
    (acc, cutoff) = ref
    if op == "neg":
        return ref_poly([(e, -c) for e, c in acc.items()], cutoff)
    if op == "scale":
        return ref_poly([(e, c * other) for e, c in acc.items()], cutoff)
    other_acc, other_cutoff = other
    both = finer(cutoff, other_cutoff)
    if op == "+":
        return ref_poly(list(acc.items()) + list(other_acc.items()), both)
    if op == "-":
        return ref_poly(
            list(acc.items()) + [(e, -c) for e, c in other_acc.items()], both
        )
    # "*" and "*left": multiplication commutes
    return ref_poly(
        [(e1 + e2, c1 * c2) for e1, c1 in acc.items() for e2, c2 in other_acc.items()],
        both,
    )


def apply(op, p, other):
    if op == "neg":
        return -p
    if op == "scale":
        return p.scale(other)
    q = NovikovPolynomial(*other)
    return {"+": p + q, "-": p - q, "*": p * q, "*left": q * p}[op]


def assert_matches(got, ref):
    """``got`` holds the reference's value, in the one form its value
    decides: Fraction exponents, an int coefficient exactly when integral,
    and no float anywhere."""
    acc, cutoff = ref
    want = [
        (e, c.numerator if c.denominator == 1 else c) for e, c in sorted(acc.items())
    ]
    assert [(type(e), e, type(c), c) for e, c in got.terms] == [
        (Fraction, e, type(c), c) for e, c in want
    ]
    assert got.cutoff == cutoff and type(got.cutoff) in (type(None), Fraction)
    # equal values give equal terms, however they were built
    same = NovikovPolynomial(sorted(acc.items()), cutoff)
    assert [tuple(map(type, t)) for t in same.terms] == [
        tuple(map(type, t)) for t in got.terms
    ]
    assert same == got and hash(same) == hash(got)


# coefficients as ints, reduced Fractions, or integral Fractions such as 4/2
mixed_coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    rationals,
    st.builds(lambda n, k: Fraction(n * k, k), st.integers(-6, 6), st.integers(1, 4)),
)
mixed_exponents = st.one_of(st.integers(min_value=0, max_value=6), exponents)
mixed_cutoffs = st.one_of(cutoffs, st.integers(min_value=1, max_value=8))
operands = st.tuples(
    st.lists(st.tuples(mixed_exponents, mixed_coeffs), max_size=4), mixed_cutoffs
)
single_operands = st.tuples(
    st.lists(
        st.tuples(st.one_of(st.just(0), mixed_exponents), mixed_coeffs.filter(bool)),
        min_size=1,
        max_size=1,
    ),
    mixed_cutoffs,
)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["+", "-", "*"]), st.one_of(operands, single_operands)
        ),
        st.tuples(st.just("*left"), single_operands),
        st.tuples(st.just("scale"), st.integers(min_value=-4, max_value=4)),
        st.tuples(st.just("scale"), st.integers(1, 6).map(lambda n: Fraction(1, n))),
        st.tuples(st.just("neg"), st.none()),
    ),
    max_size=6,
)


@given(operands, steps)
def test_arithmetic_matches_the_all_fraction_reference(start, chain):
    p, ref = NovikovPolynomial(*start), ref_poly(*start)
    assert_matches(p, ref)
    for op, other in chain:
        ref_other = other if op in ("neg", "scale") else ref_poly(*other)
        p, ref = apply(op, p, other), ref_apply(op, ref, ref_other)
        assert_matches(p, ref)


def test_integral_results_come_back_as_ints():
    half = Fraction(1, 2)
    cases = [
        nov((0, half)) + nov((0, half)),
        nov((1, 2)) * nov((0, half)),
        nov((0, half)) * nov((1, 2), (2, 4)),
        nov((1, 3), (2, 6)).scale(Fraction(1, 3)),
        nov((1, Fraction(4, 2))),
        nov((1, Fraction(3, 2))).scale(Fraction(2)),
    ]
    for got in cases:
        assert all(type(c) is int for _, c in got.terms), got.terms
        assert_canonical(got, None)
    assert (nov((1, half)) * nov((0, half))).terms == ((1, Fraction(1, 4)),)
    assert str(nov((Fraction(3, 2), half)) * nov((0, 2))) == "1*T^(3/2)"
