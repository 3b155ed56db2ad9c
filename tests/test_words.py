import copy
import math
import pickle
import sys
import threading
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcap.modelfile import load_model
from symcap.words import (
    Generator,
    Word,
    coproduct,
    koszul_sign,
    normalize_word,
    odd_mask,
    reorder_sign,
    split_signs,
    splits,
    word_multiplicity_factor,
)

degree_lists = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=6
)


@st.composite
def degrees_and_permutation(draw):
    degrees = draw(degree_lists)
    return degrees, draw(st.permutations(range(len(degrees))))


def make_gens(degrees):
    return [Generator(f"g{i}", d, 1) for i, d in enumerate(degrees)]


def test_identity_permutation_has_sign_one():
    assert koszul_sign([1, 1, 1], (0, 1, 2)) == 1
    assert reorder_sign([1, 1, 1], (0, 1, 2)) == 1


def test_adjacent_swap_of_odd_letters_is_negative():
    assert koszul_sign([1, 1], (1, 0)) == -1
    assert koszul_sign([1, 2], (1, 0)) == 1


@given(degrees_and_permutation())
def test_reorder_is_koszul_of_the_inverse(pair):
    degrees, order = pair
    inverse = [0] * len(order)
    for slot, src in enumerate(order):
        inverse[src] = slot
    assert reorder_sign(degrees, order) == koszul_sign(degrees, inverse)


@given(degrees_and_permutation())
def test_even_degrees_never_produce_signs(pair):
    degrees, order = pair
    assert reorder_sign([2 * d for d in degrees], order) == 1


@given(st.permutations(range(5)))
def test_all_odd_degrees_reduce_to_permutation_parity(sigma):
    inversions = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    assert koszul_sign([1] * len(sigma), sigma) == (-1) ** inversions


def test_koszul_sign_validates_input():
    with pytest.raises(ValueError):
        koszul_sign([1, 1], (0,))
    with pytest.raises(ValueError):
        koszul_sign([1, 1], (0, 0))


def crossing_parity(degrees, chosen):
    """Σ |v_a||v_b| over a < b with b chosen and a not: the degree products
    crossed when the chosen letters move to the front, order preserved."""
    return sum(
        degrees[a] * degrees[b]
        for b in chosen
        for a in range(b)
        if a not in chosen
    )


@pytest.mark.parametrize("k", range(1, 7))
def test_split_table_order_and_signs(k):
    positions = range(k)
    want = [
        (chosen, tuple(p for p in positions if p not in chosen))
        for size in range(1, k + 1)
        for chosen in combinations(positions, size)
    ]
    assert list(splits(k)) == want
    for mask in range(2**k):
        degrees = [(mask >> p) & 1 for p in positions]
        signs = split_signs(k, mask)
        assert len(signs) == len(want)
        for (chosen, rest), sign in zip(want, signs):
            assert sign == (-1) ** crossing_parity(degrees, chosen)
            assert sign == reorder_sign(degrees, chosen + rest)


@given(degree_lists)
def test_split_signs_read_the_odd_positions(degrees):
    gens = make_gens(degrees)
    k = len(gens)
    signs = split_signs(k, odd_mask(gens))
    for (chosen, rest), sign in zip(splits(k), signs):
        assert sign == (-1) ** crossing_parity(degrees, chosen)


def test_normalize_sorts_by_action_then_name():
    a = Generator("a", 0, 2)
    b = Generator("b", 0, 1)
    sign, w = normalize_word([a, b])
    assert sign == 1
    assert [l.name for l in w.letters] == ["b", "a"]


def test_normalize_odd_repeat_is_zero():
    x = Generator("x", 1, 1)
    assert normalize_word([x, x]) == (0, None)


def test_odd_repeat_is_zero_around_a_same_name_letter():
    # a0 ties with a1 on (action, name); the degree in the sort key keeps
    # the two copies of a1 next to each other
    a1 = Generator("a", 1, 1)
    a0 = Generator("a", 0, 1)
    assert normalize_word([a1, a0, a1]) == (0, None)
    sign, w = normalize_word([a1, a0])
    assert (sign, w.letters) == (1, (a0, a1))


def test_normalize_rejects_empty_input():
    with pytest.raises(ValueError):
        normalize_word([])


def test_normalize_odd_swap_sign():
    x = Generator("x", 1, 1)
    y = Generator("y", 1, 2)
    sign, w = normalize_word([y, x])
    assert sign == -1
    assert [l.name for l in w.letters] == ["x", "y"]


@given(degree_lists, st.data())
def test_normalize_is_stable_under_shuffling(degrees, data):
    gens = make_gens(degrees)
    order = data.draw(st.permutations(range(len(gens))))
    base = normalize_word(gens)
    shuffled = normalize_word([gens[i] for i in order])
    if base[1] is None:
        assert shuffled[1] is None
    else:
        assert shuffled[1] == base[1]
        assert shuffled[0] == base[0] * reorder_sign(degrees, order) * 1


def test_normalize_is_idempotent_on_canonical_words():
    gens = make_gens([0, 1, 2])
    sign, w = normalize_word(gens)
    again = normalize_word(list(w.letters))
    assert again == (1, w)


# Actions that tie exactly under different names, and a pair that is distinct
# but rounds to the same float.
NEAR_ONE = [Fraction(10**17, 10**17 + 1), Fraction(10**17 + 1, 10**17 + 2)]
actions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)] + NEAR_ONE),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
)


@st.composite
def generator_pools(draw):
    """Distinct generators with unique names, so equal keys mean equal letters."""
    specs = draw(
        st.lists(st.tuples(st.integers(-3, 3), actions), min_size=1, max_size=5)
    )
    return [Generator(f"g{i}", d, a) for i, (d, a) in enumerate(specs)]


@st.composite
def letter_lists(draw):
    """Generators, or cdga monomials (words of generators), possibly repeated;
    a repeated monomial is sometimes an equal copy rather than the same
    object (an equal copy of a generator is the interned object itself)."""
    pool = draw(generator_pools())
    if draw(st.booleans()):
        monos = draw(
            st.lists(
                st.lists(st.sampled_from(pool), min_size=1, max_size=3),
                min_size=1,
                max_size=4,
            )
        )
        pool = [Word(sorted(m, key=lambda g: (g.action, g.name))) for m in monos]
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=6
        )
    )
    return [equal_copy(l) if copy else l for l, copy in picks]


def equal_copy(letter):
    if isinstance(letter, Generator):
        return Generator(letter.name, letter.degree, letter.action)
    return Word(letter.letters)


def oracle_gens(letter):
    return [letter] if isinstance(letter, Generator) else list(letter.letters)


def oracle_degree(letter):
    return sum(g.degree for g in oracle_gens(letter))


def oracle_key(letter):
    if isinstance(letter, Generator):
        return (letter.action, letter.name, letter.degree)
    total = sum((g.action for g in letter.letters), Fraction(0))
    return (total, tuple(oracle_key(g) for g in letter.letters))


def check_cached_word_keys(w):
    for _ in range(2):  # computed on first access, then read back
        assert w.degree == sum(oracle_degree(l) for l in w.letters)
        assert w.action == sum(
            (oracle_key(l)[0] for l in w.letters), Fraction(0)
        )
        assert w.sort_key == (w.action, tuple(oracle_key(l) for l in w.letters))


@given(letter_lists())
def test_normalize_word_against_an_exact_sort(letters):
    n = len(letters)
    order = sorted(range(n), key=lambda i: oracle_key(letters[i]))
    degrees = [oracle_degree(l) for l in letters]
    sign, w = normalize_word(letters)
    odd_repeat = any(
        letters[i] == letters[j] and degrees[i] % 2
        for i in range(n)
        for j in range(i + 1, n)
    )
    if odd_repeat:
        assert (sign, w) == (0, None)
        return
    inverse = [0] * n
    for slot, src in enumerate(order):
        inverse[src] = slot
    assert sign == koszul_sign(degrees, inverse)
    assert w.letters == tuple(letters[i] for i in order)
    check_cached_word_keys(w)
    for letter in letters:
        if isinstance(letter, Word):
            check_cached_word_keys(letter)


def test_near_float_actions_sort_exactly():
    lo, hi = NEAR_ONE
    assert float(lo) == float(hi) and lo < hi
    a = Generator("a", 1, hi)
    b = Generator("b", 1, lo)
    sign, w = normalize_word([a, b])
    assert (sign, w.letters) == (-1, (b, a))


def test_generator_is_immutable():
    g = Generator("g", 1, Fraction(1, 2))
    for attr, value in (("action", Fraction(1)), ("name", "h"), ("degree", 0)):
        with pytest.raises(AttributeError):
            setattr(g, attr, value)
    assert (g.name, g.degree, g.action) == ("g", 1, Fraction(1, 2))
    assert g.sort_key == (Fraction(1, 2), "g", 1)
    twin = Generator("g", 1, Fraction(1, 2))
    assert twin is g
    assert g != Generator("g", 3, Fraction(1, 2))
    with pytest.raises(AttributeError):
        del g.name


@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (2, 3), (0, 2), (3, 0)])
def test_shuffle_count_is_binomial(i, j):
    """The splits with i chosen positions, read as chosen + rest, are the
    (i, j)-shuffles in lexicographic order; the identity, the one
    (0, j)-shuffle, has an empty chosen set and no split."""
    k = i + j
    out = [chosen + rest for chosen, rest in splits(k) if len(chosen) == i]
    want = [
        first + tuple(p for p in range(k) if p not in first)
        for first in combinations(range(k), i)
    ]
    assert out == (want if i else [])
    if i:
        assert len(out) == math.comb(k, i)


def test_coproduct_of_a_single_letter_is_empty():
    g = Generator("g", 0, 1)
    assert coproduct(Word([g])) == []


def test_coproduct_count_and_hand_signs():
    x = Generator("x", 1, 1)
    y = Generator("y", 1, 2)
    w = normalize_word([x, y])[1]
    terms = coproduct(w)
    assert len(terms) == 2
    as_set = {(l.letters, r.letters, s) for l, r, s in terms}
    # pulling y in front of x crosses one odd-odd pair
    assert as_set == {((x,), (y,), 1), ((y,), (x,), -1)}


def test_coproduct_counts_duplicates_positionally():
    a = Generator("a", 0, 1)
    w = Word([a, a, a])
    terms = coproduct(w)
    assert len(terms) == 2**3 - 2
    assert all(s == 1 for _, _, s in terms)


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=5))
def test_coproduct_is_coassociative(degrees):
    gens = make_gens(degrees)
    sign, w = normalize_word(gens)
    if w is None:
        return

    left = []
    for a, b, s in coproduct(w):
        if len(a) < 2:
            continue
        for a1, a2, s2 in coproduct(a):
            left.append((a1.letters, a2.letters, b.letters, s * s2))
    right = []
    for a, b, s in coproduct(w):
        if len(b) < 2:
            continue
        for b1, b2, s2 in coproduct(b):
            right.append((a.letters, b1.letters, b2.letters, s * s2))

    def collect(terms):
        acc: dict = {}
        for *key, s in terms:
            k = tuple(key)
            acc[k] = acc.get(k, 0) + s
        return {k: v for k, v in acc.items() if v}

    assert collect(left) == collect(right)


def test_word_multiplicity_factor():
    a = Generator("a", 0, 1)
    b = Generator("b", 0, 2)
    assert word_multiplicity_factor(Word([a])) == 1
    assert word_multiplicity_factor(Word([a, a, a, b, b])) == 12
    assert word_multiplicity_factor(Word([a, b])) == 1


def test_word_degree_action_and_sort_key():
    a = Generator("a", 1, Fraction(1, 2))
    b = Generator("b", 2, 1)
    w = Word([a, b])
    assert w.degree == 3
    assert w.action == Fraction(3, 2)
    assert len(w) == 2
    assert Word([a]).sort_key < w.sort_key


# -- interning and the tuple-backed word ------------------------------------


def test_generators_are_interned_on_their_fields():
    g = Generator("g", 1, Fraction(1, 2))
    assert Generator("g", 1.0, Fraction(2, 4)) is g
    assert Generator("g", 1, Fraction(1, 3)) is not g
    assert Generator("g", 2, Fraction(1, 2)) is not g
    assert Generator("h", 1, Fraction(1, 2)) is not g
    assert Generator("n", 0, 2) is Generator("n", 0, Fraction(2))


def test_two_loads_of_one_model_share_their_generators(fixtures_dir):
    first = load_model(fixtures_dir / "b2.model")
    second = load_model(fixtures_dir / "b2.model")
    assert first is not second
    assert first.generators.keys() == second.generators.keys()
    for name, g in first.generators.items():
        assert second.generators[name] is g


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_of_a_generator_are_the_interned_object(clone):
    g = Generator("g", 3, Fraction(5, 7))
    assert clone(g) is g
    w = Word([g, Generator("h", 0, 1)])
    assert clone(w) == w and clone(w)[0] is g


def test_threads_building_one_generator_get_one_object():
    threads_n, rounds, keys_n = 8, 20, 50
    made = []

    def build(r):
        made.extend(Generator(f"r{r}t{i}", 1, Fraction(i, 3)) for i in range(keys_n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            threads = [threading.Thread(target=build, args=(r,)) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(made) == rounds * threads_n * keys_n
    assert len({id(g) for g in made}) == rounds * keys_n


def test_negative_action_still_raises():
    with pytest.raises(ValueError):
        Generator("neg", 0, Fraction(-1, 2))
    with pytest.raises(ValueError):
        Generator("neg", 0, -1)


def test_word_repr_is_pinned():
    x = Generator("x", 1, Fraction(1, 2))
    y = Generator("y", 0, 2)
    assert repr(Word([x, y])) == (
        "Word((Generator('x', 1, 1/2), Generator('y', 0, 2)))"
    )
    assert repr(Word([x])) == "Word((Generator('x', 1, 1/2),))"
    assert repr(Word(())) == "Word(())"
    assert repr(Word([Word([x]), Word([x, y])])) == (
        "Word((Word((Generator('x', 1, 1/2),)), "
        "Word((Generator('x', 1, 1/2), Generator('y', 0, 2)))))"
    )
    # gb_solver sorts its rows by repr
    assert repr(("d", Word([x]))) == "('d', Word((Generator('x', 1, 1/2),)))"


def test_words_from_any_iterable_are_equal():
    a = Generator("a", 0, 1)
    b = Generator("b", 1, 2)
    words = [Word([a, b]), Word((a, b)), Word(g for g in (a, b)), Word(iter([a, b]))]
    assert all(type(w) is Word for w in words)
    assert len({hash(w) for w in words}) == 1
    assert all(w == words[0] for w in words)
    assert words[0].letters is words[0]
    assert list(words[0]) == [a, b] and len(words[0]) == 2


def test_a_word_equals_the_plain_tuple_of_its_letters():
    # documented: no combination or table keys both, so they never collide
    a = Generator("a", 0, 1)
    w = Word([a])
    assert w == (a,) and hash(w) == hash((a,))
    assert Word(()) == ()
    assert "plain tuple" in Word.__doc__
