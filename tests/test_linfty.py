"""Tests for the L-infinity layer: operations, morphisms, Maurer-Cartan
theory, and linearization."""

import math
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcap import linfty
from symcap.linfty import (
    Augmentation,
    Combo,
    IntegrityError,
    LInfinityModel,
    LInfinityMorphism,
    MaurerCartanElement,
    ModelError,
    augmentation_hat,
    augmentation_hat_combo,
    augmentation_pushforward_mc,
    check_linfty_relations,
    coderivation_on_combo,
    exp_mc,
    extend_coderivation,
    extend_morphism,
    f_epsilon_map,
    inverse_scalar_augmentation,
    linearize,
    mc_check,
    morphism_on_combo,
    _extend_linearly,
    _mc_multisets,
    _mc_size,
    _operation_splits,
    _partition_blocks,
    _relation_residual,
)
from symcap.modelfile import load_model, parse_model
from symcap.novikov import NovikovPolynomial, add_into, parse_novikov
from symcap.words import Generator, Word, coproduct, normalize_word, reorder_sign

from conftest import FIXTURES, MODEL_NAMES

N = parse_novikov
ONE = NovikovPolynomial.unit()


def evens(*names, degree=0, action=0):
    return [Generator(n, degree, Fraction(action)) for n in names]


def singles_identity(model):
    return {
        (1, Word([g])): {Word([g]): NovikovPolynomial.unit(model.cutoff)}
        for g in model.ordered_generators
    }


# ---------------------------------------------------------------------------
# relations on the fixture models


GOOD_MODELS = ["b2", "b2_lin", "e1x", "dgla", "cdga_aug", "complex"]


@pytest.mark.parametrize("name", GOOD_MODELS)
def test_fixture_models_satisfy_relations(models, name):
    assert check_linfty_relations(models[name], 3) == []


def test_broken_model_fails_at_x(models):
    broken = models["broken"]
    violations = check_linfty_relations(broken, 2)
    words = [w for w, _ in violations]
    assert broken.word("x") in words
    residual = dict(violations)[broken.word("x")]
    assert residual == {broken.word("z"): ONE}


# ---------------------------------------------------------------------------
# the word-length-1 relation check against the full square l̂∘l̂


def _full_square(model, max_len):
    """(w, l̂(l̂(w))) for each basis word with a nonzero square."""
    out = []
    for w in model.basis_words(max_len):
        residual = coderivation_on_combo(model, extend_coderivation(model, w))
        if residual:
            out.append((w, residual))
    return out


def _length_one_part(model, combo):
    """The word-length-1 terms of a bar combination, keyed by the output
    word of the operation that made them."""
    cdga = model.algebra_mode == "cdga"
    return {(w[0] if cdga else w): c for w, c in combo.items() if len(w) == 1}


def _assert_matches_full_square(model, max_len):
    want = _full_square(model, max_len)
    assert check_linfty_relations(model, max_len) == want
    squares = dict(want)
    for w in model.basis_words(max_len):
        assert _relation_residual(model, w) == _length_one_part(
            model, squares.get(w, {})
        ), w
    return want


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("max_len", [1, 2, 3, 4])
def test_relations_equal_the_full_square_on_fixtures(models, name, max_len):
    want = _assert_matches_full_square(models[name], max_len)
    assert bool(want) == (name == "broken")


@st.composite
def _module_models(draw):
    """2-5 generators, Z or Z2 grading, keys of up to three letters (even
    letters may repeat) with degree +1 outputs, cutoff none or finite."""
    z2 = draw(st.booleans())
    actions = st.sampled_from([0, 1, Fraction(1, 2)])
    gens = [
        Generator(f"g{i}", draw(st.integers(-1, 2)), draw(actions))
        for i in range(draw(st.integers(2, 5)))
    ]
    step = (lambda a, b: (a - b) % 2 == 0) if z2 else (lambda a, b: a == b)
    keys = []
    for size in (1, 2, 3):
        for picks in combinations_with_replacement(gens, size):
            _, key = normalize_word(list(picks))
            outs = [
                g for g in gens if key is not None and step(g.degree, key.degree + 1)
            ]
            if outs:
                keys.append((key, outs))
    picked = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4)) if keys else []
    ops = {}
    for key, outs in picked:
        combo = ops.setdefault((len(key), key), {})
        for g in draw(st.lists(st.sampled_from(outs), min_size=1, max_size=2)):
            coeff = NovikovPolynomial.monomial(
                draw(st.integers(0, 2)), draw(st.sampled_from([-2, -1, 1, 2]))
            )
            add_into(combo, Word([g]), coeff)
    return LInfinityModel(
        gens,
        ops,
        grading_mode="Z2" if z2 else "Z",
        cutoff=draw(st.sampled_from([None, 2, 3])),
    )


@settings(max_examples=200, deadline=None)
@given(model=_module_models(), max_len=st.integers(1, 3))
def test_relations_equal_the_full_square_on_random_models(model, max_len):
    _assert_matches_full_square(model, max_len)


def _perturbed_cdga_aug(*lines):
    """cdga_aug plus a generator e of degree -2 and the given operations."""
    text = (FIXTURES / "cdga_aug.model").read_text()
    return text + "[generators]\ne | -2 | 1/2\n[operations]\n" + "\n".join(lines)


_EVENS = "[generators]\nw | 0 | 0\nx | 0 | 0\ny | 0 | 0\n"

FIRST_AT_TWO_OR_THREE = {
    # ℓ¹ℓ² + ℓ²ℓ¹ on (x,y): ℓ²(x,y) = z but ℓ¹z = u
    "l1_l2": (
        _EVENS + "z | 1 | 0\nu | 2 | 0\n[operations]\n"
        "2 | x , y | (1*T^0) * (z)\n1 | z | (1*T^0) * (u)\n",
        2,
        (("x", "y"), "1"),
    ),
    # ℓ²ℓ¹ on two odd letters: pulling p in front of o gives the sign -1
    "l2_l1_odd": (
        "[generators]\no | 1 | 0\np | 1 | 0\nz | 2 | 0\nu | 4 | 0\n[operations]\n"
        "1 | p | (1*T^0) * (z)\n2 | o , z | (1*T^0) * (u)\n",
        2,
        (("o", "p"), "-1"),
    ),
    # ℓ²ℓ¹ again: sorting the odd output q after the odd o gives the sign -1
    "l2_l1_sorted": (
        "[generators]\no | 1 | 0\np | 0 | 0\nq | 1 | 0\nu | 3 | 0\n[operations]\n"
        "1 | p | (1*T^0) * (q)\n2 | o , q | (1*T^0) * (u)\n",
        2,
        (("o", "p"), "-1"),
    ),
    # ℓ¹ℓ³ on (w,x,y): ℓ³(w,x,y) = z but ℓ¹z = u
    "l1_l3": (
        _EVENS + "z | 1 | 0\nu | 2 | 0\n[operations]\n"
        "3 | w , x , y | (1*T^0) * (z)\n1 | z | (1*T^0) * (u)\n",
        3,
        (("w", "x", "y"), "1"),
    ),
    # the Jacobi identity of ℓ² on (w,x,y): ℓ²(ℓ²(x,y),w) = u alone
    "l2_l2": (
        _EVENS + "z | 1 | 0\nu | 2 | 0\n[operations]\n"
        "2 | x , y | (1*T^0) * (z)\n2 | w , z | (1*T^0) * (u)\n",
        3,
        (("w", "x", "y"), "1"),
    ),
    # cdga: ℓ²(b,e) = a, and ℓ¹a = bc + T
    "cdga_l1_l2": (_perturbed_cdga_aug("2 | b , e | (1*T^0) * (a)"), 2, None),
    # cdga: ℓ³(b,c,e) = T^(1/2) a, and ℓ¹a = bc + T
    "cdga_l1_l3": (_perturbed_cdga_aug("3 | b , c , e | (1*T^(1/2)) * (a)"), 3, None),
}


@pytest.mark.parametrize("case", sorted(FIRST_AT_TWO_OR_THREE))
def test_first_violation_at_word_length_two_or_three(case):
    text, length, only = FIRST_AT_TWO_OR_THREE[case]
    model = parse_model(text)
    assert _assert_matches_full_square(model, length - 1) == []
    violations = _assert_matches_full_square(model, length)
    assert violations and all(len(w) == length for w, _ in violations)
    if only is not None:  # module mode: exactly one word, onto u
        letters, coeff = only
        assert violations == [(model.word(*letters), {model.word("u"): N(coeff)})]


# ---------------------------------------------------------------------------
# coderivation extension


def test_coderivation_binary_term(models):
    dgla = models["dgla"]
    out = extend_coderivation(dgla, dgla.word("x", "y"))
    assert out == {dgla.word("z"): ONE}


def test_coderivation_keeps_spectators_with_sign(models):
    dgla = models["dgla"]
    out = extend_coderivation(dgla, dgla.word("x", "w"))
    assert out == {dgla.word("x", "z"): ONE.scale(-1)}


def test_cdga_differential_is_a_derivation(models):
    model = models["cdga_aug"]
    mono = model.word("a", "b")  # canonical order puts b first
    out = model.apply_operation([mono])
    assert out == {
        model.word("b", "b", "c"): ONE,
        model.word("b"): N("1*T^1"),
    }


def test_cdga_multilinear_leibniz_rule():
    p, q = evens("p", "q")
    r = Generator("r", 1, Fraction(0))
    model = LInfinityModel(
        [p, q, r],
        {(2, Word([p, q])): {Word([r]): ONE}},
        algebra_mode="cdga",
    )
    out = model.apply_operation([Word([p, q]), Word([p])])
    assert out == {Word([p, r]): ONE}


def test_cdga_leibniz_rule_signs():
    e = Generator("e", 0, 0)
    o, p, q, r = (Generator(n, 1, 0) for n in "opqr")
    v, w = Generator("v", 2, 0), Generator("w", 3, 0)
    model = LInfinityModel(
        [e, o, p, q, r, v, w],
        {
            (1, Word([e])): {Word([r]): ONE},
            (1, Word([p])): {Word([v]): ONE},
            (2, Word([p, q])): {Word([w]): ONE},
        },
        algebra_mode="cdga",
    )
    minus = ONE.scale(-1)
    # the pick p moves in front of the odd o it follows
    assert model.apply_operation([Word([o, p])]) == {Word([o, v]): minus}
    # the output r sorts behind the odd o left over
    assert model.apply_operation([Word([e, o])]) == {Word([o, r]): minus}
    # the picks q, p of the two slots sort to the key p, q
    assert model.apply_operation([Word([e, q]), Word([p])]) == {Word([e, w]): minus}


def test_unit_slot_kills_cdga_operations(models):
    model = models["cdga_aug"]
    assert model.apply_operation([Word(()), model.word("b")]) == {}


# ---------------------------------------------------------------------------
# the extended operation is a coderivation for the reduced coproduct


def _pair_combo_add(acc, left, right, coeff):
    key = (left, right)
    prev = acc.get(key)
    total = coeff if prev is None else prev + coeff
    if total.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = total


def _coleibniz_residual(model, w):
    lhs = {}
    for u, c in extend_coderivation(model, w).items():
        for left, right, s in coproduct(u):
            _pair_combo_add(lhs, left, right, c.scale(s))
    rhs = {}
    for left, right, s in coproduct(w):
        for u, c in extend_coderivation(model, left).items():
            _pair_combo_add(rhs, u, right, c.scale(s))
        tail_sign = -1 if left.degree % 2 else 1
        for u, c in extend_coderivation(model, right).items():
            _pair_combo_add(rhs, left, u, c.scale(s * tail_sign))
    for key, c in rhs.items():
        _pair_combo_add(lhs, key[0], key[1], c.scale(-1))
    return lhs


@pytest.mark.parametrize(
    "name,max_len", [("dgla", 4), ("b2", 3), ("cdga_aug", 3)]
)
def test_coderivation_coleibniz(models, name, max_len):
    model = models[name]
    for w in model.basis_words(max_len):
        assert _coleibniz_residual(model, w) == {}, w


# ---------------------------------------------------------------------------
# the pruned coderivation and the canonical basis against references


def _reference_operation(model, letters):
    """ℓ on bar letters in any order, with no pruning: a signed table read
    in module mode; in cdga mode the Leibniz rule over every pick of one
    generator per monomial."""
    if model.algebra_mode == "module":
        sign, key = normalize_word(list(letters))
        value = model.operations.get((len(key), key), {}) if key else {}
        return {u: c.scale(sign) for u, c in value.items()}
    flat = [g for mono in letters for g in mono]
    degrees = [g.degree for g in flat]
    slots, start = [], 0
    for mono in letters:
        slots.append(range(start, start + len(mono)))
        start += len(mono)
    out = {}
    for chosen in product(*slots):
        rest = [i for i in range(len(flat)) if i not in chosen]
        sign, key = normalize_word([flat[i] for i in chosen])
        if key is None:
            continue
        sign *= reorder_sign(degrees, list(chosen) + rest)
        for u, coeff in model.operations.get((len(key), key), {}).items():
            merged = list(u) + [flat[i] for i in rest]
            sign2, mono = normalize_word(merged) if merged else (1, Word(()))
            if mono is not None:
                add_into(out, mono, coeff.scale(sign * sign2))
    return out


def _reference_coderivation(model, w):
    """l̂(w) with every position subset fed to ``_reference_operation``."""
    degrees = [l.degree for l in w]
    positions = range(len(w))
    out = {}
    for size in positions:
        for fed in combinations(positions, size + 1):
            rest = [p for p in positions if p not in fed]
            sign = reorder_sign(degrees, list(fed) + rest)
            value = _reference_operation(model, [w[p] for p in fed])
            for v, coeff in value.items():
                letter = v if model.algebra_mode == "cdga" else v[0]
                sign2, bar = normalize_word([letter] + [w[p] for p in rest])
                if bar is not None:
                    add_into(out, bar, coeff.scale(sign * sign2))
    return out


@pytest.mark.parametrize("name", GOOD_MODELS)
def test_coderivation_equals_the_unpruned_reference(models, name):
    model = models[name]
    for w in model.basis_words(4):
        assert extend_coderivation(model, w) == _reference_coderivation(model, w), w


def _nonzero_words(letters, max_len):
    """Canonical forms of every multiset of ``letters`` up to ``max_len``."""
    out = set()
    for size in range(1, max_len + 1):
        for combo in combinations_with_replacement(letters, size):
            sign, w = normalize_word(list(combo))
            if w is not None:
                out.add(w)
    return out


def _assert_canonical_basis(model, max_len, max_action=None):
    """``basis_words`` is every nonzero canonical multiset of bar letters
    with at most ``max_len`` generators in all, once each."""
    cap = model.cutoff if max_action is None else Fraction(max_action)
    gens = list(model.generators.values())  # file order, not canonical
    if model.algebra_mode == "cdga":
        monos = _nonzero_words(gens, max_len)
        want = set()
        for count in range(1, max_len + 1):
            # the other count - 1 monomials hold a generator each
            pool = [m for m in monos if len(m) <= max_len + 1 - count]
            for combo in combinations_with_replacement(pool, count):
                sign, w = normalize_word(list(combo))
                if w is not None and sum(len(m) for m in combo) <= max_len:
                    want.add(w)
    else:
        want = _nonzero_words(gens, max_len)
    want = {w for w in want if cap is None or w.action <= cap}
    got = model.basis_words(max_len, max_action)
    assert len(got) == len(set(got))
    assert set(got) == want
    assert [len(w) for w in got] == sorted(len(w) for w in got)
    for w in got:
        assert normalize_word(list(w)) == (1, w)


@pytest.mark.parametrize(
    "name,max_action",
    [(n, None) for n in GOOD_MODELS]
    # caps whose denominator is coprime to the letters' actions, too
    + [("b2", 3), ("b2", Fraction(10, 3)), ("cdga_aug", 1), ("cdga_aug", Fraction(5, 3))],
)
def test_basis_words_are_the_canonical_multisets(models, name, max_action):
    _assert_canonical_basis(models[name], 4, max_action)


def test_basis_words_stop_past_the_word_bound(models, monkeypatch):
    """The bound counts the words one enumeration builds: exactly
    ``MAX_WORDS`` words come out as before, and one less raises."""
    model = models["b2"]
    want = model.basis_words(4)
    monkeypatch.setattr(linfty, "MAX_WORDS", len(want))
    assert model.basis_words(4) == want
    monkeypatch.setattr(linfty, "MAX_WORDS", len(want) - 1)
    with pytest.raises(ValueError, match="words to enumerate"):
        model.basis_words(4)


def _fresh_model(name):
    """A newly built model, so no l̂ value of an earlier test is memoized."""
    if name in MODEL_NAMES:
        return load_model(FIXTURES / f"{name}.model")
    return parse_model(FIRST_AT_TWO_OR_THREE[name][0])


def _spy_table_reads(owner, monkeypatch, table="operations"):
    """Swap a model's operation table, or another table of ``owner``, for a
    copy that records the key of every read, and return the list of those
    keys."""
    reads = []

    class Spy(dict):
        # module mode reads the table at each fed word, cdga mode at each
        # pick of the Leibniz rule
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(owner, table, Spy(getattr(owner, table)))
    return reads


def _indexed_table_reads(model, monkeypatch, run):
    """Run ``run()`` and assert every operation-table read was at a canonical
    word all of whose letters are ``key_letters`` of its arity."""
    index = {}
    for arity, key in model.operations:
        index.setdefault(arity, set()).update(key)
    assert model.key_letters == index
    fed = _spy_table_reads(model, monkeypatch)
    run()
    assert fed
    for arity, word in fed:
        assert arity == len(word) and normalize_word(list(word)) == (1, word)
        assert arity in index and index[arity].issuperset(word)


def test_coderivation_feeds_only_indexed_letters(monkeypatch):
    model = _fresh_model("b2")
    _indexed_table_reads(
        model,
        monkeypatch,
        lambda: [extend_coderivation(model, w) for w in model.basis_words(4)],
    )


@pytest.mark.parametrize("name", ["cdga_aug", "cdga_l1_l3"])
def test_leibniz_rule_picks_only_indexed_generators(monkeypatch, name):
    # cdga mode reads the table at the generators picked from the monomials
    model = _fresh_model(name)
    _indexed_table_reads(
        model,
        monkeypatch,
        lambda: [extend_coderivation(model, w) for w in model.basis_words(4)],
    )


@pytest.mark.parametrize("name", ["dgla", "l2_l2", "cdga_aug", "cdga_l1_l2"])
def test_relation_check_reads_only_indexed_words(models, monkeypatch, name):
    # the second read, at ℓ(fed) ⊙ rest, is pruned on the rest letters too
    model = models.get(name) or parse_model(FIRST_AT_TWO_OR_THREE[name][0])
    _indexed_table_reads(
        model, monkeypatch, lambda: check_linfty_relations(model, 4)
    )


@pytest.mark.parametrize("name", GOOD_MODELS)
def test_memoized_coderivation_equals_the_reference_on_every_call(
    monkeypatch, name
):
    model = _fresh_model(name)
    words = model.basis_words(4)
    want = [_reference_coderivation(model, w) for w in words]
    assert [extend_coderivation(model, w) for w in words] == want
    # the second call is served from the model's memo: no table read
    reads = _spy_table_reads(model, monkeypatch)
    assert [extend_coderivation(model, w) for w in words] == want
    assert reads == []
    # every caller owns its combination: changing one changes no later call
    for w, value in zip(words, want):
        got = extend_coderivation(model, w)
        got.clear()
        got[w] = ONE
        assert extend_coderivation(model, w) == value, w


def test_threads_computing_the_coderivation_get_the_serial_values():
    threads_n, rounds = 8, 5
    serial = _fresh_model("b2")
    words = serial.basis_words(4)
    want = {w: extend_coderivation(serial, w) for w in words}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            model = _fresh_model("b2")
            got = [None] * threads_n

            def run(i, model=model, got=got):
                order = list(words)
                random.Random(f"{r}:{i}").shuffle(order)
                got[i] = {w: extend_coderivation(model, w) for w in order}

            threads = [threading.Thread(target=run, args=(i,)) for i in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert all(values == want for values in got), r
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the split and partition tables against position-wise references


def _crossing_sign(degrees, order):
    """(-1) to the number of odd-odd pairs of positions that ``order`` lists
    out of position order."""
    odd = [p for p in order if degrees[p] % 2]
    inversions = sum(1 for i, p in enumerate(odd) for q in odd[i + 1 :] if p > q)
    return -1 if inversions % 2 else 1


def _reference_set_partitions(positions):
    """Partitions of ``positions`` into blocks: those of the other positions,
    with the first position alone in front, then joined to each block."""
    if not positions:
        yield []
        return
    first, rest = positions[0], positions[1:]
    for part in _reference_set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def _reference_blocks(w):
    """(sign, blocks) for each set partition of the positions of ``w``, the
    blocks ordered by first position."""
    degrees = [l.degree for l in w]
    for part in _reference_set_partitions(list(range(len(w)))):
        blocks = sorted(part, key=lambda b: b[0])
        yield _crossing_sign(degrees, [p for b in blocks for p in b]), blocks


_SPLIT_POOL = [
    Generator(name, degree, Fraction(action))
    for name, degree, action in (
        ("sa", 0, 0),
        ("sb", 1, 0),
        ("sc", 2, 1),
        ("sd", -1, 1),
        ("se", 1, 2),
    )
]


@st.composite
def _split_cases(draw):
    """A sorted word of 1-6 letters from a pool of five generators of both
    parities, so letters repeat; in cdga form each letter is a monomial of
    one or two of them.  Also per arity the key generators, as a model's
    ``key_letters``."""
    cdga = draw(st.booleans())
    gens = st.sampled_from(_SPLIT_POOL)
    if cdga:
        letter = st.lists(gens, min_size=1, max_size=2).map(
            lambda gs: Word(sorted(gs, key=lambda g: g.sort_key))
        )
    else:
        letter = gens
    letters = draw(st.lists(letter, min_size=1, max_size=6))
    arities = draw(st.sets(st.integers(min_value=1, max_value=7), max_size=5))
    keys = {a: frozenset(draw(st.sets(gens, min_size=1))) for a in arities}
    return cdga, Word(sorted(letters, key=lambda l: l.sort_key)), keys


def _some_value(word):
    """A stand-in for ℓ or a component: nonzero on some sub-words, and then
    naming the sub-word it was given."""
    return {word: ONE} if (len(word) + word.degree) % 3 else {}


class _SplitModel:
    """What the split loop reads of a model: the key letters per arity,
    whether a letter feeds an arity, and ℓ at a fed word."""

    _feeds = LInfinityModel._feeds

    def __init__(self, cdga, key_letters):
        self.algebra_mode = "cdga" if cdga else "module"
        self.key_letters = key_letters

    def _operation(self, word):
        return _some_value(word)


def _reference_operation_splits(model, letters, outer):
    k = len(letters)
    degrees = [l.degree for l in letters]
    keys = model.key_letters

    def feed(positions, arity):
        return arity in keys and all(
            model._feeds(letters[p], keys[arity]) for p in positions
        )

    out = []
    for size in range(1, k + 1):
        for fed in combinations(range(k), size):
            rest = tuple(p for p in range(k) if p not in fed)
            if not feed(fed, size) or (outer and not feed(rest, len(rest) + 1)):
                continue
            value = model._operation(Word([letters[p] for p in fed]))
            if value:
                sign = _crossing_sign(degrees, fed + rest)
                out.append((sign, tuple(letters[p] for p in rest), value))
    return out


@settings(max_examples=200, deadline=None)
@given(_split_cases())
def test_split_tables_match_position_wise_references(case):
    cdga, w, keys = case
    k = len(w)
    degrees = [l.degree for l in w]
    want = []
    for size in range(1, k):
        for left in combinations(range(k), size):
            right = tuple(p for p in range(k) if p not in left)
            want.append(
                (
                    Word([w[p] for p in left]),
                    Word([w[p] for p in right]),
                    _crossing_sign(degrees, left + right),
                )
            )
    got = coproduct(w)
    assert got == want
    assert all(type(a) is Word and type(b) is Word for a, b, _ in got)

    model = _SplitModel(cdga, keys)
    for outer in (False, True):
        got = list(_operation_splits(model, w, outer))
        assert got == _reference_operation_splits(model, w, outer), outer
        assert all(type(fed) is Word for _, _, value in got for fed in value)

    want = []
    for sign, blocks in _reference_blocks(w):
        values = [_some_value(Word([w[p] for p in b])) for b in blocks]
        if all(values):
            want.append((sign, values))
    assert list(_partition_blocks(w, _some_value)) == want


# ---------------------------------------------------------------------------
# cdga models under every oracle


@st.composite
def _cdga_models(draw):
    """2-4 generators, Z or Z2 grading, a differential of g0 with a product
    and a constant term like cdga_aug's, plus up to three more operations on
    keys of one or two letters with outputs of up to two letters."""
    z2 = draw(st.booleans())
    actions = st.sampled_from([0, Fraction(1, 2), 1])
    gens = [Generator("g0", -1, draw(actions)), Generator("g1", 0, draw(actions))]
    gens += [
        Generator(f"g{i}", draw(st.integers(-1, 1)), draw(actions))
        for i in range(2, draw(st.integers(2, 4)))
    ]
    step = (lambda a, b: (a - b) % 2 == 0) if z2 else (lambda a, b: a == b)
    monos = [Word(())] + sorted(_nonzero_words(gens, 2), key=lambda w: w.sort_key)
    keys = sorted(_nonzero_words(gens, 2), key=lambda w: w.sort_key)

    def coeff():
        return NovikovPolynomial.monomial(
            draw(st.integers(0, 2)), draw(st.sampled_from([-2, -1, 1, 2]))
        )

    g0, g1 = gens[0], gens[1]
    products = [m for m in monos if len(m) == 2 and step(m.degree, 0)]
    ops = {
        (1, Word([g0])): {
            Word(()): coeff(),
            draw(st.sampled_from(products)): coeff(),
        }
    }
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        outs = [m for m in monos if step(m.degree, key.degree + 1)]
        if key == Word([g0]) or not outs:
            continue
        combo = ops.setdefault((len(key), key), {})
        for out in draw(st.lists(st.sampled_from(outs), min_size=1, max_size=2)):
            add_into(combo, out, coeff())
    return LInfinityModel(
        gens,
        ops,
        grading_mode="Z2" if z2 else "Z",
        algebra_mode="cdga",
        cutoff=draw(st.sampled_from([None, 1, 2])),
    )


def _assert_cdga_oracles(model, max_len):
    """The relation check against the full square, the pruned coderivation
    and ℓ against unpruned references, co-Leibniz, and the budgeted basis."""
    _assert_canonical_basis(model, max_len)
    _assert_matches_full_square(model, max_len)
    for w in model.basis_words(max_len):
        assert model.apply_operation(list(w)) == _reference_operation(
            model, w
        ), w
        assert extend_coderivation(model, w) == _reference_coderivation(model, w), w
        assert _coleibniz_residual(model, w) == {}, w


@settings(max_examples=100, deadline=None)
@given(model=_cdga_models(), max_len=st.integers(1, 3))
def test_cdga_oracles_on_random_models(model, max_len):
    _assert_cdga_oracles(model, max_len)


@pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5])
def test_cdga_oracles_on_cdga_aug(models, max_len):
    _assert_cdga_oracles(models["cdga_aug"], max_len)
    _assert_canonical_basis(models["cdga_aug"], max_len, 1)


# ---------------------------------------------------------------------------
# model validation


def test_rejects_non_canonical_operation_key():
    x, y = evens("x", "y")
    with pytest.raises(ModelError, match="non-canonical"):
        LInfinityModel(
            [x, y], {(2, Word([y, x])): {Word([x]): ONE}}
        )


def test_rejects_wrong_degree_step():
    (x,) = evens("x")
    with pytest.raises(ModelError, match="degree"):
        LInfinityModel([x], {(1, Word([x])): {Word([x]): ONE}})


def test_z2_grading_compares_degrees_mod_two():
    x = Generator("x", 0, Fraction(0))
    y = Generator("y", 3, Fraction(0))
    model = LInfinityModel(
        [x, y], {(1, Word([x])): {Word([y]): ONE}}, grading_mode="Z2"
    )
    assert model.apply_operation([x]) == {Word([y]): ONE}


def test_rejects_filtration_violation():
    x = Generator("x", 0, Fraction(2))
    y = Generator("y", 1, Fraction(1))
    with pytest.raises(ModelError, match="filtration"):
        LInfinityModel(
            [x, y], {(1, Word([x])): {Word([y]): ONE}}, filtered=True
        )


def test_module_outputs_must_be_single_generators():
    x = Generator("x", 0, Fraction(0))
    y = Generator("y", 1, Fraction(0))
    with pytest.raises(ModelError, match="single generators"):
        LInfinityModel([x, y], {(1, Word([x])): {Word([x, y]): ONE}})


def test_rejects_augmentation_below_filtration_level():
    (x,) = evens("x", action=2)
    aug = Augmentation("eps", {Word([x]): {0: ONE}})
    with pytest.raises(ModelError, match="filtration"):
        LInfinityModel([x], {}, filtered=True, augmentations={"eps": aug})


# ---------------------------------------------------------------------------
# morphisms


def identity_morphism(model):
    comps = {}
    for g in model.ordered_generators:
        w = Word([g])
        comps[(1, w)] = {w: NovikovPolynomial.unit(model.cutoff)}
    return LInfinityMorphism(model, model, comps)


def check_morphism(m, max_word_len):
    """Violations of Φ̂∘l̂ = l̂'∘Φ̂ on basis words up to the length bound."""
    violations = []
    for w in m.source.basis_words(max_word_len):
        residual = morphism_on_combo(m, extend_coderivation(m.source, w))
        for u, c in coderivation_on_combo(m.target, extend_morphism(m, w)).items():
            add_into(residual, u, -c)
        if residual:
            violations.append((w, residual))
    return violations


def compose_morphisms(
    psi: LInfinityMorphism,
    phi: LInfinityMorphism,
    max_word_len: Optional[int] = None,
) -> LInfinityMorphism:
    """Components of Ψ̂∘Φ̂, materialized up to the given word length."""
    if phi.target is not psi.source:
        raise ModelError("compose_morphisms: target(phi) must be source(psi)")
    if phi.source.algebra_mode == "cdga":
        comps = {}
        for g in phi.source.ordered_generators:
            w = Word([g])
            total = _extend_linearly(psi.apply_to_monomial, phi.apply_to_monomial(w))
            if total:
                comps[(1, w)] = total
        return LInfinityMorphism(phi.source, psi.target, comps)
    if max_word_len is None:
        max_word_len = max(1, phi.max_arity() * psi.max_arity())
    comps: dict[tuple[int, Word], Combo] = {}
    for w in phi.source.basis_words(max_word_len):
        total = _extend_linearly(
            lambda u: psi.components.get((len(u), u), {}), extend_morphism(phi, w)
        )
        if total:
            comps[(len(w), w)] = total
    return LInfinityMorphism(phi.source, psi.target, comps)


def test_extend_morphism_two_letter_expansion():
    e1, e2, e3 = evens("e1", "e2", "e3")
    model = LInfinityModel([e1, e2, e3], {})
    comps = dict(singles_identity(model))
    comps[(2, Word([e1, e2]))] = {Word([e3]): ONE}
    phi = LInfinityMorphism(model, model, comps)
    out = extend_morphism(phi, Word([e1, e2]))
    assert out == {Word([e3]): ONE, Word([e1, e2]): ONE}


def test_extend_morphism_partition_signs():
    o1 = Generator("o1", 1, Fraction(0))
    o1p = Generator("o1p", 1, Fraction(0))
    o2 = Generator("o2", 3, Fraction(0))
    q = Generator("q", 4, Fraction(0))
    model = LInfinityModel([o1, o1p, o2, q], {})
    comps = dict(singles_identity(model))
    comps[(2, Word([o1, o2]))] = {Word([q]): ONE}
    phi = LInfinityMorphism(model, model, comps)
    out = extend_morphism(phi, Word([o1, o1p, o2]))
    assert out == {
        Word([o1, o1p, o2]): ONE,
        Word([o1p, q]): ONE.scale(-1),
    }


def _triangle_morphisms():
    e1, e2, e3 = evens("e1", "e2", "e3")
    model = LInfinityModel([e1, e2, e3], {})
    base = singles_identity(model)
    phi = LInfinityMorphism(
        model, model, {**base, (2, Word([e1, e2])): {Word([e3]): ONE}}
    )
    psi = LInfinityMorphism(
        model, model, {**base, (2, Word([e1, e2])): {Word([e3]): ONE}}
    )
    chi = LInfinityMorphism(
        model, model, {**base, (2, Word([e2, e3])): {Word([e1]): ONE}}
    )
    return model, phi, psi, chi


def test_compose_collects_all_partition_contributions():
    model, phi, psi, _ = _triangle_morphisms()
    composed = compose_morphisms(psi, phi, max_word_len=3)
    e1, e2 = model.gen("e1"), model.gen("e2")
    assert composed.components[(2, Word([e1, e2]))] == {
        model.word("e3"): ONE.scale(2)
    }
    assert (3, model.word("e1", "e2", "e3")) not in composed.components


def test_compose_is_associative_up_to_length_three():
    _, phi, psi, chi = _triangle_morphisms()
    left = compose_morphisms(compose_morphisms(chi, psi, 3), phi, 3)
    right = compose_morphisms(chi, compose_morphisms(psi, phi, 3), 3)
    assert left.components == right.components


def test_compose_with_identity_is_neutral():
    model, phi, _, _ = _triangle_morphisms()
    ident = identity_morphism(model)
    assert compose_morphisms(ident, phi, 3).components == phi.components
    assert compose_morphisms(phi, ident, 3).components == phi.components


def test_morphism_component_degree_check():
    x = Generator("x", 0, Fraction(0))
    y = Generator("y", 1, Fraction(0))
    model = LInfinityModel([x, y], {})
    comps = {(1, Word([x])): {Word([y]): ONE}}
    with pytest.raises(ModelError, match="degree"):
        LInfinityMorphism(model, model, comps)


def test_morphism_component_filtration_check():
    s = Generator("s", 0, Fraction(2))
    t = Generator("t", 0, Fraction(1))
    model = LInfinityModel([s, t], {}, filtered=True)
    with pytest.raises(ModelError, match="filtration"):
        LInfinityMorphism(model, model, {(1, Word([s])): {Word([t]): ONE}})


def test_cdga_morphisms_are_arity_one(models):
    model = models["cdga_aug"]
    comps = {(2, model.word("b", "c")): {model.word("b"): ONE}}
    with pytest.raises(ModelError, match="arity-1"):
        LInfinityMorphism(model, model, comps)


def test_check_morphism_flags_dropped_generator(models):
    dgla = models["dgla"]
    comps = dict(singles_identity(dgla))
    del comps[(1, dgla.word("w"))]
    phi = LInfinityMorphism(dgla, dgla, comps)
    violations = dict(check_morphism(phi, 2))
    assert violations[dgla.word("w")] == {dgla.word("z"): ONE.scale(-1)}
    assert check_morphism(identity_morphism(dgla), 3) == []


def _module_morphism_model():
    """A module-mode model with no operations, on letters of both parities."""
    gens = [Generator(n, d, Fraction(0)) for n, d in (
        ("e", 0), ("e2", 2), ("o1", 1), ("o1p", 1), ("o2", 3), ("q", 4),
    )]
    return LInfinityModel(gens, {})


def _module_morphism(model):
    """A degree-0 morphism with components of arity 1 to 3, some on odd
    letters, with coefficients other than 1."""
    comps = dict(singles_identity(model))
    for names, out, coeff in (
        (("o1", "o1p"), "e2", "2*T^1"),
        (("o1", "o2"), "q", "1"),
        (("e", "e2"), "e2", "-1"),
        (("e", "o1"), "o1p", "1*T^1"),
        (("o1", "o1p", "e2"), "q", "1*T^2"),
        (("e", "o1", "o1p"), "e2", "-3"),
    ):
        comps[(len(names), model.word(*names))] = {model.word(out): N(coeff)}
    return LInfinityMorphism(model, model, comps)


def _morphism_cases(name):
    """A maker of fresh, equal morphisms, and the words to apply them to."""
    if name == "module":
        model = _module_morphism_model()
        return lambda: _module_morphism(model), model.basis_words(4)
    model = _fresh_model("cdga_aug")
    eps = model.augmentations["eps"]
    words = model.basis_words(4)
    # the round trip also feeds F^ε words that hold the unit monomial
    f_minus = f_epsilon_map(model, inverse_scalar_augmentation(model, eps))
    halfway = [u for w in words for u in extend_morphism(f_minus, w)]
    return lambda: f_epsilon_map(model, eps), list(dict.fromkeys(words + halfway))


def _reference_morphism(m, w):
    """Φ̂(w) from the components alone: in module mode the sum over set
    partitions of the positions of ⊙ of the block images; in cdga mode the
    ⊙ of the letter images, each the product of its generators' images."""
    unit = NovikovPolynomial.unit(m.target.cutoff)

    def multiply(picks, sign=1):
        coeff = unit.scale(sign)
        for _, c in picks:
            coeff = coeff * c
        return coeff

    if m.source.algebra_mode == "cdga":
        letter_images = []
        for mono in w:
            image = {}
            for picks in product(
                *(m.components.get((1, Word([g])), {}).items() for g in mono)
            ):
                merged = [g for u, _ in picks for g in u]
                sign, u = normalize_word(merged) if merged else (1, Word(()))
                if u is not None:
                    add_into(image, u, multiply(picks, sign))
            letter_images.append(image)
        terms = [(1, letter_images)]
    else:
        terms = []
        for sign, blocks in _reference_blocks(w):
            images = [
                m.components.get((len(b), Word([w[p] for p in b])), {}) for b in blocks
            ]
            if all(images):
                terms.append((sign, images))
    out = {}
    for sign, images in terms:
        for picks in product(*(image.items() for image in images)):
            sign2, bar = normalize_word([m.target.output_letter(u) for u, _ in picks])
            if bar is not None:
                add_into(out, bar, multiply(picks, sign * sign2))
    return out


@pytest.mark.parametrize("name", ["cdga_aug", "module"])
def test_memoized_morphism_equals_the_reference_on_every_call(monkeypatch, name):
    make, words = _morphism_cases(name)
    m = make()
    want = [_reference_morphism(m, w) for w in words]
    assert any(len(value) > 1 for value in want)
    assert [extend_morphism(m, w) for w in words] == want
    # the second call is served from the morphism's memo: no component read
    reads = _spy_table_reads(m, monkeypatch, "components")
    assert [extend_morphism(m, w) for w in words] == want
    assert [morphism_on_combo(m, {w: ONE}) for w in words] == want
    assert reads == []
    # every caller owns its combination: changing one changes no later call
    for w, value in zip(words, want):
        got = extend_morphism(m, w)
        got.clear()
        got[w] = ONE
        assert extend_morphism(m, w) == value, w


def _reference_monomial_image(m, mono):
    """The algebra map on ``mono`` without the memo: its generators'
    ``component`` images, multiplied out one generator at a time with plain
    ``*``."""
    image = {Word(()): NovikovPolynomial.unit(m.target.cutoff)}
    for g in mono:
        step = {}
        for u, c in image.items():
            for v, d in m.component([g]).items():
                merged = list(u) + list(v)
                sign, key = normalize_word(merged) if merged else (1, Word(()))
                if key is not None:
                    add_into(step, key, (c * d).scale(sign))
        image = step
    return image


@pytest.mark.parametrize("inverse", [False, True], ids=["eps", "minus_eps"])
def test_memoized_monomial_images_equal_the_reference(monkeypatch, inverse):
    model = _fresh_model("cdga_aug")
    eps = model.augmentations["eps"]
    if inverse:
        eps = inverse_scalar_augmentation(model, eps)
    m = f_epsilon_map(model, eps)
    words = model.basis_words(4)
    monos = list(dict.fromkeys([Word(())] + [mono for w in words for mono in w]))
    want = [_reference_monomial_image(m, mono) for mono in monos]
    want_words = [_reference_morphism(m, w) for w in words]
    assert any(len(value) > 1 for value in want)
    assert [m.apply_to_monomial(mono) for mono in monos] == want
    # the second call, and Φ̂ on every word, read the monomial memo only
    reads = _spy_table_reads(m, monkeypatch, "components")
    assert [m.apply_to_monomial(mono) for mono in monos] == want
    assert [extend_morphism(m, w) for w in words] == want_words
    assert reads == []
    # every caller owns its image: clearing one changes no later call
    for mono, value in zip(monos, want):
        got = m.apply_to_monomial(mono)
        got.clear()
        assert m.apply_to_monomial(mono) == value, mono


def test_composing_reads_the_memoized_morphism(monkeypatch):
    model = _module_morphism_model()
    phi, psi = _module_morphism(model), _module_morphism(model)
    want = compose_morphisms(psi, phi, 3).components
    assert any(arity > 1 for arity, _ in want)
    # a warm phi serves compose_morphisms from its memo alone
    monkeypatch.setattr(phi, "components", {})
    assert compose_morphisms(psi, phi, 3).components == want


@pytest.mark.parametrize("name", ["cdga_aug", "module"])
def test_threads_computing_the_morphism_get_the_serial_values(name):
    threads_n, rounds = 8, 5
    make, words = _morphism_cases(name)
    serial = make()
    want = {w: extend_morphism(serial, w) for w in words}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            m = make()
            got = [None] * threads_n

            def run(i, m=m, got=got):
                order = list(words)
                random.Random(f"{r}:{i}").shuffle(order)
                got[i] = {w: extend_morphism(m, w) for w in order}

            threads = [threading.Thread(target=run, args=(i,)) for i in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert all(values == want for values in got), r
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# linearization


def test_f_epsilon_substitutes_scalar_part(models):
    model = models["cdga_aug"]
    f = f_epsilon_map(model, model.augmentations["eps"])
    assert f.components[(1, model.word("b"))] == {
        model.word("b"): ONE,
        Word(()): N("1*T^(1/2)"),
    }
    assert f.components[(1, model.word("a"))] == {model.word("a"): ONE}


def test_linearized_differential_of_a(models):
    model = models["cdga_aug"]
    f, lin = linearize(model, model.augmentations["eps"])
    assert lin.algebra_mode == "module"
    assert lin.filtered == model.filtered
    assert lin.operations == {
        (1, model.word("a")): {
            model.word("b"): N("-1*T^(1/2)"),
            model.word("c"): N("1*T^(1/2)"),
        }
    }
    assert check_linfty_relations(lin, 3) == []


def test_f_epsilon_inverse_composes_to_identity(models):
    model = models["cdga_aug"]
    eps = model.augmentations["eps"]
    f_plus = f_epsilon_map(model, eps)
    f_minus = f_epsilon_map(model, inverse_scalar_augmentation(model, eps))
    composed = compose_morphisms(f_plus, f_minus)
    assert composed.components == identity_morphism(model).components
    # bar-level check: intermediate words carry uncontracted unit letters
    for w in model.basis_words(4):
        halfway = morphism_on_combo(f_minus, {w: ONE})
        assert morphism_on_combo(f_plus, halfway) == {w: ONE}


def _coefficient_types(combos):
    return {type(c) for combo in combos for p in combo.values() for _, c in p.terms}


def test_engine_coefficients_stay_ints():
    """ℓ̂ on ``b2`` and the F^ε round trip on ``cdga_aug`` have integral
    coefficients, so they carry ints only: a return to ``Fraction``
    coefficients in the engine's arithmetic fails here."""
    b2 = _fresh_model("b2")
    images = [extend_coderivation(b2, w) for w in b2.basis_words(4)]
    assert any(images)
    assert _coefficient_types(images) == {int}
    model = _fresh_model("cdga_aug")
    eps = model.augmentations["eps"]
    f_plus = f_epsilon_map(model, eps)
    f_minus = f_epsilon_map(model, inverse_scalar_augmentation(model, eps))
    combos = []
    for w in model.basis_words(4):
        halfway = morphism_on_combo(f_minus, {w: ONE})
        combos += [halfway, morphism_on_combo(f_plus, halfway)]
    assert _coefficient_types(combos) == {int}


def test_linearize_rejects_non_chain_map_augmentation(models):
    model = models["cdga_aug"]
    with pytest.raises(ModelError, match="chain-map"):
        linearize(model, Augmentation("zero", {}))


def test_linearize_rejects_scalar_higher_operation():
    x = Generator("x", 0, Fraction(0))
    y = Generator("y", -1, Fraction(0))
    model = LInfinityModel(
        [x, y],
        {(2, Word([x, y])): {Word(()): N("1*T^1")}},
        algebra_mode="cdga",
    )
    with pytest.raises(IntegrityError, match="scalar part"):
        linearize(model, Augmentation("zero", {}))


def test_f_epsilon_map_names_itself_for_a_non_scalar_augmentation(models):
    model = models["cdga_aug"]
    pair = Word([model.gen("b"), model.gen("c")])
    with pytest.raises(
        ModelError, match=r"^F\^ε needs a scalar augmentation .*a2 has an arity-2"
    ):
        f_epsilon_map(model, Augmentation("a2", {pair: {0: N("1*T^2")}}))


def test_linearize_needs_cdga_mode(models):
    with pytest.raises(ModelError, match="cdga"):
        linearize(models["dgla"], Augmentation("zero", {}))


# ---------------------------------------------------------------------------
# Maurer-Cartan elements


def test_mc_elements_must_be_even(models):
    dgla = models["dgla"]
    with pytest.raises(ModelError, match="even"):
        MaurerCartanElement(dgla, {dgla.gen("z"): N("1*T^1")})


def test_mc_check_detects_residual(models):
    dgla = models["dgla"]
    m = MaurerCartanElement(
        dgla, {dgla.gen("x"): N("1*T^1"), dgla.gen("y"): N("1*T^1")}
    )
    ok, residual = mc_check(dgla, m)
    assert not ok
    assert residual == {dgla.word("z"): N("1*T^2")}


def _repaired_mc(dgla):
    return MaurerCartanElement(
        dgla,
        {
            dgla.gen("x"): N("1*T^1"),
            dgla.gen("y"): N("1*T^1"),
            dgla.gen("w"): N("1*T^2"),
        },
    )


def test_mc_check_passes_after_repair(models):
    dgla = models["dgla"]
    ok, residual = mc_check(dgla, _repaired_mc(dgla))
    assert ok and residual == {}


def test_mc_check_valuation_guard_and_nilpotent_escape(models):
    dgla = models["dgla"]
    m = MaurerCartanElement(dgla, {dgla.gen("x"): ONE, dgla.gen("y"): ONE})
    with pytest.raises(ModelError, match="valuation"):
        mc_check(dgla, m)
    ok, residual = mc_check(dgla, m, assume_nilpotent=True)
    assert not ok and residual == {dgla.word("z"): ONE}


def test_mc_check_honors_term_cap(models):
    dgla = models["dgla"]
    ok, residual = mc_check(dgla, _repaired_mc(dgla), max_terms=1)
    assert not ok
    assert residual == {dgla.word("z"): N("-1*T^2")}
    # a cap below 1 would sum over no terms and pass vacuously
    for cap in (0, -1):
        with pytest.raises(ModelError, match="max_terms"):
            mc_check(dgla, _repaired_mc(dgla), max_terms=cap)


def mc_pushforward(
    phi: LInfinityMorphism, m: MaurerCartanElement
) -> MaurerCartanElement:
    """Φ_*(m) = Σ 1/k! Φ^k(m,...,m); asserts MC in the target.

    Built from the MC sum helpers of ``symcap.linfty``; no ``cap`` command
    pushes an MC element forward, so it lives with the tests that use it.
    """
    if phi.source is not m.model:
        raise ModelError("MC element does not live in the morphism source")
    if phi.target.algebra_mode != "module":
        raise ModelError("mc_pushforward needs a module-mode target")
    if m.min_valuation() <= 0:
        raise ModelError("MC element coefficients need strictly positive valuation")
    size = _mc_size(m, phi.max_arity(), m.model.cutoff)
    image = _extend_linearly(phi.component, _mc_multisets(m, size))
    value = {u[0]: c for u, c in image.items()}
    result = MaurerCartanElement(phi.target, value)
    ok, residual = mc_check(phi.target, result)
    if not ok:
        raise IntegrityError(
            "pushforward of a Maurer-Cartan element fails the MC equation "
            f"in the target (residual on {len(residual)} words)"
        )
    return result


def test_mc_pushforward_along_identity(models):
    dgla = models["dgla"]
    m = _repaired_mc(dgla)
    pushed = mc_pushforward(identity_morphism(dgla), m)
    assert pushed.value == m.value


def test_mc_pushforward_rejects_broken_image(models):
    dgla = models["dgla"]
    comps = dict(singles_identity(dgla))
    del comps[(1, dgla.word("w"))]
    phi = LInfinityMorphism(dgla, dgla, comps)
    with pytest.raises(IntegrityError, match="Maurer-Cartan"):
        mc_pushforward(phi, _repaired_mc(dgla))


def test_exp_mc_needs_cutoff_or_cap(models):
    dgla = models["dgla"]
    m = _repaired_mc(dgla)
    with pytest.raises(ModelError, match="cutoff or an explicit size cap"):
        exp_mc(m)
    out = exp_mc(m, max_terms=2)
    assert len(out) == 9  # three singletons plus six pairs
    assert out[dgla.word("x", "y")] == N("1*T^2")
    assert out[dgla.word("x", "x")] == NovikovPolynomial.monomial(2, Fraction(1, 2))


# -- how many factors an MC sum takes: the cases where a size cap from the
# caller, the valuation and the model cutoff could be combined differently

VALUATION_MESSAGE = "^MC element coefficients need strictly positive valuation$"


def _cubic_dgla(dgla, cutoff):
    """dgla with a model cutoff and one more operation, ℓ³(x, x, y) = z."""
    ops = dict(dgla.operations)
    ops[(3, dgla.word("x", "x", "y"))] = {dgla.word("z"): ONE}
    return LInfinityModel(list(dgla.generators.values()), ops, cutoff=cutoff)


def _element(model, **coeffs):
    return MaurerCartanElement(
        model, {model.gen(n): model.nov(((e, 1),)) for n, e in coeffs.items()}
    )


def test_mc_size_with_a_cap_and_valuation_zero(models):
    dgla = models["dgla"]
    for model in (dgla, _cubic_dgla(dgla, 4)):
        flat = _element(model, x=0, y=0)
        # an explicit cap is taken as it is, whatever the valuation
        assert exp_mc(flat, max_terms=2) == {
            model.word("x"): ONE,
            model.word("y"): ONE,
            model.word("x", "x"): N("1/2*T^0"),
            model.word("x", "y"): ONE,
            model.word("y", "y"): N("1/2*T^0"),
        }
        # the MC check and the push-forward refuse it, with one message
        with pytest.raises(ModelError, match=VALUATION_MESSAGE):
            mc_check(model, flat, max_terms=1)
        with pytest.raises(ModelError, match=VALUATION_MESSAGE):
            mc_pushforward(identity_morphism(model), flat)
    with pytest.raises(ModelError, match="valuation"):
        exp_mc(_element(dgla, x=0, y=0))
    # the augmentation push-forward sums up to the augmentation's arity
    model, eps, _ = _uv_model()
    assert augmentation_pushforward_mc(eps, _element(model, u=0, v=1)) == {
        0: model.nov(((1, 1), (3, 1))),
        1: model.nov(((2, 1),)),
    }


def test_mc_size_without_a_model_cutoff(models):
    dgla = models["dgla"]
    repaired = _repaired_mc(dgla)
    with pytest.raises(ModelError, match="cutoff or an explicit size cap"):
        exp_mc(repaired)
    assert exp_mc(repaired, max_terms=1) == {
        dgla.word("x"): N("1*T^1"),
        dgla.word("y"): N("1*T^1"),
        dgla.word("w"): N("1*T^2"),
    }
    assert mc_check(dgla, repaired, max_terms=2) == (True, {})
    assert mc_check(dgla, repaired, assume_nilpotent=True) == (True, {})
    assert mc_pushforward(identity_morphism(dgla), repaired).value == repaired.value
    u, v = Generator("u", 0, Fraction(1)), Generator("v", 0, Fraction(1))
    model = LInfinityModel([u, v], {})
    eps = Augmentation(
        "eps", {Word([u]): {0: N("1*T^1")}, Word([u, v]): {0: N("1*T^2")}}
    )
    assert augmentation_pushforward_mc(eps, _element(model, u=1, v=2)) == {
        0: N("1*T^2") + N("1*T^5")
    }


def test_mc_size_of_the_empty_element(models):
    dgla = models["dgla"]
    for model in (dgla, _cubic_dgla(dgla, 4)):
        empty = MaurerCartanElement(model, {})
        assert exp_mc(empty) == {}
        assert exp_mc(empty, max_terms=3) == {}
        assert mc_check(model, empty) == (True, {})
        assert mc_check(model, empty, assume_nilpotent=True) == (True, {})
        assert mc_pushforward(identity_morphism(model), empty).value == {}
    model, eps, _ = _uv_model()
    assert augmentation_pushforward_mc(eps, MaurerCartanElement(model, {})) == {}


def test_mc_size_below_the_cutoff_and_the_nilpotent_escape(models):
    dgla = models["dgla"]
    # at cutoff 5/2 the cubic term T^3/2·z is truncated: the MC sums stop
    # at two factors, and a cap or the nilpotent escape changes nothing
    low = _cubic_dgla(dgla, Fraction(5, 2))
    m = _element(low, x=1, y=1, w=2)
    for nilpotent in (False, True):
        assert mc_check(low, m, assume_nilpotent=nilpotent) == (True, {})
        assert mc_check(low, m, assume_nilpotent=nilpotent, max_terms=3) == (True, {})
    assert exp_mc(m, max_terms=5) == exp_mc(m)
    assert len(exp_mc(m)) == 6  # three singletons, and the pairs of x and y
    # at cutoff 4 it stays, and both ways report it
    high = _cubic_dgla(dgla, 4)
    m = _element(high, x=1, y=1, w=2)
    for nilpotent in (False, True):
        assert mc_check(high, m, assume_nilpotent=nilpotent) == (
            False,
            {high.word("z"): N("1/2*T^3")},
        )
    assert exp_mc(m, max_terms=5) == exp_mc(m)
    assert max(len(w) for w in exp_mc(m)) == 3
    # the nilpotent escape also skips the valuation guard
    flat = _element(high, x=0, y=0)
    ok, residual = mc_check(high, flat, assume_nilpotent=True)
    assert not ok and residual == {high.word("z"): N("3/2*T^0")}


def deform(model: LInfinityModel, m: MaurerCartanElement) -> LInfinityModel:
    """Deformed operations l^k_m(...) = Σ_{i>=0} 1/i! l^{k+i}(m,...,m,...).

    The i = 0 term is the undeformed operation, so deforming by 0 is the
    identity.  Keys are materialized on the subwords of stored operation keys.
    No ``cap`` command deforms a model, so it lives with the tests that use it.
    """
    ok, residual = mc_check(model, m)
    if not ok:
        raise IntegrityError(
            f"deform: MC residual nonzero on {len(residual)} words"
        )
    new_ops: dict[tuple[int, Word], Combo] = {}
    for (arity, word), combo in model.operations.items():
        slots = sorted(set(m.value).intersection(word), key=lambda g: g.sort_key)
        # how many copies of each slot's generator the MC element takes
        for taken in product(*(range(word.count(g) + 1) for g in slots)):
            if sum(taken) == arity:
                continue
            weight = NovikovPolynomial.unit(model.cutoff)
            remaining = list(word)
            for g, t in zip(slots, taken):
                for _ in range(t):
                    weight = weight * m.value[g]
                    remaining.remove(g)
                weight = weight.scale(Fraction(1, math.factorial(t)))
            if weight.is_zero():
                continue
            sign, key = normalize_word(remaining)
            target = new_ops.setdefault((len(remaining), key), {})
            for u, c in combo.items():
                add_into(target, u, (c * weight).scale(sign))
    return LInfinityModel(
        list(model.generators.values()),
        new_ops,
        grading_mode=model.grading_mode,
        algebra_mode=model.algebra_mode,
        cutoff=model.cutoff,
        filtered=False,
        augmentations=dict(model.augmentations),
    )


def test_deform_by_repaired_element(models):
    dgla = models["dgla"]
    deformed = deform(dgla, _repaired_mc(dgla))
    z = dgla.word("z")
    assert deformed.operations == {
        (1, dgla.word("x")): {z: N("1*T^1")},
        (1, dgla.word("y")): {z: N("1*T^1")},
        (1, dgla.word("w")): {z: N("-1*T^0")},
        (2, dgla.word("x", "y")): {z: ONE},
    }
    assert deformed.filtered is False
    assert check_linfty_relations(deformed, 3) == []


def test_deform_by_zero_is_identity(models):
    dgla = models["dgla"]
    deformed = deform(dgla, MaurerCartanElement(dgla, {}))
    assert deformed.operations == dgla.operations


def test_deform_requires_mc_solution(models):
    dgla = models["dgla"]
    m = MaurerCartanElement(
        dgla, {dgla.gen("x"): N("1*T^1"), dgla.gen("y"): N("1*T^1")}
    )
    with pytest.raises(IntegrityError, match="MC residual"):
        deform(dgla, m)


# ---------------------------------------------------------------------------
# augmentation extension and pushforward


def test_augmentation_hat_splits_into_blocks(models):
    model = models["b2_lin"]
    eps = model.augmentations["eps"]
    out = augmentation_hat(eps, model.word("xa1", "xa2"))
    assert out == {(0, 1): N("1*T^3")}


def test_augmentation_hat_block_signs(models):
    model = models["b2_lin"]
    xa1, xa2, xa3 = (model.gen(n) for n in ("xa1", "xa2", "xa3"))
    aug = Augmentation(
        "mixed",
        {
            Word([xa1]): {0: N("1*T^1")},
            Word([xa2]): {1: N("1*T^2")},
            Word([xa3]): {2: N("1*T^3")},
            Word([xa1, xa3]): {0: N("1*T^4")},
        },
    )
    out = augmentation_hat(aug, model.word("xa1", "xa2", "xa3"))
    # the {xa1,xa3},{xa2} partition interleaves two odd letters: sign -1
    assert out == {(0, 1, 2): N("1*T^6"), (0, 1): N("-1*T^6")}


def _augmentations_and_morphisms(models):
    """Every fixture augmentation, the identity morphism of every module-mode
    fixture model and this file's module-mode morphisms, each with the
    words of length <= 5 of its source: (name, lookup, longest, words)."""
    cases = []
    for name, model in models.items():
        words = model.basis_words(5)
        for aug_name, aug in model.augmentations.items():
            cases.append((f"{name}:{aug_name}", aug.component, aug.max_arity(), words))
        if model.algebra_mode == "module":
            cases.append((f"{name}:identity", identity_morphism(model), 1, words))
    model = _module_morphism_model()
    morphisms = [("module", _module_morphism(model))]
    morphisms += zip(("phi", "psi", "chi"), _triangle_morphisms()[1:])
    for name, m in morphisms:
        cases.append((name, m, m.max_arity(), m.source.basis_words(5)))
    out = []
    for name, lookup, longest, words in cases:
        if isinstance(lookup, LInfinityMorphism):
            comps = lookup.components
            lookup = lambda key, comps=comps: comps.get((len(key), key))
        out.append((name, lookup, longest, words))
    return out


def test_partition_walk_skips_only_blocks_longer_than_any_key(models):
    """The walk bounded by the longest key yields exactly the unbounded
    walk, in order, on every fixture augmentation and morphism."""
    pruned = 0
    for name, lookup, longest, words in _augmentations_and_morphisms(models):
        assert words, name
        for w in words:
            assert list(_partition_blocks(w, lookup, longest)) == list(
                _partition_blocks(w, lookup)
            ), (name, w)
            pruned += longest < len(w)
    assert pruned > 1000


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
    m = MaurerCartanElement(
        model, {u: model.nov(((1, 1),)), v: model.nov(((2, 1),))}
    )
    return model, eps, m


def test_augmentation_pushforward_matches_hat_of_exponential():
    model, eps, m = _uv_model()
    pushed = augmentation_pushforward_mc(eps, m)
    hat = augmentation_hat_combo(eps, exp_mc(m))
    assert pushed == {k[0]: c for k, c in hat.items() if len(k) == 1}
    assert pushed == {
        0: model.nov(((2, 1), (5, 1))),
        1: model.nov(((3, 1),)),
    }
    # the longer t-words are really present before the projection
    assert hat[(0, 0)] == model.nov(((4, Fraction(1, 2)),))


# ---------------------------------------------------------------------------
# the circle-equivariant extension of the two-ball complex
#
# Extend the b2 fixture (positive-action part, so the unit-level class is
# dropped) by a formal variable u of degree 2: elements are dicts keyed by
# (generator name, u-power <= 0).  The extended differential is
# d + u*D where D(ac_k) = k*ah_k, and powers of u above u^0 are truncated.
# The checked classes then admit explicit primitives-with-tails, and
# projecting back out of the tail recovers the identity.


def _acc(store, key, coeff):
    prev = store.get(key)
    total = coeff if prev is None else prev + coeff
    if total.is_zero():
        store.pop(key, None)
    else:
        store[key] = total


def _equivariant_differential(elt):
    out = {}
    for (name, upow), coeff in elt.items():
        if not name.startswith("ac"):
            continue
        k = int(name[2:])
        if k >= 2:
            _acc(out, (f"ah{k - 1}", upow), coeff * N("1*T^1"))
        if upow + 1 <= 0:
            _acc(out, (f"ah{k}", upow + 1), coeff.scale(k))
    return out


def _tail_primitive(k):
    """Sum over j of (-1)^j T^j / ((k-1)(k-2)...(k-j)) * (ac_{k-j}, u^{-j})."""
    elt = {}
    denom = 1
    for j in range(k):
        if j:
            denom *= k - j
        coeff = NovikovPolynomial.monomial(j, Fraction((-1) ** j, denom))
        elt[(f"ac{k - j}", -j)] = coeff
    return elt


def test_equivariant_tails_are_closed(models):
    b2 = models["b2"]
    # the tails are built from the fixture's differential, so pin that first
    for k in range(2, 7):
        assert b2.operations[(1, b2.word(f"ac{k}"))] == {
            b2.word(f"ah{k - 1}"): N("1*T^1")
        }
    for k in range(1, 7):
        assert _equivariant_differential(_tail_primitive(k)) == {}


def test_equivariant_projection_recovers_identity():
    for k in range(1, 7):
        u0_part = {
            name: c
            for (name, upow), c in _tail_primitive(k).items()
            if upow == 0 and name.startswith("ac")
        }
        assert u0_part == {f"ac{k}": ONE}
