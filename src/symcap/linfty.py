"""Filtered L-infinity models: coderivations, morphisms, Maurer-Cartan theory.

A model stores the operations ``l^k`` sparsely on canonical generator words.
In ``module`` mode outputs are single generators (``l^k: ⊙^k V -> V``); in
``cdga`` mode outputs are monomials (words of generators, possibly empty) and
operations are extended to monomial inputs by the Leibniz rule in each slot.

Bar-complex elements are linear combinations of :class:`~symcap.words.Word`
objects with :class:`~symcap.novikov.NovikovPolynomial` coefficients.  A bar
letter is a generator in module mode and a nonempty monomial in cdga mode,
where bar words are words of words.  Both modes take one engine path: the
basis words come from one enumeration with a budget on the generators they
hold, and the coderivation and the relation check feed ℓ through one split
loop.  The model makes the three choices that depend on the mode: what ℓ is
on a canonical word of bar letters, which bar letters can feed an operation
of a given arity, and how an output word becomes a bar letter.

The bar extensions l̂, Φ̂ and ε̂ and the algebra map on a monomial are each
a sum of products of per-block combinations: one term picked from each
block, the picks kept in order and their coefficients multiplied.
:func:`_products` is the one routine that multiplies them out.

A model is immutable after construction, so the coderivation l̂, a function
of the model and the word only, is computed once per word and model: each
model memoizes it (see :func:`extend_coderivation`).  A morphism is
immutable after construction too, and memoizes Φ̂ per word the same way
(see :func:`extend_morphism`); a cdga-mode morphism also memoizes its
algebra map per monomial, so each monomial image is multiplied out once
(see :meth:`LInfinityMorphism.apply_to_monomial`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

from .novikov import INF, NovikovPolynomial, add_into, fmt_rational, lattice
from .words import (
    Generator,
    Word,
    block_getters,
    block_signs,
    mono_text,
    normalize_word,
    odd_mask,
    partitions,
    reorder_sign,
    splits,
    word_multiplicity_factor,
)

Combo = dict  # Word -> NovikovPolynomial

# the words one enumeration may build, sized by ``check``: b2.model --l 8 (74,312)
# passes in 0.15 s and 26 MB RSS; with ah1 -> T*ac1 added, half its words fail and
# it takes 6.2 s and 96 MB (--l 6: 0.78 s) (2-core Xeon, CPython 3.11)
MAX_WORDS = 1 << 16


class ModelError(ValueError):
    """Malformed model, morphism, or element data."""


class IntegrityError(RuntimeError):
    """A verified postcondition failed on given data."""


# ---------------------------------------------------------------------------
# linear-combination helpers


def _extend_linearly(f, combo: Combo) -> dict:
    """Σ c·f(w) over the terms c·w of ``combo``; ``f`` returns combinations."""
    out: dict = {}
    for w, c in combo.items():
        for u, d in f(w).items():
            add_into(out, u, c * d)
    return out


def _products(factors: Sequence[dict], unit) -> list[tuple[tuple, NovikovPolynomial]]:
    """(keys, coefficient) for each pick of one term from every factor, in
    order: the tuple of the picked keys, and ``unit`` times the picked
    coefficients.  Partial products are extended one factor at a time, and
    a zero one is dropped as soon as it appears."""
    partial = [((), unit)]
    for factor in factors:
        partial = [
            (keys + (key,), p)
            for keys, coeff in partial
            for key, c in factor.items()
            if (p := coeff * c)
        ]
    return partial


def _signed_lookup(value, letters: Sequence) -> Combo:
    """``value`` at the canonical form of ``letters``, times the sign of
    sorting them."""
    sign, key = normalize_word(letters)
    if key is None:
        return {}
    combo = value(key)
    return dict(combo) if sign == 1 else {w: -c for w, c in combo.items()}


def _monomial(letters: Sequence) -> tuple[int, Optional[Word]]:
    """``normalize_word`` that also takes no letters: the empty monomial 1."""
    return normalize_word(letters) if letters else (1, Word(()))


def _partition_blocks(w: Word, lookup) -> Iterable[tuple[int, list]]:
    """(Koszul sign, per-block values) for each set partition of the letter
    positions of ``w`` on whose every block ``lookup`` is nonzero.

    Blocks are ordered by first position, and ``lookup`` gets each block's
    letters as a word.
    """
    k = len(w)
    for getters, sign in zip(
        block_getters(partitions, k), block_signs(partitions, k, odd_mask(w))
    ):
        values = []
        for get in getters:
            value = lookup(Word(get(w)))
            if not value:
                break
            values.append(value)
        else:
            yield sign, values


# ---------------------------------------------------------------------------
# augmentations


class Augmentation:
    """Components of an L-infinity map to the t-power module Λ≥0[t].

    ``components`` maps canonical input words (of generators) to t-polynomials
    represented as ``{t_power: NovikovPolynomial}``.  Scalar-valued (CDGA)
    augmentations use only ``t^0``.
    """

    def __init__(self, name: str, components: dict):
        self.name = name
        comps: dict[Word, dict[int, NovikovPolynomial]] = {}
        for word, tpoly in components.items():
            clean = {int(m): c for m, c in tpoly.items() if not c.is_zero()}
            if any(m < 0 for m in clean):
                raise ModelError(f"augmentation {name}: negative t-power")
            if clean:
                comps[word] = clean
        self.components = comps

    def component(self, word: Word) -> dict[int, NovikovPolynomial]:
        return self.components.get(word, {})

    def max_arity(self) -> int:
        return max((len(w) for w in self.components), default=0)


# ---------------------------------------------------------------------------
# the model


class LInfinityModel:
    """Generators, the operations ℓ^k on canonical words, and augmentations.

    A model is immutable after construction: nothing rebinds or changes its
    operations, ``key_letters``, cutoff or mode.  That makes l̂ a function of
    the word alone, and the model memoizes it per word.
    """

    def __init__(
        self,
        generators: Sequence[Generator],
        operations: dict,
        grading_mode: str = "Z",
        algebra_mode: str = "module",
        cutoff=None,
        filtered: bool = False,
        augmentations: Optional[dict[str, Augmentation]] = None,
    ):
        if grading_mode not in ("Z", "Z2"):
            raise ModelError(f"unknown grading_mode {grading_mode!r}")
        if algebra_mode not in ("module", "cdga"):
            raise ModelError(f"unknown algebra_mode {algebra_mode!r}")
        self.grading_mode = grading_mode
        self.algebra_mode = algebra_mode
        self.cutoff = None if cutoff is None else Fraction(cutoff)
        self.filtered = bool(filtered)

        self.generators: dict[str, Generator] = {}
        for g in generators:
            if g.name in self.generators:
                raise ModelError(f"duplicate generator {g.name}")
            self.generators[g.name] = g
        self.ordered_generators = sorted(
            self.generators.values(), key=lambda g: g.sort_key
        )

        self.operations: dict[tuple[int, Word], Combo] = {}
        for (arity, word), combo in operations.items():
            self._check_key(arity, word)
            clean: Combo = {}
            for out, coeff in combo.items():
                self._check_output_word(out)
                coeff = coeff.truncate(self.cutoff) if self.cutoff else coeff
                if coeff.is_zero():
                    continue
                if not self.deg_equal(out.degree, word.degree + 1):
                    raise ModelError(
                        f"operation on {self._word_str(word)} is not degree +1 "
                        f"(output {mono_text(out)})"
                    )
                if self.filtered:
                    lvl = coeff.valuation() + out.action
                    if lvl < word.action:
                        raise ModelError(
                            f"operation on {self._word_str(word)} violates the "
                            f"filtration: output {self._word_str(out)} at level "
                            f"{fmt_rational(lvl)} < {fmt_rational(word.action)}"
                        )
                add_into(clean, out, coeff)
            if clean:
                self.operations[(arity, word)] = clean

        # per arity, the letters of some operation key: a fed word holding
        # any other letter has no operation on it
        self.key_letters: dict[int, frozenset] = {}
        for arity, word in self.operations:
            self.key_letters[arity] = self.key_letters.get(arity, frozenset()).union(
                word
            )

        self.augmentations: dict[str, Augmentation] = {}
        for name, aug in (augmentations or {}).items():
            for word, tpoly in aug.components.items():
                self._check_key(len(word), word)
                if self.filtered:
                    for _, coeff in tpoly.items():
                        if coeff.valuation() < word.action:
                            raise ModelError(
                                f"augmentation {name} on {self._word_str(word)} "
                                "violates the filtration"
                            )
            self.augmentations[name] = aug

        # l̂ on canonical bar words, filled by ``extend_coderivation``
        self._coderivation_memo: dict[Word, Combo] = {}

    # -- validation helpers ------------------------------------------------

    def _word_str(self, w: Word) -> str:
        if self.algebra_mode == "cdga" and w and isinstance(w[0], Word):
            return " , ".join(map(mono_text, w))
        return mono_text(w)

    def _check_key(self, arity: int, word: Word) -> None:
        if arity != len(word):
            raise ModelError(f"arity {arity} does not match word length {len(word)}")
        if arity < 1:
            raise ModelError("operations need arity >= 1")
        for l in word:
            if not isinstance(l, Generator) or self.generators.get(l.name) != l:
                raise ModelError(f"unknown generator in key {self._word_str(word)}")
        sign, canon = normalize_word(word)
        if canon != word or sign != 1:
            raise ModelError(f"non-canonical key word {self._word_str(word)}")

    def _check_output_word(self, w: Word) -> None:
        if self.algebra_mode == "module":
            if len(w) != 1:
                raise ModelError("module-mode outputs must be single generators")
        for l in w:
            if not isinstance(l, Generator) or self.generators.get(l.name) != l:
                raise ModelError(f"unknown generator in output {mono_text(w)}")

    def deg_equal(self, a: int, b: int) -> bool:
        return (a - b) % 2 == 0 if self.grading_mode == "Z2" else a == b

    # -- basic element builders ---------------------------------------------

    def gen(self, name: str) -> Generator:
        try:
            return self.generators[name]
        except KeyError:
            raise ModelError(f"unknown generator {name!r}") from None

    def word(self, *names: str) -> Word:
        """Canonical word of generators (module bar word / cdga monomial)."""
        sign, w = normalize_word([self.gen(n) for n in names])
        if w is None or sign != 1:
            raise ModelError(f"word {names} is zero or non-canonical")
        return w

    def bar_letter(self, g: Generator):
        return self.output_letter(Word([g]))

    def nov(self, terms) -> NovikovPolynomial:
        return NovikovPolynomial(terms, self.cutoff)

    def augmentation(self, name: Optional[str] = None) -> Augmentation:
        """The augmentation called ``name``; without a name, the only one."""
        if name is not None:
            try:
                return self.augmentations[name]
            except KeyError:
                raise ModelError(f"no augmentation named {name!r}") from None
        if len(self.augmentations) != 1:
            raise ModelError(
                "model has several augmentations; pass the name explicitly"
                if self.augmentations
                else "model has no augmentations"
            )
        return next(iter(self.augmentations.values()))

    def basis_words(self, max_len: int, max_action=None) -> list[Word]:
        """Canonical bar words of at most ``max_len`` generators (and the
        action bound), by number of letters; a monomial letter spends one
        generator of the budget per letter of its own."""
        cap = self.cutoff if max_action is None else Fraction(max_action)
        return self._multisets(*self._bar_alphabet(max_len, cap), max_len, cap)

    def _bar_alphabet(self, max_len: int, cap) -> tuple[list, list[int]]:
        """The sorted bar letters of at most ``max_len`` generators within
        ``cap``, and how many generators each holds: the generators, or in
        cdga mode the nonempty monomials."""
        gens = self.ordered_generators
        ones = [1] * len(gens)
        if self.algebra_mode == "module":
            return gens, ones
        monos = self._multisets(gens, ones, max_len, cap)
        monos.sort(key=lambda w: w.sort_key)
        return monos, [len(m) for m in monos]

    @staticmethod
    def _multisets(
        letters: Sequence, sizes: Sequence[int], budget: int, cap
    ) -> list[Word]:
        """Canonical words drawn from the sorted ``letters`` whose ``sizes``
        sum to at most ``budget``, by number of letters.

        Letters are taken in nondecreasing position and an odd letter never
        twice, so every word is already canonical with sign 1.  A letter is
        skipped when the letters still to come, of size at least 1 each, no
        longer fit the budget.  Actions are summed as integers over the lcm
        of the cap's and the letters' denominators; letters are sorted by
        action, so the first letter past the cap ends the loop.  More than
        ``MAX_WORDS`` words raise ValueError.
        """
        out: list[Word] = []
        n = len(letters)
        if cap is None:
            # all weights 0 under a limit of 0: no letter ever overshoots
            weights, limit = [0] * n, 0
        else:
            _, (limit, *weights) = lattice([cap, *(l.action for l in letters)])

        def rec(start: int, left: int, budget: int, acc: list, action: int):
            if left == 0:
                if len(out) == MAX_WORDS:
                    raise ValueError(f"more than {MAX_WORDS} words to enumerate")
                out.append(Word(acc))
                return
            for i in range(start, n):
                a = action + weights[i]
                if a > limit:
                    break
                l = letters[i]
                if l.degree % 2 and acc and acc[-1] == l:
                    continue
                rest = budget - sizes[i]
                if rest < left - 1:
                    continue
                acc.append(l)
                rec(i, left - 1, rest, acc, a)
                acc.pop()

        try:
            for count in range(1, budget + 1):
                rec(0, count, budget, [], 0)
        finally:
            del rec  # rec holds itself: free the search by refcount, not the GC
        return out

    # -- applying operations -------------------------------------------------

    def apply_operation(self, letters: Sequence) -> Combo:
        """Apply l^k to k bar letters (generators or, in cdga mode, monomials)."""
        return _signed_lookup(self._operation, letters)

    def _operation(self, word: Word) -> Combo:
        """ℓ on a canonical word of bar letters.

        In module mode this is a table read.  In cdga mode it is the Leibniz
        rule in each slot: pick one generator per monomial, read ℓ at the
        picks, and multiply the output by the letters left over.  Only
        generators of the ``key_letters`` of the arity are picked; no other
        pick has an operation on it, and a unit slot has nothing to pick.
        """
        k = len(word)
        if self.algebra_mode == "module":
            return self.operations.get((k, word), {})
        allowed = self.key_letters.get(k, ())
        flat, slots = [], []
        for mono in word:
            slots.append([len(flat) + j for j, g in enumerate(mono) if g in allowed])
            flat.extend(mono)
        degrees = [g.degree for g in flat]
        out: Combo = {}
        for chosen in product(*slots):
            sign, key = normalize_word([flat[i] for i in chosen])
            combo = key and self.operations.get((k, key))
            if not combo:
                continue
            leftovers = [i for i in range(len(flat)) if i not in chosen]
            sign *= reorder_sign(degrees, list(chosen) + leftovers)
            rest = [flat[i] for i in leftovers]
            for u, coeff in combo.items():
                sign2, merged = _monomial([*u, *rest])
                if merged is not None:
                    add_into(out, merged, coeff.scale(sign * sign2))
        return out

    def _feeds(self, letter, allowed: frozenset) -> bool:
        """Whether a bar letter holds one of the ``allowed`` key generators."""
        if self.algebra_mode == "module":
            return letter in allowed
        return not allowed.isdisjoint(letter)

    def output_letter(self, out: Word):
        """The bar letter of an output word: its generator, or the monomial."""
        return out if self.algebra_mode == "cdga" else out[0]


# ---------------------------------------------------------------------------
# coderivation extension and relation checking


def _operation_splits(
    model: LInfinityModel, letters: tuple, outer: bool = False
) -> Iterable[tuple[int, tuple, Combo]]:
    """(sign, rest, ℓ(fed)) for each split of the canonical ``letters`` into
    fed positions and the rest on which ℓ(fed) is nonzero; ``rest`` is the
    tuple of the rest letters.

    Each fed subsequence of a canonical word is canonical with sorting sign
    1, so ℓ is taken at it directly, and only when every fed letter can feed
    an operation of the fed size (see ``LInfinityModel._feeds``); every
    other subset has no operation on it.  With ``outer``, a split is also
    skipped unless every rest letter can feed an operation of arity
    ``len(rest) + 1``, else no operation takes ℓ(fed) ⊙ rest; so a fed size
    is tried only if some operation has arity ``len(letters) + 1 - size``.
    """
    k = len(letters)
    keys = model.key_letters
    # per fed size tried, the positions whose letter can feed it
    fits = {
        size: {p for p, l in enumerate(letters) if model._feeds(l, allowed)}
        for size, allowed in keys.items()
        if (k + 1 - size in keys if outer else size <= k)
    }
    if not fits:
        return
    for (fed, rest), (fed_get, rest_get), sign in zip(
        splits(k), block_getters(splits, k), block_signs(splits, k, odd_mask(letters))
    ):
        ok = fits.get(len(fed))
        if ok is None or not ok.issuperset(fed):
            continue
        if outer:
            ok = fits.get(len(rest) + 1)
            if ok is None or not ok.issuperset(rest):
                continue
        value = model._operation(Word(fed_get(letters)))
        if value:
            yield sign, rest_get(letters), value


def extend_coderivation(model: LInfinityModel, w: Word) -> Combo:
    """The coderivation value l̂(w) as a combination of bar words.

    l̂(w) depends on the model and the word only, so each model keeps it per
    word.  An entry is stored only once complete, so a thread never reads a
    half-built one; two threads may both compute a missing entry, and they
    store equal values.  Every caller gets its own copy of the entry.
    """
    value = model._coderivation_memo.get(w)
    if value is None:
        value = model._coderivation_memo[w] = _coderivation(model, w)
    return dict(value)


def _coderivation(model: LInfinityModel, w: Word) -> Combo:
    if not w:
        raise ModelError("the empty word is not part of the reduced bar complex")
    out: Combo = {}
    for sign, rest, value in _operation_splits(model, w):
        for v, coeff in value.items():
            sign2, bar = normalize_word((model.output_letter(v),) + rest)
            if bar is None:
                continue
            add_into(out, bar, coeff.scale(sign * sign2))
    return out


def coderivation_on_combo(model: LInfinityModel, combo: Combo) -> Combo:
    return _extend_linearly(lambda w: extend_coderivation(model, w), combo)


def _relation_residual(model: LInfinityModel, w: Word) -> Combo:
    """The word-length-1 part of l̂(l̂(w)): Σ ±ℓ(ℓ(fed) ⊙ rest) over the
    splits of ``w``, as a combination of output words."""
    out: Combo = {}
    for sign, rest, value in _operation_splits(model, w, outer=True):
        allowed = model.key_letters[len(rest) + 1]
        for v, coeff in value.items():
            letter = model.output_letter(v)
            if not model._feeds(letter, allowed):
                continue
            sign2, key = normalize_word((letter,) + rest)
            if key is None:
                continue
            for u, d in model._operation(key).items():
                add_into(out, u, (coeff * d).scale(sign * sign2))
    return out


def check_linfty_relations(
    model: LInfinityModel, max_word_len: int
) -> list[tuple[Word, Combo]]:
    """(w, l̂(l̂(w))) for every basis word w up to the length bound on which
    the residual is nonzero; empty iff all vanish.

    Emptiness is decided on word length one.  l̂ is an odd coderivation
    (every operation has degree +1), so l̂² = ½[l̂, l̂] is a coderivation too,
    and l̂²(w) = Σ ±pr₁l̂²(fed) ⊙ rest over the splits of w.  Every fed word
    of a basis word is a basis word, so l̂² vanishes on all basis words up to
    the bound iff its word-length-1 part Σ ±ℓ(ℓ(fed) ⊙ rest), the classical
    list of L-infinity relations, does (Lada-Markl, 1995).  That part is read
    from the operation table; the full residuals are computed only when some
    relation fails.
    """
    if max_word_len < 1:
        raise ModelError("max_word_len must be >= 1")
    words = model.basis_words(max_word_len)
    if not any(_relation_residual(model, w) for w in words):
        return []
    violations = []
    for w in words:
        residual = coderivation_on_combo(model, extend_coderivation(model, w))
        if residual:
            violations.append((w, residual))
    return violations


# ---------------------------------------------------------------------------
# morphisms


class LInfinityMorphism:
    """Maps Φ^k stored on canonical source words; degree 0, filtration-safe.

    In cdga mode only arity-1 components on generators are supported and the
    morphism is the induced algebra map (this covers the linearization maps
    F^ε, which are substitutions x -> x + ε(x)).

    A morphism is immutable after construction: nothing rebinds or changes
    its source, target or components.  That makes Φ̂ a function of the word
    alone, and the morphism memoizes it per word.
    """

    def __init__(
        self,
        source: LInfinityModel,
        target: LInfinityModel,
        components: dict,
    ):
        self.source = source
        self.target = target
        self.components: dict[tuple[int, Word], Combo] = {}
        algebra_map = source.algebra_mode == "cdga"
        for (arity, word), combo in components.items():
            source._check_key(arity, word)
            if algebra_map and arity != 1:
                raise ModelError(
                    "cdga-mode morphisms support only arity-1 components"
                )
            clean: Combo = {}
            for out, coeff in combo.items():
                target._check_output_word(out)
                if coeff.is_zero():
                    continue
                if not source.deg_equal(out.degree, word.degree):
                    raise ModelError(
                        f"morphism component on {source._word_str(word)} "
                        "is not degree 0"
                    )
                if source.filtered and target.filtered:
                    if coeff.valuation() + out.action < word.action:
                        raise ModelError(
                            f"morphism component on {source._word_str(word)} "
                            "violates the filtration"
                        )
                add_into(clean, out, coeff)
            if clean:
                self.components[(arity, word)] = clean

        # Φ̂ per bar word and the algebra map per monomial, filled on use
        self._morphism_memo: dict[Word, Combo] = {}
        self._monomial_memo: dict[Word, Combo] = {}

    def max_arity(self) -> int:
        return max((a for a, _ in self.components), default=0)

    def component(self, letters: Sequence) -> Combo:
        return _signed_lookup(lambda k: self.components.get((len(k), k), {}), letters)

    # -- application ---------------------------------------------------------

    def apply_to_monomial(self, mono: Word) -> Combo:
        """Multiplicative extension to a cdga monomial (algebra-map mode),
        kept per monomial as Φ̂ is kept per bar word (see
        :func:`extend_morphism`)."""
        value = self._monomial_memo.get(mono)
        if value is None:
            images = [self.component([g]) for g in mono]
            unit = NovikovPolynomial.unit(self.target.cutoff)
            value = {}
            for keys, coeff in _products(images, unit):
                sign, u = _monomial([g for key in keys for g in key])
                if u is not None:
                    add_into(value, u, coeff.scale(sign))
            self._monomial_memo[mono] = value
        return dict(value)


def extend_morphism(m: LInfinityMorphism, w: Word) -> Combo:
    """Φ̂(w): sum over set partitions of the letter positions of ``w``.

    Φ̂(w) depends on the morphism and the word only, so each morphism keeps
    it per word, as a model keeps l̂ (see :func:`extend_coderivation`): an
    entry is stored only once complete, and every caller gets its own copy.
    """
    value = m._morphism_memo.get(w)
    if value is None:
        value = m._morphism_memo[w] = _morphism(m, w)
    return dict(value)


def _morphism(m: LInfinityMorphism, w: Word) -> Combo:
    if len(w) == 0:
        raise ModelError("the empty word is not part of the reduced bar complex")
    out: Combo = {}
    if m.source.algebra_mode == "cdga":
        # algebra map: letterwise images, multiplied out at the bar level
        parts = [m.apply_to_monomial(mono) for mono in w]
        _tensor_into(out, parts, m.target)
        return out
    for sign, values in _partition_blocks(
        w, lambda key: m.components.get((len(key), key))
    ):
        _tensor_into(out, values, m.target, sign)
    return out


def _tensor_into(
    acc: Combo, factors: list[Combo], target: LInfinityModel, sign: int = 1
) -> None:
    """``sign`` times the ⊙-product of per-block output combinations,
    normalized at bar level."""
    unit = NovikovPolynomial(((0, sign),), target.cutoff)
    for keys, coeff in _products(factors, unit):
        sign2, bar = normalize_word([target.output_letter(u) for u in keys])
        if bar is not None:
            add_into(acc, bar, coeff.scale(sign2))


def morphism_on_combo(m: LInfinityMorphism, combo: Combo) -> Combo:
    return _extend_linearly(lambda w: extend_morphism(m, w), combo)


# ---------------------------------------------------------------------------
# Maurer-Cartan theory


class MaurerCartanElement:
    """Even combination of generators: {Generator: NovikovPolynomial}."""

    def __init__(self, model: LInfinityModel, value: dict):
        self.model = model
        clean = {}
        for g, c in value.items():
            if model.generators.get(g.name) != g:
                raise ModelError(f"unknown generator {g.name} in MC element")
            if g.degree % 2:
                raise ModelError(
                    f"Maurer-Cartan elements must be even; {g.name} is odd"
                )
            c = c.truncate(model.cutoff) if model.cutoff else c
            if not c.is_zero():
                clean[g] = c
        self.value = clean

    def min_valuation(self):
        return min((c.valuation() for c in self.value.values()), default=INF)


def _mc_multisets(m: MaurerCartanElement, max_size: int) -> dict:
    """{generator multiset as a canonical word: weight ∏c/∏mult!} for sizes
    1..max_size.  MC letters are even, so every multiset is a word."""
    gens = sorted(m.value, key=lambda g: g.sort_key)
    out = {}
    for letters in LInfinityModel._multisets(gens, [1] * len(gens), max_size, None):
        weight = NovikovPolynomial.unit(m.model.cutoff)
        for g in letters:
            weight = weight * m.value[g]
        out[letters] = weight.scale(Fraction(1, word_multiplicity_factor(letters)))
    return out


def _mc_size(m: MaurerCartanElement, cap: Optional[int], cutoff) -> int:
    """How many factors of ``m`` an MC sum takes: ``cap``, lowered to
    ``cutoff // v`` when the least valuation v of ``m`` is positive.  The
    lowering is exact: every longer product truncates to zero.  Without a
    ``cap``, that bound must exist; an empty ``m`` takes no factors."""
    if not m.value:
        return 0
    v = m.min_valuation()
    if v > 0 and cutoff is not None:
        bound = int(cutoff // v)
        return bound if cap is None else min(cap, bound)
    if cap is None:
        raise ModelError(
            "MC sums need strictly positive valuation and a model cutoff or an "
            "explicit size cap to converge"
        )
    return cap


def mc_check(
    model: LInfinityModel,
    m: MaurerCartanElement,
    assume_nilpotent: bool = False,
    max_terms: Optional[int] = None,
) -> tuple[bool, Combo]:
    """Truncated Maurer-Cartan sum Σ 1/k! l^k(m,...,m); (pass, residual)."""
    if max_terms is not None and max_terms < 1:
        raise ModelError("max_terms must be >= 1")
    max_arity = max(model.key_letters, default=0)
    if not assume_nilpotent and m.min_valuation() <= 0:
        raise ModelError("MC element coefficients need strictly positive valuation")
    cap = max_arity if max_terms is None else min(max_terms, max_arity)
    residual = _extend_linearly(
        lambda letters: model.apply_operation([model.bar_letter(g) for g in letters]),
        _mc_multisets(m, _mc_size(m, cap, model.cutoff)),
    )
    return (not residual), residual


def exp_mc(m: MaurerCartanElement, max_terms: Optional[int] = None) -> Combo:
    """exp(m) = Σ_{k>=1} m^{⊙k}/k! as a bar-complex combination."""
    size = _mc_size(m, max_terms, m.model.cutoff)
    out: Combo = {}
    for letters, weight in _mc_multisets(m, size).items():
        sign, w = normalize_word([m.model.bar_letter(g) for g in letters])
        add_into(out, w, weight.scale(sign))
    return out


# ---------------------------------------------------------------------------
# augmentation extension (bar-level) and pushforward


def augmentation_hat(aug: Augmentation, w: Word) -> dict[tuple, NovikovPolynomial]:
    """ε̂(w): combination of t-power words, via set partitions of positions.

    Output keys are sorted tuples of t-exponents.  Blocks are ordered by
    first position and signs come from the source letter degrees.
    """
    out: dict[tuple, NovikovPolynomial] = {}
    for sign, tpolys in _partition_blocks(w, aug.component):
        for powers, coeff in _products(tpolys, NovikovPolynomial(((0, sign),))):
            add_into(out, tuple(sorted(powers)), coeff)
    return out


def augmentation_hat_combo(
    aug: Augmentation, combo: Combo
) -> dict[tuple, NovikovPolynomial]:
    return _extend_linearly(lambda w: augmentation_hat(aug, w), combo)


def augmentation_pushforward_mc(
    aug: Augmentation, m: MaurerCartanElement
) -> dict[int, NovikovPolynomial]:
    """ε_*(m) = Σ 1/k! ε^k(m,...,m) as a t-polynomial {power: coefficient}."""
    size = _mc_size(m, aug.max_arity(), m.model.cutoff)
    return _extend_linearly(aug.component, _mc_multisets(m, size))


# ---------------------------------------------------------------------------
# linearization (cdga mode)


def linearize(
    model: LInfinityModel, eps: Augmentation
) -> tuple[LInfinityMorphism, LInfinityModel]:
    """Conjugate by F^ε and project: returns (F^ε, module-mode linearized model).

    F^ε is the substitution x -> x + ε(x) on the symmetric algebra; the
    linearized operations are the single-generator parts of F^ε∘l^k on
    generator inputs.  The scalar parts of the conjugated differential and of
    all higher conjugated operations, the coefficients of the empty monomial
    in the same images, are checked to vanish (this is exactly
    ε(l^k(...)) = 0, the chain-map condition and its higher analogues).
    """
    if model.algebra_mode != "cdga":
        raise ModelError("linearize expects a cdga-mode model")
    f_eps = f_epsilon_map(model, eps)
    lin_ops: dict[tuple[int, Word], Combo] = {}
    for (arity, word), combo in model.operations.items():
        image = _extend_linearly(f_eps.apply_to_monomial, combo)
        scalar = image.get(Word(()))
        if scalar is not None:
            if arity == 1:
                raise ModelError(
                    f"augmentation {eps.name} fails the chain-map check on "
                    f"{model._word_str(word)}: ε(∂·) = {scalar}"
                )
            raise IntegrityError(
                f"scalar part of the conjugated arity-{arity} operation on "
                f"{model._word_str(word)} is nonzero: {scalar}"
            )
        lin = {v: c for v, c in image.items() if len(v) == 1}
        if lin:
            lin_ops[(arity, word)] = lin
    lin_model = LInfinityModel(
        list(model.generators.values()),
        lin_ops,
        grading_mode=model.grading_mode,
        algebra_mode="module",
        cutoff=model.cutoff,
        filtered=model.filtered,
    )
    return f_eps, lin_model


def inverse_scalar_augmentation(
    model: LInfinityModel, eps: Augmentation
) -> Augmentation:
    """The augmentation -ε, so that F^{-ε} inverts F^ε."""
    comps = {}
    for word, tpoly in eps.components.items():
        comps[word] = {p: -c for p, c in tpoly.items()}
    return Augmentation(f"-{eps.name}", comps)


def f_epsilon_map(model: LInfinityModel, eps: Augmentation) -> LInfinityMorphism:
    """Just the substitution morphism F^ε, without the conjugation checks.

    ε must be scalar: arity-1 components at t^0 only, nonzero only on even
    generators of degree 0.
    """
    for word in eps.components:
        if len(word) != 1:
            raise ModelError(
                f"F^ε needs a scalar augmentation (arity-1 components only); "
                f"{eps.name} has an arity-{len(word)} component"
            )
    comps: dict[tuple[int, Word], Combo] = {}
    for g in model.ordered_generators:
        w = Word([g])
        tpoly = eps.component(w)
        if any(p != 0 for p in tpoly):
            raise ModelError(
                f"augmentation {eps.name} is not scalar-valued on {g.name}"
            )
        combo: Combo = {w: NovikovPolynomial.unit(model.cutoff)}
        v = tpoly.get(0)
        if v:
            if g.degree % 2:
                raise ModelError(
                    f"augmentation {eps.name} is nonzero on the odd generator {g.name}"
                )
            if not model.deg_equal(g.degree, 0):
                raise ModelError(
                    f"augmentation {eps.name} is nonzero on {g.name} of degree "
                    f"{g.degree}; scalar augmentations live on degree 0"
                )
            combo[Word(())] = v
        comps[(1, w)] = combo
    return LInfinityMorphism(model, model, comps)
