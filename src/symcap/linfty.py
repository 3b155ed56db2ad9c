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
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Iterable, Optional, Sequence

from .novikov import NovikovPolynomial, add_into, fmt_rational
from .words import (
    Generator,
    Word,
    normalize_word,
    odd_mask,
    reorder_sign,
    split_signs,
    splits,
    word_multiplicity_factor,
)

Combo = dict  # Word -> NovikovPolynomial


class ModelError(ValueError):
    """Malformed model, morphism, or element data."""


class IntegrityError(RuntimeError):
    """A verified postcondition failed on given data."""


# ---------------------------------------------------------------------------
# linear-combination helpers


def combo_sub(a: Combo, b: Combo) -> Combo:
    out = dict(a)
    for w, c in b.items():
        add_into(out, w, -c)
    return out


def _extend_linearly(f, combo: Combo) -> dict:
    """Σ c·f(w) over the terms c·w of ``combo``; ``f`` returns combinations."""
    out: dict = {}
    for w, c in combo.items():
        for u, d in f(w).items():
            add_into(out, u, c * d)
    return out


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


def set_partitions(items: Sequence) -> Iterable[list[list]]:
    """All partitions of ``items`` into unordered nonempty blocks.

    Blocks preserve the input order internally; with sorted input, every
    block is ascending and blocks can be canonically ordered by first entry.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + [list(b) for b in part]
        for i in range(len(part)):
            yield (
                [list(b) for b in part[:i]]
                + [[first] + list(part[i])]
                + [list(b) for b in part[i + 1 :]]
            )


def _partition_blocks(w: Word, lookup) -> Iterable[tuple[int, list]]:
    """(Koszul sign, per-block values) for each set partition of the letter
    positions of ``w`` on whose every block ``lookup`` is nonzero.

    Blocks are ordered by first position, and ``lookup`` gets each block's
    letters as a word.
    """
    degrees = [l.degree for l in w]
    pick = w.__getitem__
    for part in set_partitions(range(len(w))):
        blocks = sorted(part, key=lambda b: b[0])
        values = []
        for b in blocks:
            value = lookup(Word(map(pick, b)))
            if not value:
                break
            values.append(value)
        else:
            yield reorder_sign(degrees, [p for b in blocks for p in b]), values


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

    def scalar_on_generator(self, g: Generator) -> NovikovPolynomial:
        """The t^0 value on a single generator; errors on higher t-powers."""
        tpoly = self.component(Word([g]))
        if any(m != 0 for m in tpoly):
            raise ModelError(
                f"augmentation {self.name} is not scalar-valued on {g.name}"
            )
        return tpoly.get(0, NovikovPolynomial.zero())


# ---------------------------------------------------------------------------
# the model


class LInfinityModel:
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
                self._check_degree_step(word, out, arity)
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
                word.letters
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

    # -- validation helpers ------------------------------------------------

    def _word_str(self, w: Word) -> str:
        if self.algebra_mode == "cdga" and w.letters and isinstance(w.letters[0], Word):
            return " , ".join(self._mono_str(m) for m in w.letters)
        return self._mono_str(w)

    @staticmethod
    def _mono_str(w: Word) -> str:
        if not w.letters:
            return "1"
        return "*".join(l.name for l in w.letters)

    def _check_key(self, arity: int, word: Word) -> None:
        if arity != len(word):
            raise ModelError(f"arity {arity} does not match word length {len(word)}")
        if arity < 1:
            raise ModelError("operations need arity >= 1")
        for l in word.letters:
            if not isinstance(l, Generator) or self.generators.get(l.name) != l:
                raise ModelError(f"unknown generator in key {self._word_str(word)}")
        sign, canon = normalize_word(word.letters)
        if canon != word or sign != 1:
            raise ModelError(f"non-canonical key word {self._word_str(word)}")

    def _check_output_word(self, w: Word) -> None:
        if self.algebra_mode == "module":
            if len(w) != 1:
                raise ModelError("module-mode outputs must be single generators")
        for l in w.letters:
            if not isinstance(l, Generator) or self.generators.get(l.name) != l:
                raise ModelError(f"unknown generator in output {self._mono_str(w)}")

    def deg_equal(self, a: int, b: int) -> bool:
        return (a - b) % 2 == 0 if self.grading_mode == "Z2" else a == b

    def _check_degree_step(self, key: Word, out: Word, arity: int) -> None:
        if not self.deg_equal(out.degree, key.degree + 1):
            raise ModelError(
                f"operation on {self._word_str(key)} is not degree +1 "
                f"(output {self._mono_str(out)})"
            )

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
        longer fit the budget.
        """
        out: list[Word] = []

        def rec(start: int, left: int, budget: int, acc: list, action: Fraction):
            if left == 0:
                out.append(Word(acc))
                return
            for i in range(start, len(letters)):
                l = letters[i]
                if l.degree % 2 and acc and acc[-1] == l:
                    continue
                rest = budget - sizes[i]
                if rest < left - 1:
                    continue
                a = action + l.action
                if cap is not None and a > cap:
                    continue
                acc.append(l)
                rec(i, left - 1, rest, acc, a)
                acc.pop()

        for count in range(1, budget + 1):
            rec(0, count, budget, [], Fraction(0))
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
    fed positions and the ``rest`` on which ℓ(fed) is nonzero.

    Each fed subsequence of a canonical word is canonical with sorting sign
    1, so ℓ is taken at it directly, and only when every fed letter can feed
    an operation of the fed size (see ``LInfinityModel._feeds``); every
    other subset has no operation on it.  With ``outer``, a split is also
    skipped unless every rest letter can feed an operation of arity
    ``len(rest) + 1``, else no operation takes ℓ(fed) ⊙ rest; so a fed size
    is tried only if some operation has arity ``len(letters) + 1 - size``.
    """
    k = len(letters)
    pick = letters.__getitem__
    keys = model.key_letters
    # per fed size tried, the positions whose letter can feed it
    fits = {
        size: {p for p, l in enumerate(letters) if model._feeds(l, allowed)}
        for size, allowed in keys.items()
        if (k + 1 - size in keys if outer else size <= k)
    }
    if not fits:
        return
    for (fed, rest), sign in zip(splits(k), split_signs(k, odd_mask(letters))):
        ok = fits.get(len(fed))
        if ok is None or not ok.issuperset(fed):
            continue
        if outer:
            ok = fits.get(len(rest) + 1)
            if ok is None or not ok.issuperset(rest):
                continue
        value = model._operation(Word(map(pick, fed)))
        if value:
            yield sign, rest, value


def extend_coderivation(model: LInfinityModel, w: Word) -> Combo:
    """The coderivation value l̂(w) as a combination of bar words."""
    if not w:
        raise ModelError("the empty word is not part of the reduced bar complex")
    out: Combo = {}
    for sign, rest, value in _operation_splits(model, w):
        rest_letters = [w[p] for p in rest]
        for v, coeff in value.items():
            sign2, bar = normalize_word([model.output_letter(v)] + rest_letters)
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
        rest_letters = [w[p] for p in rest]
        for v, coeff in value.items():
            letter = model.output_letter(v)
            if not model._feeds(letter, allowed):
                continue
            sign2, key = normalize_word([letter] + rest_letters)
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
    """

    def __init__(
        self,
        source: LInfinityModel,
        target: LInfinityModel,
        components: dict,
        check_degree: bool = True,
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
                if check_degree and not source.deg_equal(out.degree, word.degree):
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

    def max_arity(self) -> int:
        return max((a for a, _ in self.components), default=0)

    def component(self, letters: Sequence) -> Combo:
        return _signed_lookup(lambda k: self.components.get((len(k), k), {}), letters)

    # -- application ---------------------------------------------------------

    def apply_to_monomial(self, mono: Word) -> Combo:
        """Multiplicative extension to a cdga monomial (algebra-map mode)."""
        result: Combo = {Word(()): NovikovPolynomial.unit(self.target.cutoff)}
        for g in mono:
            image = self.component([g])
            merged: Combo = {}
            for w1, c1 in result.items():
                for w2, c2 in image.items():
                    sign, u = _monomial(w1 + w2)
                    if u is not None:
                        add_into(merged, u, (c1 * c2).scale(sign))
            result = merged
        return result


def extend_morphism(m: LInfinityMorphism, w: Word) -> Combo:
    """Φ̂(w): sum over set partitions of the letter positions of ``w``."""
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

    def rec(i: int, letters: list, coeff: NovikovPolynomial):
        if coeff.is_zero():
            return
        if i == len(factors):
            sign, bar = normalize_word(letters)
            if bar is not None:
                add_into(acc, bar, coeff.scale(sign))
            return
        for wrd, c in factors[i].items():
            rec(i + 1, letters + [target.output_letter(wrd)], coeff * c)

    rec(0, [], NovikovPolynomial(((0, sign),), target.cutoff))


def morphism_on_combo(m: LInfinityMorphism, combo: Combo) -> Combo:
    return _extend_linearly(lambda w: extend_morphism(m, w), combo)


def identity_morphism(model: LInfinityModel) -> LInfinityMorphism:
    comps = {}
    for g in model.ordered_generators:
        w = Word([g])
        comps[(1, w)] = {w: NovikovPolynomial.unit(model.cutoff)}
    return LInfinityMorphism(model, model, comps)


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


def check_morphism(
    m: LInfinityMorphism, max_word_len: int
) -> list[tuple[Word, Combo]]:
    """Violations of Φ̂∘l̂ = l̂'∘Φ̂ on basis words up to the length bound."""
    violations = []
    for w in m.source.basis_words(max_word_len):
        lhs = morphism_on_combo(m, extend_coderivation(m.source, w))
        rhs = coderivation_on_combo(m.target, extend_morphism(m, w))
        residual = combo_sub(lhs, rhs)
        if residual:
            violations.append((w, residual))
    return violations


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
        return min((c.valuation() for c in self.value.values()), default=math.inf)


def _mc_multisets(m: MaurerCartanElement, max_size: int) -> dict:
    """{sorted generator multiset: weight ∏c/∏mult!} for sizes 1..max_size."""
    gens = sorted(m.value, key=lambda g: g.sort_key)
    out = {}
    for size in range(1, max_size + 1):
        for letters in combinations_with_replacement(gens, size):
            weight = NovikovPolynomial.unit(m.model.cutoff)
            for g in letters:
                weight = weight * m.value[g]
            fact = word_multiplicity_factor(Word(letters))
            out[letters] = weight.scale(Fraction(1, fact))
    return out


def _mc_size_cap(m: MaurerCartanElement, cap: int, cutoff) -> int:
    """``cap``, lowered to the most factors of ``m`` that fit below ``cutoff``."""
    if not m.value:
        return cap
    v = m.min_valuation()
    if v <= 0:
        raise ModelError("MC element coefficients need strictly positive valuation")
    return cap if cutoff is None else min(cap, int(cutoff // v))


def _max_mc_size(m: MaurerCartanElement, cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    v = m.min_valuation()
    if v == math.inf:
        return 0
    if v <= 0:
        raise ModelError(
            "MC element needs strictly positive valuation (or pass a size cap)"
        )
    if m.model.cutoff is None:
        raise ModelError(
            "MC sums need a model cutoff or an explicit size cap to converge"
        )
    return int(m.model.cutoff // v)


def mc_check(
    model: LInfinityModel,
    m: MaurerCartanElement,
    assume_nilpotent: bool = False,
    max_terms: Optional[int] = None,
) -> tuple[bool, Combo]:
    """Truncated Maurer-Cartan sum Σ 1/k! l^k(m,...,m); (pass, residual)."""
    if max_terms is not None and max_terms < 1:
        raise ModelError("max_terms must be >= 1")
    max_arity = max((a for a, _ in model.operations), default=0)
    size_cap = max_arity if max_terms is None else min(max_terms, max_arity)
    if not assume_nilpotent:
        size_cap = _mc_size_cap(m, size_cap, model.cutoff)
    residual = _extend_linearly(
        lambda letters: model.apply_operation([model.bar_letter(g) for g in letters]),
        _mc_multisets(m, size_cap),
    )
    return (not residual), residual


def mc_pushforward(
    phi: LInfinityMorphism, m: MaurerCartanElement
) -> MaurerCartanElement:
    """Φ_*(m) = Σ 1/k! Φ^k(m,...,m); asserts MC in the target."""
    if phi.source is not m.model:
        raise ModelError("MC element does not live in the morphism source")
    if phi.target.algebra_mode != "module":
        raise ModelError("mc_pushforward needs a module-mode target")
    size_cap = _mc_size_cap(m, phi.max_arity(), m.model.cutoff)
    image = _extend_linearly(phi.component, _mc_multisets(m, size_cap))
    value = {u.letters[0]: c for u, c in image.items()}
    result = MaurerCartanElement(phi.target, value)
    ok, residual = mc_check(phi.target, result)
    if not ok:
        raise IntegrityError(
            "pushforward of a Maurer-Cartan element fails the MC equation "
            f"in the target (residual on {len(residual)} words)"
        )
    return result


def exp_mc(m: MaurerCartanElement, max_terms: Optional[int] = None) -> Combo:
    """exp(m) = Σ_{k>=1} m^{⊙k}/k! as a bar-complex combination."""
    cap = _max_mc_size(m, max_terms)
    out: Combo = {}
    for letters, weight in _mc_multisets(m, cap).items():
        sign, w = normalize_word([m.model.bar_letter(g) for g in letters])
        add_into(out, w, weight.scale(sign))
    return out


def deform(model: LInfinityModel, m: MaurerCartanElement) -> LInfinityModel:
    """Deformed operations l^k_m(...) = Σ_{i>=0} 1/i! l^{k+i}(m,...,m,...).

    The i = 0 term is the undeformed operation, so deforming by 0 is the
    identity.  Keys are materialized on the subwords of stored operation keys.
    """
    ok, residual = mc_check(model, m)
    if not ok:
        raise IntegrityError(
            f"deform: MC residual nonzero on {len(residual)} words"
        )
    support = set(m.value)
    new_ops: dict[tuple[int, Word], Combo] = {}
    for (arity, word), combo in model.operations.items():
        slots = sorted(
            {g for g in word.letters if g in support}, key=lambda g: g.sort_key
        )
        counts = {g: sum(1 for l in word.letters if l == g) for g in slots}

        def rec(i: int, taken: list[tuple[Generator, int]]):
            removed = sum(t for _, t in taken)
            if i == len(slots):
                if removed == arity:
                    return
                weight = NovikovPolynomial.unit(model.cutoff)
                for g, t in taken:
                    for _ in range(t):
                        weight = weight * m.value[g]
                    weight = weight.scale(Fraction(1, math.factorial(t)))
                if weight.is_zero():
                    return
                remaining = list(word.letters)
                for g, t in taken:
                    for _ in range(t):
                        remaining.remove(g)
                sign, key = normalize_word(remaining)
                target = new_ops.setdefault((len(remaining), key), {})
                for u, c in combo.items():
                    add_into(target, u, (c * weight).scale(sign))
                return
            g = slots[i]
            for t in range(counts[g] + 1):
                taken.append((g, t))
                rec(i + 1, taken)
                taken.pop()

        rec(0, [])
    return LInfinityModel(
        list(model.generators.values()),
        new_ops,
        grading_mode=model.grading_mode,
        algebra_mode=model.algebra_mode,
        cutoff=model.cutoff,
        filtered=False,
        augmentations=dict(model.augmentations),
    )


# ---------------------------------------------------------------------------
# augmentation extension (bar-level) and pushforward


def augmentation_hat(aug: Augmentation, w: Word) -> dict[tuple, NovikovPolynomial]:
    """ε̂(w): combination of t-power words, via set partitions of positions.

    Output keys are sorted tuples of t-exponents.  Blocks are ordered by
    first position and signs come from the source letter degrees.
    """
    out: dict[tuple, NovikovPolynomial] = {}
    for sign, tpolys in _partition_blocks(w, aug.component):

        def rec(i: int, powers: list[int], coeff: NovikovPolynomial):
            if coeff.is_zero():
                return
            if i == len(tpolys):
                add_into(out, tuple(sorted(powers)), coeff)
                return
            for p, c in tpolys[i].items():
                rec(i + 1, powers + [p], coeff * c)

        rec(0, [], NovikovPolynomial(((0, sign),)))
    return out


def augmentation_hat_combo(
    aug: Augmentation, combo: Combo
) -> dict[tuple, NovikovPolynomial]:
    return _extend_linearly(lambda w: augmentation_hat(aug, w), combo)


def augmentation_pushforward_mc(
    aug: Augmentation, m: MaurerCartanElement
) -> dict[int, NovikovPolynomial]:
    """ε_*(m) = Σ 1/k! ε^k(m,...,m) as a t-polynomial {power: coefficient}."""
    cap = aug.max_arity()
    if m.value:
        v = m.min_valuation()
        if v > 0 and m.model.cutoff is not None:
            cap = min(cap, int(m.model.cutoff // v))
    # MC letters are even and sorted, so each multiset is a canonical word
    return _extend_linearly(
        lambda letters: aug.component(Word(letters)), _mc_multisets(m, cap)
    )


# ---------------------------------------------------------------------------
# linearization (cdga mode)


def _scalar_augmentation_values(
    model: LInfinityModel, eps: Augmentation
) -> dict[Generator, NovikovPolynomial]:
    values: dict[Generator, NovikovPolynomial] = {}
    for word in eps.components:
        if len(word) != 1:
            raise ModelError(
                "linearize needs a scalar augmentation (arity-1 components only)"
            )
    for g in model.ordered_generators:
        v = eps.scalar_on_generator(g)
        if v.is_zero():
            continue
        if g.degree % 2:
            raise ModelError(
                f"augmentation {eps.name} is nonzero on the odd generator {g.name}"
            )
        if not model.deg_equal(g.degree, 0):
            raise ModelError(
                f"augmentation {eps.name} is nonzero on {g.name} of degree "
                f"{g.degree}; scalar augmentations live on degree 0"
            )
        values[g] = v
    return values


def _eps_of_monomial(
    values: dict[Generator, NovikovPolynomial], w: Word, cutoff
) -> NovikovPolynomial:
    total = NovikovPolynomial.unit(cutoff)
    for g in w.letters:
        v = values.get(g)
        if v is None:
            return NovikovPolynomial.zero(cutoff)
        total = total * v
    return total


def linearize(
    model: LInfinityModel, eps: Augmentation
) -> tuple[LInfinityMorphism, LInfinityModel]:
    """Conjugate by F^ε and project: returns (F^ε, module-mode linearized model).

    F^ε is the substitution x -> x + ε(x) on the symmetric algebra; the
    linearized operations are the single-generator parts of F^ε∘l^k on
    generator inputs.  The scalar parts of the conjugated differential and of
    all higher conjugated operations are checked to vanish (this is exactly
    ε(l^k(...)) = 0, the chain-map condition and its higher analogues).
    """
    if model.algebra_mode != "cdga":
        raise ModelError("linearize expects a cdga-mode model")
    values = _scalar_augmentation_values(model, eps)

    for (arity, word), combo in model.operations.items():
        scalar = NovikovPolynomial.zero(model.cutoff)
        for u, c in combo.items():
            scalar = scalar + c * _eps_of_monomial(values, u, model.cutoff)
        if not scalar.is_zero():
            if arity == 1:
                raise ModelError(
                    f"augmentation {eps.name} fails the chain-map check on "
                    f"{model._word_str(word)}: ε(∂·) = {scalar}"
                )
            raise IntegrityError(
                f"scalar part of the conjugated arity-{arity} operation on "
                f"{model._word_str(word)} is nonzero: {scalar}"
            )

    f_eps = f_epsilon_map(model, eps)

    lin_ops: dict[tuple[int, Word], Combo] = {}
    for (arity, word), combo in model.operations.items():
        image = _extend_linearly(f_eps.apply_to_monomial, combo)
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
    """Just the substitution morphism F^ε, without the conjugation checks."""
    values = _scalar_augmentation_values(model, eps)
    comps: dict[tuple[int, Word], Combo] = {}
    for g in model.ordered_generators:
        w = Word([g])
        combo: Combo = {w: NovikovPolynomial.unit(model.cutoff)}
        v = values.get(g)
        if v is not None:
            combo[Word(())] = v
        comps[(1, w)] = combo
    return LInfinityMorphism(model, model, comps)
