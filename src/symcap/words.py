"""Graded generators, canonical symmetric words, Koszul signs, position splits.

A :class:`Word` is a canonical representative of an element ``v_1 ⊙ ... ⊙ v_k``
of the (reduced) symmetric tensor algebra on a graded, action-weighted basis:
letters are kept sorted by the fixed total order (action, name, degree), and
the sign produced while sorting is handed back by :func:`normalize_word`
rather than stored.  Equal letters are neighbours after the sort, so a word
with a repeated odd-degree letter is recognised, and is zero.

Splitting a word of length k into chosen positions and the rest, as the
coproduct and the coderivation extension do, reads one constant table:
:func:`splits` lists every nonempty position subset with its complement
(by size, then lexicographically), and :func:`split_signs` holds the Koszul
sign of each split for one set of odd positions.

Letters are usually :class:`Generator` instances, but any object exposing
``degree``, ``action`` and ``sort_key`` works; in particular a ``Word`` can
itself be a letter, which is how bar-complex words over a graded-commutative
algebra are represented (words of monomials).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Optional, Sequence

from .novikov import fmt_rational


class Generator:
    """An immutable graded basis symbol with an action weight.

    The hash and the sort key are computed once, so the sort in
    :func:`normalize_word` and every dict lookup keyed by words reuse them
    instead of hashing and comparing ``Fraction`` tuples again.
    """

    __slots__ = ("name", "degree", "action", "sort_key", "_hash")

    def __init__(self, name: str, degree: int, action):
        action = Fraction(action)
        if action < 0:
            raise ValueError(f"generator {name}: action must be >= 0")
        degree = int(degree)
        init = object.__setattr__
        init(self, "name", name)
        init(self, "degree", degree)
        init(self, "action", action)
        init(self, "sort_key", (action, name, degree))
        init(self, "_hash", hash((name, degree, action)))

    def __setattr__(self, name, value):
        raise AttributeError("Generator is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Generator)
            and self._hash == other._hash
            and self.name == other.name
            and self.degree == other.degree
            and self.action == other.action
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Generator({self.name!r}, {self.degree}, {fmt_rational(self.action)})"


class Word:
    """Canonical sorted word; also usable as a letter of an outer word.

    ``degree``, ``action`` and ``sort_key`` are computed on first access and
    kept: most words are only hashed, but those that are sorted as letters
    of outer words are compared many times.
    """

    __slots__ = ("letters", "_hash", "_degree", "_action", "_sort_key")

    def __init__(self, letters: Sequence):
        self.letters = tuple(letters)
        self._hash = hash(self.letters)

    @property
    def degree(self) -> int:
        try:
            return self._degree
        except AttributeError:
            self._degree = sum(l.degree for l in self.letters)
            return self._degree

    @property
    def action(self) -> Fraction:
        try:
            return self._action
        except AttributeError:
            self._action = sum((l.action for l in self.letters), Fraction(0))
            return self._action

    @property
    def sort_key(self):
        try:
            return self._sort_key
        except AttributeError:
            self._sort_key = (self.action, tuple(l.sort_key for l in self.letters))
            return self._sort_key

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Word({self.letters!r})"


def koszul_sign(degrees: Sequence[int], sigma: Sequence[int]) -> int:
    """Sign (-1)^{sum |v_i||v_j| over i<j with sigma(i)>sigma(j)}.

    ``sigma`` is a permutation of ``range(len(degrees))`` given as the tuple
    of images (0-based).
    """
    if len(degrees) != len(sigma):
        raise ValueError("degrees and permutation must have equal length")
    if sorted(sigma) != list(range(len(sigma))):
        raise ValueError(f"not a permutation: {sigma!r}")
    par = 0
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                par += degrees[i] * degrees[j]
    return -1 if par % 2 else 1


def reorder_sign(degrees: Sequence[int], order: Sequence[int]) -> int:
    """Koszul sign of rearranging letters into the given output order.

    ``order`` lists original indices in their output sequence; the sign is
    the parity of the odd-odd inversions crossed, so only the odd letters
    are compared.  Equivalent to ``koszul_sign(degrees, inverse(order))``.
    """
    odd = [i for i in order if degrees[i] % 2]
    inversions = 0
    for p, i in enumerate(odd):
        for j in odd[p + 1 :]:
            if i > j:
                inversions += 1
    return -1 if inversions % 2 else 1


def normalize_word(letters: Sequence) -> tuple[int, Optional[Word]]:
    """Sort letters into canonical order, returning (sign, word).

    Returns ``(0, None)`` when an odd-degree letter repeats (the word is
    zero in the symmetric algebra).
    """
    n = len(letters)
    if n == 1:
        return 1, Word(letters)
    if not n:
        raise ValueError("normalize_word: empty letter list")
    keys = [l.sort_key for l in letters]
    order = sorted(range(n), key=keys.__getitem__)
    out = [letters[i] for i in order]
    for a, b in zip(out, out[1:]):
        if a.degree % 2 and a == b:
            return 0, None
    return reorder_sign([l.degree for l in letters], order), Word(out)


@cache
def splits(k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every nonempty subset of the positions ``range(k)`` with the rest,
    as (chosen, rest) pairs ordered by size, then lexicographically; the
    full set, with an empty rest, comes last."""
    positions = range(k)
    return tuple(
        (chosen, tuple(p for p in positions if p not in chosen))
        for size in range(1, k + 1)
        for chosen in combinations(positions, size)
    )


@cache
def split_signs(k: int, odd_mask: int) -> tuple[int, ...]:
    """The sign of pulling each chosen set of ``splits(k)`` to the front,
    order preserved, when the odd letters sit at the set bits of ``odd_mask``.

    The table holds one tuple of ±1 per (k, mask), so all masks of one
    length take fewer than 4^k entries.
    """
    degrees = [(odd_mask >> p) & 1 for p in range(k)]
    return tuple(reorder_sign(degrees, chosen + rest) for chosen, rest in splits(k))


def odd_mask(letters: Sequence) -> int:
    """The bit mask of the positions of odd-degree letters."""
    mask = 0
    for p, l in enumerate(letters):
        if l.degree % 2:
            mask |= 1 << p
    return mask


def coproduct(w: Word) -> list[tuple[Word, Word, int]]:
    """All shuffle splittings of ``w`` into (left, right) with Koszul signs.

    Words of length 1 have empty reduced coproduct.  Splittings are indexed
    by proper nonempty position subsets, so duplicate letters contribute
    repeated (left, right) pairs rather than coefficients.
    """
    letters = w.letters
    k = len(letters)
    if k < 2:
        return []
    return [
        (Word([letters[p] for p in left]), Word([letters[p] for p in right]), sign)
        for (left, right), sign in zip(splits(k)[:-1], split_signs(k, odd_mask(letters)))
    ]


def word_multiplicity_factor(w: Word) -> int:
    """The factor i_1! ... i_m! of repeated-letter multiplicities."""
    fact = 1
    run = 1
    for a, b in zip(w.letters, w.letters[1:]):
        run = run + 1 if a == b else 1
        fact *= run if run > 1 else 1
    # the product above multiplies 2,3,...,i for each run, i.e. i!
    return fact
