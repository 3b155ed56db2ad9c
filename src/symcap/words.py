"""Graded generators, canonical symmetric words, Koszul signs, position splits.

A :class:`Word` is a canonical representative of an element ``v_1 ⊙ ... ⊙ v_k``
of the (reduced) symmetric tensor algebra on a graded, action-weighted basis:
letters are kept sorted by the fixed total order (action, name, degree), and
the sign produced while sorting is handed back by :func:`normalize_word`
rather than stored.  Equal letters are neighbours after the sort, so a word
with a repeated odd-degree letter is recognised, and is zero.

Both are built so that hashing and comparing them, which the engine does for
every term of every combination, runs in C.  :class:`Generator` instances
are interned, one live object per (name, degree, action), so they compare
and hash by identity; ``copy``, ``deepcopy`` and ``pickle`` hand back the
interned object.  A ``Word`` is a ``tuple`` subclass holding its letters,
so it hashes and compares as that tuple.

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

import threading
import weakref
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .novikov import fmt_rational


class Generator:
    """An immutable, interned graded basis symbol with an action weight.

    Constructing a generator whose (name, degree, action) matches a live one
    returns that object, so equal generators are the same object: equality
    and hashing are ``object``'s identity slots, run in C.  The sort key is
    computed once, so the sort in :func:`normalize_word` reuses it instead
    of comparing ``Fraction`` tuples built again.
    """

    __slots__ = ("name", "degree", "action", "sort_key", "__weakref__")

    def __new__(cls, name: str, degree: int, action):
        action = Fraction(action)
        if action < 0:
            raise ValueError(f"generator {name}: action must be >= 0")
        degree = int(degree)
        key = (name, degree, action)
        with _INTERN_LOCK:  # two equal live generators would compare unequal
            g = _GENERATORS.get(key)
            if g is None:
                g = object.__new__(cls)
                init = object.__setattr__
                init(g, "name", name)
                init(g, "degree", degree)
                init(g, "action", action)
                init(g, "sort_key", (action, name, degree))
                _GENERATORS[key] = g
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Generator is immutable")

    def __delattr__(self, name):
        raise AttributeError("Generator is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __new__: the interned object
        return Generator, (self.name, self.degree, self.action)

    def __repr__(self):
        return f"Generator({self.name!r}, {self.degree}, {fmt_rational(self.action)})"


# every live generator by (name, degree, action)
_GENERATORS = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class Word(tuple):
    """Canonical sorted word, the tuple of its letters; also usable as a
    letter of an outer word.

    Hashing, equality, length and iteration are the tuple's own.  A word
    therefore equals, and hashes like, the plain tuple of its letters; no
    combination or table keys both, so the two never meet (``gb_solver``'s
    rows are ``("d", Word)`` and ``("a", tuple of t-powers)``).
    ``degree``, ``action`` and ``sort_key`` are computed on first access and
    kept: most words are only hashed, but those that are sorted as letters
    of outer words are compared many times.
    """

    def __init__(self, letters: Iterable):
        # tuple.__new__ has built the word; the benchmark's trace counts
        # words built by wrapping this method, so it stays in the class
        pass

    @property
    def letters(self) -> "Word":
        return self

    @cached_property
    def degree(self) -> int:
        return sum(l.degree for l in self)

    @cached_property
    def action(self) -> Fraction:
        return sum((l.action for l in self), Fraction(0))

    @cached_property
    def sort_key(self):
        return (self.action, tuple(l.sort_key for l in self))

    def __repr__(self):
        return f"Word({tuple.__repr__(self)})"


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
    k = len(w)
    if k < 2:
        return []
    pick = w.__getitem__
    return [
        (Word(map(pick, left)), Word(map(pick, right)), sign)
        for (left, right), sign in zip(splits(k)[:-1], split_signs(k, odd_mask(w)))
    ]


def word_multiplicity_factor(w: Word) -> int:
    """The factor i_1! ... i_m! of repeated-letter multiplicities."""
    fact = 1
    run = 1
    for a, b in zip(w, w[1:]):
        run = run + 1 if a == b else 1
        fact *= run if run > 1 else 1
    # the product above multiplies 2,3,...,i for each run, i.e. i!
    return fact
