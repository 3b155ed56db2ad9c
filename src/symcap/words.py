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

Splitting a word into blocks of positions reads constant tables built once
per layout and length.  The layouts are :func:`splits`, every nonempty
position subset with its complement (by size, then lexicographically), as
the coproduct and the coderivation extension use, and :func:`partitions`,
every set partition, as morphisms and augmentations use;
:func:`partitions_within` keeps those whose blocks are no longer than a
lookup's longest key.
:func:`block_getters` holds, per layout, one C getter per block that reads
its letters of a word as a tuple, and :func:`block_signs` holds the Koszul
sign of lining up the blocks of each layout for one set of odd positions.
A sub-word is then ``Word(getter(w))``, with no per-letter Python step.

Letters are usually :class:`Generator` instances, but any object exposing
``degree``, ``action`` and ``sort_key`` works; in particular a ``Word`` can
itself be a letter, which is how bar-complex words over a graded-commutative
algebra are represented (words of monomials).
"""

from __future__ import annotations

import threading
import weakref
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

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


def mono_text(w: Word) -> str:
    """The letter names of ``w`` joined by ``*``; ``1`` for the empty word."""
    return "*".join(l.name for l in w) if w else "1"


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


def _getter(positions: tuple[int, ...]):
    """A C callable reading the letters at ``positions`` of a word as a tuple.

    A run of consecutive positions, one position or none reads as a slice:
    ``itemgetter`` of a single index would return the letter itself, and of
    no index is not defined.
    """
    n = len(positions)
    if not n or positions[-1] - positions[0] == n - 1:
        start = positions[0] if n else 0
        return itemgetter(slice(start, start + n))
    return itemgetter(*positions)


def _set_partitions(items: tuple, longest: int) -> Iterable[tuple[tuple, ...]]:
    """Partitions of ``items`` into nonempty blocks of at most ``longest``
    items, each in input order: those of the other items, with the first
    item alone in front, then joined to each block in turn.  Blocks only
    grow on the way up, so dropping a long one early keeps the order of
    the partitions that remain."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest, longest):
        if longest:
            yield ((first,),) + part
        for i in range(len(part)):
            if len(part[i]) < longest:
                yield part[:i] + ((first,) + part[i],) + part[i + 1 :]


@cache
def partitions(
    k: int, longest: Optional[int] = None
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every partition of the positions ``range(k)`` into nonempty blocks,
    each block ascending and the blocks ordered by first position; with
    ``longest``, only those whose blocks hold at most that many positions,
    in the same order.  There are Bell(k) in all: 52 at k = 5, 4140 at
    k = 8."""
    bound = k if longest is None else longest
    return tuple(
        tuple(sorted(part)) for part in _set_partitions(tuple(range(k)), bound)
    )


@cache
def partitions_within(longest: int) -> Callable[[int], tuple]:
    """The layout ``k -> partitions(k, longest)``: one object per bound,
    so that :func:`block_getters` and :func:`block_signs` keep its tables
    per (length, bound)."""
    return partial(partitions, longest=longest)


@cache
def block_getters(layouts, k: int) -> tuple[tuple, ...]:
    """Per layout of ``layouts(k)`` (``splits`` or ``partitions``), in
    order, the getters of its blocks."""
    return tuple(tuple(map(_getter, layout)) for layout in layouts(k))


@cache
def block_signs(layouts, k: int, odd_mask: int) -> tuple[int, ...]:
    """The sign of lining up the blocks of each layout of ``layouts(k)``,
    order preserved, when the odd letters sit at the set bits of
    ``odd_mask``; for a split, that pulls the chosen set to the front.
    """
    degrees = [(odd_mask >> p) & 1 for p in range(k)]
    return tuple(
        reorder_sign(degrees, [p for block in layout for p in block])
        for layout in layouts(k)
    )


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
    return [
        (Word(left(w)), Word(right(w)), sign)
        for (left, right), sign in zip(
            block_getters(splits, k), block_signs(splits, k, odd_mask(w))[:-1]
        )
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
