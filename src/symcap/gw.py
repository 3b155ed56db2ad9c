"""Rewriting calculus for rational curve counts with tangency constraints.

A term is a product of point constraints; each point carries a group of
branch orders (order m = contact of order m+1 with a local divisor, m = 0 a
transverse point).  The pushing-points relation moves a singleton constraint
onto another point:

    <(T^m q),(m_1,...,m_b), rest> =
        <(m, m_1,...,m_b), rest> + sum_i <(..., m_i + m + 1, ...), rest>

Each output term keeps the total constraint codimension of the input (2+2m
per order on a two-complex-dimensional target; 2m on the projective line).
Solving for the group with a maximal order yields a rewrite that strictly
decreases (total order sum, number of positive orders) lexicographically,
so repeated application lands in order-zero (multipoint/multibranch) terms,
which a base table of blow-up-type invariants evaluates.

:func:`reduce_combination` reduces every term once, in two passes over the
rewrite DAG, which lives on int ids: a term is its groups' ids, each given
at first sight, in ascending group order.  Nothing refers back to the
search, so the DAG dies by reference counting when the call returns.  A
trace's :class:`TermKeys` builds a term's key only when read, and
:func:`term_names` names every term from its group ids.  Where no term can
choose its rewrite, nothing is drawn and the caller's ``rng`` is not advanced.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .linfty import ModelError
from .novikov import parse_rational

if TYPE_CHECKING:  # for an annotation; a caller brings its own generator
    import random

SURFACES = ("CP2", "CP1xCP1", "CP1")

Group = tuple  # sorted tuple of branch orders, descending
Key = tuple  # (surface | None, class | None, groups)
Combination = dict  # Key -> Fraction

# the group ids that the distinct terms of one reduction may hold together:
# CP2 d = 10 holds 614,544 (72,430 terms) and reduces, traced, in 0.37 s;
# d = 11 holds 1,333,675 (146,328) in 0.86 s (2-core Xeon, CPython 3.11)
MAX_DAG_SIZE = 1 << 21


def canonical_groups(groups: Sequence[Sequence[int]]) -> tuple:
    out = []
    for g in groups:
        if len(g) == 0:
            raise ValueError("constraint groups must be nonempty")
        if any(int(m) < 0 for m in g):
            raise ValueError("branch orders must be >= 0")
        out.append(tuple(sorted((int(m) for m in g), reverse=True)))
    return tuple(sorted(out, reverse=True))


def make_key(
    groups: Sequence[Sequence[int]],
    surface: Optional[str] = None,
    cls=None,
) -> Key:
    if surface is not None:
        if surface not in SURFACES:
            raise ValueError(f"unknown surface {surface!r}")
        cls = _check_class(surface, cls)
    elif cls is not None:
        raise ValueError("a class needs a surface")
    return (surface, cls, canonical_groups(groups))


def _check_class(surface: str, cls):
    """The class on a known surface as keys hold it: a bidegree pair of
    components >= 0 on CP1xCP1, else a degree >= 1."""
    if surface == "CP1xCP1":
        if not isinstance(cls, (tuple, list)) or len(cls) != 2:
            raise ValueError("CP1xCP1 classes are bidegree pairs (d1, d2)")
        cls = (int(cls[0]), int(cls[1]))
        if min(cls) < 0:
            raise ValueError("bidegree components must be >= 0")
        return cls
    if isinstance(cls, (tuple, list)):
        raise ValueError(f"{surface} classes are degrees")
    cls = int(cls)
    if cls < 1:
        raise ValueError("degree must be >= 1")
    return cls


def make_term(groups, surface=None, cls=None, coeff=1) -> Combination:
    return {make_key(groups, surface, cls): Fraction(coeff)}


def codimension(key: Key) -> int:
    """Total constraint codimension; per order, 2+2m except 2m on CP1."""
    surface, _, groups = key
    per_point = 0 if surface == "CP1" else 2
    return sum(per_point + 2 * m for g in groups for m in g)


def index_dimension(surface: str, cls) -> int:
    if surface == "CP2":
        return 6 * cls - 2
    if surface == "CP1xCP1":
        return 4 * (cls[0] + cls[1]) - 2
    if surface == "CP1":
        return 4 * cls - 4
    raise ValueError(f"unknown surface {surface!r}")


def is_rigid(key: Key) -> bool:
    surface, cls, _ = key
    if surface is None:
        raise ValueError("rigidity needs a surface and class")
    return codimension(key) == index_dimension(surface, cls)


# ---------------------------------------------------------------------------
# the rewrite


def _group_rewrite(group: Group, order: int) -> tuple[int, list[tuple[tuple, int]]]:
    """Solve the pushing relation for a group containing a positive order.

    Writing the group as {M} ∪ R and pushing T^{M-1} onto R ∪ {0}, every
    zero of R ∪ {0} merges back to the original group; with z zeros in R
    this gives

      (1+z)·<{M}∪R, rest> = <(M-1),(R∪{0}), rest> - <{M-1}∪R∪{0}, rest>
                            - Σ_{r∈R, r>0} <(R\\r)∪{0, r+M}, rest>

    Returns the denominator 1+z and, per sub-term, the descending groups
    that replace the group and the integer multiplier, so sub-term i
    carries coefficient multiplier_i / (1+z).  The other groups ("rest")
    are untouched.
    """
    M = order
    r_rest = list(group)  # descending, so R ∪ {0} is too
    r_rest.remove(M)
    joined = sorted(r_rest + [M - 1], reverse=True)
    out: list[tuple[tuple, int]] = [
        (((M - 1,), (*r_rest, 0)), 1),
        (((*joined, 0),), -1),
    ]
    prev = None
    for r in r_rest:
        if r <= 0 or r == prev:
            continue
        prev = r
        swapped = list(r_rest)
        swapped.remove(r)
        swapped.append(r + M)
        out.append((((*sorted(swapped, reverse=True), 0),), -r_rest.count(r)))
    return 1 + r_rest.count(0), out


class TermKeys:
    """The canonical keys of one reduction's terms by term id, each built
    when read: ``terms[i]`` holds term i's group ids in ascending group
    order, ``classes[i]`` its (surface, class), ``groups`` each id's group.
    It holds none of the search, so the DAG still dies by refcount."""

    __slots__ = ("groups", "terms", "classes")

    def __init__(self, groups: list, terms: list, classes: list):
        self.groups = groups
        self.terms = terms
        self.classes = classes

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, i: int) -> Key:
        surface, cls = self.classes[i]
        groups = map(self.groups.__getitem__, reversed(self.terms[i]))
        return (surface, cls, tuple(groups))


def reduce_combination(
    expr: Combination,
    rng: Optional[random.Random] = None,
    trace: Optional[list] = None,
) -> Combination:
    """Rewrite until every term has all orders zero.

    Terms carrying a surface must be rigid (codimension equal to the index
    dimension of the class) and intermediate terms violating rigidity are
    dropped; without a surface the rewrite is purely formal and keeps
    everything.  Every rewrite keeps the codimension on CP2 and CP1xCP1
    (2+2m per order), so only CP1 sub-terms (2m per order), which lose 2
    with an added point, are checked again.  ``rng`` randomizes which
    group/order is expanded first; any choice is admissible, and fixtures
    assert the result is invariant.  When no input term holds more than one
    positive order, no term has a choice (rewriting {M} ∪ 0^a gives only
    (M-1),(0^{a+1}) and (M-1, 0^{a+1})), so nothing is drawn and ``rng``
    is not advanced.  A ``trace`` list, when given, gets one record
    ``(keys, i, den, [(j, c), ...])`` per rewrite step, in step order:
    ``keys[i]`` rewrites to the sum of ``c/den * keys[j]`` over integers c
    and den, and ``keys``, one :class:`TermKeys` shared by every record,
    builds term i's canonical key when ``keys[i]`` is read.  Nesting past
    the interpreter's recursion limit, or distinct terms holding more than
    ``MAX_DAG_SIZE`` group ids together, raises ``ValueError``.

    Two passes, each term handled once:

    1. *Expand.*  Groups get int ids at first sight, and a term is its
       group ids in ascending group order, found in the term index of its
       surface and class; each group's slots, and its rewrite at each slot,
       are worked out once per id.  A depth-first search from the input
       terms gives each reachable term an int id and records, in lists by
       id, its class, denominator and (sub-term id, integer multiplier)
       edges: none for a dropped non-rigid term, ``None`` for an order-zero
       base term.  At a term's first visit it draws from ``rng`` over the
       slots of its trailing positive groups, read backwards into canonical
       (descending) order, and takes its trace record, then visits the
       sub-terms in expansion order: the order in which a recursion that
       reduces each sub-term before returning reaches them, so draws and
       traces are those of reducing each term recursively.  A sub-term is
       the term less the rewritten id, its new ids inserted in place.
    2. *Propagate.*  Reverse post-order is topological, parents first
       (every rewrite strictly lowers the (order sum, positive orders)
       measure), so a term's weight is complete when it is reached.  A
       weight is an integer pair, numerator and denominator in two lists
       by term id (numerator 0: no weight), reduced by its gcd when the
       term is reached; with expansion denominator D, the term passes
       (n·c, d·D) to the sub-term of multiplier c.  A weight that cancels
       to zero, or reaches a dropped term, stops there, and base terms
       collect into the result as ``Fraction``s under canonical keys.
    """
    for key in expr:
        surface = key[0]
        if surface is not None and not is_rigid(key):
            raise ValueError(
                f"non-rigid input term: codimension {codimension(key)} != "
                f"index dimension {index_dimension(surface, key[1])}"
            )
    if rng is not None and all(
        sum(1 for g in key[2] for m in g if m) <= 1 for key in expr
    ):
        rng = None  # every draw would have one slot to choose from
    group_ids: dict[Group, int] = {}
    groups: list[Group] = []  # by group id
    value = groups.__getitem__  # orders the ids of a term
    group_slots: list[list[tuple[int, int]]] = []  # (group id, order), ascending
    rewrites: dict[tuple[int, int], tuple[int, list]] = {}  # by slot
    indexes: dict[tuple, dict[tuple, int]] = {}  # (surface, class) -> term index
    terms: list[tuple] = []  # group ids in ascending group order, by term id
    classes: list[tuple] = []  # (surface, class) by term id
    keys = TermKeys(groups, terms, classes)
    dens: list[int] = []  # expansion denominator by term id
    edges_of: list[Optional[list]] = []  # (sub-term id, multiplier) by term id
    post_order: list[int] = []
    size = 0  # group ids held by the terms so far
    klass: tuple = ()  # the class of the terms being expanded
    index: dict[tuple, int] = {}  # and its term index

    def intern(group: Group) -> int:
        g = group_ids.get(group)
        if g is None:
            g = group_ids[group] = len(groups)
            groups.append(group)
            group_slots.append([(g, m) for m in sorted(set(group)) if m])
        return g

    def expand(members: tuple) -> int:
        nonlocal size
        size += len(members)
        if size > MAX_DAG_SIZE:
            raise ValueError("the rewrite grows too large to reduce")
        i = index[members] = len(terms)
        terms.append(members)
        classes.append(klass)
        dens.append(1)
        slots: Sequence = ()
        if klass[0] == "CP1" and not is_rigid(keys[i]):
            edges_of.append([])  # dropped
        else:
            edges_of.append(None)
            for g in reversed(members):  # a group held twice gives its slots twice
                s = group_slots[g]
                if not s:
                    break  # groups ascend, so every earlier group is all zeros
                slots = slots + s if slots else s
        if slots:
            slot = rng.choice(slots) if rng is not None else slots[-1]
            rewrite = rewrites.get(slot)
            if rewrite is None:
                den, fresh = _group_rewrite(groups[slot[0]], slot[1])
                rewrite = rewrites[slot] = (
                    den, [([intern(new) for new in subs], c) for subs, c in fresh]
                )
            dens[i], fresh = rewrite
            rest = list(members)
            rest.remove(slot[0])
            # filled after the trace record, which precedes the sub-terms'
            edges = edges_of[i] = []
            if trace is not None:
                trace.append((keys, i, dens[i], edges))
            for new, c in fresh:
                sub = rest.copy()
                for g in new:
                    insort(sub, g, key=value)
                sub = tuple(sub)
                j = index.get(sub)
                edges.append((expand(sub) if j is None else j, c))
        post_order.append(i)
        return i

    roots = []
    try:
        for key, coeff in expr.items():
            surface, cls, key_groups = key
            klass = (surface, cls)
            index = indexes.setdefault(klass, {})
            members = tuple(sorted(map(intern, key_groups), key=value))
            j = index.get(members)
            roots.append((expand(members) if j is None else j, Fraction(coeff)))
    except RecursionError:
        raise ValueError("the rewrite nests too deeply to reduce") from None
    finally:
        del expand  # expand holds itself: free the DAG by refcount, not the GC

    nums = [0] * len(terms)  # weight numerators by term id, 0 for no weight
    wdens = [1] * len(terms)  # and denominators
    for i, coeff in roots:
        if coeff:
            nums[i], wdens[i] = coeff.numerator, coeff.denominator
    result: Combination = {}
    for i in reversed(post_order):
        num = nums[i]
        if not num:
            continue
        den = wdens[i]
        g = gcd(num, den)
        num, den = num // g, den // g
        edges = edges_of[i]
        if edges is None:
            result[keys[i]] = Fraction(num, den)
            continue
        den *= dens[i]
        for j, c in edges:
            # the weight of j += num·c/den over the lcm of the denominators;
            # a sum that cancels leaves numerator 0, so it stops there
            a = nums[j]
            if not a:
                nums[j], wdens[j] = num * c, den
                continue
            b = wdens[j]
            if b == den:
                nums[j] = a + num * c
            else:
                g = gcd(b, den)
                nums[j], wdens[j] = a * (den // g) + num * c * (b // g), b // g * den
    return result


# ---------------------------------------------------------------------------
# evaluation against a base table


class BaseInvariantTable:
    """Order-zero invariants keyed by (surface, class, sorted group sizes)."""

    def __init__(self, entries: dict, provenance: Optional[dict] = None):
        self.entries = dict(entries)
        self.provenance = dict(provenance or {})

    @staticmethod
    def table_key(key: Key) -> tuple:
        surface, cls, groups = key
        sizes = tuple(sorted((len(g) for g in groups), reverse=True))
        return (surface, cls, sizes)

    def lookup(self, key: Key) -> Optional[Fraction]:
        return self.entries.get(self.table_key(key))


def evaluate(expr: Combination, table: BaseInvariantTable) -> Fraction:
    missing = []
    total = Fraction(0)
    for key, coeff in expr.items():
        if any(m > 0 for g in key[2] for m in g):
            raise ValueError("evaluate expects a fully reduced combination")
        tkey = table.table_key(key)
        value = table.entries.get(tkey)
        if value is None:
            missing.append(tkey)
        else:
            total += coeff * value
    if missing:
        listed = "; ".join(_format_table_key(k) for k in sorted(missing, key=repr))
        raise KeyError(f"base table is missing {len(missing)} entries: {listed}")
    return total


def _format_table_key(tkey: tuple) -> str:
    surface, cls, sizes = tkey
    cls_text = ",".join(map(str, cls)) if isinstance(cls, tuple) else str(cls)
    return f"{surface} d={cls_text} sizes={','.join(map(str, sizes))}"


def load_table(path) -> BaseInvariantTable:
    """One record per line: surface | class | group sizes | value | provenance;
    a line that breaks this contract raises ``ModelError`` quoting it."""
    entries: dict = {}
    provenance: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split("|")]
            if len(fields) != 5:
                raise ModelError(
                    "table lines look like 'surface | class | group sizes | "
                    f"value | provenance': {line!r}"
                )
            surface, cls_text, sizes_text, value_text, source = fields
            if surface not in SURFACES:
                raise ModelError(f"unknown surface {surface!r} in line {line!r}")
            try:
                if surface == "CP1xCP1":
                    d1, d2 = (int(x) for x in cls_text.split(","))
                    cls: Union[int, tuple] = (d1, d2)
                else:
                    cls = int(cls_text)
                sizes = tuple(
                    sorted((int(s) for s in sizes_text.split(",")), reverse=True)
                )
                value = parse_rational(value_text)
            except ValueError:
                raise ModelError(
                    f"bad class, group sizes or value in line {line!r}"
                ) from None
            # a row no constraint key can reach would never be read
            try:
                cls = _check_class(surface, cls)
            except ValueError as exc:
                raise ModelError(f"{exc} in line {line!r}") from None
            if sizes[-1] < 1:
                raise ModelError(f"group sizes must be >= 1 in line {line!r}")
            tkey = (surface, cls, sizes)
            if tkey in entries:
                raise ModelError(f"duplicate table entry {tkey} in line {line!r}")
            entries[tkey] = value
            provenance[tkey] = source
    return BaseInvariantTable(entries, provenance)


# ---------------------------------------------------------------------------
# the bracketed constraint syntax


def _group_text(group: Group) -> str:
    orders = ",".join(["p" if m == 0 else f"T^{m} p" for m in group])
    return f"({orders})"


def _head_text(surface: Optional[str], cls) -> str:
    """A key's text up to its groups: ``<`` after the surface and class."""
    if surface is None:
        return "<"
    cls_text = ",".join(map(str, cls)) if isinstance(cls, tuple) else str(cls)
    return f"{surface} d={cls_text} <"


class _PerGroup(dict):
    """Group -> ``make(group)``, each made at its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Group], str]):
        self.make = make

    def __missing__(self, group: Group) -> str:
        text = self[group] = self.make(group)
        return text


def key_formatter() -> Callable[[Key], str]:
    """The text of a key, for one command: each distinct group across all
    keys is formatted once, and a key's group texts are joined in one call."""
    text_of = _PerGroup(_group_text).__getitem__

    def name(key: Key) -> str:
        surface, cls, groups = key
        return f"{_head_text(surface, cls)}{','.join(map(text_of, groups))}>"

    return name


def term_names(keys: TermKeys) -> list[str]:
    """``key_formatter()(keys[i])`` for every term id i, from the group ids:
    each group and each class head is formatted once, and no key is built."""
    text_of = list(map(_group_text, keys.groups)).__getitem__
    heads: dict[tuple, str] = {}
    names = []
    for klass, members in zip(keys.classes, keys.terms):
        head = heads.get(klass)
        if head is None:
            head = heads[klass] = _head_text(*klass)
        names.append(f"{head}{','.join(map(text_of, reversed(members)))}>")
    return names


def format_combination(expr: Combination) -> str:
    """The terms of ``expr`` in ``repr(key)`` order, each as ``coeff * key``.
    The order string is ``repr(key)`` joined from cached group reprs."""
    if not expr:
        return "0"
    name = key_formatter()
    repr_of = _PerGroup(repr).__getitem__

    def order(key: Key) -> str:
        surface, cls, groups = key
        comma = "," if len(groups) == 1 else ""  # as a one-group tuple prints
        return f"({surface!r}, {cls!r}, ({', '.join(map(repr_of, groups))}{comma}))"

    return "  +  ".join([f"{expr[k]} * {name(k)}" for k in sorted(expr, key=order)])


def parse_constraint_expression(text: str) -> Combination:
    """`[SURFACE d=N[,N]] <(T^m p),(p,p),...>`; bare p or q is order zero."""
    text = text.strip()
    surface = None
    cls = None
    if not text.startswith("<"):
        head, _, rest = text.partition("<")
        rest = "<" + rest
        parts = head.split()
        if len(parts) != 2 or not parts[1].startswith("d="):
            raise ValueError(
                "expected '<SURFACE> d=<class> <groups>' before the bracket"
            )
        surface = parts[0]
        cls_text = parts[1][2:]
        try:
            if "," in cls_text:
                cls = tuple(int(x) for x in cls_text.split(","))
            else:
                cls = int(cls_text)
        except ValueError:
            raise ValueError(f"cannot parse class {cls_text!r}") from None
        text = rest.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError("constraint expression must be bracketed: <...>")
    inner = text[1:-1].strip()
    groups = []
    depth = 0
    cur = []
    for ch in inner:
        if ch == "(":
            depth += 1
            if depth == 1:
                cur = []
                continue
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            if depth == 0:
                groups.append(_parse_group("".join(cur)))
                continue
        if depth >= 1:
            cur.append(ch)
        elif not ch.isspace() and ch != ",":
            raise ValueError(f"unexpected {ch!r} outside the groups in {text!r}")
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if not groups:
        raise ValueError("no constraint groups found")
    return make_term(groups, surface, cls)


def _parse_group(text: str) -> list[int]:
    orders = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk in ("p", "q"):
            orders.append(0)
            continue
        if chunk.startswith("T^"):
            body = chunk[2:].strip()
            for label in ("p", "q"):
                if body.endswith(label):
                    body = body[: -len(label)].strip()
                    break
            try:
                orders.append(int(body))
            except ValueError:
                raise ValueError(f"cannot parse constraint {chunk!r}") from None
            continue
        raise ValueError(f"cannot parse constraint {chunk!r}")
    return orders
