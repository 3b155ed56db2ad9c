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
rewrite DAG, which lives on int ids: a term is the sorted tuple of its
groups' ids, each given at first sight.  The expand pass visits each
reachable term once, depth first, and records its expansion; the propagate
pass walks the terms parents first and pushes each term's accumulated
coefficient down to its sub-terms, so no term's reduced combination is ever
built or summed again by its parents.  A rewrite's coefficients are integers
over the one denominator 1+z, and the accumulated coefficients are integer
(numerator, denominator) pairs, so ``Fraction`` is built only for result
terms; the trace holds term ids and integers.  Nothing refers back to the
search, so the DAG dies by reference counting when the call returns.  A
rewrite keeps the codimension counted 2+2m per order, so on CP2 and CP1xCP1
every sub-term of a rigid term is rigid; on CP1, counted 2m per order, a
sub-term that gains an order-zero point loses 2, so only CP1 sub-terms are
checked again.
"""

from __future__ import annotations

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
# CP2 d = 10 holds 614,544 (72,430 terms), and a DAG this size takes about 2 s
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
    assert the result is invariant.  A ``trace`` list, when given, gets one
    record ``(keys, i, den, [(j, c), ...])`` per rewrite step, in step
    order: ``keys[i]`` rewrites to the sum of ``c/den * keys[j]`` over
    integers c and den, and ``keys``, the canonical keys by term id, is one
    list shared by every record.  Nesting past the interpreter's recursion
    limit, or distinct terms holding more than ``MAX_DAG_SIZE`` group ids
    together, raises ``ValueError``.

    Two passes, each term handled once:

    1. *Expand.*  Groups get int ids at first sight, and a term is its
       surface, class and sorted group ids; each group's slots, and its
       rewrite at each slot, are worked out once per id.  A depth-first
       search from the input terms gives each reachable term an int id and
       records its expansion: a denominator and (sub-term id, integer
       multiplier) pairs, no pairs for a dropped non-rigid term, and
       ``None`` for an order-zero base term.  At a term's first visit it
       draws from ``rng`` over the slots of its groups in canonical
       (descending) order and takes its trace record, then visits the
       sub-terms in expansion order: the order in which a recursion that
       reduces each sub-term before returning reaches them, so draws and
       traces are those of reducing each term recursively.
    2. *Propagate.*  Reverse post-order is topological, parents first
       (every rewrite strictly lowers the (order sum, positive orders)
       measure), so a term's weight is complete when it is reached.  A
       weight is an integer pair (n, d), reduced by its gcd when the term
       is reached; with expansion denominator D, the term passes
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
    group_ids: dict[Group, int] = {}
    groups: list[Group] = []  # by group id
    group_slots: list[list[tuple[int, int]]] = []  # (group id, order), ascending
    rewrites: dict[tuple[int, int], tuple[int, list]] = {}  # by slot
    ids: dict[tuple, int] = {}  # (surface, class, sorted group ids) -> term id
    terms: list[tuple] = []  # by term id
    keys: list[Key] = []  # canonical keys by term id, filled for a trace
    expansions: list[Optional[tuple[int, list]]] = []
    post_order: list[int] = []
    size = 0  # group ids held by the terms so far
    dropped = (1, [])

    def intern(group: Group) -> int:
        g = group_ids.get(group)
        if g is None:
            g = group_ids[group] = len(groups)
            groups.append(group)
            group_slots.append([(g, m) for m in sorted(set(group)) if m])
        return g

    def key_of(term: tuple) -> Key:
        members = sorted(map(groups.__getitem__, term[2]), reverse=True)
        return (term[0], term[1], tuple(members))

    def expand(term: tuple) -> int:
        nonlocal size
        size += len(term[2])
        if size > MAX_DAG_SIZE:
            raise ValueError("the rewrite grows too large to reduce")
        i = ids[term] = len(terms)
        terms.append(term)
        expansions.append(None)
        surface, cls, members = term
        slots = []
        if surface == "CP1" and not is_rigid(key_of(term)):
            expansions[i] = dropped
        else:
            for g in sorted(members, key=groups.__getitem__, reverse=True):
                if not group_slots[g]:
                    break  # groups descend, so every later group is all zeros
                slots += group_slots[g]
        if slots:
            slot = rng.choice(slots) if rng is not None else slots[-1]
            rewrite = rewrites.get(slot)
            if rewrite is None:
                den, fresh = _group_rewrite(groups[slot[0]], slot[1])
                rewrite = rewrites[slot] = (
                    den, [([intern(new) for new in subs], c) for subs, c in fresh]
                )
            den, fresh = rewrite
            rest = list(members)
            rest.remove(slot[0])
            edges = []  # filled after the trace record, which precedes the sub-terms'
            expansions[i] = (den, edges)
            if trace is not None:
                trace.append((keys, i, den, edges))
            for new, c in fresh:
                sub = (surface, cls, tuple(sorted(rest + new)))
                j = ids.get(sub)
                edges.append((expand(sub) if j is None else j, c))
        post_order.append(i)
        return i

    roots = []
    try:
        for key, coeff in expr.items():
            surface, cls, key_groups = key
            term = (surface, cls, tuple(sorted(map(intern, key_groups))))
            j = ids.get(term)
            roots.append((expand(term) if j is None else j, Fraction(coeff)))
    except RecursionError:
        raise ValueError("the rewrite nests too deeply to reduce") from None
    finally:
        del expand  # expand holds itself: free the DAG by refcount, not the GC
    if trace is not None:
        keys += map(key_of, terms)

    weights: list[Optional[tuple[int, int]]] = [None] * len(terms)
    for i, coeff in roots:
        if coeff:
            weights[i] = (coeff.numerator, coeff.denominator)
    result: Combination = {}
    for i in reversed(post_order):
        w = weights[i]
        if w is None:
            continue
        num, den = w
        g = gcd(num, den)
        num, den = num // g, den // g
        expansion = expansions[i]
        if expansion is None:
            result[key_of(terms[i])] = Fraction(num, den)
            continue
        sub_den, edges = expansion
        den *= sub_den
        for j, c in edges:
            # weights[j] += num·c/den over the lcm of the denominators
            prev = weights[j]
            if prev is None:
                weights[j] = (num * c, den)
                continue
            a, b = prev
            if b == den:
                n, d = a + num * c, den
            else:
                g = gcd(b, den)
                n, d = a * (den // g) + num * c * (b // g), b // g * den
            weights[j] = (n, d) if n else None  # a cancelled weight stops here
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
        _, _, groups = key
        if any(m > 0 for g in groups for m in g):
            raise ValueError("evaluate expects a fully reduced combination")
        value = table.lookup(key)
        if value is None:
            missing.append(BaseInvariantTable.table_key(key))
        else:
            total += coeff * value
    if missing:
        listed = "; ".join(_format_table_key(k) for k in sorted(missing, key=repr))
        raise KeyError(
            f"base table is missing {len(missing)} entries: {listed}"
        )
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


def key_formatter() -> Callable[[Key], str]:
    """The text of a key, for one command: each distinct group across all
    keys is formatted once and kept in a plain dict."""
    group_texts: dict[Group, str] = {}

    def name(key: Key) -> str:
        surface, cls, groups = key
        parts = []
        for g in groups:
            text = group_texts.get(g)
            if text is None:
                orders = ",".join(["p" if m == 0 else f"T^{m} p" for m in g])
                text = group_texts[g] = f"({orders})"
            parts.append(text)
        body = ",".join(parts)
        if surface is None:
            return f"<{body}>"
        cls_text = ",".join(map(str, cls)) if isinstance(cls, tuple) else str(cls)
        return f"{surface} d={cls_text} <{body}>"

    return name


def format_combination(expr: Combination) -> str:
    if not expr:
        return "0"
    name = key_formatter()
    parts = []
    for key in sorted(expr, key=repr):
        parts.append(f"{expr[key]} * {name(key)}")
    return "  +  ".join(parts)


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
