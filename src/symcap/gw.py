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
rewrite DAG.  The expand pass visits each reachable term once, depth first,
and records its expansion; the propagate pass walks the terms parents first
and pushes each term's accumulated coefficient down to its sub-terms, so no
term's reduced combination is ever built or summed again by its parents.
A rewrite's coefficients are integers over the one denominator 1+z, and the
accumulated coefficients are integer (numerator, denominator) pairs, so
``Fraction`` is built only for result terms and trace entries.  A rewrite
keeps the codimension counted 2+2m per order, so on CP2 and CP1xCP1 every
sub-term of a rigid term is rigid; on CP1, counted 2m per order, a sub-term
that gains an order-zero point loses 2, so only CP1 sub-terms are checked
again.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Sequence, Union

from .linfty import ModelError
from .novikov import parse_rational

SURFACES = ("CP2", "CP1xCP1", "CP1")

Group = tuple  # sorted tuple of branch orders, descending
Key = tuple  # (surface | None, class | None, groups)
Combination = dict  # Key -> Fraction

# The comparable gravitational-descendant count: 4! * <psi^4 p> on conics
# equals 3, which differs from the tangency count <T^4 p> = 1; kept as a
# named constant so the regression suite can assert the two are not equal.
PSI4_CONIC_DESCENDANT_TIMES_24 = Fraction(3)


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


def push_point(
    key: Key, source: int, target: Optional[int]
) -> list[tuple[Key, Fraction]]:
    """Push the singleton constraint group ``source`` onto group ``target``.

    ``target=None`` is the trivial relabel onto a fresh point (no change).
    Returns the 1 + b output terms, each with unit coefficient multiplier.
    """
    surface, cls, groups = key
    if not 0 <= source < len(groups):
        raise ValueError(f"source group index {source} out of range")
    if len(groups[source]) != 1:
        raise ValueError("source group must be a singleton constraint")
    if target is None:
        return [(key, Fraction(1))]
    if not 0 <= target < len(groups) or target == source:
        raise ValueError("target must be a distinct group index")
    m = groups[source][0]
    rest = [g for i, g in enumerate(groups) if i not in (source, target)]
    tgt = groups[target]
    out: list[tuple[Key, Fraction]] = []
    joined = rest + [tuple(sorted(tgt + (m,), reverse=True))]
    out.append(((surface, cls, canonical_groups(joined)), Fraction(1)))
    for i in range(len(tgt)):
        merged = list(tgt)
        merged[i] = tgt[i] + m + 1
        out.append(
            (
                (surface, cls, canonical_groups(rest + [tuple(merged)])),
                Fraction(1),
            )
        )
    return out


def _canon(rest: list, *fresh: tuple) -> tuple:
    """``canonical_groups(rest + fresh)`` for validated integer groups, with
    ``rest`` already canonical and each fresh group descending: only sorts
    the groups."""
    groups = rest + list(fresh)
    groups.sort(reverse=True)
    return tuple(groups)


def _expand_group(
    key: Key, group_idx: int, order: int
) -> tuple[int, list[tuple[Key, int]]]:
    """Solve the pushing relation for the group containing a positive order.

    Writing the chosen group as {M} ∪ R and pushing T^{M-1} onto R ∪ {0},
    every zero of R ∪ {0} merges back to the original group; with z zeros in
    R this gives

      (1+z)·<{M}∪R, rest> = <(M-1),(R∪{0}), rest> - <{M-1}∪R∪{0}, rest>
                            - Σ_{r∈R, r>0} <(R\\r)∪{0, r+M}, rest>

    Returns the denominator 1+z and the sub-terms with their integer
    multipliers, so sub-term i carries coefficient multiplier_i / (1+z).
    """
    surface, cls, groups = key
    M = order
    r_rest = list(groups[group_idx])  # descending, so R ∪ {0} is too
    r_rest.remove(M)
    rest = list(groups)
    del rest[group_idx]
    joined = sorted(r_rest + [M - 1], reverse=True)
    out: list[tuple[Key, int]] = [
        ((surface, cls, _canon(rest, (M - 1,), (*r_rest, 0))), 1),
        ((surface, cls, _canon(rest, (*joined, 0))), -1),
    ]
    prev = None
    for r in r_rest:
        if r <= 0 or r == prev:
            continue
        prev = r
        swapped = list(r_rest)
        swapped.remove(r)
        swapped.append(r + M)
        term = _canon(rest, (*sorted(swapped, reverse=True), 0))
        out.append(((surface, cls, term), -r_rest.count(r)))
    return 1 + r_rest.count(0), out


def _positive_slots(key: Key) -> list[tuple[int, int]]:
    """(group index, order) for each distinct positive order, groups in
    order and orders ascending within a group."""
    slots = []
    for gi, g in enumerate(key[2]):
        if not g[0]:
            break  # groups descend, so every later group is all zeros
        prev = 0
        for m in reversed(g):
            if m > prev:
                slots.append((gi, m))
                prev = m
    return slots


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
    assert the result is invariant.  A ``trace`` list, when given, collects
    (term, [(sub-term, Fraction)]) pairs, one per rewrite step.

    Two passes, each term handled once:

    1. *Expand.*  A depth-first search from the input terms records each
       reachable term's expansion: a denominator and (sub-term, integer
       multiplier) pairs, no pairs for a dropped non-rigid term, and
       ``None`` for an order-zero base term.  It draws from ``rng`` and
       appends to ``trace`` at a term's first visit, then visits the
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
       collect into the result as ``Fraction``s.  The trace's
       ``Fraction``s are shared per (multiplier, denominator).
    """
    for key in expr:
        surface = key[0]
        if surface is not None and not is_rigid(key):
            raise ValueError(
                f"non-rigid input term: codimension {codimension(key)} != "
                f"index dimension {index_dimension(surface, key[1])}"
            )
    expansions: dict[Key, Optional[tuple[int, list]]] = {}
    post_order: list[Key] = []
    dropped = (1, [])
    trace_coeffs: dict[tuple[int, int], Fraction] = {}

    def expand(key: Key) -> None:
        if key[0] == "CP1" and not is_rigid(key):
            expansion = dropped
        elif slots := _positive_slots(key):
            gi, m = rng.choice(slots) if rng is not None else slots[-1]
            expansion = _expand_group(key, gi, m)
            if trace is not None:
                den, subs = expansion
                steps = []
                for sub, c in subs:
                    coeff = trace_coeffs.get((c, den))
                    if coeff is None:
                        coeff = trace_coeffs[c, den] = Fraction(c, den)
                    steps.append((sub, coeff))
                trace.append((key, steps))
        else:
            expansion = None
        expansions[key] = expansion
        if expansion is not None:
            for sub, _ in expansion[1]:
                if sub not in expansions:
                    expand(sub)
        post_order.append(key)

    for key in expr:
        if key not in expansions:
            expand(key)

    weights: dict[Key, tuple[int, int]] = {}
    for key, coeff in expr.items():
        coeff = Fraction(coeff)
        if coeff:
            _add_weight(weights, key, coeff.numerator, coeff.denominator)
    result: Combination = {}
    for key in reversed(post_order):
        w = weights.pop(key, None)
        if w is None:
            continue
        num, den = w
        g = gcd(num, den)
        num, den = num // g, den // g
        expansion = expansions[key]
        if expansion is None:
            result[key] = Fraction(num, den)
            continue
        sub_den, subs = expansion
        den *= sub_den
        for sub, c in subs:
            _add_weight(weights, sub, num * c, den)
    return result


def _add_weight(weights: dict, key: Key, num: int, den: int) -> None:
    """``weights[key] += num/den`` on integer pairs, over the lcm of the
    denominators, dropping a weight that cancels to zero."""
    prev = weights.get(key)
    if prev is not None:
        a, b = prev
        if b == den:
            num += a
        else:
            g = gcd(b, den)
            num = a * (den // g) + num * (b // g)
            den = b // g * den
        if not num:
            del weights[key]
            return
    weights[key] = (num, den)


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
    """A :func:`format_key` for one command: each distinct key, and each
    distinct group across all keys, is formatted once."""
    group_texts: dict[Group, str] = {}

    @functools.cache
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


def format_key(key: Key) -> str:
    return key_formatter()(key)


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
    if not orders:
        raise ValueError("empty constraint group")
    return orders
