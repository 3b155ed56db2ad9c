"""Capacity evaluators: closed forms, the EH and ECH capacity sequences,
spectral enumeration, the finite-model word solver with its exact sparse
linear solve, ECH embedding ratios, and ball-packing bounds.

Each capacity family has one integer-lattice routine (``eh_lattice``,
``ech_lattice``, ``g_tangency_lattice``, ``r_points_lattice``) returning
``(values, scale)``: every value an ``int`` in units of ``1/scale`` or a
sentinel string.  The ``Fraction`` functions (``eh_sequence``,
``ech_sequence``, ``g_tangency``, ``r_points_ball``) are thin wrappers that
build ``Fraction``s at the API edge, and the 4D comparisons
(``obstruct_4d_ellipsoid``, ``mcduff_f``) compare on the lattices.

Distinguished non-numeric results are first-class string sentinels rather
than exceptions: closed forms outside their proven range return
``NO_FORMULA``, and searches that exhaust their cutoff say so explicitly
instead of claiming nonexistence.

Every ``cap`` command imports this module, so it neither holds nor
imports a dataclass (``dataclasses`` loads ``inspect`` and nearly doubles
the start-up): the orbit spectra of :mod:`symcap.spectra` appear here only
in annotations.  Of ``symcap`` it imports only ``novikov`` when it loads;
the L∞ engine (``linfty`` and the ``words`` layer under it) loads with the
first g_b solve, so the spectral search, the capacity tables and the 4D
comparisons do not pay for it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

from .novikov import INF, Axis, lattice

if TYPE_CHECKING:  # for annotations; the dataclasses load with spectra
    from .linfty import LInfinityModel
    from .spectra import OrbitRecord, OrbitSpectrum

NO_FORMULA = "no-formula"
NOT_FOUND = "not-found-below-cutoff"
INFINITE = "infinite"
NO_OBSTRUCTION = "no-obstruction-below-K"

Value = Union[Fraction, str]


# ---------------------------------------------------------------------------
# domains


class DomainDescriptor:
    """A ball, ellipsoid or polydisk by its sorted positive parameters: an
    immutable value, equal and hashed on (kind, params)."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params):
        arity = {"ball": 1, "ellipsoid": 2, "polydisk": 2}.get(kind)
        if arity is None:
            raise ValueError(f"unsupported domain kind {kind!r}")
        params = tuple(Fraction(p) for p in params)
        if len(params) != arity:
            noun = "parameter" if arity == 1 else "parameters"
            raise ValueError(f"{kind} needs {arity} {noun}, got {len(params)}")
        if any(p <= 0 for p in params):
            raise ValueError("domain parameters must be positive")
        if list(params) != sorted(params):
            raise ValueError("domain parameters must be sorted")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"DomainDescriptor is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return DomainDescriptor, (self.kind, self.params)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.params) == (other.kind, other.params)

    def __hash__(self):
        return hash((self.kind, self.params))

    def __repr__(self):
        return f"DomainDescriptor(kind={self.kind!r}, params={self.params!r})"

    @staticmethod
    def ball(a=1) -> "DomainDescriptor":
        return DomainDescriptor("ball", (a,))

    @staticmethod
    def ellipsoid(a, b) -> "DomainDescriptor":
        return DomainDescriptor("ellipsoid", (a, b))

    @staticmethod
    def polydisk(a, b) -> "DomainDescriptor":
        return DomainDescriptor("polydisk", (a, b))

    def __str__(self):
        inner = ",".join(str(p) for p in self.params)
        return {"ball": "B4", "ellipsoid": "E", "polydisk": "P"}[self.kind] + f"({inner})"


# ---------------------------------------------------------------------------
# closed forms


def g_tangency_lattice(domain: DomainDescriptor, ks: Sequence[int]) -> tuple:
    """``g_tangency`` at every index of ``ks``: ``(values, scale)``.

    In units of 1/lcm(parameter denominators), with A and B the parameters:
    the ball is A·(k+1)/3 when k ≡ 2 (mod 3); the ellipsoid is k·A unless
    k·A > B; the polydisk, for odd k, is min(A·k, B + A·(k−1)/2), counted in
    units of 1/(2·lcm) so that the half steps need no division.
    """
    if any(k < 1 for k in ks):
        raise ValueError("index must be >= 1")
    scale, (A, *rest) = lattice(domain.params)
    if domain.kind == "ball":
        # (k + 1)/3 is whole when k ≡ 2 (mod 3)
        return [A * ((k + 1) // 3) if k % 3 == 2 else NO_FORMULA for k in ks], scale
    (B,) = rest
    if domain.kind == "ellipsoid":
        return [NO_FORMULA if k * A > B else k * A for k in ks], scale
    return [
        min(2 * A * k, 2 * B + A * (k - 1)) if k % 2 else NO_FORMULA for k in ks
    ], 2 * scale


def g_tangency(domain: DomainDescriptor, k: int) -> Value:
    """The capacity with one point constraint of contact order k.

    Values are proven only on specific index ranges; anything outside
    returns NO_FORMULA rather than extrapolating.  Capacities scale like
    area, so parameters enter linearly.
    """
    (value,), scale = g_tangency_lattice(domain, (k,))
    return value if isinstance(value, str) else Fraction(value, scale)


def r_points_lattice(c: Fraction, rs: Sequence[int]) -> tuple:
    """The r-points energies of the ball B(c) at every r of ``rs``:
    ``(values, scale)``, c·⌈(r+1)/3⌉ in units of 1/c.denominator."""
    if any(r < 1 for r in rs):
        raise ValueError("need r >= 1")
    n = c.numerator
    return [n * ((r + 3) // 3) for r in rs], c.denominator


def r_points_ball(r: int) -> Fraction:
    """Minimal energy to pass through r generic points in the unit four-ball."""
    (value,), scale = r_points_lattice(Fraction(1), (r,))
    return Fraction(value, scale)


# ---------------------------------------------------------------------------
# classical capacity sequences


def _fractions(values: Sequence[int], scale: int) -> list[Fraction]:
    """Lattice values as ``Fraction``s; values repeat, so share one
    ``Fraction`` per distinct value."""
    distinct = {v: Fraction(v, scale) for v in set(values)}
    return [distinct[v] for v in values]


def eh_lattice(a: Sequence[Axis], K: int) -> tuple:
    """``eh_sequence`` as ``(values, scale)``: the K smallest i·a_j, sorted,
    in units of 1/scale."""
    if K < 1:
        raise ValueError("k must be >= 1")
    finite = [Fraction(x) for x in a if x != INF]
    if not finite:
        raise ValueError("all ellipsoid parameters are infinite")
    if any(x <= 0 for x in finite):
        raise ValueError("ellipsoid parameters must be positive")
    scale, ints = lattice(finite)
    # the least t with K multiples at or below it (K·min is one such t):
    # fewer than K lie below t and at most one per axis at t, so at most
    # K + len(ints) - 1 products are built, not len(ints)·K
    lo, hi = 1, K * min(ints)
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(mid // v for v in ints) >= K:
            hi = mid
        else:
            lo = mid + 1
    return sorted(v * i for v in ints for i in range(1, lo // v + 1))[:K], scale


def eh_sequence(a: Sequence[Axis], K: int) -> list[Fraction]:
    """The K smallest elements of {i*a_j : i >= 1}; ∞ rows contribute nothing."""
    return _fractions(*eh_lattice(a, K))


def capacity_sequence_EH(a: Sequence[Axis], k: int) -> Fraction:
    """k-th smallest element of {i*a_j : i >= 1}."""
    return eh_sequence(a, k)[k - 1]


def ech_lattice(a: Axis, b: Axis, K: int) -> tuple:
    """``ech_sequence`` as ``(values, scale)``: the K+1 smallest i·a + j·b,
    sorted, in units of 1/scale."""
    if K < 0:
        raise ValueError("k must be >= 0")
    a = Fraction(a)
    b = Fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("ellipsoid parameters must be positive")
    scale, (a_int, b_int) = lattice((a, b))
    # at least K+1 lattice values lie at or below `top`: the unit squares of
    # the points with i*a + j*b <= L cover a triangle of area L^2/(2ab),
    # which exceeds K+1 at the first bound, and the K+1 points on the axis
    # of min(a, b) up to index K lie at or below the second
    top = min(math.isqrt(2 * a_int * b_int * (K + 1)) + 1, K * min(a_int, b_int))
    values = sorted(
        i * a_int + j * b_int
        for i in range(top // a_int + 1)
        for j in range((top - i * a_int) // b_int + 1)
    )[: K + 1]
    return values, scale


def ech_sequence(a: Axis, b: Axis, K: int) -> list[Fraction]:
    """c_0..c_K of E(a,b): the K+1 smallest of {i*a + j*b : i,j >= 0}."""
    return _fractions(*ech_lattice(a, b, K))


def capacity_sequence_ECH(a: Axis, b: Axis, k: int) -> Fraction:
    """(k+1)-st smallest of the multiset {i*a + j*b : i,j >= 0}."""
    return ech_sequence(a, b, k)[k]


# ---------------------------------------------------------------------------
# spectral enumeration


def one_positive_end(ends: Sequence[OrbitRecord]) -> bool:
    """Admissibility rule for irrational-ellipsoid tangency bounds: curves
    with two or more positive ends are excluded by the relative adjunction
    formula and writhe estimates, so only single-end asymptotics count."""
    return len(ends) == 1


def polydisk_slice_rule(ends: Sequence[OrbitRecord]) -> bool:
    """Admissibility rule for perturbed-polydisk tangency bounds: a curve
    whose positive ends all lie on the short-factor orbit row (beta_{i,0})
    is a Hurwitz cover of the two-dimensional slice, which pins its energy;
    only the single-end member of that family is a rigid competitor.
    Mixed asymptotics are left to the index count."""
    short_row = [
        e for e in ends if e.label.startswith("beta_") and e.multiplicity[1] == 0
    ]
    if len(short_row) == len(ends):
        return len(ends) == 1
    return True


class SearchResult(NamedTuple):
    """A spectral search's answer with what backs it and what it cost:
    ``witness`` is the accepted end multiset in search order (``()`` when
    ``value`` is INFINITE), ``nodes`` counts the DFS nodes entered, and
    ``pruned`` the cuts by the action-per-index bound, each of which drops
    the rest of one node's children."""

    value: Value
    witness: tuple
    nodes: int
    pruned: int


def spectral_lower_bound(
    spectrum: OrbitSpectrum,
    constraint_codim: int,
    action_cutoff,
    max_ends: Optional[int] = None,
    admissible: Optional[Callable[[Sequence[OrbitRecord]], bool]] = None,
) -> Value:
    """Minimum total action over multisets of positive ends with Fredholm
    index zero for the given constraint, searched up to the action cutoff.

    ``admissible`` injects geometric exclusions beyond the index formula
    (see one_positive_end and polydisk_slice_rule); by default every
    index-zero multiset competes.  Returns INFINITE when no configuration
    exists below the cutoff.  Orbit actions must be exact rationals
    (``Fraction`` or ``int``); the search runs on their common denominator.

    The search is a depth-first branch and bound over orbits sorted by
    action a_j.  When every index cost c_j = CZ_j + 1 is positive, ends
    taken from orbits j >= i that add the R index points still missing act
    at least R * min_{j>=i} a_j / c_j, rounded up to a whole multiple of
    the lattice unit 1/scale as every action is.  A branch that cannot then
    stay below the best action accepted so far (at first: within the
    cutoff) is cut.  When some c_j <= 0 that bound does not hold and is
    skipped: only the action cut and the end count remain, and a partial
    multiset may overshoot the index.  The bound drops only branches
    holding no leaf below the best, so the admissibility rule is asked
    about the same multisets, in the same order, as without it.
    spectral_search also returns the witness and the work done.
    """
    return spectral_search(
        spectrum, constraint_codim, action_cutoff, max_ends, admissible
    ).value


def _action_lattice(orbits: Sequence[OrbitRecord], cutoff: Fraction) -> tuple:
    """spectral_search's set-up at one cutoff: every action in units of 1/scale.

    Refuses a spectrum with no orbits or with an action <= 0, which would
    divide by zero or let the search claim that nothing lies below the cutoff.
    """
    if not orbits:
        raise ValueError("the spectrum has no orbits; nothing can be certified")
    scale, (limit, *actions) = lattice([cutoff, *(o.action for o in orbits)])
    # tested on the ints: a Fraction comparison per orbit took ≈10% of the
    # spectral benchmark's first pass
    least = min(actions)
    if least <= 0:
        bad = orbits[actions.index(least)]
        raise ValueError(f"orbit {bad.label} has action {bad.action}; actions must be positive")
    pairs = sorted((p for p in zip(actions, orbits) if p[0] <= limit), key=lambda p: p[0])
    if not pairs:
        raise ValueError(
            f"action cutoff {cutoff} lies below the smallest orbit action; "
            "nothing can be certified"
        )
    actions, orbits = map(list, zip(*pairs))
    costs = [o.cz + 1 for o in orbits]
    cheapest = min(costs)
    # rate[i] = (a, c): the least action per index point, a / c, over the
    # orbits i..; 0 / 1 bounds nothing when some cost is not positive
    rate = [(0, 1)] * len(orbits)
    if cheapest > 0:
        low = rate[-1] = (actions[-1], costs[-1])
        for i in range(len(orbits) - 2, -1, -1):
            if actions[i] * low[1] < low[0] * costs[i]:
                low = (actions[i], costs[i])
            rate[i] = low
    return scale, limit, actions, orbits, costs, cheapest, rate


def spectral_search(
    spectrum: OrbitSpectrum,
    constraint_codim: int,
    action_cutoff,
    max_ends: Optional[int] = None,
    admissible: Optional[Callable[[Sequence[OrbitRecord]], bool]] = None,
) -> SearchResult:
    """spectral_lower_bound, returning the accepted end multiset and the
    number of DFS nodes entered and of branches cut by the bound.  The
    spectrum keeps its integer action lattice per cutoff, so repeated
    queries of one spectrum at one cutoff build it once."""
    if constraint_codim < 0 or constraint_codim % 2:
        raise ValueError("constraint codimension must be even and >= 0")
    cutoff = Fraction(action_cutoff)
    lattice = spectrum._lattices.get(cutoff)
    if lattice is None:  # kept once built; a cutoff below every action raises
        lattice = spectrum._lattices[cutoff] = _action_lattice(spectrum.orbits, cutoff)
    scale, limit, actions, orbits, costs, cheapest, rate = lattice
    n = len(orbits)
    target = constraint_codim + 2  # index zero reads sum(CZ_i + 1) = codim + 2
    derived = limit // actions[0]
    if cheapest > 0:
        derived = min(derived, target // cheapest)
    ends_cap = derived if max_ends is None else min(max_ends, derived)
    # a partial multiset may overshoot the index only if later ends can
    # bring it back down
    ceiling = target if cheapest >= 0 else target - cheapest * ends_cap
    top = limit  # the largest action worth entering: one unit below the best
    witness: tuple = ()
    nodes = pruned = 0
    chosen: list[OrbitRecord] = []

    def dfs(start: int, cost: int, action: int) -> None:
        nonlocal top, witness, nodes, pruned
        nodes += 1
        if cost == target and chosen:
            # a leaf is only entered at or below top, so accepting it lowers top
            if admissible is None or admissible(chosen):
                top = action - 1
                witness = tuple(chosen)
                return
            if cheapest > 0:
                return  # every extension overshoots the index
        if len(chosen) >= ends_cap:
            return
        for i in range(start, n):
            new_action = action + actions[i]
            # orbits are sorted by action, so no later sibling fits either
            if new_action > top:
                break
            a, c = rate[i]
            # nor can ends from orbits i.. add the missing index, which costs
            # at least (target - cost) * a / c, rounded up to a whole number
            # of lattice units, and stay at or below top
            if (top - action) * c < (target - cost) * a:
                pruned += 1
                break
            new_cost = cost + costs[i]
            if new_cost > ceiling:
                continue
            chosen.append(orbits[i])
            dfs(i, new_cost, new_action)
            chosen.pop()

    dfs(0, 0, 0)
    del dfs  # dfs holds itself: free the search by refcount, not the GC
    if not witness:  # nothing accepted
        return SearchResult(INFINITE, (), nodes, pruned)
    return SearchResult(Fraction(top + 1, scale), witness, nodes, pruned)


# ---------------------------------------------------------------------------
# finite-model word solver

# the words one g_b solve may take: b2_lin.model at its default cutoff takes
# 0.26 s on 2,509 (--l 6), 0.56 s and 20 MB RSS on 4,082 (--l 10) (2-core Xeon)
MAX_GB_WORDS = 1 << 11


def gb_solver(
    model: LInfinityModel,
    b: Sequence[int],
    word_cap: int,
    action_cutoff,
    augmentation: Optional[str] = None,
) -> Value:
    """Minimum action level A at which some closed bar element x of word
    length <= word_cap and action <= A hits the t-power word ``b`` under
    the augmentation.  Every coefficient must be a single T-power, and
    scalars are exact rationals with T evaluated at 1; the reported level
    recovers the Novikov exponent (increasing-filtration formulation for
    Liouville domains).
    """
    # any model has loaded linfty, so this import only looks it up; the first
    # solve binds the two engine calls here and none rebinds them, so spans
    # that bench/boundaries.py wraps around them on this module stay put
    from .linfty import ModelError, augmentation_hat, extend_coderivation

    extend = globals().setdefault("extend_coderivation", extend_coderivation)
    hat = globals().setdefault("augmentation_hat", augmentation_hat)
    if model.algebra_mode != "module":
        raise ModelError("gb_solver expects a module-mode model")
    if not model.filtered:
        raise ModelError("gb_solver expects a filtered model")
    if word_cap < 1:
        raise ModelError("word cap must be >= 1")
    target = tuple(sorted(int(p) for p in b))
    if not target or any(p < 0 for p in target):
        raise ModelError("b must be a nonempty word of nonnegative t-powers")
    aug = model.augmentation(augmentation)

    # by action, so the solution's largest column sits on the least level
    # whose words reach b (see ``solve_linear_system``)
    words = sorted(
        model.basis_words(word_cap, Fraction(action_cutoff)), key=lambda w: w.action
    )
    if len(words) > MAX_GB_WORDS:
        raise ValueError(f"more than {MAX_GB_WORDS} words for one g_b solve")
    rows: dict = {("a", target): {}}  # first: (0; b) is the unit vector e_0
    for i, w in enumerate(words):
        for u, c in _scalarize(extend(model, w)).items():
            rows.setdefault(("d", u), {})[i] = c
        for t, c in _scalarize(hat(aug, w)).items():
            rows.setdefault(("a", t), {})[i] = c
    x = solve_linear_system(list(rows.values()), [1] + [0] * (len(rows) - 1))
    if x is None:
        return NOT_FOUND
    return max(words[j].action for j in x)


def solve_linear_system(
    rows: list[dict[int, Fraction]], rhs: list[Fraction]
) -> Optional[dict[int, Fraction]]:
    """Solve ``rows @ x = rhs`` exactly; ``None`` when inconsistent.

    Rows are {column: coefficient} dicts, left unchanged.  x comes back as
    the dict of its nonzero entries, all on pivot columns: each the least
    column outside the span of those before it, so the largest column of x
    ends the shortest prefix of columns whose span holds ``rhs``.
    """
    if len(rhs) != len(rows):
        raise ValueError("rhs length does not match row count")
    eqs = [{j: Fraction(v) for j, v in row.items() if v} for row in rows]
    rs = [Fraction(r) for r in rhs]

    pivots = []
    for col in sorted({j for row in eqs for j in row}):  # fill-in adds no column
        k = next((i for i, row in enumerate(eqs) if col in row), None)
        if k is None:
            continue
        prow, pr = eqs.pop(k), rs.pop(k)
        for i, row in enumerate(eqs):
            if col in row:
                f = row[col] / prow[col]
                for j, v in prow.items():
                    w = row.get(j, 0) - f * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                rs[i] -= f * pr
        pivots.append((col, prow, pr))
    if any(rs):
        return None
    x = {}
    for col, row, r in reversed(pivots):
        x[col] = (r - sum(v * x[j] for j, v in row.items() if j in x)) / row[col]
    return {j: v for j, v in x.items() if v}


def _scalarize(combo: dict) -> dict:
    """The combination with each coefficient evaluated at T = 1.

    A coefficient with several T-powers would merge distinct action levels
    (and could cancel to zero), so it is refused.
    """
    for c in combo.values():
        if len(c.terms) > 1:
            from .linfty import ModelError

            raise ModelError(
                f"coefficient {c} has several T-powers; the solver needs "
                "one T-power per coefficient"
            )
    return {key: c.at_one() for key, c in combo.items()}


# ---------------------------------------------------------------------------
# McDuff's embedding function via ECH ratios


def mcduff_f(x, K: int) -> Fraction:
    """Certified lower bound for the ellipsoid-into-ball function:
    the exact maximum of c_k(E(1,x))/c_k(B(1)) over k = 1..K."""
    x = Fraction(x)
    if x < 1:
        raise ValueError("need x >= 1")
    if K < 1:
        raise ValueError("need K >= 1")
    num, scale = ech_lattice(1, x, K)
    den, _ = ech_lattice(1, 1, K)  # the ball's lattice has scale 1
    best_n, best_d = 0, 1  # the best ratio num[k]/den[k] so far
    for k in range(1, K + 1):
        n, d = num[k], den[k]
        if n * best_d > best_n * d:
            best_n, best_d = n, d
    return Fraction(best_n, best_d * scale)


def obstruct_4d_ellipsoid(a, b, c, d, K: int) -> Union[int, str]:
    """First k <= K with c_k(E(a,b)) > c_k(E(c,d)), else the explicit
    no-obstruction verdict (which is not an embedding certificate)."""
    if K < 1:
        raise ValueError("need K >= 1")
    src, s_scale = ech_lattice(a, b, K)
    tgt, t_scale = ech_lattice(c, d, K)
    for k in range(1, K + 1):
        if src[k] * t_scale > tgt[k] * s_scale:
            return k
    return NO_OBSTRUCTION


# ---------------------------------------------------------------------------
# weight expansions and packing bounds


def weight_decomposition(p: int, q: int) -> list[Fraction]:
    """Weight expansion of p/q >= 1: repeated subtraction normalized by q,
    returned in the order the subtraction produces (nonincreasing)."""
    if p < 1 or q < 1 or p < q:
        raise ValueError("need integers p >= q >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError("need gcd(p,q) = 1")
    weights = []
    hi, lo = p, q
    while lo > 0:
        count, rem = divmod(hi, lo)
        weights.extend([Fraction(lo, q)] * count)
        hi, lo = lo, rem
    return weights


def packing_lower_bounds(weights: Sequence[Fraction], query: tuple) -> Fraction:
    """Ball-packing lower bounds from a weight multiset.

    query is ('g_tangency', k), ('r_points', r), or ('r_multipoint', k).
    The r_points bound maximizes sum of a_i * ceil((j_i+1)/3) over all ways
    of distributing r points among the balls, by dynamic programming.
    """
    weights = [Fraction(w) for w in weights]
    if not weights:
        raise ValueError("empty weight multiset")
    if any(weights[i] < weights[i + 1] for i in range(len(weights) - 1)):
        raise ValueError("weights must be sorted nonincreasing")
    kind, index = query
    if index < 1:
        raise ValueError("query index must be >= 1")
    a1 = weights[0]
    if kind == "g_tangency":
        return a1 * math.ceil(Fraction(index + 1, 3))
    if kind == "r_multipoint":
        return index * a1
    if kind != "r_points":
        raise ValueError(f"unknown packing query {kind!r}")
    best = [Fraction(0)] + [None] * index  # best[j] over balls so far
    for a in weights:
        for j in range(index, 0, -1):
            for used in range(1, j + 1):
                if best[j - used] is None:
                    continue
                cand = best[j - used] + a * math.ceil(Fraction(used + 1, 3))
                if best[j] is None or cand > best[j]:
                    best[j] = cand
    assert best[index] is not None
    return best[index]


# ---------------------------------------------------------------------------
# stabilized obstructions


def _unit_target(target_family: str) -> DomainDescriptor:
    if target_family == "ball":
        return DomainDescriptor.ball(1)
    if target_family == "polydisk":
        return DomainDescriptor.polydisk(1, 1)
    raise ValueError("target family must be 'ball' or 'polydisk'")


def stabilized_obstruction(
    source: DomainDescriptor, target_family: str
) -> tuple[Fraction, int]:
    """Largest ratio g(source,k)/g(unit target,k) over indices where both
    closed forms are proven; returns (bound, witness k).

    The ratio is eventually nonincreasing once the source formula switches
    to its capped branch, so scanning k up to 6*ceil(x)+6 (x the aspect
    ratio of the source) is exhaustive.
    """
    target = _unit_target(target_family)
    if source.kind == "ball":
        x = Fraction(1)
    else:
        a, b = source.params
        x = b / a
    ks = range(1, 6 * math.ceil(x) + 7)
    nums, s_scale = g_tangency_lattice(source, ks)
    dens, t_scale = g_tangency_lattice(target, ks)
    best: Optional[tuple[int, int]] = None  # the best ratio num/den so far
    witness = 0
    for k, num, den in zip(ks, nums, dens):
        if num == NO_FORMULA or den == NO_FORMULA:
            continue
        if best is None or num * best[1] > best[0] * den:
            best, witness = (num, den), k
    if best is None:
        raise ValueError(
            f"no index admits closed forms for both {source} and the unit "
            f"{target_family}"
        )
    return Fraction(best[0] * t_scale, best[1] * s_scale), witness
