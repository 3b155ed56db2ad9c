"""Expected answers computed without ``symcap``.

Closed forms come from the source paper (Siegel, *Higher symplectic
capacities*, arXiv:1902.01490) and the classical ECH/Ekeland-Hofer
definitions; the capacity tables are integer brute force over a scaled
lattice.  Nothing here imports the package under test, so a bug shared by
the program and its oracle cannot hide.
"""

from __future__ import annotations

import math
from fractions import Fraction

NO_FORMULA = "no-formula"


# -- tangency capacities g<T^{k-1}p> -------------------------------------------


def g_ball(c: Fraction, k: int):
    """Ball B(c): c * ceil((k+1)/3) for k = 2 mod 3."""
    if k % 3 != 2:
        return NO_FORMULA
    return c * -(-(k + 1) // 3)


def g_ellipsoid(a: Fraction, b: Fraction, k: int):
    """E(a,b), a <= b: a*k on the linear range k <= b/a."""
    if k > b / a:
        return NO_FORMULA
    return a * k


def g_polydisk(a: Fraction, b: Fraction, k: int):
    """P(a,b), a <= b, odd k: a * min(k, b/a + (k-1)/2)."""
    if k % 2 == 0:
        return NO_FORMULA
    return a * min(Fraction(k), b / a + Fraction(k - 1, 2))


def stabilized_ball_bound(x: Fraction) -> tuple[Fraction, int]:
    """max_k g(E(1,x),k) / g(B(1),k) with its first maximizing k."""
    best, witness = None, 0
    for k in range(1, 6 * math.ceil(x) + 7):
        num = g_ellipsoid(Fraction(1), x, k)
        den = g_ball(Fraction(1), k)
        if NO_FORMULA in (num, den):
            continue
        if best is None or num / den > best:
            best, witness = num / den, k
    return best, witness


# -- capacity sequences by integer brute force --------------------------------


def _scale(*xs: Fraction) -> int:
    return math.lcm(*(Fraction(x).denominator for x in xs))


def eh_values(axes, count: int) -> list[Fraction]:
    """First ``count`` elements of the merged multiples {i*a_j : i >= 1}."""
    s = _scale(*axes)
    ints = [int(Fraction(a) * s) for a in axes]
    bound = min(ints) * count
    values = sorted(i * a for a in ints for i in range(1, bound // a + 1))
    return [Fraction(v, s) for v in values[:count]]


def ech_values(a, b, count: int) -> list[Fraction]:
    """c_0 .. c_{count-1}: sorted lattice values {i*a + j*b : i,j >= 0}."""
    s = _scale(a, b)
    ai, bi = int(Fraction(a) * s), int(Fraction(b) * s)
    bound = max(ai, bi)
    while True:
        values = sorted(
            i * ai + j * bi
            for i in range(bound // ai + 1)
            for j in range((bound - i * ai) // bi + 1)
        )
        if len(values) >= count:
            return [Fraction(v, s) for v in values[:count]]
        bound *= 2


def r_points(c: Fraction, r: int) -> Fraction:
    return c * -(-(r + 1) // 3)


def fmt(x) -> str:
    """The CLI's exact cell format: ``n`` or ``p/q``; sentinels verbatim."""
    return x if isinstance(x, str) else str(Fraction(x))
