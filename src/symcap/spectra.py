"""Reeb-orbit spectra of ellipsoids and four-dimensional polydisks, their
Conley-Zehnder indices, and Fredholm index arithmetic.

Like every submodule, this one loads on the first access to one of its
names through ``symcap``.  No ``cap`` command imports it: its records are
dataclasses, and ``dataclasses`` (with ``inspect``) would nearly double the
start-up of every command.  Of ``symcap`` it imports only
:mod:`symcap.novikov`; the EH and ECH sequences live in
:mod:`symcap.capacities`.

Both spectra are enumerated on an integer action lattice: every axis and
the cutoff are scaled by the lcm of their denominators, iterates are
generated and sorted on integer keys, and each record gets its one
``Fraction`` action only when it is built.

Conley-Zehnder indices use one closed form, on those integer axes:
``CZ(k-th iterate of orbit j) = n-1 + 2k + 2*sum_{i != j} floor(k*a_j/a_i)``
with ties resolved by the symbolic perturbation ``a_m -> a_m*(1 + m*delta)``
for infinitesimal ``delta > 0``: a ratio that is exactly an integer ``r``
contributes ``r`` when the other axis sits below the orbit's axis (i < j)
and ``r - 1`` when it sits above.  This reproduces the perturbed-ball
sequences 3,7,11 / 5,9,13, the E(1,13/2+delta) list 3,5,7,9,11,13,15,17,
and CZ = n-1+2k for the k-th orbit of the round ball in any dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .novikov import INF, Axis, lattice


@dataclass(frozen=True)
class OrbitRecord:
    label: str
    action: Fraction
    cz: int
    simple: int  # index of the underlying simple orbit (1-based) or family tag
    multiplicity: tuple


@dataclass(frozen=True)
class OrbitSpectrum:
    domain: str
    orbits: tuple[OrbitRecord, ...] = ()
    # spectral_search's action lattice per cutoff; orbits is a tuple, so none goes stale
    _lattices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(self.orbits))


def _check_axes(a: Sequence[Axis]) -> list[Fraction]:
    if not a:
        raise ValueError("need at least one ellipsoid parameter")
    out = []
    for x in a:
        if x == INF:
            raise ValueError(
                "infinite factors are supported only in eh_lattice, eh_sequence "
                "and capacity_sequence_EH"
            )
        x = Fraction(x)
        if x <= 0:
            raise ValueError(f"ellipsoid parameters must be positive, got {x}")
        out.append(x)
    if any(out[i] > out[i + 1] for i in range(len(out) - 1)):
        raise ValueError("ellipsoid parameters must be sorted: a1 <= ... <= an")
    return out


def _cz(axes: Sequence[int], j: int, k: int) -> int:
    """CZ of the k-th iterate of orbit j (1-based) on integer axes; an
    exact ratio r = k*a_j/a_i counts r if i < j, else r - 1."""
    total = len(axes) - 1 + 2 * k
    kaj = k * axes[j - 1]
    for i, ai in enumerate(axes, start=1):
        if i != j:
            q, r = divmod(kaj, ai)
            total += 2 * (q if r or i < j else q - 1)
    return total


def conley_zehnder_ellipsoid(a: Sequence[Axis], j: int, k: int) -> int:
    """CZ index of the k-th iterate of the j-th (1-based) simple orbit."""
    axes = _check_axes(a)
    if not 1 <= j <= len(axes):
        raise ValueError(f"orbit index {j} out of range")
    if k < 1:
        raise ValueError("iterate must be >= 1")
    return _cz(lattice(axes)[1], j, k)


def ellipsoid_orbits(a: Sequence[Axis], cutoff: Axis) -> OrbitSpectrum:
    """All iterates with action k*a_j <= cutoff, sorted by (action, axis)."""
    axes = _check_axes(a)
    scale, (top, *ints) = lattice([Fraction(cutoff), *axes])
    keys = sorted(
        (k * aj, j, k)
        for j, aj in enumerate(ints, start=1)
        for k in range(1, top // aj + 1)
    )
    records = [
        OrbitRecord(f"g{j}^{k}", Fraction(v, scale), _cz(ints, j, k), j, (k,))
        for v, j, k in keys
    ]
    desc = "E(" + ",".join(str(x) for x in axes) + ")"
    return OrbitSpectrum(desc, records)


def polydisk_orbits(x: Axis, cutoff: Axis) -> OrbitSpectrum:
    """Spectrum of the perturbed P(1,x): alpha_{i,j} with CZ 2i+2j (i,j >= 1)
    and beta_{i,j} with CZ 1+2i+2j ((i,j) != (0,0)), actions i + j*x."""
    x = Fraction(x)
    if x < 1:
        raise ValueError("polydisk parameter needs x >= 1")
    scale, (step, top) = lattice((x, Fraction(cutoff)))
    # alpha and beta at the same (i, j) differ in CZ parity, so
    # (action, j, cz) has no ties and fixes i and the family
    keys = []
    for i in range(top // scale + 1):
        base = i * scale
        for j in range((top - base) // step + 1):
            if i or j:
                v, cz = base + j * step, 2 * i + 2 * j
                keys.append((v, j, cz + 1, i))  # beta
                if i and j:
                    keys.append((v, j, cz, i))  # alpha
    keys.sort()
    records = [
        OrbitRecord(
            f"{'beta' if cz % 2 else 'alpha'}_{i},{j}",
            Fraction(v, scale),
            cz,
            2 if cz % 2 else 1,
            (i, j),
        )
        for v, j, cz, i in keys
    ]
    return OrbitSpectrum(f"P(1,{x})", records)


# ---------------------------------------------------------------------------
# Fredholm index arithmetic


def fredholm_index(
    n: int,
    genus: int,
    cz_pos: Sequence[int],
    cz_neg: Sequence[int],
    c1_term: int = 0,
    constraint_codim: int = 0,
) -> int:
    """(n-3)(2-2g-s⁺-s⁻) + ΣCZ⁺ - ΣCZ⁻ + 2c₁ - constraint_codim."""
    if constraint_codim < 0 or constraint_codim % 2:
        raise ValueError("constraint codimension must be even and >= 0")
    s_pos, s_neg = len(cz_pos), len(cz_neg)
    return (
        (n - 3) * (2 - 2 * genus - s_pos - s_neg)
        + sum(cz_pos)
        - sum(cz_neg)
        + 2 * c1_term
        - constraint_codim
    )
