"""Reeb-orbit spectra of ellipsoids and four-dimensional polydisks, their
Conley-Zehnder indices, and Fredholm index arithmetic.

The records are dataclasses, so ``symcap`` loads this module on first use,
off the ``cap`` import path; it re-exports the EH and ECH sequences, which
live in :mod:`symcap.capacities`.

Conley-Zehnder indices use the closed form
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

from .capacities import (  # noqa: F401  (re-exported)
    INF,
    Axis,
    capacity_sequence_ECH,
    capacity_sequence_EH,
    ech_sequence,
    eh_sequence,
)


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
            raise ValueError("infinite factors are supported only in capacity_sequence_EH")
        x = Fraction(x)
        if x <= 0:
            raise ValueError(f"ellipsoid parameters must be positive, got {x}")
        out.append(x)
    if any(out[i] > out[i + 1] for i in range(len(out) - 1)):
        raise ValueError("ellipsoid parameters must be sorted: a1 <= ... <= an")
    return out


def _floor_perturbed(ratio: Fraction, other_below: bool) -> int:
    """floor(ratio) after the symbolic tie-break; exact integers round down
    by one when the other axis is perturbed upward past this one."""
    if ratio.denominator == 1:
        r = ratio.numerator
        return r if other_below else r - 1
    return ratio.numerator // ratio.denominator


def conley_zehnder_ellipsoid(a: Sequence[Axis], j: int, k: int) -> int:
    """CZ index of the k-th iterate of the j-th (1-based) simple orbit."""
    axes = _check_axes(a)
    n = len(axes)
    if not 1 <= j <= n:
        raise ValueError(f"orbit index {j} out of range")
    if k < 1:
        raise ValueError("iterate must be >= 1")
    total = n - 1 + 2 * k
    for i, ai in enumerate(axes, start=1):
        if i == j:
            continue
        total += 2 * _floor_perturbed(Fraction(k) * axes[j - 1] / ai, i < j)
    return total


def ellipsoid_orbits(a: Sequence[Axis], cutoff: Axis) -> OrbitSpectrum:
    """All iterates with action k*a_j <= cutoff, sorted by (action, axis)."""
    axes = _check_axes(a)
    cutoff = Fraction(cutoff)
    records = []
    for j, aj in enumerate(axes, start=1):
        k = 1
        while k * aj <= cutoff:
            records.append(
                OrbitRecord(
                    label=f"g{j}^{k}",
                    action=k * aj,
                    cz=conley_zehnder_ellipsoid(axes, j, k),
                    simple=j,
                    multiplicity=(k,),
                )
            )
            k += 1
    records.sort(key=lambda o: (o.action, o.simple, o.multiplicity))
    desc = "E(" + ",".join(str(x) for x in axes) + ")"
    return OrbitSpectrum(desc, records)


def polydisk_orbits(x: Axis, cutoff: Axis) -> OrbitSpectrum:
    """Spectrum of the perturbed P(1,x): alpha_{i,j} with CZ 2i+2j (i,j >= 1)
    and beta_{i,j} with CZ 1+2i+2j ((i,j) != (0,0)), actions i + j*x."""
    x = Fraction(x)
    if x < 1:
        raise ValueError("polydisk parameter needs x >= 1")
    cutoff = Fraction(cutoff)
    records = []
    for i in range(0, int(cutoff) + 1):
        j = 0
        while i + j * x <= cutoff:
            action = i + j * x
            if action > 0:
                records.append(
                    OrbitRecord(
                        label=f"beta_{i},{j}",
                        action=action,
                        cz=1 + 2 * i + 2 * j,
                        simple=2,
                        multiplicity=(i, j),
                    )
                )
                if i >= 1 and j >= 1:
                    records.append(
                        OrbitRecord(
                            label=f"alpha_{i},{j}",
                            action=action,
                            cz=2 * i + 2 * j,
                            simple=1,
                            multiplicity=(i, j),
                        )
                    )
            j += 1
    records.sort(key=lambda o: (o.action, o.multiplicity[1], o.cz, o.label))
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
