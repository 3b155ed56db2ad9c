"""Quantitative symplectic embedding obstructions.

Capacity sequences and tangency-constrained curve counts for ellipsoids,
polydisks and balls, a filtered L-infinity engine over Novikov
coefficients with Maurer-Cartan elements and augmentations, and a
rewriting calculus that evaluates tangency constraints against a small
table of base invariants.

The names from :mod:`symcap.spectra` resolve on first access: its records
are dataclasses, whose import (with ``inspect``) would nearly double the
start-up of every ``cap`` command, and no command uses them.
"""

from .capacities import (
    INFINITE,
    NO_FORMULA,
    NO_OBSTRUCTION,
    NOT_FOUND,
    DomainDescriptor,
    SearchResult,
    capacity_sequence_ECH,
    capacity_sequence_EH,
    ech_sequence,
    g_tangency,
    gb_solver,
    mcduff_f,
    obstruct_4d_ellipsoid,
    one_positive_end,
    packing_lower_bounds,
    polydisk_slice_rule,
    r_points_ball,
    spectral_lower_bound,
    spectral_search,
    stabilized_obstruction,
    weight_decomposition,
)
from .linfty import (
    Augmentation,
    IntegrityError,
    LInfinityModel,
    LInfinityMorphism,
    MaurerCartanElement,
    ModelError,
    check_linfty_relations,
    exp_mc,
    linearize,
    mc_check,
)
from .modelfile import load_model, parse_model, print_model, save_model
from .novikov import NovikovPolynomial, parse_novikov
from .words import Word, koszul_sign, normalize_word

__version__ = "0.1.0"

_SPECTRA = {
    "OrbitSpectrum",
    "conley_zehnder_ellipsoid",
    "ellipsoid_orbits",
    "fredholm_index",
    "polydisk_orbits",
}


def __getattr__(name):
    if name not in _SPECTRA:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import spectra

    value = globals()[name] = getattr(spectra, name)
    return value


__all__ = [
    "Augmentation",
    "DomainDescriptor",
    "INFINITE",
    "IntegrityError",
    "LInfinityModel",
    "LInfinityMorphism",
    "MaurerCartanElement",
    "ModelError",
    "NO_FORMULA",
    "NO_OBSTRUCTION",
    "NOT_FOUND",
    "NovikovPolynomial",
    "OrbitSpectrum",
    "SearchResult",
    "Word",
    "capacity_sequence_ECH",
    "capacity_sequence_EH",
    "check_linfty_relations",
    "conley_zehnder_ellipsoid",
    "ech_sequence",
    "ellipsoid_orbits",
    "exp_mc",
    "fredholm_index",
    "g_tangency",
    "gb_solver",
    "koszul_sign",
    "linearize",
    "load_model",
    "mc_check",
    "mcduff_f",
    "normalize_word",
    "obstruct_4d_ellipsoid",
    "one_positive_end",
    "packing_lower_bounds",
    "parse_model",
    "parse_novikov",
    "polydisk_orbits",
    "polydisk_slice_rule",
    "print_model",
    "r_points_ball",
    "save_model",
    "spectral_lower_bound",
    "spectral_search",
    "stabilized_obstruction",
    "weight_decomposition",
]
