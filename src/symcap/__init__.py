"""Quantitative symplectic embedding obstructions.

Capacity sequences and tangency-constrained curve counts for ellipsoids,
polydisks and balls, a filtered L-infinity engine over Novikov
coefficients with Maurer-Cartan elements and augmentations, and a
rewriting calculus that evaluates tangency constraints against a small
table of base invariants.

``import symcap`` loads no submodule.  ``_API`` below is the public API, one
entry per module: the first access to a name imports its module and binds
the name here, so a caller pays only for the modules it uses, and a
submodule such as ``symcap.linfty`` is reachable as an attribute.
``__all__`` and ``dir()`` come from the same table.
"""

import importlib

__version__ = "0.1.0"

_API = {
    name: module
    for module, names in {
        "capacities": """INFINITE NO_FORMULA NO_OBSTRUCTION NOT_FOUND
            DomainDescriptor SearchResult capacity_sequence_ECH
            capacity_sequence_EH ech_sequence g_tangency gb_solver mcduff_f
            obstruct_4d_ellipsoid one_positive_end packing_lower_bounds
            polydisk_slice_rule r_points_ball spectral_lower_bound
            spectral_search stabilized_obstruction weight_decomposition""",
        "linfty": """Augmentation IntegrityError LInfinityModel
            LInfinityMorphism MaurerCartanElement ModelError
            check_linfty_relations exp_mc linearize mc_check""",
        "modelfile": "load_model parse_model print_model save_model",
        "novikov": "NovikovPolynomial parse_novikov",
        "spectra": """OrbitSpectrum conley_zehnder_ellipsoid ellipsoid_orbits
            fredholm_index polydisk_orbits""",
        "words": "Word koszul_sign normalize_word",
    }.items()
    for name in names.split()
}

__all__ = sorted(_API)


def __getattr__(name):
    if name in _API.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _API:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_API[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_API})
