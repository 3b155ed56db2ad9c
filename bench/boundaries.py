"""The layer boundaries inside ``symcap`` that a traced run intercepts.

Each entry names an attribute of one module that refers to another layer:
``symcap.linfty.normalize_word`` is how linfty reaches the words layer.
Replacing it there records linfty's calls into words and nothing that
words does internally.  Class attributes (``NovikovPolynomial.__mul__``,
``Word.__init__``) are shared by every caller, so they see all calls.
Modules not imported by the run are skipped, as are names a module does not
import at this commit (``symcap.cli.ech_sequence``), which then read 0.
"""

from __future__ import annotations

import argparse
import fractions
import sys

from spans import Tracer

# importing module, attribute, span name
MODULE_SPANS = [
    ("symcap.linfty", "normalize_word", "words.normalize_word"),
    ("symcap.linfty", "crossing_sign", "words.crossing_sign"),
    ("symcap.linfty", "reorder_sign", "words.reorder_sign"),
    ("symcap.modelfile", "normalize_word", "words.normalize_word"),
    ("symcap.capacities", "extend_coderivation", "linfty.extend_coderivation"),
    ("symcap.capacities", "augmentation_hat", "linfty.augmentation_hat"),
    ("symcap.cli", "capacity_sequence_EH", "spectra.eh"),
    ("symcap.cli", "capacity_sequence_ECH", "spectra.ech"),
    ("symcap.cli", "ech_sequence", "capacities.ech_sequence"),
    ("symcap.cli", "g_tangency", "capacities.g_tangency"),
    ("symcap.cli", "r_points_ball", "capacities.r_points_ball"),
    ("symcap.cli", "obstruct_4d_ellipsoid", "capacities.obstruct_4d_ellipsoid"),
    ("symcap.cli", "stabilized_obstruction", "capacities.stabilized_obstruction"),
    ("symcap.cli", "gb_solver", "capacities.gb_solver"),
    ("symcap.cli", "check_linfty_relations", "linfty.check_linfty_relations"),
    ("symcap.cli", "linearize", "linfty.linearize"),
    ("symcap.cli", "mc_check", "linfty.mc_check"),
    ("symcap.cli", "load_model", "modelfile.load"),
    ("symcap.cli", "print_model", "modelfile.print_model"),
    ("symcap.gw", "evaluate", "gw.evaluate"),
    ("symcap.gw", "load_table", "gw.load_table"),
]

# owning module, class, attribute, span name (None: count only)
CLASS_HOOKS = [
    ("symcap.words", "Word", "__init__", None, "words.word_new"),
    ("symcap.novikov", "NovikovPolynomial", "__init__", None, "novikov.poly_new"),
    ("symcap.novikov", "NovikovPolynomial", "__mul__", "novikov.mul", None),
    ("symcap.novikov", "NovikovPolynomial", "__add__", "novikov.add", None),
    ("symcap.novikov", "NovikovPolynomial", "scale", "novikov.scale", None),
    ("symcap.linfty", "LInfinityModel", "apply_operation", None, "linfty.apply_operation.calls"),
]


def install(tracer: Tracer) -> None:
    """Wrap every boundary of the modules imported so far."""
    tracer.count(fractions.Fraction, "__new__", "fractions.new")
    if "_from_coprime_ints" in vars(fractions.Fraction):  # Python >= 3.12
        tracer.count(fractions.Fraction, "_from_coprime_ints", "fractions.new")
    tracer.count(fractions.Fraction, "__hash__", "fractions.hash")
    tracer.follow_threads()
    for module, attr, name in MODULE_SPANS:
        mod = sys.modules.get(module)
        if mod is None or not hasattr(mod, attr):
            continue
        tracer.span(mod, attr, name)
    for module, cls_name, attr, span, count in CLASS_HOOKS:
        mod = sys.modules.get(module)
        if mod is None:
            continue
        cls = getattr(mod, cls_name)
        if span:
            tracer.span(cls, attr, span)
        else:
            tracer.count(cls, attr, count)
    counts = tracer.counts

    linfty = sys.modules.get("symcap.linfty")
    if linfty is not None:

        def basis_words(args, kwargs, result):
            counts["linfty.basis_words.words"] += len(result)

        tracer.span(linfty.LInfinityModel, "basis_words", "linfty.basis_words", basis_words)

    capacities = sys.modules.get("symcap.capacities")
    if capacities is not None:

        def cells(args, kwargs, result):
            matrix = args[0]
            counts["linsolve.solve.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

        tracer.span(capacities, "solve_linear_system", "linsolve.solve", cells)

    gw = sys.modules.get("symcap.gw")
    if gw is not None:
        reduce_combination = gw.reduce_combination

        def with_steps(expr, rng=None, trace=None):
            # the caller's trace list, or one of our own, gives the step count
            steps = [] if trace is None else trace
            before = len(steps)
            result = reduce_combination(expr, rng=rng, trace=steps)
            counts["gw.reduce.steps"] += len(steps) - before
            counts["gw.reduce.terms"] += len(result)
            return result

        tracer.replace(gw, "reduce_combination", with_steps)
        tracer.span(gw, "reduce_combination", "gw.reduce")


def install_cli(tracer: Tracer) -> None:
    """Spans for argument parsing and for the subcommand it selects."""
    parse_args = argparse.ArgumentParser.parse_args
    parse_id = tracer.name_id("cli.parse")

    def traced_parse(parser, *args, **kwargs):
        idx = tracer.open(parse_id)
        try:
            ns = parse_args(parser, *args, **kwargs)
        finally:
            tracer.close(idx)
        if callable(getattr(ns, "func", None)):
            tracer.span(ns, "func", "cli.cmd")
        return ns

    tracer.replace(argparse.ArgumentParser, "parse_args", traced_parse)
