"""The metric catalogue, and the per-layer numbers drawn from a trace.

``BENCHMARK.json`` at the repository root mirrors ``END_TO_END`` and
``PER_LAYER``; ``test_bench.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import Optional

# name, unit, better, bound: the share of the parent's median a later change
# may lose before it counts as a regression.  Three times the largest spread
# measured over ten runs (README.md, "Baseline"), capped at 0.25.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.25),
    ("warm_s", "s", "lower", 0.25),
    ("query_p50_s", "s", "lower", 0.25),
    ("query_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# cli only, so not in BENCHMARK.json, whose metrics every workload reports;
# printed with each cli run and compared like the others
CLI_ONLY = [
    ("startup_s", "s", "lower", 0.25),
]

COUNT = "count"

# name, unit, better
PER_LAYER = [
    ("fractions.new", COUNT, "lower"),
    ("fractions.hash", COUNT, "lower"),
    ("words.normalize_word.calls", COUNT, "lower"),
    ("words.normalize_word.self_s", "s", "lower"),
    ("words.coproduct.calls", COUNT, "lower"),
    ("words.coproduct.self_s", "s", "lower"),
    ("words.crossing_sign.calls", COUNT, "lower"),
    ("words.word_new", COUNT, "lower"),
    ("words.self_s", "s", "lower"),
    ("novikov.poly_new", COUNT, "lower"),
    ("novikov.mul.calls", COUNT, "lower"),
    ("novikov.add.calls", COUNT, "lower"),
    ("novikov.scale.calls", COUNT, "lower"),
    ("novikov.self_s", "s", "lower"),
    ("linfty.extend_coderivation.calls", COUNT, "lower"),
    ("linfty.extend_coderivation.self_s", "s", "lower"),
    ("linfty.apply_operation.calls", COUNT, "lower"),
    ("linfty.basis_words.words", COUNT, "lower"),
    ("linfty.basis_words.self_s", "s", "lower"),
    ("linfty.morphism_on_combo.self_s", "s", "lower"),
    ("linfty.augmentation_hat.self_s", "s", "lower"),
    ("linfty.self_s", "s", "lower"),
    ("linsolve.solve.calls", COUNT, "lower"),
    ("linsolve.solve.cells", COUNT, "lower"),
    ("linsolve.solve.self_s", "s", "lower"),
    ("capacities.gb_solver.self_s", "s", "lower"),
    ("spectra.orbits.records", COUNT, "lower"),
    ("spectra.orbits.self_s", "s", "lower"),
    ("spectra.eh.calls", COUNT, "lower"),
    ("spectra.eh.self_s", "s", "lower"),
    ("spectra.ech.calls", COUNT, "lower"),
    ("spectra.ech.self_s", "s", "lower"),
    ("capacities.ech_sequence.self_s", "s", "lower"),
    ("capacities.spectral.calls", COUNT, "lower"),
    ("capacities.spectral.self_s", "s", "lower"),
    ("capacities.spectral.leaves", COUNT, "lower"),
    ("capacities.spectral.accept_ratio", "ratio", "higher"),
    ("gw.reduce.steps", COUNT, "lower"),
    ("gw.reduce.terms", COUNT, "lower"),
    ("gw.reduce.self_s", "s", "lower"),
    ("modelfile.load.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.cmd.self_s", "s", "lower"),
    ("cli.cache_hits", COUNT, "higher"),
    ("cli.cache_misses", COUNT, "lower"),
    ("cli.cache_read_bytes", "bytes", "lower"),
    ("cli.cache_write_bytes", "bytes", "lower"),
    ("cli.rows_computed", COUNT, "lower"),
    ("cli.threads_started", COUNT, "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + CLI_ONLY + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END + CLI_ONLY + PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END + CLI_ONLY}

LAYERS = ("words", "novikov", "linfty")


def layer_values(
    summary: dict[str, dict[str, float]],
    counts: dict[str, float],
    extra: Optional[dict[str, float]] = None,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from a trace summary (per span name: calls
    and self seconds per pass) and per-pass counts.  A boundary the run never
    crossed reads 0."""
    values: dict[str, float] = dict(extra or {})

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0.0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        if name in counts:
            values[name] = counts[name]
        elif name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            if span in LAYERS:
                values[name] = sum(
                    rec["self_s"]
                    for key, rec in summary.items()
                    if key.startswith(span + ".")
                )
            else:
                values[name] = self_s(span)
        else:
            values[name] = 0.0
    leaves = counts.get("capacities.spectral.leaves", 0.0)
    values["capacities.spectral.accept_ratio"] = (
        counts.get("capacities.spectral.accepted", 0.0) / leaves if leaves else 0.0
    )
    parse = summary.get("cli.parse")
    values["cli.parse_s"] = parse["self_s"] / parse["calls"] if parse else 0.0
    return values
