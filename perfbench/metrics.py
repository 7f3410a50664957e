"""Metric names, units, and the per-layer metrics derived from one traced pass.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced passes of a separate run.  Every `*_s` layer metric is span self
time summed over one pass, so the layer metrics of a pass partition its
traced time without double counting (see METRICS.md for the map from each
layer metric to the end-to-end metric and workload it should move).
"""

from __future__ import annotations

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cmd_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]

CLI_COMMANDS = ["sieve", "spectrum", "s0", "fit", "predict", "simulate", "gof", "figures"]

PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"cli.{cmd}_s", "s") for cmd in CLI_COMMANDS]
    + [
        ("sieve.sieve_range_s", "s"),
        ("sieve.mn_per_s", "Mint/s"),
        ("sieve.segments", "count"),
        ("sieve.write_separations_s", "s"),
        ("sieve.read_separations_s", "s"),
        ("sieve.stream_mb", "MB"),
        ("pipeline.per_checkpoint_spectra_s", "s"),
        ("pipeline.max_separation_by_checkpoint_s", "s"),
        ("pipeline.count_cutoff_exceedances_s", "s"),
        ("pipeline.figure_pipeline_s", "s"),
        ("pipeline.write_counts_s", "s"),
        ("pipeline.ingest_counts_s", "s"),
        ("pipeline.checkpoints", "count"),
        ("spectrum.accumulate_s", "s"),
        ("spectrum.accumulate_calls", "count"),
        ("spectrum.accumulate_melems", "Melem"),
        ("montecarlo.sample_separations_s", "s"),
        ("montecarlo.draws", "count"),
        ("montecarlo.gof_compare_s", "s"),
        ("montecarlo.gof_calls", "count"),
        ("montecarlo.gof_pass_ratio", "ratio"),
        ("model.solve_s", "s"),
        ("model.solve_calls", "count"),
        ("fit.fit_s", "s"),
        ("fit.calls", "count"),
        ("proc.cpu_s", "s"),
        ("proc.cpu_util", "ratio"),
        ("trace.overhead_s", "s"),
    ]
)

UNITS = dict(END_TO_END + PER_LAYER)


def layer_metrics(summary: dict, wall: float, cpu: float) -> dict:
    """Per-layer metrics of one traced pass from its span summary.

    cli.import_s and trace.overhead_s are not properties of a single pass;
    the worker and the runner fill them in.
    """

    def self_s(*names):
        return sum(summary[n]["self_s"] for n in names if n in summary)

    def calls(*names):
        return sum(summary[n]["calls"] for n in names if n in summary)

    def counter(name, key):
        return summary.get(name, {}).get("counters", {}).get(key, 0)

    def layer(prefix):
        return [n for n in summary if n.startswith(prefix + ".")]

    m = {f"cli.{cmd}_s": self_s(f"cli.{cmd}") for cmd in CLI_COMMANDS}
    sieve_s = self_s("sieve.sieve_range")
    m.update(
        {
            "sieve.sieve_range_s": sieve_s,
            "sieve.mn_per_s": counter("sieve.sieve_range", "ints") / 1e6 / sieve_s
            if sieve_s > 0
            else 0.0,
            "sieve.segments": counter("sieve.sieve_range", "segments"),
            "sieve.write_separations_s": self_s("sieve.write_separations"),
            "sieve.read_separations_s": self_s("sieve.read_separations"),
            "sieve.stream_mb": counter("sieve.read_separations", "bytes") / 1e6,
            "pipeline.per_checkpoint_spectra_s": self_s("pipeline.per_checkpoint_spectra"),
            "pipeline.max_separation_by_checkpoint_s": self_s(
                "pipeline.max_separation_by_checkpoint"
            ),
            "pipeline.count_cutoff_exceedances_s": self_s("pipeline.count_cutoff_exceedances"),
            "pipeline.figure_pipeline_s": self_s(
                "pipeline.figure_pipeline", "pipeline.FigureSet.write"
            ),
            "pipeline.write_counts_s": self_s("pipeline.write_counts"),
            "pipeline.ingest_counts_s": self_s("pipeline.ingest_counts"),
            "pipeline.checkpoints": counter("pipeline.per_checkpoint_spectra", "checkpoints"),
            "spectrum.accumulate_s": self_s("spectrum.accumulate"),
            "spectrum.accumulate_calls": calls("spectrum.accumulate"),
            "spectrum.accumulate_melems": counter("spectrum.accumulate", "elems") / 1e6,
            "montecarlo.sample_separations_s": self_s("montecarlo.sample_separations"),
            "montecarlo.draws": counter("montecarlo.sample_separations", "draws"),
            "montecarlo.gof_compare_s": self_s("montecarlo.gof_compare"),
            "montecarlo.gof_calls": calls("montecarlo.gof_compare"),
            "model.solve_s": self_s(*layer("model")),
            "model.solve_calls": calls(*layer("model")),
            "fit.fit_s": self_s(*layer("fit")),
            "fit.calls": calls(*layer("fit")),
            "proc.cpu_s": cpu,
            "proc.cpu_util": cpu / wall if wall > 0 else 0.0,
        }
    )
    gof_calls = m["montecarlo.gof_calls"]
    m["montecarlo.gof_pass_ratio"] = (
        counter("montecarlo.gof_compare", "passed") / gof_calls if gof_calls else 0.0
    )
    return m
