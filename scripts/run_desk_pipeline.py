#!/usr/bin/env python3
"""End-to-end desk-scale experiment.

Sieves to the requested limit, then reports everything the analysis
pipeline produces: the decay-law constant m0, the linear and three-term
laws for the average separation s0, goodness of fit of the real spectra
against the no-cutoff model, and how the observed maximal separations
compare with the risk-factor cutoff.  A checkpoint is flagged when its
running maximum passes the model's overshoot bound ceil(L) + sbar*ln(f/alpha)
(twinsep.model.overshoot_bound); the "over" column gives (max - L)/sbar.

    python3 scripts/run_desk_pipeline.py --limit 1e8 --out-dir runs/r8
"""

import argparse
import sys
import time

from twinsep.fit import fit_exp_slope, fit_m0, fit_s0_linear, fit_s0_loglog
from twinsep.model import overshoot_bound, solve_checkpoint, solve_f0
from twinsep.montecarlo import gof_compare
from twinsep.pipeline import (
    count_cutoff_exceedances,
    figure_pipeline,
    max_separation_by_checkpoint,
    per_checkpoint_spectra,
    table_from_report,
)
from twinsep.sieve import DEFAULT_SEGMENT_FLAGS, SieveConfig, geometric_checkpoints, sieve_range
from twinsep.spectrum import s0_from_counts


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=float, default=1e8)
    ap.add_argument("--start", type=float, default=1e5, help="first checkpoint")
    ap.add_argument("--per-decade", type=int, default=20)
    ap.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_FLAGS)
    ap.add_argument("--f", type=float, default=1.0)
    ap.add_argument("--out-dir", default=None, help="also write the figure datasets here")
    args = ap.parse_args()

    limit = int(args.limit)
    grid = geometric_checkpoints(limit, per_decade=args.per_decade, start=int(args.start))
    report = sieve_range(
        SieveConfig(limit=limit, segment_size=args.segment_size, checkpoint_grid=grid)
    )
    stats = report.stats
    table = table_from_report(report)
    final = table.rows[-1]
    print(
        f"sieve to {limit:.3g}: {stats['wall_s']:.1f}s  pi1={final.pi1} pi2={final.pi2}  "
        f"({stats['workers']} workers, {stats['chunks']} chunks, "
        f"{stats['segments_per_s']:.0f} segments/s)"
    )
    print(f"separations: {report.separations.size}, max {int(report.separations.max())}")

    t0 = time.monotonic()
    spectra = per_checkpoint_spectra(report.separations, table)
    slopes = []
    for rec in table.rows:
        fit = fit_exp_slope(spectra[rec.n])
        slopes.append((rec.pi1, -fit.coefficients[1]))
    m0_fit = fit_m0(slopes)
    print(
        f"m0 law: m0 = {m0_fit.coefficients[0]:.4f} +- {m0_fit.std_errors[0]:.4f} "
        f"({m0_fit.n_points} checkpoints, {time.monotonic() - t0:.1f}s)"
    )

    s0_pts = [(rec.pi1, s0_from_counts(rec).value) for rec in table.rows]
    lin = fit_s0_linear(s0_pts)
    print(
        f"s0 linear: slope {lin.coefficients[1]:.4f} +- {lin.std_errors[1]:.4f}, "
        f"intercept {lin.coefficients[0]:.4f} +- {lin.std_errors[0]:.4f}"
    )
    if len(s0_pts) >= 4:
        loglog = fit_s0_loglog(s0_pts)
        c = loglog.coefficients
        d = loglog.sensitivity_deltas
        print(
            f"s0 three-term: intercept {c[0]:.3f}, linear {c[1]:.4f}, loglog {c[2]:.3f}"
            + (f", upper-half deltas {d[0]:.3f}, {d[1]:.4f}, {d[2]:.3f}" if d else "")
        )

    print(f"{'n':>12} {'s0':>8} {'l_cut':>8} {'obs_max':>8} {'over':>6} {'exceed':>7} {'ks':>8}")
    maxes = max_separation_by_checkpoint(report.separations, table)
    exceed = count_cutoff_exceedances(report.separations, table, f=args.f)
    decade_ns = [n for n in maxes if n in {10**k for k in range(3, 14)}]
    for rec in table.rows:
        s0 = s0_from_counts(rec).value
        law = solve_checkpoint(rec, args.f)
        ks = ""
        if rec.n in decade_ns:
            ks = f"{gof_compare(spectra[rec.n], solve_f0(s0)).ks_distance:.5f}"
        over = (maxes[rec.n] - law.l_cut) / law.sbar
        flag = "" if maxes[rec.n] <= overshoot_bound(law) else "  > overshoot bound"
        if rec.n in decade_ns or flag:
            print(
                f"{rec.n:>12} {s0:>8.3f} {law.l_cut:>8.2f} {maxes[rec.n]:>8} {over:>6.2f} "
                f"{exceed[rec.n]:>7} {ks:>8}{flag}"
            )

    if args.out_dir:
        figs = figure_pipeline(
            table, spectra=spectra, f=args.f, onsets=report.max_separation_onsets
        )
        for path in figs.write(args.out_dir):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
