"""Command-line front end.

Pipelines the sieve -> spectrum -> fit -> predict -> simulate flow and
emits plot-ready datasets; `report` runs the whole analysis in one process
and prints the fitted laws.  Configuration precedence is flags, then
TWINSEP_* environment variables, then defaults.  Exit codes: 0 success,
2 validation, 3 numerical, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time

import numpy as np

from .errors import NumericalError, ValidationError
from .fit import fit_exp_slope, fit_m0, fit_s0_linear, fit_s0_loglog
from .ioutil import format_metadata, read_columns, write_csv
from .model import cutoff_law, overshoot_bound, risk_factor, solve_f0
from .montecarlo import GENERATOR, SimConfig, gof_compare, sample_separations
from .pipeline import (
    check_onsets,
    figure_pipeline,
    ingest_counts,
    per_checkpoint_spectra,
    table_from_report,
    write_counts,
)
from .sieve import (
    DEFAULT_SEGMENT_FLAGS,
    SieveConfig,
    geometric_checkpoints,
    read_separations,
    sieve_range,
    write_separations,
)
from .spectrum import (
    S0Convention,
    accumulate,
    read_spectrum_csv,
    s0_from_counts,
    write_spectrum_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

CONVENTIONS = {
    "raw": S0Convention.RAW,
    "paper": S0Convention.PAPER_OFFSET,
    "exact": S0Convention.INTERVAL_EXACT,
}


def _env(name, default):
    return os.environ.get(f"TWINSEP_{name}", default)


def _convention_name(text):
    """A --convention name.  argparse converts a TWINSEP_CONVENTION default with the type, but
    does not hold it to the choices, so the type checks it."""
    if text not in CONVENTIONS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(sorted(CONVENTIONS))})"
        )
    return text


def _add_convention(p):
    p.add_argument("--convention", type=_convention_name, choices=sorted(CONVENTIONS),
                   default=_env("CONVENTION", "raw"))


def _parse_checkpoints(text, limit):
    geometric = text.startswith("geometric")
    try:
        if geometric:
            _, _, arg = text.partition(":")
            per_decade = int(arg) if arg else 20
        else:
            grid = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"bad checkpoint spec {text!r}") from exc
    return geometric_checkpoints(limit, per_decade=per_decade) if geometric else grid


def risk_factor_or_zero(value) -> float:
    """--f of simulate and gof: 0 selects the no-cutoff model, else a risk factor > 0."""
    return 0.0 if float(value) == 0.0 else risk_factor(value)


def _solve_from_flags(s0, f, pi2):
    if f > 0:
        if pi2 is None:
            raise ValidationError("--pi2 is required when f > 0")
        return cutoff_law(s0, pi2, f)
    return solve_f0(s0)


def _exact_spectra(args, conv, table):
    """Per-checkpoint spectra of --separations under the exact convention, which needs them."""
    if conv is not S0Convention.INTERVAL_EXACT:
        return {}
    if not args.separations:
        raise ValidationError("--separations is required for the exact convention")
    return per_checkpoint_spectra(read_separations(args.separations), table)


def cmd_sieve(args):
    grid = _parse_checkpoints(args.checkpoints, args.limit)
    config = SieveConfig(
        limit=args.limit, segment_size=args.segment_size, checkpoint_grid=grid
    )
    report = sieve_range(config)
    table = table_from_report(report)
    table.metadata["generator"] = "twinsep-sieve"
    table.metadata["segment_size"] = str(args.segment_size)
    write_counts(args.out, table)
    write_separations(args.separations, report.separations)
    if args.onsets:
        write_csv(args.onsets, report.metadata, ["separation", "n"], report.max_separation_onsets)
    if args.stats:
        manifest = {
            "limit": args.limit,
            "segment_size": args.segment_size,
            "python": platform.python_version(),
            "numpy": np.__version__,
            **report.stats,
        }
        with open(args.stats, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    rec = report.counts[-1]
    print(
        f"sieved to {args.limit}: pi1={rec.pi1} pi2={rec.pi2} "
        f"separations={report.separations.size} checkpoints={len(report.counts)}"
    )
    return EXIT_OK


def cmd_spectrum(args):
    seps = read_separations(args.separations)
    spec = accumulate(seps)
    write_spectrum_csv(
        args.out, spec, metadata={"source": args.separations, "intervals": str(spec.total_intervals)}
    )
    print(f"{spec.total_intervals} intervals, max separation {spec.max_separation()}")
    return EXIT_OK


def cmd_s0(args):
    conv = CONVENTIONS[args.convention]
    table = ingest_counts(args.counts)
    spectra = _exact_spectra(args, conv, table)
    rows = []
    skipped = 0
    for rec in table.rows:
        try:
            est = s0_from_counts(rec, conv, spectrum=spectra.get(rec.n))
        except ValidationError:
            skipped += 1
            continue
        rows.append((rec.n, rec.pi1, est.value))
    lines = format_metadata({"s0_convention": conv.value, "log_base": "natural"})
    lines.append("n,pi1,s0")
    lines.extend(f"{n},{pi1},{v!r}" for n, pi1, v in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if skipped:
        print(f"skipped {skipped} rows with too few twins", file=sys.stderr)
    return EXIT_OK


# fit kind -> (fitter, value column beside pi1)
FITS = {"m0": (fit_m0, "m"), "s0lin": (fit_s0_linear, "s0"), "s0loglog": (fit_s0_loglog, "s0")}


def cmd_fit(args):
    if args.kind == "slope":
        fitter, data = fit_exp_slope, read_spectrum_csv(args.infile)[0]
    else:
        fitter, value = FITS[args.kind]
        data = read_columns(args.infile, ("pi1", value), float)[1]
    try:
        fit = fitter(data)
    except ValidationError as exc:
        raise ValidationError(f"{args.infile}: {exc}") from None
    payload = {
        "model_id": fit.model_id,
        "coefficients": list(fit.coefficients),
        "std_errors": list(fit.std_errors),
        "residual_rms": fit.residual_rms,
        "n_points": fit.n_points,
        "warnings": list(fit.warnings),
        "sensitivity_deltas": (
            list(fit.sensitivity_deltas) if fit.sensitivity_deltas is not None else None
        ),
        "metadata": {"log_base": "natural"},
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    coeffs = ", ".join(f"{c:.6g}" for c in fit.coefficients)
    print(f"{fit.model_id}: [{coeffs}] over {fit.n_points} points")
    return EXIT_OK


def cmd_predict(args):
    conv = CONVENTIONS[args.convention]
    table = ingest_counts(args.counts)
    spectra = _exact_spectra(args, conv, table)
    rows = []
    for rec in table.rows:
        try:
            s0 = s0_from_counts(rec, conv, spectrum=spectra.get(rec.n)).value
            params = cutoff_law(s0, rec.pi2, args.f)
        except ValidationError:
            continue
        rows.append(
            [
                rec.n,
                repr(math.log(rec.n)),
                repr(s0),
                repr(params.sbar),
                repr(params.a),
                repr(params.l_cut),
                params.l_ceil,
            ]
        )
    write_csv(
        args.out,
        {"risk_factor": repr(args.f), "s0_convention": conv.value, "log_base": "natural"},
        ["n", "log_n", "s0", "sbar", "a", "l_cut", "l_ceil"],
        rows,
    )
    skipped = len(table.rows) - len(rows)
    if skipped:
        print(f"skipped {skipped} rows outside the solvable regime", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args):
    params = _solve_from_flags(args.s0, args.f, args.pi2)
    draws = sample_separations(SimConfig(params=params, n_events=args.n, seed=args.seed))
    spec = accumulate(draws)
    write_spectrum_csv(
        args.out,
        spec,
        metadata={
            "generator": GENERATOR,
            "seed": str(args.seed),
            "n_events": str(args.n),
            "s0": repr(args.s0),
            "risk_factor": repr(args.f),
            "pi2": "" if args.pi2 is None else str(args.pi2),
        },
    )
    print(f"{args.n} draws, sample mean {draws.mean():.4f}")
    return EXIT_OK


def cmd_gof(args):
    spec, _ = read_spectrum_csv(args.spectrum)
    params = _solve_from_flags(args.s0, args.f, args.pi2)
    report = gof_compare(spec, params, alpha=args.alpha)
    print(
        f"chi2={report.chi2:.4f} dof={report.dof} critical={report.chi2_critical:.4f} "
        f"ks={report.ks_distance:.5f} pass={report.passed}"
    )
    print(f"note: {report.note}")
    return EXIT_OK


def cmd_figures(args):
    conv = CONVENTIONS[args.convention]
    table = ingest_counts(args.counts)
    spectra = None
    if args.separations:
        spectra = per_checkpoint_spectra(read_separations(args.separations), table)
    onsets = None
    if args.onsets:
        _, onsets = read_columns(args.onsets, ("separation", "n"), int)
        try:
            check_onsets(onsets)  # figure_pipeline checks again, but cannot name the file
        except ValidationError as exc:
            raise ValidationError(f"{args.onsets}: {exc}") from exc
    figures = figure_pipeline(table, spectra=spectra, f=args.f, convention=conv, onsets=onsets)
    for path in figures.write(args.out_dir):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_report(args):
    """Sieve, then print the laws of one figure_pipeline call and a per-checkpoint table.

    A law that could not be fitted prints n/a; a decade whose spectrum
    gof_compare rejects gets a blank ks.  A checkpoint is also listed when
    its running maximum passes overshoot_bound; "over" is (max - L)/sbar.
    """
    grid = geometric_checkpoints(args.limit, per_decade=args.per_decade, start=args.start)
    report = sieve_range(SieveConfig(limit=args.limit, checkpoint_grid=grid))
    stats, table = report.stats, table_from_report(report)
    final = table.rows[-1]
    spectra = per_checkpoint_spectra(report.separations, table)
    # each row's s0 and law, before any output, so that a table no law solves for fails first
    laws = {}
    for rec in table.rows:
        try:
            s0 = s0_from_counts(rec).value
            laws[rec.n] = s0, cutoff_law(s0, rec.pi2, args.f)
        except ValidationError as exc:
            raise ValidationError(f"checkpoint n={rec.n}: {exc}") from exc
    maxes = {n: spec.max_separation() for n, spec in spectra.items()}
    print(
        f"sieve to {args.limit:.3g}: {stats['wall_s']:.1f}s  pi1={final.pi1} pi2={final.pi2}  "
        f"({stats['kernel']} kernel, {stats['workers']} workers, {stats['chunks']} chunks, "
        f"{stats['segments_per_s']:.0f} segments/s)"
    )
    print(f"separations: {report.separations.size}, max {maxes[final.n]}")

    t0 = time.monotonic()
    figs = figure_pipeline(table, spectra=spectra, f=args.f, onsets=report.max_separation_onsets)
    m0, lin = figs.m0_fit, figs.s0_fit
    print(
        f"m0 law: m0 = {m0.coefficients[0]:.4f} +- {m0.std_errors[0]:.4f} "
        f"({m0.n_points} checkpoints, {time.monotonic() - t0:.1f}s)"
        if m0 else "m0 law: n/a"
    )
    print(
        f"s0 linear: slope {lin.coefficients[1]:.4f} +- {lin.std_errors[1]:.4f}, "
        f"intercept {lin.coefficients[0]:.4f} +- {lin.std_errors[0]:.4f}"
        if lin else "s0 linear: n/a"
    )
    try:
        loglog = fit_s0_loglog([(row["pi1"], row["s0"]) for row in figs.fig2])
    except ValidationError:
        print("s0 three-term: n/a")
    else:
        c, d = loglog.coefficients, loglog.sensitivity_deltas
        print(
            f"s0 three-term: intercept {c[0]:.3f}, linear {c[1]:.4f}, loglog {c[2]:.3f}"
            + (f", upper-half deltas {d[0]:.3f}, {d[1]:.4f}, {d[2]:.3f}" if d else "")
        )

    print(f"{'n':>12} {'s0':>8} {'l_cut':>8} {'obs_max':>8} {'over':>6} {'exceed':>7} {'ks':>8}")
    decades = {10**k for k in range(3, 14)}
    for rec in table.rows:
        s0, law = laws[rec.n]
        flag = "" if maxes[rec.n] <= overshoot_bound(law) else "  > overshoot bound"
        if rec.n not in decades and not flag:
            continue
        ks = ""
        if rec.n in decades:
            try:
                ks = f"{gof_compare(spectra[rec.n], solve_f0(s0)).ks_distance:.5f}"
            except ValidationError:
                pass
        over = (maxes[rec.n] - law.l_cut) / law.sbar
        print(
            f"{rec.n:>12} {s0:>8.3f} {law.l_cut:>8.2f} {maxes[rec.n]:>8} {over:>6.2f} "
            f"{spectra[rec.n].count_above(law.l_cut):>7} {ks:>8}{flag}"
        )

    if args.out_dir:
        for path in figs.write(args.out_dir):
            print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twinsep",
        description="Twin-prime separation statistics: sieve, model, fits, predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="sieve primes/twins and stream separations")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument(
        "--segment-size", type=int, default=_env("SEGMENT_SIZE", DEFAULT_SEGMENT_FLAGS)
    )
    p.add_argument("--checkpoints", default=_env("CHECKPOINTS", "geometric:20"))
    p.add_argument("--out", required=True, help="counts CSV")
    p.add_argument("--separations", required=True, help="binary separation stream")
    p.add_argument("--onsets", help="optional CSV of record-separation onsets")
    p.add_argument("--stats", help="optional JSON manifest of the run (workers, timing, peak RSS)")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("spectrum", help="histogram a separation stream")
    p.add_argument("--separations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("s0", help="average separation per checkpoint")
    p.add_argument("--counts", required=True)
    _add_convention(p)
    p.add_argument("--separations", help="separation stream (required for --convention exact)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_s0)

    p = sub.add_parser("fit", help="least-squares fits")
    p.add_argument("--kind", choices=["slope", *FITS], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="maximal-separation cutoff per checkpoint")
    p.add_argument("--counts", required=True)
    p.add_argument("--separations", help="separation stream (required for --convention exact)")
    p.add_argument("--f", type=risk_factor, default=_env("F", "1.0"))
    _add_convention(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="sample synthetic separations")
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--pi2", type=int)
    p.add_argument("--f", type=risk_factor_or_zero, default=_env("F", "0.0"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gof", help="goodness of fit of a spectrum against the model")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--f", type=risk_factor_or_zero, default=_env("F", "0.0"))
    p.add_argument("--pi2", type=int)
    p.add_argument("--alpha", type=float, default=_env("ALPHA", "0.01"))
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("figures", help="emit the three plot datasets")
    p.add_argument("--counts", required=True)
    p.add_argument("--separations")
    p.add_argument("--onsets")
    p.add_argument("--f", type=risk_factor, default=_env("F", "1.0"))
    _add_convention(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("report", help="sieve and print the fitted laws and cutoff checks")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--start", type=int, default=100000, help="first checkpoint")
    p.add_argument("--per-decade", type=int, default=20)
    p.add_argument("--f", type=risk_factor, default=_env("F", "1.0"))
    p.add_argument("--out-dir", help="also write the three figure datasets here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a reader who left early shows up here
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): not an error; send what is
        # still buffered to devnull so the interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
