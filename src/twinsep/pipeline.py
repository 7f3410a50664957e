"""Count-table ingestion, per-checkpoint views and plot-ready dataset assembly.

A CountTable is the bridge between sieved runs and externally published
count tables: rows of (n, pi1, pi2[, pi1_adjusted]) sorted by n.  Each
checkpoint's spectrum is a row of one cumulative table over the separation
stream (spectrum._running_spectra, the one fold); the running maximum and
the count beyond the cutoff are array reads of that spectrum.
The figure pipeline turns a table (plus, optionally, those spectra) into
three CSV-ready datasets: slopes against log(pi1), the average separation
against log(pi1), and the predicted maximal separation against log(n)
alongside observed record onsets.  It derives each checkpoint's slope, s0
and cutoff law (model.cutoff_law, as every view here) once, in one pass
over the rows, then fits the m0 and linear s0 laws over what that pass
found; the interval_exact convention needs the spectra.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import spectrum
from .errors import ValidationError
from .fit import FitResult, fit_exp_slope, fit_m0, fit_s0_linear
from .ioutil import read_csv, write_csv
from .model import DEFAULT_RISK_FACTOR, cutoff_law, risk_factor, solve_checkpoint
from .sieve import CountRecord, SieveReport
from .spectrum import S0Convention, SeparationSpectrum, s0_from_counts

FIG1_COLUMNS = ["n", "pi1", "log_pi1", "inv_s0", "slope_m", "slope_se", "m0_curve"]
FIG2_COLUMNS = ["n", "pi1", "log_pi1", "s0", "s0_fit"]
FIG3_COLUMNS = ["series", "n", "log_n", "value", "l_ceil"]


@dataclass
class CountTable:
    rows: list[CountRecord]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValidationError("rows must be sorted by n with no duplicates")


def table_from_report(report: SieveReport) -> CountTable:
    return CountTable(rows=list(report.counts), metadata=dict(report.metadata))


def ingest_counts(path) -> CountTable:
    """Parse a counts CSV, rejecting malformed or non-monotone rows by line number."""
    required = ("n", "pi1", "pi2")
    metadata, numbers, cells = read_csv(path, required)
    if not numbers:
        raise ValidationError(f"{path}: no data rows")
    rows: list[CountRecord] = []
    seen: dict[int, int] = {}
    prev: CountRecord | None = None
    adjusted = cells.get("pi1_adjusted", [""] * len(numbers))
    for i, lineno in enumerate(numbers):
        try:
            n, pi1, pi2 = (int(cells[c][i]) for c in required)
            adj = int(adjusted[i]) if adjusted[i].strip() else None
        except ValueError as exc:
            fields = {name: column[i] for name, column in cells.items()}
            raise ValidationError(f"{path}:{lineno}: unparseable row {fields!r}") from exc
        if n in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate n={n} (first seen on line {seen[n]})"
            )
        seen[n] = lineno
        try:
            rec = CountRecord(n=n, pi1=pi1, pi2=pi2, pi1_adjusted=adj)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if prev is not None and (n < prev.n or pi1 < prev.pi1 or pi2 < prev.pi2):
            raise ValidationError(
                f"{path}:{lineno}: monotonicity violation at n={n} "
                f"(previous row had n={prev.n}, pi1={prev.pi1}, pi2={prev.pi2})"
            )
        rows.append(rec)
        prev = rec
    return CountTable(rows=rows, metadata=metadata)


def write_counts(path, table: CountTable) -> None:
    write_csv(
        path,
        table.metadata,
        ["n", "pi1", "pi2", "pi1_adjusted"],
        ([r.n, r.pi1, r.pi2, r.pi1_adjusted] for r in table.rows),
    )


def _closed_intervals(size, table: CountTable):
    """Yield (record, k) per checkpoint: the first k separations of a stream of size values
    have closed by then.

    By the time pi2 twins have appeared, exactly k = pi2 - 2 separation
    intervals have closed (the pair (3 5) is discarded and the last
    interval is still open), so each checkpoint sees a prefix of the
    stream, and the prefixes grow with n.
    """
    done = 0
    for rec in table.rows:
        k = max(0, rec.pi2 - 2)
        if k > size:
            raise ValidationError(
                f"separation stream too short for checkpoint n={rec.n}: "
                f"needs {k}, have {size}"
            )
        if k < done:
            raise ValidationError(f"pi2 decreases at checkpoint n={rec.n}")
        yield rec, k
        done = k


def per_checkpoint_spectra(separations, table: CountTable) -> dict[int, SeparationSpectrum]:
    """Spectrum of the separations completed by each checkpoint.

    The stream is counted once, slice by slice between checkpoints, into the
    rows of `spectrum._running_spectra`'s cumulative table, and every other
    per-checkpoint view is read from these spectra.
    """
    arr = np.asarray(separations)
    closed = list(_closed_intervals(arr.size, table))
    spectra = spectrum._running_spectra(arr, [k for _, k in closed])
    return {rec.n: spec for (rec, _), spec in zip(closed, spectra)}


def max_separation_by_checkpoint(separations, table: CountTable) -> dict[int, int | None]:
    """Running-maximum separation seen by each checkpoint (None before data)."""
    spectra = per_checkpoint_spectra(separations, table)
    return {n: spec.max_separation() for n, spec in spectra.items()}


def count_cutoff_exceedances(
    separations,
    table: CountTable,
    f: float = DEFAULT_RISK_FACTOR,
    convention: S0Convention | str = S0Convention.RAW,
) -> dict[int, int]:
    """Per checkpoint, how many completed separations exceed that checkpoint's cutoff.

    The cutoff is solved from the checkpoint's counts, or under interval_exact
    from its spectrum.
    """
    f, conv = risk_factor(f), S0Convention(convention)
    spectra = per_checkpoint_spectra(separations, table)
    out: dict[int, int] = {}
    for rec in table.rows:
        try:
            law = solve_checkpoint(rec, f, conv, spectrum=spectra[rec.n])
        except ValidationError as exc:
            raise ValidationError(f"checkpoint n={rec.n}: {exc}") from exc
        out[rec.n] = spectra[rec.n].count_above(law.l_cut)
    return out


@dataclass
class FigureSet:
    fig1: list[dict]
    fig2: list[dict]
    fig3: list[dict]
    metadata: dict[str, str]
    # the decay law behind fig1's m0_curve and the linear law behind fig2's s0_fit
    m0_fit: FitResult | None = None
    s0_fit: FitResult | None = None

    def write(self, out_dir) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        written = []
        for name, columns, rows in (
            ("fig1.csv", FIG1_COLUMNS, self.fig1),
            ("fig2.csv", FIG2_COLUMNS, self.fig2),
            ("fig3.csv", FIG3_COLUMNS, self.fig3),
        ):
            path = os.path.join(out_dir, name)
            write_csv(path, self.metadata, columns, ([row[c] for c in columns] for row in rows))
            written.append(path)
        return written


def check_onsets(onsets) -> None:
    """Reject an onset that fig3 cannot place: it needs n >= 1 and separation >= 0."""
    for sep, n in onsets:
        if n < 1 or sep < 0:
            raise ValidationError(
                f"onset needs n >= 1 and separation >= 0, got separation={sep}, n={n}"
            )


def figure_pipeline(
    table: CountTable,
    spectra: dict[int, SeparationSpectrum] | None = None,
    f: float = DEFAULT_RISK_FACTOR,
    convention: S0Convention | str = S0Convention.RAW,
    onsets: list[tuple[int, int]] | None = None,
) -> FigureSet:
    """Assemble the three plot datasets from a count table.

    spectra (keyed by checkpoint n) feed the computed-slope series of the
    first dataset and are required under interval_exact; onsets,
    (separation >= 0, n >= 1) pairs, feed the observed-record series of the
    third.  Each row's slope, s0 and cutoff law are derived once; a row whose
    counts cannot support one of them is left out of the datasets that need
    it rather than failing the whole export.
    """
    conv = S0Convention(convention)
    f = risk_factor(f)  # checked here: fig3 skips rows that fail, which would hide a bad f
    if spectra is None and conv is S0Convention.INTERVAL_EXACT:
        raise ValidationError("interval_exact convention requires spectra")
    check_onsets(onsets or [])
    spectra = spectra or {}

    slope_by_n: dict[int, tuple[float, float]] = {}
    s0_by_n: dict[int, float] = {}
    fig3 = []
    for rec in table.rows:
        spec = spectra.get(rec.n)
        if spec is not None:
            with suppress(ValidationError):
                fit = fit_exp_slope(spec)
                slope_by_n[rec.n] = (-fit.coefficients[1], fit.std_errors[1])
        try:
            s0 = s0_by_n[rec.n] = s0_from_counts(rec, conv, spectrum=spec).value
            law = cutoff_law(s0, rec.pi2, f)
        except ValidationError:
            continue
        row = ("predicted", rec.n, math.log(rec.n), law.l_cut, law.l_ceil)
        fig3.append(dict(zip(FIG3_COLUMNS, row)))
    fig3 += [dict(zip(FIG3_COLUMNS, ("onset", n, math.log(n), sep, ""))) for sep, n in onsets or []]

    m0_points = [
        (rec.pi1, slope_by_n[rec.n][0])
        for rec in table.rows
        if rec.n in slope_by_n and rec.pi1 >= 3
    ]
    m0_fit = fit_m0(m0_points) if m0_points else None
    s0_points = [(rec.pi1, s0_by_n[rec.n]) for rec in table.rows if rec.n in s0_by_n]
    s0_fit = fit_s0_linear(s0_points) if len({p for p, _ in s0_points}) >= 2 else None
    fig1, fig2 = [], []
    for rec in table.rows:
        s0 = s0_by_n.get(rec.n)
        if s0 is None or rec.pi1 < 1:
            continue
        x = math.log(rec.pi1)
        line = s0_fit.coefficients[0] + s0_fit.coefficients[1] * x if s0_fit else ""
        fig2.append(dict(zip(FIG2_COLUMNS, (rec.n, rec.pi1, x, s0, line))))
        if s0 > 0 and rec.pi1 >= 2:
            m, se = slope_by_n.get(rec.n, ("", ""))
            curve = m0_fit.coefficients[0] / x if m0_fit else ""
            fig1.append(dict(zip(FIG1_COLUMNS, (rec.n, rec.pi1, x, 1.0 / s0, m, se, curve))))

    metadata = dict(table.metadata)
    metadata.update({"log_base": "natural", "s0_convention": conv.value, "risk_factor": repr(f)})
    return FigureSet(fig1, fig2, fig3, metadata, m0_fit=m0_fit, s0_fit=s0_fit)
