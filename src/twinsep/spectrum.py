"""Separation histograms and the average-separation estimate.

A spectrum holds its occupied separations and their counts as read-only
arrays; the totals, the maximum and the count beyond a cutoff are read off
them.  Every spectrum is one row of a cumulative table from one running
fold, `_running_spectra`: `accumulate` is the fold with one stop, and
`pipeline.per_checkpoint_spectra` the fold with one stop per checkpoint.
Its one batch loop, `_fold`, takes a counter.  The kernel's reads the stream
once, in pieces, each counted by one call of the compiled histogram into the
row of every slice it overlaps, and also gives the greatest value.  A stream
with a value outside that table is folded again by numpy's counter, one
searchsorted and one bincount a batch over the stream's distinct values.
Three s0 conventions are kept first-class because published count tables
and interval-exact bookkeeping disagree by small offsets.
"""

from __future__ import annotations

import functools
import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import sieve
from .errors import ValidationError
from .ioutil import read_csv, write_csv
from .sieve import CountRecord


BLOCK_VALUES = 1 << 16  # values per piece a worker of the compiled histogram claims
# slices counted at once by _running_spectra: a worker's table is then at most 256 rows of
# the kernel's 1024 int64s (2 MB), cut to the greatest value + 1 before the tables are summed
ROWS_AT_ONCE = 256


class S0Convention(str, Enum):
    RAW = "raw"                        # (pi1 - 2*pi2) / pi2
    PAPER_OFFSET = "paper_offset"      # (pi1 - 2*pi2 + 2) / (pi2 - 2)
    INTERVAL_EXACT = "interval_exact"  # singletons inside intervals / intervals

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"convention must be raw, paper_offset or interval_exact: {value!r}")


@dataclass(frozen=True)
class S0Estimate:
    """Average number of singleton primes per twin interval."""

    value: float
    convention: S0Convention

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise ValidationError(f"s0 must be finite and >= 0, got {self.value}")


class SeparationSpectrum:
    """Histogram of separations: the occupied ones in ascending order and how often each
    occurs, as read-only arrays, whose totals are exact Python ints.  SeparationSpectrum(bins)
    takes a dict separation -> count, and `bins` gives one back in ascending order; a bin with
    a count of 0 is dropped, since an empty bin is not a separation."""

    __slots__ = ("separations", "counts")

    def __init__(self, bins: dict[int, int] | None = None):
        pairs = sorted((bins or {}).items())
        if pairs and not (0 <= pairs[0][0] and pairs[-1][0] < 2**64
                          and all(0 <= c < 2**63 for _, c in pairs)):
            raise ValidationError("bins must have keys in [0, 2**64) and counts in [0, 2**63)")
        seps, counts = [s for s, c in pairs if c], [c for _, c in pairs if c]
        dtype = np.uint64 if seps and seps[-1] >= 2**63 else np.int64
        self.separations, self.counts = np.array(seps, dtype), np.array(counts, np.int64)
        self.separations.flags.writeable = self.counts.flags.writeable = False

    @classmethod
    def _rows(cls, table, columns) -> list[SeparationSpectrum]:
        """The spectrum of each row of a table of counts, a column per value in `columns`."""
        occupied = np.flatnonzero(table)  # the nonzero bins, row after row
        seps, counts = columns[occupied % columns.size], table.ravel()[occupied]
        seps.flags.writeable = counts.flags.writeable = False  # each row holds a slice of them
        ends = np.searchsorted(occupied, columns.size * np.arange(1, len(table) + 1)).tolist()
        spectra = [cls.__new__(cls) for _ in ends]
        for spec, lo, hi in zip(spectra, [0, *ends], ends):
            spec.separations, spec.counts = seps[lo:hi], counts[lo:hi]
        return spectra

    @property
    def bins(self) -> dict[int, int]:
        return dict(zip(self.separations.tolist(), self.counts.tolist()))

    @property
    def total_intervals(self) -> int:
        return sum(self.counts.tolist())

    @property
    def total_singletons(self) -> int:
        return sum(map(operator.mul, self.separations.tolist(), self.counts.tolist()))

    def __eq__(self, other):
        return isinstance(other, SeparationSpectrum) and self.bins == other.bins

    def max_separation(self) -> int | None:
        return int(self.separations[-1]) if self.separations.size else None

    def count_above(self, x: float) -> int:
        """How many separations exceed x."""
        if not (self.separations.size and x < int(self.separations[-1])):  # nan is never below
            return 0
        # a Python int threshold, so that the comparison is exact at any size
        return int(self.counts[self.separations > math.floor(max(x, -1))].sum())


def accumulate(separations) -> SeparationSpectrum:
    """Histogram a separation sequence: `_running_spectra` with one stop, the stream's end.

    The stream may be any integer type (int64, uint64 and uint32 are counted as they are,
    every other type cast to int64), or real floats that hold finite integers below 2**63;
    any other dtype (bool, complex, str, object, datetime, timedelta) is a ValidationError.
    Raises KernelError when the compiled kernel cannot be built, unless the stream is empty.
    """
    arr = np.asarray(separations)
    return _running_spectra(arr, [arr.size])[0]


def _running_spectra(arr, stops) -> list[SeparationSpectrum]:
    """[the spectrum of arr[:stop] for each stop], stops non-decreasing and at most arr.size.

    The one counting path: `_fold` with the kernel's counter, `_count_rows`, over the columns
    0 to histogram_cap - 1.  Once the kernel meets a value outside that table (or a negative
    int64), the fold starts again from the first slice with numpy's counter, `_count_values`,
    over the stream's distinct values: one np.unique of the whole stream gives them and the
    last spectrum, so that fold counts only the slices before the last stop.  Either way every
    spectrum of a fold is a row of one table.  The kernel is not loaded when nothing is counted.
    """
    if not (stops and stops[-1]):
        return [SeparationSpectrum() for _ in stops]
    arr = sieve._checked_stream(arr.reshape(-1)[: stops[-1]])
    kernel = sieve._load_kernel()
    spectra = _fold(arr, stops, functools.partial(_count_rows, kernel),
                    np.arange(kernel.histogram_cap), ROWS_AT_ONCE)
    if spectra is not None:
        return spectra
    if arr.dtype == np.int64 and arr.min() < 0:
        raise ValidationError("separations must be >= 0")
    columns, total = np.unique(arr, return_counts=True)
    rows = max(1, ROWS_AT_ONCE * kernel.histogram_cap // columns.size)
    return (_fold(arr, stops[:-1], functools.partial(_count_values, columns), columns, rows)
            + SeparationSpectrum._rows(total[None], columns))


def _fold(arr, stops, count, columns, rows) -> list[SeparationSpectrum] | None:
    """[the spectrum of arr[:stop] for each stop], or None as soon as count gives None.

    count(arr, start, ends, width) tables the slices arr[start:ends[0]], arr[ends[0]:ends[1]],
    ... `rows` at a time, a row each, over at least width leading `columns`.  Each row is added
    to the one before, and the first to the row carried from the batch before, so each stop's
    spectrum is its row of one cumulative table.
    """
    spectra, running = [], np.zeros(0, dtype=np.int64)
    for b in range(0, len(stops), rows):
        table = count(arr, stops[b - 1] if b else 0, stops[b : b + rows], running.size)
        if table is None:
            return None
        np.cumsum(table, axis=0, out=table)
        table[:, : running.size] += running
        running = table[-1]
        spectra += SeparationSpectrum._rows(table, columns[: running.size])
    return spectra


def _count_values(columns, arr, start, ends, width):
    """`_count_rows` by numpy over `columns`, the stream's values in ascending order: every
    table is columns.size wide, from one searchsorted and one bincount."""
    cells = np.searchsorted(columns, arr[start : ends[-1]])
    cells += np.repeat(np.arange(len(ends)) * columns.size, np.diff([start, *ends]))
    return np.bincount(cells, minlength=len(ends) * columns.size).reshape(len(ends), -1)


def _count_rows(kernel, arr, start, ends, width):
    """A len(ends) x max(width, top) table, where row r counts the values arr[ends[r - 1]:ends[r]]
    (arr[start:ends[0]] for row 0) and top is their greatest value + 1; None once a value lies
    outside the kernel's table of histogram_cap entries (a negative int64 among them), and
    `_running_spectra` then folds the stream again with `_count_values`.

    arr is a contiguous int64, uint64 or uint32 stream.  Workers (`sieve._on_workers`), one per
    two pieces' worth of values (more would pass the GIL to and fro), claim pieces of
    BLOCK_VALUES values of arr[start:ends[-1]] in turn, and count each with one kernel call
    into every row it overlaps of a full-width table of their own.  A worker whose piece lies
    outside the table drops the pieces left, so the others stop at their next claim; the rows
    that call counted before it met the value are harmless, as the batch is then discarded.
    The tables, cut to the width, are summed, so the count does not depend on the CPU count.
    """
    stop, ends = ends[-1], np.array(ends, dtype=np.int64)
    workers = sieve._worker_count((stop - start) // (2 * BLOCK_VALUES))
    size, at_arr, at_ends = arr.itemsize, arr.ctypes.data, ends.ctypes.data

    def count(pieces):  # (a table of this worker's own, its greatest top), or None
        table = np.zeros((ends.size, kernel.histogram_cap), dtype=np.int64)
        top = 0
        for lo in pieces:
            got = kernel.twinsep_histogram(at_arr, lo, min(lo + BLOCK_VALUES, stop), size,
                                           at_ends, table.ctypes.data)
            if got < 0:
                for _ in pieces:  # drop the pieces left
                    pass
                return None
            top = max(top, got)
        return table, top

    counted = sieve._on_workers(count, iter(range(start, stop, BLOCK_VALUES)), workers)
    if None in counted:
        return None
    width = max(width, *(top for _, top in counted))
    return sum(table[:, :width] for table, _ in counted)


def s0_from_counts(
    record: CountRecord,
    convention: S0Convention | str = S0Convention.RAW,
    spectrum: SeparationSpectrum | None = None,
) -> S0Estimate:
    """Average separation under the chosen convention.

    raw:            (pi1 - 2*pi2) / pi2
    paper_offset:   (pi1 - 2*pi2 + 2) / (pi2 - 2), discounting the primes
                    2 and 3 and the two leading twins
    interval_exact: total_singletons / total_intervals from a spectrum
    """
    conv = S0Convention(convention)
    if conv is S0Convention.INTERVAL_EXACT:
        if spectrum is None:
            raise ValidationError("interval_exact convention requires a spectrum")
        if spectrum.total_intervals <= 0:
            raise ValidationError("insufficient twins: no separation intervals")
        return S0Estimate(spectrum.total_singletons / spectrum.total_intervals, conv)

    if conv is S0Convention.RAW:
        num = record.pi1 - 2 * record.pi2
        den = record.pi2
    else:
        num = record.pi1 - 2 * record.pi2 + 2
        den = record.pi2 - 2
    if den <= 0:
        raise ValidationError(
            f"insufficient twins for {conv.value} convention: pi2={record.pi2}"
        )
    if num < 0:
        raise ValidationError(
            f"inconsistent counts: pi1={record.pi1}, pi2={record.pi2} give negative s0"
        )
    return S0Estimate(num / den, conv)


def write_spectrum_csv(path, spectrum: SeparationSpectrum, metadata=None) -> None:
    """CSV with columns s,count sorted ascending, plus metadata comments."""
    write_csv(path, metadata or {}, ["s", "count"], spectrum.bins.items())


def read_spectrum_csv(path) -> tuple[SeparationSpectrum, dict[str, str]]:
    """The spectrum and metadata of a CSV from write_spectrum_csv; errors name the file and line."""
    meta, numbers, columns = read_csv(path, ("s", "count"))
    with suppress(ValueError, OverflowError):  # a cell int() rejects, or a value beyond int64
        seps, counts = (np.array(columns[c], dtype=np.int64) for c in ("s", "count"))
        order = np.argsort(seps)
        if min(seps.min(initial=0), counts.min(initial=0)) >= 0 and np.diff(seps[order]).all():
            return SeparationSpectrum._rows(counts[order][None], seps[order])[0], meta
    bins: dict[int, int] = {}
    for i, lineno in enumerate(numbers):  # a file the columns fail, row by row to its first fault
        try:
            s, c = int(columns["s"][i]), int(columns["count"][i])
        except ValueError as exc:
            row = {name: cells[i] for name, cells in columns.items()}
            raise ValidationError(f"{path}:{lineno}: unparseable row {row!r}") from exc
        if s < 0 or c < 0:
            row = {name: cells[i] for name, cells in columns.items()}
            raise ValidationError(f"{path}:{lineno}: negative separation or count {row!r}")
        if max(s, c) >= 2**63:
            raise ValidationError(f"{path}:{lineno}: separation or count is 2**63 or more")
        if s in bins:
            raise ValidationError(f"{path}:{lineno}: duplicate separation {s}")
        bins[s] = c
    return SeparationSpectrum(bins), meta
