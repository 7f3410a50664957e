"""Separation histograms and the average-separation estimate.

Spectra are value objects holding only their bins, and the
totals, the maximum and the count beyond a cutoff are read off the bins.
Every spectrum is counted on one path, `_running_spectra`, a running fold
over the slices of a stream between stops: `accumulate` is the fold with
one stop, and `pipeline.per_checkpoint_spectra` the fold with one stop
per checkpoint.  Three s0 conventions are kept first-class because
published count tables and interval-exact bookkeeping disagree by small
offsets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import sieve
from .errors import ValidationError
from .ioutil import read_csv, write_csv
from .sieve import CountRecord


BINCOUNT_BLOCK = 1 << 16  # elements per np.bincount call on values that need a cast to intp
BLOCK_VALUES = 1 << 16  # values per piece a worker of the compiled histogram claims
# slices counted at once by _running_spectra: a worker's table is then at most 256 x 1024
# int64s (2 MB)
ROWS_AT_ONCE = 256


class S0Convention(str, Enum):
    RAW = "raw"                        # (pi1 - 2*pi2) / pi2
    PAPER_OFFSET = "paper_offset"      # (pi1 - 2*pi2 + 2) / (pi2 - 2)
    INTERVAL_EXACT = "interval_exact"  # singletons inside intervals / intervals


@dataclass(frozen=True)
class S0Estimate:
    """Average number of singleton primes per twin interval."""

    value: float
    convention: S0Convention

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise ValidationError(f"s0 must be finite and >= 0, got {self.value}")


@dataclass
class SeparationSpectrum:
    """Histogram of separations: bins maps separation -> occurrence count.

    A bin with a count of 0 is dropped: an empty bin is not a separation.
    The totals are read off the bins once, as Python ints: the number of
    intervals and the number of singletons inside them.
    """

    bins: dict[int, int] = field(default_factory=dict)
    total_intervals: int = field(init=False)
    total_singletons: int = field(init=False)

    def __post_init__(self):
        bins = self.bins
        if bins:
            least = min(bins.values())
            if min(bins) < 0 or least < 0:
                raise ValidationError("bins must have non-negative keys and counts")
            if least == 0:
                self.bins = bins = {s: c for s, c in bins.items() if c}
        self.total_intervals = sum(bins.values())
        self.total_singletons = sum(map(operator.mul, bins, bins.values()))

    def max_separation(self) -> int | None:
        return max(self.bins) if self.bins else None

    def count_above(self, x: float) -> int:
        """How many separations exceed x."""
        return sum(c for s, c in self.bins.items() if s > x)


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

    The one counting path.  The slices between stops are cut into pieces of BLOCK_VALUES
    values, and `_count_pieces` counts them into one row of the compiled histogram's table
    per slice, at most ROWS_AT_ONCE slices at a time.  Each spectrum's bins are a copy of
    the previous one's with the slice's nonzero bins added in ascending order, so a bin keeps
    the place where it first appeared.  A batch that holds a value outside the table is
    counted slice by slice instead (`_count_slice`).  The kernel is not loaded when nothing
    is counted.
    """
    end = stops[-1] if stops else 0
    if end == 0:
        return [SeparationSpectrum() for _ in stops]
    arr = sieve._checked_stream(arr.reshape(-1)[:end])
    kernel = sieve._load_kernel()
    bounds = list(zip([0, *stops], stops))
    spectra, bins = [], {}
    for b in range(0, len(bounds), ROWS_AT_ONCE):
        batch = bounds[b : b + ROWS_AT_ONCE]
        pieces = [(r, lo, min(lo + BLOCK_VALUES, stop))
                  for r, (start, stop) in enumerate(batch)
                  for lo in range(start, stop, BLOCK_VALUES)]
        rows = _count_pieces(kernel, arr, pieces, len(batch),
                             sieve._worker_count(len(pieces) // 2))
        for r, (start, stop) in enumerate(batch):
            if rows is None:
                vals, cnts = _count_slice(arr[start:stop])
            else:
                vals = np.flatnonzero(rows[r])
                cnts = rows[r][vals]
            pairs = zip(vals.tolist(), cnts.tolist())
            if bins:
                bins = dict(bins)
                for s, c in pairs:
                    bins[s] = bins.get(s, 0) + c
            else:  # the first slice with a value: its bins alone, in one call
                bins = dict(pairs)
            spectra.append(SeparationSpectrum(bins))
    return spectra


def _count_slice(arr):
    """(values, counts) of a slice that the compiled table may not hold, in ascending order:
    by np.bincount when its largest value is below its length (so the dense count is never
    larger than the slice), by np.unique otherwise."""
    if arr.size == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    if arr.dtype == np.int64 and arr.min() < 0:
        raise ValidationError("separations must be >= 0")
    top = int(arr.max()) + 1
    if top > arr.size:
        return np.unique(arr, return_counts=True)
    # bincount will not cast uint64 safely; every value here is below the size
    if arr.dtype == np.uint64:
        arr = arr.view(np.int64)
    # bincount casts to intp: a block at a time, so the cast never copies the slice
    step = arr.size if arr.dtype == np.intp else max(BINCOUNT_BLOCK, top)
    cnts = np.zeros(top, dtype=np.intp)
    for i in range(0, arr.size, step):
        cnts += np.bincount(arr[i : i + step], minlength=top)
    vals = np.flatnonzero(cnts)
    return vals, cnts[vals]


def _count_pieces(kernel, arr, pieces, rows, workers):
    """A rows x kernel.histogram_cap table: row r counts the values arr[lo:hi] of each piece
    (r, lo, hi), or None when a piece holds a value outside the table.

    arr is a contiguous int64, uint64 or uint32 stream.  The workers (`sieve._on_workers`)
    claim the pieces in turn, each adds its pieces into a table of its own, and the tables
    are summed, so the count does not depend on the CPU count.
    """
    cap, width, at_arr = kernel.histogram_cap, arr.itemsize, arr.ctypes.data
    tables = [np.zeros((rows, cap), dtype=np.int64) for _ in range(workers)]

    def count(jobs):
        table = tables.pop()
        at_table, stride = table.ctypes.data, table.strides[0]
        for r, lo, hi in jobs:
            top = kernel.twinsep_histogram(at_arr + lo * width, hi - lo, width,
                                           at_table + r * stride)
            if top < 0:
                for _ in jobs:  # drop the pieces left: every worker stops
                    pass
                return None
        return table

    counted = sieve._on_workers(count, iter(pieces), workers)
    if any(table is None for table in counted):
        return None
    return sum(counted[1:], counted[0])


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
    write_csv(path, metadata or {}, ["s", "count"], sorted(spectrum.bins.items()))


def read_spectrum_csv(path) -> tuple[SeparationSpectrum, dict[str, str]]:
    """The spectrum and metadata of a CSV from write_spectrum_csv; errors name the file and line."""
    meta, rows = read_csv(path, ("s", "count"))
    bins: dict[int, int] = {}
    for lineno, row in rows:
        try:
            s, c = int(row["s"]), int(row["count"])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: unparseable row {row!r}") from exc
        if s < 0 or c < 0:
            raise ValidationError(f"{path}:{lineno}: negative separation or count {row!r}")
        if max(s, c) >= 2**63:
            raise ValidationError(f"{path}:{lineno}: separation or count is 2**63 or more")
        if s in bins:
            raise ValidationError(f"{path}:{lineno}: duplicate separation {s}")
        bins[s] = c
    return SeparationSpectrum(bins), meta
