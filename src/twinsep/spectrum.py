"""Separation histograms and the average-separation estimate.

Spectra are mergeable value objects holding only their bins: accumulation
is single-writer, merging enables parallel reduction, and the totals, the
maximum and the count beyond a cutoff are read off the bins.  Three s0
conventions are kept first-class because published count tables and
interval-exact bookkeeping disagree by small offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import sieve
from .errors import ValidationError
from .ioutil import read_csv, write_csv
from .sieve import CountRecord


BINCOUNT_BLOCK = 1 << 16  # elements per np.bincount call on values that need a cast to intp


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

    The totals are read off the bins once, as Python ints: the number of
    intervals and the number of singletons inside them.
    """

    bins: dict[int, int] = field(default_factory=dict)
    total_intervals: int = field(init=False)
    total_singletons: int = field(init=False)

    def __post_init__(self):
        if any(s < 0 or c < 0 for s, c in self.bins.items()):
            raise ValidationError("bins must have non-negative keys and counts")
        self.total_intervals = sum(self.bins.values())
        self.total_singletons = sum(s * c for s, c in self.bins.items())

    def max_separation(self) -> int | None:
        return max(self.bins) if self.bins else None

    def count_above(self, x: float) -> int:
        """How many separations exceed x."""
        return sum(c for s, c in self.bins.items() if s > x)


def accumulate(separations) -> SeparationSpectrum:
    """Histogram a separation sequence.

    A dense count when the largest separation is below the length (so the
    dense histogram is never larger than the input), np.unique otherwise.
    A contiguous int64 or uint32 stream (the sampler's draws, the sieve's
    separations) is counted by the sieve's compiled kernel
    (`twinsep_histogram`) in one pass while its largest value is below the
    kernel's fixed table (1024 entries); above that the kernel only finds
    its range.  Every other count, and every count when the kernel cannot
    be built, is np.bincount's.  Float input must hold finite integers
    below 2**63.
    """
    arr = np.asarray(separations).reshape(-1)
    if arr.size == 0:
        return SeparationSpectrum()
    if not np.issubdtype(arr.dtype, np.integer):
        # before the cast, which turns inf, nan and +-2**63 into garbage with a warning
        if not np.all(np.isfinite(arr)):
            raise ValidationError("separations must be finite integers below 2**63")
        if arr.min() < 0:
            raise ValidationError("separations must be >= 0")
        if arr.max() >= 2**63:
            raise ValidationError("separations must be finite integers below 2**63")
        if not np.all(arr == np.floor(arr)):
            raise ValidationError("separations must be integers")
        arr = arr.astype(np.int64)
    kernel = None
    if arr.dtype in (np.int64, np.uint32) and arr.flags.c_contiguous:
        kernel = sieve._load_kernel()
    cnts = None  # a dense count, indexed by value
    if kernel is not None:
        table = np.zeros(kernel.histogram_cap, dtype=np.int64)
        top = kernel.twinsep_histogram(arr.ctypes.data, arr.size, arr.itemsize, table)
        if 0 <= top <= table.size:
            cnts = table
        negative = top < 0
    else:  # an unsigned stream cannot be negative
        negative = arr.dtype.kind != "u" and int(arr.min()) < 0
        top = int(arr.max()) + 1
    if negative:
        raise ValidationError("separations must be >= 0")
    if cnts is None and top <= arr.size:
        # bincount will not cast uint64 safely; every value here is below the size
        if arr.dtype == np.uint64:
            arr = arr.view(np.int64)
        if arr.dtype == np.intp:
            cnts = np.bincount(arr)
        else:  # bincount casts to intp: a block at a time, so the cast never copies the stream
            step = max(BINCOUNT_BLOCK, top)
            cnts = np.zeros(top, dtype=np.intp)
            for i in range(0, arr.size, step):
                cnts += np.bincount(arr[i : i + step], minlength=top)
    if cnts is None:
        vals, cnts = np.unique(arr, return_counts=True)
    else:
        vals = np.flatnonzero(cnts)
        cnts = cnts[vals]
    return SeparationSpectrum(dict(zip(vals.tolist(), cnts.tolist())))


def merge(a: SeparationSpectrum, b: SeparationSpectrum) -> SeparationSpectrum:
    """Binwise sum; associative and commutative."""
    bins = dict(a.bins)
    for s, c in b.bins.items():
        bins[s] = bins.get(s, 0) + c
    return SeparationSpectrum(bins)


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
