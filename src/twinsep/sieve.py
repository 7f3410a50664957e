"""Segmented odd-only sieve with twin-pair and separation accounting.

Counts primes and twin pairs up to a bound, streams the sequence of
singleton-prime separations between neighbouring twins, and records the
onset of each new maximal separation.  A "separation" is the number of
primes that belong to no twin pair and lie strictly between two
neighbouring twins.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

DEFAULT_SEGMENT_FLAGS = 1 << 20  # odd-number flags per segment (spans twice as many integers)

# The bound stamped on a new record separation is the lower member of the
# twin that closes the record interval.
ONSET_CONVENTION = "lower member of terminating twin"


@dataclass(frozen=True)
class SieveConfig:
    """Run parameters: inclusive bound, segment width in flags, checkpoint grid."""

    limit: int
    segment_size: int = DEFAULT_SEGMENT_FLAGS
    checkpoint_grid: tuple[int, ...] = ()

    def __post_init__(self):
        if self.limit < 2:
            raise ValidationError(f"limit must be >= 2, got {self.limit}")
        if self.segment_size < 1024:
            raise ValidationError(f"segment_size must be >= 1024, got {self.segment_size}")
        grid = tuple(int(n) for n in self.checkpoint_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("checkpoint_grid must be strictly increasing")
        if grid and grid[0] < 1:
            raise ValidationError("checkpoints must be >= 1")
        if grid and grid[-1] > self.limit:
            raise ValidationError("checkpoints must not exceed limit")
        object.__setattr__(self, "checkpoint_grid", grid)


@dataclass(frozen=True)
class CountRecord:
    """Checkpoint counts: primes (pi1) and twin pairs (pi2) up to n.

    pi1_adjusted drops the primes 2 and 3 plus any trailing singletons past
    the last twin; it is None when no twin above (3 5) fits below n.
    """

    n: int
    pi1: int
    pi2: int
    pi1_adjusted: int | None = None

    def __post_init__(self):
        if self.pi1 < 0 or self.pi2 < 0:
            raise ValidationError("counts must be non-negative")
        # Twins overlap only at (3 5)/(5 7); any further pair needs 2 new primes.
        if self.pi2 >= 2 and self.pi1 < 2 * self.pi2 - 1:
            raise ValidationError(
                f"pi1={self.pi1} is too small for pi2={self.pi2}"
            )
        if self.pi1_adjusted is not None and self.pi1_adjusted > self.pi1:
            raise ValidationError("pi1_adjusted cannot exceed pi1")


@dataclass
class SieveReport:
    """Everything one sieve run produces.

    separations is the ordered stream of singleton counts between
    neighbouring twins (anomalous pair (3 5) discarded first), and
    max_separation_onsets lists each new running-maximum separation with
    the bound at which it first occurred.
    """

    counts: list[CountRecord]
    separations: np.ndarray
    max_separation_onsets: list[tuple[int, int]]
    metadata: dict[str, str] = field(default_factory=dict)


def geometric_checkpoints(limit, per_decade=20, start=1000):
    """Geometric checkpoint grid with per_decade points per decade, ending at limit."""
    if limit < 2:
        raise ValidationError("limit must be >= 2")
    if per_decade < 1:
        raise ValidationError("per_decade must be >= 1")
    if limit <= start:
        return (limit,)
    k0 = math.ceil(per_decade * math.log10(start) - 1e-9)
    k1 = math.floor(per_decade * math.log10(limit) + 1e-9)
    pts = {min(limit, round(10 ** (k / per_decade))) for k in range(k0, k1 + 1)}
    pts.add(limit)
    return tuple(sorted(p for p in pts if p >= start))


def _odd_base_primes(limit):
    """Odd primes <= limit by a dense sieve. limit is ~sqrt of the run bound."""
    if limit < 3:
        return np.empty(0, dtype=np.int64)
    flags = np.ones((limit - 1) // 2, dtype=bool)  # index i <-> value 2i + 3
    for i in range((math.isqrt(limit) - 1) // 2):
        if flags[i]:
            p = 2 * i + 3
            flags[(p * p - 3) // 2 :: p] = False
    return 2 * np.flatnonzero(flags).astype(np.int64) + 3


def sieve_range(config: SieveConfig) -> SieveReport:
    """Sieve [2, limit] and return counts, the separation stream, and onsets.

    Twin pairs are (p, p+2) with p+2 <= limit.  The pair (3 5) is counted in
    pi2 but discarded before separation accounting, so the stream starts
    with the interval that follows (5 7).  Segments are sieved over odd
    numbers only; twin and separation state is carried across segment
    boundaries, so the result is identical for any segment size.
    """
    limit = config.limit
    cps = list(config.checkpoint_grid) if config.checkpoint_grid else [limit]
    base = _odd_base_primes(math.isqrt(limit))
    span = 2 * config.segment_size

    counts: list[CountRecord] = []
    sep_chunks: list[np.ndarray] = []
    onsets: list[tuple[int, int]] = []
    running_max = -1

    prime_count = 1  # the prime 2
    twin_count = 0
    prev_val, prev_idx = 2, 0  # last prime seen and its 0-based index
    pending_idx = -1  # index of the last twin's lower member, after discarding (3 5)
    last_adj_twin: tuple[int, int] | None = None  # last twin with lower member >= 5
    cp_pos = 0

    while cp_pos < len(cps) and cps[cp_pos] < 3:
        c = cps[cp_pos]
        counts.append(CountRecord(n=c, pi1=1 if c >= 2 else 0, pi2=0))
        cp_pos += 1

    low = 3
    while low <= limit:
        high = min(low + span, limit + 1)  # half-open value range
        flags = np.ones((high - low + 1) // 2, dtype=bool)  # index i <-> low + 2i
        for p in base:
            p = int(p)
            pp = p * p
            if pp >= high:
                break
            start = pp if pp >= low else ((low + p - 1) // p) * p
            if start % 2 == 0:
                start += p
            if start < high:
                flags[(start - low) // 2 :: p] = False
        vals = low + 2 * np.flatnonzero(flags)

        # Twin starts in this segment, including one reaching back across the boundary.
        if vals.size > 1:
            w = np.flatnonzero(np.diff(vals) == 2)
        else:
            w = np.empty(0, dtype=np.int64)
        tv = vals[w]
        ti = prime_count + w
        if vals.size and int(vals[0]) - prev_val == 2:
            tv = np.concatenate(([prev_val], tv))
            ti = np.concatenate(([prev_idx], ti))

        # Separation accounting, discarding the anomalous twin (3 5).
        keep = tv != 3
        tv2, ti2 = tv[keep], ti[keep]
        if tv2.size:
            if pending_idx < 0:
                seps = np.diff(ti2) - 2
                term = tv2[1:]
            else:
                seps = np.diff(np.concatenate(([pending_idx], ti2))) - 2
                term = tv2
            pending_idx = int(ti2[-1])
            if seps.size:
                sep_chunks.append(seps.astype(np.uint32))
                cm = np.maximum.accumulate(seps)
                prior = np.empty_like(cm)
                prior[0] = running_max
                np.maximum(cm[:-1], running_max, out=prior[1:])
                for j in np.flatnonzero(seps > prior):
                    onsets.append((int(seps[j]), int(term[j])))
                running_max = max(running_max, int(cm[-1]))

        # Checkpoints falling inside this segment.
        while cp_pos < len(cps) and cps[cp_pos] < high:
            c = cps[cp_pos]
            pi1_c = prime_count + int(np.searchsorted(vals, c, side="right"))
            k_tw = int(np.searchsorted(tv, c - 2, side="right"))
            pi2_c = twin_count + k_tw
            adj = None
            j = k_tw - 1
            if j >= 0 and tv[j] == 3:
                j -= 1
            if j >= 0:
                adj = int(ti[j])
            elif last_adj_twin is not None and last_adj_twin[0] + 2 <= c:
                adj = last_adj_twin[1]
            counts.append(CountRecord(n=c, pi1=pi1_c, pi2=pi2_c, pi1_adjusted=adj))
            cp_pos += 1

        if vals.size:
            prev_val = int(vals[-1])
            prev_idx = prime_count + int(vals.size) - 1
        prime_count += int(vals.size)
        if tv.size:
            twin_count += int(tv.size)
            if tv2.size:
                last_adj_twin = (int(tv2[-1]), int(ti2[-1]))
        low = high

    separations = (
        np.concatenate(sep_chunks) if sep_chunks else np.empty(0, dtype=np.uint32)
    )
    assert separations.size == max(0, twin_count - 2), "separation accounting out of sync"
    meta = {
        "limit": str(limit),
        "onset_n": ONSET_CONVENTION,
        "twin_3_5": "counted in pi2, discarded before separations",
    }
    return SieveReport(
        counts=counts,
        separations=separations,
        max_separation_onsets=onsets,
        metadata=meta,
    )


def write_separations(path, separations) -> None:
    """Write a separation stream as little-endian unsigned 32-bit values."""
    arr = np.asarray(separations)
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= 2**32):
        raise ValidationError("separation values do not fit in unsigned 32-bit")
    arr.astype("<u4").tofile(path)


def read_separations(path) -> np.ndarray:
    """Read a little-endian unsigned 32-bit separation stream.

    A file whose size is not a whole number of 4-byte values is rejected.
    """
    size = os.path.getsize(path)
    if size % 4:
        raise ValidationError(f"{path}: {size} bytes is not a whole number of 4-byte separations")
    return np.fromfile(path, dtype="<u4")
