"""Segmented odd-only sieve with twin-pair and separation accounting.

Counts primes and twin pairs up to a bound, streams the sequence of
singleton-prime separations between neighbouring twins, and records the
onset of each new maximal separation.  A "separation" is the number of
primes that belong to no twin pair and lie strictly between two
neighbouring twins.

A run has three parts.  A literal prelude holds the primes 2, 3, 5, 7 and
with them the only overlapping twins, (3 5) and (5 7).  One segment kernel,
`_segment_primes(low, high, base)`, returns the odd primes of a value range;
it also sieves the base primes.  `sieve_range` accumulates each segment's
primes into twins, separations, record onsets and checkpoint counts, and
carries five values from one segment to the next.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

DEFAULT_SEGMENT_FLAGS = 1 << 20  # odd-number flags per segment (spans twice as many integers)

# The bound stamped on a new record separation is the lower member of the
# twin that closes the record interval.
ONSET_CONVENTION = "lower member of terminating twin"

FIRST_SEGMENT = 9  # the prelude counts 2, 3, 5, 7; segments sieve from here on
PRELUDE_LAST_TWIN = 2  # 0-based prime index of 5, the lower member of (5 7)


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


def _segment_primes(low, high, base):
    """Odd primes in [low, high), low odd, given every odd prime <= isqrt(high - 1).

    This is the one marking loop: each base prime p crosses out its odd
    multiples from max(p*p, low) on.
    """
    flags = np.ones((high - low + 1) // 2, dtype=bool)  # index i <-> low + 2i
    for p in base.tolist():
        start = p * p
        if start >= high:
            break
        if start < low:
            start = (low + p - 1) // p * p
        if start % 2 == 0:
            start += p
        flags[(start - low) // 2 :: p] = False
    return low + 2 * np.flatnonzero(flags)


def _odd_base_primes(n):
    """Odd primes <= n, sieved in one segment by the odd primes <= isqrt(n)."""
    if n < 3:
        return np.empty(0, dtype=np.int64)
    return _segment_primes(3, n + 1, _odd_base_primes(math.isqrt(n)))


def _prelude(n):
    """Counts at n < FIRST_SEGMENT, read off the primes 2, 3, 5, 7."""
    return CountRecord(
        n=n,
        pi1=sum(p <= n for p in (2, 3, 5, 7)),
        pi2=(n >= 5) + (n >= 7),
        pi1_adjusted=PRELUDE_LAST_TWIN if n >= 7 else None,
    )


def sieve_range(config: SieveConfig) -> SieveReport:
    """Sieve [2, limit] and return counts, the separation stream, and onsets.

    Twin pairs are (p, p+2) with p+2 <= limit.  The primes 2, 3, 5, 7 and
    their twins (3 5) and (5 7) form a literal prelude: (3 5) is counted in
    pi2 but opens no interval, so the stream starts after (5 7).  Segments
    of odd numbers then start at FIRST_SEGMENT, and every twin they hold
    closes one interval.  Five values carry across segments, so the result
    is identical for any segment size.
    """
    limit = config.limit
    cps = config.checkpoint_grid or (limit,)
    base = _odd_base_primes(math.isqrt(limit))

    counts = [_prelude(c) for c in cps if c < FIRST_SEGMENT]
    sep_chunks = [np.empty(0, dtype=np.uint32)]
    onsets: list[tuple[int, int]] = []
    head = _prelude(min(limit, FIRST_SEGMENT - 1))
    prime_count, twin_count = head.pi1, head.pi2
    last_prime, last_twin = 7, PRELUDE_LAST_TWIN  # last_twin: 0-based index of a lower member
    running_max = -1

    span = 2 * config.segment_size
    for low in range(FIRST_SEGMENT, limit + 1, span):
        high = min(low + span, limit + 1)
        vals = _segment_primes(low, high, base)
        upper = np.flatnonzero(np.diff(vals, prepend=last_prime) == 2)
        twins = vals[upper] - 2  # lower members, all >= 11
        idx = prime_count - 1 + upper
        seps = np.diff(idx, prepend=last_twin) - 2
        sep_chunks.append(seps.astype(np.uint32))

        hits = np.flatnonzero(seps > running_max)
        for s, t in zip(seps[hits].tolist(), twins[hits].tolist()):
            if s > running_max:
                running_max = s
                onsets.append((s, t))

        for c in cps[bisect.bisect_left(cps, low) : bisect.bisect_left(cps, high)]:
            k = int(np.searchsorted(twins, c - 2, side="right"))
            counts.append(
                CountRecord(
                    n=c,
                    pi1=prime_count + int(np.searchsorted(vals, c, side="right")),
                    pi2=twin_count + k,
                    pi1_adjusted=int(idx[k - 1]) if k else last_twin,
                )
            )

        prime_count += vals.size
        twin_count += upper.size
        last_prime = int(vals[-1]) if vals.size else last_prime
        last_twin = int(idx[-1]) if idx.size else last_twin

    separations = np.concatenate(sep_chunks)
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
