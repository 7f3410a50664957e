"""Chunked prime sieve with twin-pair and separation accounting.

Counts primes and twin pairs up to a bound, streams the sequence of
singleton-prime separations between neighbouring twins, and records the
onset of each new maximal separation.  A "separation" is the number of
primes that belong to no twin pair and lie strictly between two
neighbouring twins.

A run is plan -> chunk -> fold.  A literal prelude holds the primes 2, 3,
5, 7 and with them the only overlapping twins, (3 5) and (5 7).  The plan
splits the rest, [FIRST_SEGMENT, limit], into chunks of CHUNK_SPAN
integers; it depends on the limit alone.  Every chunk starts on an odd
multiple of 3, so no twin spans two chunks.  Each chunk is sieved on
its own into a `ChunkSummary`: local counts, first and last twin, local
separations, records and checkpoint rows.  Two kernels produce the same
summary:

- `_kernel.c`, compiled on first use into a per-user cache and called
  through ctypes (`_load_kernel`, `_kernel_chunk`), sieves a mod-30 wheel
  (one byte per 30 integers) in 64 KB blocks, with base primes in three
  tiers: 7..97 are presieved by ANDing fixed-period patterns a 64-bit word
  at a time, primes below one block cross it in stride-p loops, and
  primes above one block wait in per-block buckets (a bucket sieve) until
  the block they hit.  It emits the summary fields in one fused scan that
  finds twins a 64-bit word at a time;
- `_sieve_chunk`, in numpy, runs the one odd-only marking loop
  `_segment_primes(low, high, base)` (which also sieves the base primes)
  segment by segment.  It is the reference, and the fallback when no C
  compiler can build the kernel.

`sieve_range` maps the chunks in-process or on a thread pool, and folds
the summaries in order, carrying four values from one chunk to the next,
so the result is exact and identical for either kernel, any segment size
and CPU count.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import platform
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

DEFAULT_SEGMENT_FLAGS = 1 << 20  # odd-number flags per segment (spans twice as many integers)

# The bound stamped on a new record separation is the lower member of the
# twin that closes the record interval.
ONSET_CONVENTION = "lower member of terminating twin"

FIRST_SEGMENT = 9  # the prelude counts 2, 3, 5, 7; segments sieve from here on
PRELUDE_LAST_TWIN = 2  # 0-based prime index of 5, the lower member of (5 7)
CHUNK_SPAN = 30 << 22  # integers per chunk, about 2**27; a multiple of 6 (see _chunk_plan)

KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
KERNEL_CC = ("cc", "-O2", "-shared", "-fPIC")  # no -march=native: the build lives in a shared cache
# wheel bytes (30 integers each) per block of the compiled kernel, a power of two from 8
# to 2**28; one chunk of about 2**27 integers on one CPU took 5-12% longer with 32 KB
# blocks and 11-23% longer with 128 KB blocks than with 64 KB, from 1e9 to 1e12
KERNEL_BLOCK = 1 << 16
MAX_LIMIT = 2**62  # keeps every int64 argument and product of the kernel in range
MAX_PER_DECADE = 10_000  # checkpoints 0.023% apart


@dataclass(frozen=True)
class SieveConfig:
    """Run parameters: inclusive bound, segment width in flags, checkpoint grid."""

    limit: int
    segment_size: int = DEFAULT_SEGMENT_FLAGS
    checkpoint_grid: tuple[int, ...] = ()

    def __post_init__(self):
        if self.limit < 2:
            raise ValidationError(f"limit must be >= 2, got {self.limit}")
        if self.limit > MAX_LIMIT:
            raise ValidationError(f"limit must be <= 2**62, got {self.limit}")
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
        if self.n < 1:
            raise ValidationError(f"checkpoint n must be >= 1, got {self.n}")
        if self.pi1 < 0 or self.pi2 < 0:
            raise ValidationError("counts must be non-negative")
        # Twins overlap only at (3 5)/(5 7); any further pair needs 2 new primes.
        if self.pi2 >= 2 and self.pi1 < 2 * self.pi2 - 1:
            raise ValidationError(
                f"pi1={self.pi1} is too small for pi2={self.pi2}"
            )
        if self.pi1_adjusted is not None and not 0 <= self.pi1_adjusted <= self.pi1:
            raise ValidationError(f"pi1_adjusted must be in [0, pi1], got {self.pi1_adjusted}")


@dataclass
class SieveReport:
    """Everything one sieve run produces.

    separations is the ordered stream of singleton counts between
    neighbouring twins (anomalous pair (3 5) discarded first), and
    max_separation_onsets lists each new running-maximum separation with
    the bound at which it first occurred.  stats describes the run itself
    (kernel "c" or "numpy", workers, chunks, segments or kernel blocks,
    wall_s, segments_per_s, peak_rss_mb); it
    never enters metadata, so the files written from a report do not
    depend on the machine.
    """

    counts: list[CountRecord]
    separations: np.ndarray
    max_separation_onsets: list[tuple[int, int]]
    metadata: dict[str, str] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ChunkSummary:
    """One chunk [low, high) sieved on its own, as the fold needs it.

    Prime indices are 0-based within the chunk, and a twin here has both
    members in the chunk.  seps holds the separations between the chunk's
    consecutive twins, after its first twin, and records the
    running-maximum records of seps alone, as (separation, lower member of
    the closing twin).  Each checkpoint row is (n, primes <= n, twins with
    upper member <= n, index of the last such twin's lower member or None).
    """

    primes: int
    twins: int
    first_twin: tuple[int, int] | None  # (lower member, its index)
    last_twin: int | None  # index of the last twin's lower member
    seps: np.ndarray
    records: tuple[tuple[int, int], ...]
    checkpoints: tuple[tuple[int, int, int, int | None], ...]


def geometric_checkpoints(limit, per_decade=20, start=1000):
    """Geometric checkpoint grid with per_decade points per decade, ending at limit.

    per_decade is at most MAX_PER_DECADE: the grid is built one candidate
    point at a time, and the bound keeps it under 2e5 points below MAX_LIMIT.
    """
    if limit < 2:
        raise ValidationError("limit must be >= 2")
    if not 1 <= per_decade <= MAX_PER_DECADE:
        raise ValidationError(f"per_decade must be in [1, {MAX_PER_DECADE}], got {per_decade}")
    if start < 1:
        raise ValidationError(f"start must be >= 1, got {start}")
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


def _chunk_plan(limit):
    """[low, high) spans covering [FIRST_SEGMENT, limit]; they depend on limit alone."""
    # each low is an odd multiple of 3 above 3, not prime: no twin (low - 2, low) spans two chunks
    assert FIRST_SEGMENT % 6 == 3 and CHUNK_SPAN % 6 == 0, "chunks must start on odd multiples of 3"
    return [
        (low, min(low + CHUNK_SPAN, limit + 1))
        for low in range(FIRST_SEGMENT, limit + 1, CHUNK_SPAN)
    ]


def _sieve_chunk(low, high, segment_size, base, grid) -> ChunkSummary:
    """Sieve [low, high) segment by segment; grid is the checkpoints inside it."""
    span = 2 * segment_size
    count = last = 0  # 0: no prime yet (every chunk prime is >= 11)
    lowers, index, pi1 = [], [], []
    for seg in range(low, high, span):
        top = min(seg + span, high)
        vals = _segment_primes(seg, top, base)
        upper = np.flatnonzero(np.diff(vals, prepend=last) == 2)
        lowers.append(vals[upper] - 2)
        index.append(count - 1 + upper)
        inside = grid[bisect.bisect_left(grid, seg) : bisect.bisect_left(grid, top)]
        pi1 += (count + np.searchsorted(vals, inside, side="right")).tolist()
        last = int(vals[-1]) if vals.size else last
        count += vals.size

    lowers, index = np.concatenate(lowers), np.concatenate(index)
    seps = np.diff(index) - 2
    prior = np.maximum.accumulate(np.concatenate(([-1], seps)))[:-1]
    hits = np.flatnonzero(seps > prior)
    twins_below = np.searchsorted(lowers, np.asarray(grid, dtype=np.int64) - 2, side="right")
    return ChunkSummary(
        primes=count,
        twins=lowers.size,
        first_twin=(int(lowers[0]), int(index[0])) if lowers.size else None,
        last_twin=int(index[-1]) if index.size else None,
        seps=seps.astype(np.uint32),
        records=tuple(zip(seps[hits].tolist(), lowers[1:][hits].tolist())),
        checkpoints=tuple(
            (n, p, k, int(index[k - 1]) if k else None)
            for n, p, k in zip(grid, pi1, twins_below.tolist())
        ),
    )


def _open_kernel(source, directory, name):
    """Load directory/name, first building it under a temporary name so concurrent builds are safe."""
    import ctypes
    import subprocess

    path = os.path.join(directory, name)
    if not os.path.exists(path):
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=name, suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run([*KERNEL_CC, "-x", "c", "-", "-o", tmp], input=source, check=True,
                           capture_output=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(path)


@functools.cache
def _load_kernel():
    """The compiled _kernel.c, or None when it cannot be built.

    Every entry point is typed: twinsep_sieve_chunk (see _kernel_chunk),
    twinsep_philox_fill (the Philox stream that twinsep_geometric draws
    from, alone), twinsep_geometric, which returns its pending count (see
    montecarlo.sample_separations), and twinsep_histogram (see
    spectrum.accumulate), whose table size is read into lib.histogram_cap.

    It is built on first use, never at import, into
    ${XDG_CACHE_HOME:-~/.cache}/twinsep, keyed by the source, the compiler
    command and the machine; when that directory cannot be written, into a
    temporary directory for this process.
    """
    import ctypes
    import hashlib
    import subprocess

    if shutil.which(KERNEL_CC[0]) is None:
        return None
    with open(KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(repr((source, KERNEL_CC, platform.machine())).encode()).hexdigest()
    name = f"chunk-{key}.so"
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                         "twinsep")
    try:
        try:
            lib = _open_kernel(source, cache, name)
        except OSError:
            with tempfile.TemporaryDirectory() as tmp:
                lib = _open_kernel(source, tmp, name)
    except (OSError, subprocess.SubprocessError):
        return None
    i64 = ctypes.c_int64

    def array(dtype):
        return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")

    # without argtypes ctypes passes a Python int as a C int, and low > 2**31 would wrap
    lib.twinsep_sieve_chunk.argtypes = [i64, i64, i64, array(np.int64), i64, array(np.int64), i64,
                                        array(np.uint32), array(np.int64), array(np.int64),
                                        array(np.int64)]
    lib.twinsep_sieve_chunk.restype = i64
    f64 = ctypes.c_double
    lib.twinsep_philox_fill.argtypes = [array(np.uint64), array(np.uint64), i64, i64, f64,
                                        array(np.float64)]
    lib.twinsep_philox_fill.restype = None
    lib.twinsep_geometric.argtypes = [array(np.uint64), array(np.uint64), i64, i64, f64, f64, f64,
                                      array(np.int64), array(np.int64), array(np.float64)]
    lib.twinsep_geometric.restype = i64
    # the stream is int64 or uint32, by its width in bytes; counts has histogram_cap entries
    lib.twinsep_histogram.argtypes = [ctypes.c_void_p, i64, i64, array(np.int64)]
    lib.twinsep_histogram.restype = i64
    lib.histogram_cap = i64.in_dll(lib, "twinsep_histogram_cap").value
    return lib


def _kernel_chunk(kernel, low, high, base, grid) -> ChunkSummary:
    """_sieve_chunk's summary of [low, high), from one call of the compiled kernel."""
    grid = np.asarray(grid, dtype=np.int64)
    # Bounds: every own twin has its lower member = 5 (mod 6); k records are
    # distinct separations, so k(k-1)/2 <= their sum <= primes <= (high-low+1)/2.
    seps = np.empty((high - low) // 6 + 2, dtype=np.uint32)
    recs = np.empty((math.isqrt(high - low + 1) + 2, 2), dtype=np.int64)
    rows = np.empty((grid.size, 3), dtype=np.int64)
    out = np.empty(6, dtype=np.int64)
    if kernel.twinsep_sieve_chunk(low, high, KERNEL_BLOCK, base, base.size, grid, grid.size, seps,
                                  recs, rows, out):
        raise MemoryError(f"sieve kernel could not allocate for [{low}, {high})")
    primes, twins, first_twin, first_index, last_twin, nrec = out.tolist()
    return ChunkSummary(
        primes=primes,
        twins=twins,
        first_twin=(first_twin, first_index) if twins else None,
        last_twin=last_twin if twins else None,
        seps=seps[: max(0, twins - 1)].copy(),
        records=tuple(map(tuple, recs[:nrec].tolist())),
        checkpoints=tuple(
            (n, p, k, i if k else None) for n, (p, k, i) in zip(grid.tolist(), rows.tolist())
        ),
    )


def _fold(summaries, cps, limit):
    """Stitch chunk summaries, in order, onto the prelude: counts, stream, onsets.

    Four values carry from one chunk to the next.  No twin spans two
    chunks (see _chunk_plan), so a chunk's first twin alone closes the
    interval before the chunk's own separations.  A chunk's local record
    is a global record only if it beats the running maximum so far.
    """
    counts = [_prelude(c) for c in cps if c < FIRST_SEGMENT]
    sep_chunks = [np.empty(0, dtype=np.uint32)]
    onsets: list[tuple[int, int]] = []
    head = _prelude(min(limit, FIRST_SEGMENT - 1))
    prime_count, twin_count = head.pi1, head.pi2
    last_twin = PRELUDE_LAST_TWIN  # 0-based index of the last twin's lower member
    running_max = -1

    for s in summaries:
        for n, pi1, pi2, adj in s.checkpoints:
            counts.append(
                CountRecord(
                    n=n,
                    pi1=prime_count + pi1,
                    pi2=twin_count + pi2,
                    pi1_adjusted=last_twin if adj is None else prime_count + adj,
                )
            )
        if s.first_twin is not None:
            lower, index = s.first_twin
            gap = prime_count + index - last_twin - 2  # closed by the chunk's first twin
            sep_chunks += [np.array([gap], dtype=np.uint32), s.seps]
            for sep, n in ((gap, lower), *s.records):
                if sep > running_max:
                    running_max = sep
                    onsets.append((sep, n))
            last_twin = prime_count + s.last_twin
        twin_count += s.twins
        prime_count += s.primes

    separations = np.concatenate(sep_chunks)
    assert separations.size == max(0, twin_count - 2), "separation accounting out of sync"
    return counts, separations, onsets


def sieve_range(config: SieveConfig) -> SieveReport:
    """Sieve [2, limit] and return counts, the separation stream, and onsets.

    Twin pairs are (p, p+2) with p+2 <= limit.  The primes 2, 3, 5, 7 and
    their twins (3 5) and (5 7) form a literal prelude: (3 5) is counted in
    pi2 but opens no interval, so the stream starts after (5 7).  The rest,
    from FIRST_SEGMENT on, is split into chunks of CHUNK_SPAN integers that
    are sieved independently and folded in order, so the result is
    identical for either kernel, any segment size and any number of CPUs.
    A plan of more than one chunk runs on a thread pool with one worker
    per CPU in the affinity mask (at most one per chunk); otherwise it
    runs in-process.  When the compiled kernel loads, segment_size is
    unused and stats["segments"] counts the kernel's blocks of
    KERNEL_BLOCK wheel bytes.
    """
    t0 = time.perf_counter()
    limit = config.limit
    cps = config.checkpoint_grid or (limit,)
    base = _odd_base_primes(math.isqrt(limit))
    plan = _chunk_plan(limit)
    lows, highs = [low for low, _ in plan], [high for _, high in plan]
    grids = [cps[bisect.bisect_left(cps, low) : bisect.bisect_left(cps, high)] for low, high in plan]
    kernel = _load_kernel()
    if kernel is not None:
        chunk = functools.partial(_kernel_chunk, kernel)
        # wheel byte 0 of a chunk starts at low - low % 30
        segments = sum(len(range(low - low % 30, high, 30 * KERNEL_BLOCK)) for low, high in plan)
    else:
        def chunk(low, high, base, grid):
            return _sieve_chunk(low, high, config.segment_size, base, grid)

        segments = sum(len(range(low, high, 2 * config.segment_size)) for low, high in plan)
    jobs = (chunk, lows, highs, itertools.repeat(base), grids)
    workers = max(1, min(len(plan), len(os.sched_getaffinity(0))))
    if workers == 1:
        counts, separations, onsets = _fold(map(*jobs), cps, limit)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            counts, separations, onsets = _fold(pool.map(*jobs), cps, limit)

    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
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
        stats={
            "kernel": "numpy" if kernel is None else "c",
            "workers": workers,
            "chunks": len(plan),
            "segments": segments,
            "wall_s": wall,
            "segments_per_s": segments / wall,
            "peak_rss_mb": peak_kb / 1024,
        },
    )


def write_separations(path, separations) -> None:
    """Write a separation stream as little-endian unsigned 32-bit values.

    A `<u4` stream, as the sieve makes it, is written as it is, without a
    range check or a copy.
    """
    arr = np.asarray(separations)
    if arr.dtype != np.dtype("<u4") and arr.size and (int(arr.min()) < 0 or int(arr.max()) >= 2**32):
        raise ValidationError("separation values do not fit in unsigned 32-bit")
    arr.astype("<u4", copy=False).tofile(path)


def read_separations(path) -> np.ndarray:
    """Read a little-endian unsigned 32-bit separation stream.

    A file whose size is not a whole number of 4-byte values is rejected.
    """
    size = os.path.getsize(path)
    if size % 4:
        raise ValidationError(f"{path}: {size} bytes is not a whole number of 4-byte separations")
    return np.fromfile(path, dtype="<u4")
