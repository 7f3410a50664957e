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
separations, records and checkpoint rows.

The chunks are sieved by `_kernel.c`, compiled on first use into a
per-user cache and called through ctypes (`_load_kernel`, `_kernel_chunk`).
It sieves a mod-30 wheel (one byte per 30 integers) in 64 KB blocks, with
base primes in three tiers: 7..97 are presieved by ANDing fixed-period
patterns a 64-bit word at a time, primes below one block cross it in
stride-p loops, and primes above one block wait in per-block buckets (a
bucket sieve) until the block they hit.  It emits the summary fields in
one fused scan that finds twins eight 64-bit words at a time on a CPU with
AVX-512 VPOPCNTDQ, and one word at a time on other CPUs, at the tail of a
block and wherever a checkpoint falls.  Without a C compiler that builds
it, `_load_kernel` raises `KernelError`.  Only the base primes are sieved
in numpy, by `_segment_primes(low, high, base)`.

`sieve_range` sieves the chunks on `_on_workers` (the calling thread, plus
the kept threads of one ThreadPoolExecutor, one per further CPU), and
folds the summaries in order, carrying four values from one chunk to the
next, so the result is exact and identical for any CPU count.  The Monte
Carlo sampler and the histogram split their streams over the same workers.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import pathlib
import platform
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import KernelError, ValidationError

# not a run parameter: the kernel sieves blocks of KERNEL_BLOCK bytes.  This constant,
# SieveConfig.segment_size and counts.csv's `segment_size=` line stay only because the
# benchmark reads them, and go when it is re-pinned
DEFAULT_SEGMENT_FLAGS = 1 << 20

# The bound stamped on a new record separation is the lower member of the
# twin that closes the record interval.
ONSET_CONVENTION = "lower member of terminating twin"

FIRST_SEGMENT = 9  # the prelude counts 2, 3, 5, 7; segments sieve from here on
PRELUDE_LAST_TWIN = 2  # 0-based prime index of 5, the lower member of (5 7)
CHUNK_SPAN = 30 << 22  # integers per chunk, about 2**27; a multiple of 6 (see _chunk_plan)

KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
KERNEL_CC = ("cc", "-O2", "-shared", "-fPIC")  # no -march=native: the build lives in a shared cache
# a build of another source stays in the cache this long after it was built, so that trees
# with different sources, run in turn, do not rebuild each other's kernels on every run
_KERNEL_KEEP_S = 7 * 24 * 3600
# wheel bytes (30 integers each) per block of the compiled kernel, a power of two from 8
# to 2**28; one chunk of about 2**27 integers on one CPU took 5-12% longer with 32 KB
# blocks and 11-23% longer with 128 KB blocks than with 64 KB, from 1e9 to 1e12
KERNEL_BLOCK = 1 << 16
MAX_LIMIT = 2**62  # keeps every int64 argument and product of the kernel in range
MAX_PER_DECADE = 10_000  # checkpoints 0.023% apart


@dataclass(frozen=True)
class SieveConfig:
    """Run parameters: inclusive bound and checkpoint grid."""

    limit: int
    checkpoint_grid: tuple[int, ...] = ()
    segment_size: ClassVar[int] = DEFAULT_SEGMENT_FLAGS  # a constant: see DEFAULT_SEGMENT_FLAGS

    def __post_init__(self):
        if self.limit < 2:
            raise ValidationError(f"limit must be >= 2, got {self.limit}")
        if self.limit > MAX_LIMIT:
            raise ValidationError(f"limit must be <= 2**62, got {self.limit}")
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
    (workers, chunks, segments as kernel blocks, wall_s, segments_per_s,
    peak_rss_mb); it never enters metadata, so the files written from a
    report do not depend on the machine.
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
        # retire builds older than _KERNEL_KEEP_S (a process that has one loaded keeps its
        # mapping), never a *.tmp
        retire = time.time() - _KERNEL_KEEP_S
        for stale in pathlib.Path(directory).glob("chunk-*.so"):
            try:
                if stale.name != name and stale.stat().st_mtime < retire:
                    stale.unlink()
            except FileNotFoundError:  # another process removed it first
                pass
    return ctypes.CDLL(path)


@functools.cache
def _load_kernel():
    """The compiled _kernel.c; KernelError, one line naming the compiler, when it cannot load.

    Every entry point is typed: twinsep_sieve_chunk (see _kernel_chunk),
    twinsep_philox_fill (the Philox stream that twinsep_geometric draws
    from, alone), twinsep_geometric, which returns how many draws it left
    pending (see montecarlo.sample_separations), and twinsep_histogram (see
    spectrum._count_pieces), which returns -1 for a stream with a value
    outside its table; the table's size is read into lib.histogram_cap.

    It is built on first use, never at import, into
    ${XDG_CACHE_HOME:-~/.cache}/twinsep, keyed by the source, the compiler
    command and the machine; when that directory cannot be written, into a
    temporary directory for this process.
    """
    import ctypes
    import hashlib
    import subprocess

    cc = KERNEL_CC[0]
    if shutil.which(cc) is None:
        raise KernelError(f"no `{cc}` on PATH: twinsep needs it to build its compiled kernel")
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
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        why = lines[-1].strip() if lines else f"exit status {exc.returncode}"
        raise KernelError(f"`{cc}` could not build twinsep's compiled kernel: {why}") from None
    except OSError as exc:
        raise KernelError(f"could not build or load twinsep's kernel with `{cc}`: {exc}") from None
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
    ptr = ctypes.c_void_p  # addresses: an ndpointer check costs 3-5 us a call
    lib.twinsep_geometric.argtypes = [ptr, ptr, i64, i64, f64, f64, f64, ptr]
    lib.twinsep_geometric.restype = i64
    # the stream is int64 or uint32, by its width in bytes; counts has histogram_cap int64s
    lib.twinsep_histogram.argtypes = [ptr, i64, i64, ptr]
    lib.twinsep_histogram.restype = i64
    lib.histogram_cap = i64.in_dll(lib, "twinsep_histogram_cap").value
    return lib


def _worker_count(jobs: int) -> int:
    """Workers for `jobs` independent jobs: one per CPU in the affinity mask, at most one a job."""
    return max(1, min(jobs, len(os.sched_getaffinity(0))))


@functools.cache
def _getcpu():
    """libc's sched_getcpu: the CPU the calling thread runs on."""
    import ctypes

    getcpu = ctypes.CDLL(None).sched_getcpu
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    return getcpu


def _pin(cpus):
    """Pin the calling thread to cpus, or leave it where it is when none of them is online."""
    try:
        os.sched_setaffinity(0, cpus)  # this thread only
    except OSError:
        pass


# (pid, affinity mask) -> the kept ThreadPoolExecutor of helpers; a forked child has another
# pid, so it never waits on threads it did not inherit
_helpers: dict = {}


def _on_workers(work, jobs, workers: int) -> list:
    """[work(jobs) on each worker that ran]: the calling thread and up to workers - 1 helpers.

    The workers claim their jobs from the one iterator `jobs` (next() on a builtin iterator
    runs under the GIL, so each job goes to one worker), and the kernel releases the GIL
    while it runs.  So any worker may take any job, and the caller alone runs them all
    (work(jobs) inline, with no thread) for one worker.  Otherwise workers - 1 copies of
    work(jobs) are submitted to the helpers and one runs on the calling thread.  Once the
    caller's copy returns, no job is left, and a copy that no helper has started yet (the
    helpers busy with another caller's work, or their CPU with another task) is cancelled
    rather than waited for; one that has started is waited for.  So a second thread calling
    in never waits for a helper queued behind the first one's work.  A worker that raises
    drops the jobs left, so the others stop at their next claim, and the first exception is
    raised here once all have stopped.

    The helpers are the threads of one ThreadPoolExecutor per affinity mask, made on first
    use (never at import: `concurrent.futures` is imported here, once a process, for about
    6 ms and 0.4 MB) and kept: starting and placing a thread for each call took 0.15-0.2 ms
    against 0.03-0.04 ms to wake a kept one, and a Monte Carlo replicate makes two calls of
    0.4-2 ms.  Each is pinned to the CPUs of the mask other than the one the executor's first
    caller ran on: a new thread starts on its parent's CPU, and where the scheduler does not
    balance load (a cpuset with sched_load_balance off) it would stay there, sharing it with
    the caller.
    """

    def run():
        try:
            return work(jobs)
        except BaseException:
            for _ in jobs:  # drop the jobs left
                pass
            raise

    if workers == 1:
        return [work(jobs)]
    from concurrent.futures import ThreadPoolExecutor, wait

    mask = os.sched_getaffinity(0)
    key = (os.getpid(), frozenset(mask))
    pool = _helpers.get(key) or _helpers.setdefault(
        key, ThreadPoolExecutor(len(mask) - 1, initializer=_pin, initargs=(mask - {_getcpu()()},)))
    futures = [pool.submit(run) for _ in range(workers - 1)]
    try:
        results = [run()]
    finally:
        started = [f for f in futures if not f.cancel()]
        wait(started)
    return results + [f.result() for f in started]


def _kernel_chunk(kernel, low, high, base, grid) -> ChunkSummary:
    """The summary of the chunk [low, high), from one call of the compiled kernel."""
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
    are sieved independently by the compiled kernel (KernelError when it
    cannot be built) and folded in order, so the result is identical for
    any number of CPUs.  The chunks are claimed in order by one worker per
    CPU in the affinity mask, at most one per chunk (`_on_workers`); one
    worker runs in-process.  stats["segments"] counts the kernel's blocks
    of KERNEL_BLOCK bytes.
    """
    t0 = time.perf_counter()
    chunk = functools.partial(_kernel_chunk, _load_kernel())  # first: a missing kernel fails fast
    limit = config.limit
    cps = config.checkpoint_grid or (limit,)
    base = _odd_base_primes(math.isqrt(limit))
    plan = _chunk_plan(limit)
    lows, highs = [low for low, _ in plan], [high for _, high in plan]
    grids = [cps[bisect.bisect_left(cps, low) : bisect.bisect_left(cps, high)] for low, high in plan]
    # wheel byte 0 of a chunk starts at low - low % 30
    segments = sum(len(range(low - low % 30, high, 30 * KERNEL_BLOCK)) for low, high in plan)
    summaries: list = [None] * len(plan)

    def sieve_chunks(jobs):
        for i in jobs:
            summaries[i] = chunk(lows[i], highs[i], base, grids[i])

    workers = _worker_count(len(plan))
    _on_workers(sieve_chunks, iter(range(len(plan))), workers)
    counts, separations, onsets = _fold(summaries, cps, limit)

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
