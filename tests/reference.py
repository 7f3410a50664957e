"""numpy references for the compiled kernel: the chunk sieve and the sampler.

The package runs the kernel alone; these are what the tests, CI and
`kernel_check.py` compare it with.  Unlike `oracle.py` they share the
package's plan, fold, base primes and pending-draw ufuncs, and replace
only what the kernel computes: each chunk's summary, and each draw.
"""

import bisect
import math

import numpy as np

from twinsep import montecarlo, sieve

# draws per block of the reference sampler: 512 KB of doubles, small enough to stay in
# cache through the ufunc sequence
BLOCK_DRAWS = 1 << 16


def sieve_chunk(low, high, segment_size, base, grid) -> sieve.ChunkSummary:
    """Sieve [low, high) segment by segment; grid is the checkpoints inside it."""
    span = 2 * segment_size
    count = last = 0  # 0: no prime yet (every chunk prime is >= 11)
    lowers, index, pi1 = [], [], []
    for seg in range(low, high, span):
        top = min(seg + span, high)
        vals = sieve._segment_primes(seg, top, base)
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
    return sieve.ChunkSummary(
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


def sieve_range(config: sieve.SieveConfig, segment_size=1 << 20):
    """(counts, separations, onsets) of sieve.sieve_range(config), from sieve_chunk's summaries
    of the same chunk plan in segments of segment_size odd numbers, folded in-process by
    sieve._fold."""
    cps = config.checkpoint_grid or (config.limit,)
    base = sieve._odd_base_primes(math.isqrt(config.limit))
    summaries = (
        sieve_chunk(low, high, segment_size, base,
                    cps[bisect.bisect_left(cps, low) : bisect.bisect_left(cps, high)])
        for low, high in sieve._chunk_plan(config.limit)
    )
    return sieve._fold(summaries, cps, config.limit)


def sample_separations(config: montecarlo.SimConfig) -> np.ndarray:
    """montecarlo.sample_separations(config) by numpy alone, BLOCK_DRAWS draws at a time."""
    p = config.params
    n = config.n_events
    lnq = math.log(p.q)
    m = None if p.l_cut is None else math.floor(p.l_cut)
    neg_scale = -1.0 if m is None else math.expm1((m + 1) * lnq)  # -(1 - q**(m+1))
    out = np.empty(n, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(config.seed))
    buf = np.empty(min(BLOCK_DRAWS, n))
    for lo in range(0, n, BLOCK_DRAWS):
        u = buf[: min(BLOCK_DRAWS, n - lo)]
        rng.random(out=u)  # consecutive fills continue the one stream
        u *= neg_scale
        out[lo : lo + u.size] = montecarlo._finish_draws(u, lnq, m)
    return out
