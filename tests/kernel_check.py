"""Check that the compiled sieve kernel builds, loads and counts exactly.

    python tests/kernel_check.py [extra cc flags...]

The flags are appended to `sieve.KERNEL_CC`, so a sanitizer build runs the
same checks, e.g. `python tests/kernel_check.py -fsanitize=undefined
-fno-sanitize-recover=all`.  It fails when the kernel does not build,
when the counts at 1e8 differ from the published pi and pi2 (OEIS
A006880, A007508), when one chunk across 2**32, where a C int would
wrap, differs from the numpy reference in `reference.py`, when the
scan by groups of 8 words (a chunk with no checkpoints, on a CPU with
AVX-512 VPOPCNTDQ) or by words (a checkpoint every 1000 integers) differs
from the reference (in blocks of 64 bytes and of the kernel's own size,
ending in a short group and a tail), when the compiled Philox fill
differs from numpy's `Generator(Philox).random` (over lengths that end
inside a group of 16 counters, from an offset inside a block, and from a
counter whose word 0 wraps and carries into words 1..3), when the
sampler's draws, with the pending ones finished by numpy, differ from
numpy's log1p, floor and minimum (with and without a cap, and at a q that
puts a quotient within ulps of an integer, which must pend, and at
q = 1 - 2**-53, where every draw must pend; with room for every pending
draw and for 1, 8 or 9, where a call must stop when its list is full and
the next resume there), or when the histogram differs from a Counter
(int64 and uint32 streams, with values inside and outside its table,
which then must stay untouched).  Each call gets one element more than it
may touch, and a store there, or a read of it, fails the check.
"""

import collections
import dataclasses
import math
import sys

import numpy as np

import reference
from twinsep import montecarlo, sieve


def check_fill(lib):
    key = np.random.Philox(2**64 - 1).state["state"]["key"]
    for counter in ([0, 0, 0, 0], [2**64 - 40, 2**64 - 1, 2**64 - 1, 0]):
        ctr = np.array(counter, dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(counter=ctr, key=key)).random(5000)
        for first, n in ((0, 5000), (3, 4997), (1, 1), (6, 63), (129, 701)):
            # a buffer one double longer catches a store past out[n - 1]
            got = np.full(n + 1, np.nan)
            lib.twinsep_philox_fill(key, ctr, first, n, 1.0, got[:n])
            assert np.array_equal(got[:n], want[first : first + n]), (counter, first, n)
            assert np.isnan(got[n]), (counter, first, n)


def geometric(lib, key, ctr, first, n, f, lnq, m, cap):
    """twinsep_geometric's draws first .. first + n - 1, in calls whose pending list holds cap
    draws, each call's pending draws finished by numpy's ufuncs as they come; and per call,
    (draws made, the pending draws' indices in the range, their v)."""
    # each buffer one element longer, and out also from 0: a store outside changes a sentinel
    out = np.full(first + n + 1, -7, dtype=np.int64)
    pend_idx = np.full(cap + 1, -7, dtype=np.int64)
    pend_v = np.full(cap + 1, np.nan)
    npend = np.full(1, -7, dtype=np.int64)
    at = [a.ctypes.data for a in (key, ctr, out, pend_idx, pend_v, npend)]
    calls, lo, end = [], first, first + n
    while lo < end:
        stop = lib.twinsep_geometric(at[0], at[1], lo, end, f, lnq, m, at[2], at[3], at[4], cap,
                                     at[5])
        k = int(npend[0])
        case = (f, lnq, m, first, n, cap, lo, stop, k)
        assert pend_idx[cap] == -7 and np.isnan(pend_v[cap]), case
        # it stops early only at a draw that pends when the list is full
        assert lo < stop <= end and 0 <= k <= min(cap, stop - lo), case
        assert stop == end or k == cap, case
        assert np.all(np.diff(pend_idx[:k]) > 0), case
        assert k == 0 or lo <= pend_idx[0] and pend_idx[k - 1] < stop, case
        out[pend_idx[:k]] = np.minimum(np.floor(np.log1p(pend_v[:k]) / lnq), m)
        calls.append((stop - lo, pend_idx[:k] - first, pend_v[:k].copy()))
        lo = stop
    assert np.all(out[:first] == -7) and out[end] == -7, (f, lnq, m, first, n, cap)
    return out[first:end], calls


def check_geometric(lib):
    key = np.random.Philox(7).state["state"]["key"]
    ctr = np.zeros(4, dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(counter=ctr, key=key)).random(5000)
    top = 1.0 - 2.0**-53  # the largest double below 1: q = top gives the largest quotients
    # (f, log q, cap, which draws must pend): draw 10's quotient is within ulps of 7 at the third
    cases = ((-1.0, math.log(0.5), math.inf, ()), (-0.7, math.log(8 / 9), 5.0, ()),
             (-1.0, math.log1p(-u[10]) / 7, math.inf, (10,)), (-1.0, math.log(top), 0.0, ()),
             (-1.0, math.log(top), math.inf, range(u.size)))
    for f, lnq, m, pending in cases:
        for first, n in ((0, 5000), (3, 4997), (1, 1), (6, 63), (129, 701)):
            v = f * u[first : first + n]
            want = np.minimum(np.floor(np.log1p(v) / lnq), m).astype(np.int64)
            for cap in (n, 1, 8, 9):  # room for every draw, or for fewer
                got, calls = geometric(lib, key, ctr, first, n, f, lnq, m, cap)
                case = (f, lnq, m, first, n, cap)
                assert np.array_equal(got, want), case
                idx = np.concatenate([i for _, i, _ in calls])
                assert np.array_equal(np.concatenate([w for _, _, w in calls]), v[idx]), case
                must = [i - first for i in pending if first <= i < first + n]
                assert np.isin(must, idx).all(), case
    # at q = top every draw pends: exactly a full list takes one call, and one draw more a second
    cap = montecarlo.PENDING_DRAWS
    u = np.random.Generator(np.random.Philox(counter=ctr, key=key)).random(cap + 1)
    for n in (cap, cap + 1):
        got, calls = geometric(lib, key, ctr, 0, n, -1.0, math.log(top), math.inf, cap)
        assert [(done, i.tolist()) for done, i, _ in calls] == [
            (cap, list(range(cap))), *([(1, [cap])] if n > cap else [])
        ], n
        assert np.array_equal(got, np.floor(np.log1p(-u[:n]) / math.log(top)).astype(np.int64)), n


def check_histogram(lib):
    cap = lib.histogram_cap
    rng = np.random.default_rng(4)
    streams = [rng.geometric(0.1, 1000) - 1, rng.integers(0, 5000, 10000), np.array([0]),
               np.array([cap - 1]), np.array([cap]), np.array([cap + 1, cap + 6, 0]),
               np.array([3, -1, 2]), np.array([2**62, 5])]
    for stream in streams:
        counter = collections.Counter(stream.tolist())
        want_top = -1 if min(counter) < 0 else max(counter) + 1
        for dtype, past in ((np.int64, -1), (np.uint32, 2**32 - 1)):
            if dtype == np.uint32 and not all(0 <= x < 2**32 for x in counter):
                continue
            # one more value that would change the result if it were read
            x = np.append(stream, past).astype(dtype)
            got = np.zeros(cap + 1, dtype=np.int64)
            top = lib.twinsep_histogram(x.ctypes.data, stream.size, x.itemsize, got.ctypes.data)
            assert top == want_top, (dtype, top, want_top)
            if 0 <= top <= cap:
                bins = {v: int(c) for v, c in enumerate(got[:cap]) if c}
                assert bins == counter, dtype
            else:
                assert not got.any(), dtype  # counts untouched
            assert got[cap] == 0, dtype


def check_scan(lib):
    kernel_block = sieve.KERNEL_BLOCK
    for low, high in ((9, 30 * (2 * kernel_block + 100) + 1),
                      (2**32 - 2**20 + 1, 2**32 + 2**20 + 1)):
        base = sieve._odd_base_primes(math.isqrt(high))
        for grid in ((), tuple(range(low, high, 1000))):
            want = reference.sieve_chunk(low, high, 1 << 20, base, grid)
            for block in (64, kernel_block):
                sieve.KERNEL_BLOCK = block
                got = sieve._kernel_chunk(lib, low, high, base, grid)
                case = (low, high, len(grid), block)
                assert got.seps.tolist() == want.seps.tolist(), case
                assert dataclasses.replace(got, seps=want.seps) == want, case
    sieve.KERNEL_BLOCK = kernel_block


def main(flags):
    sieve.KERNEL_CC += tuple(flags)
    rep = sieve.sieve_range(sieve.SieveConfig(limit=200_000_000, checkpoint_grid=(10**8, 2 * 10**8)))
    print(rep.stats)
    row = rep.counts[0]
    assert (row.n, row.pi1, row.pi2) == (10**8, 5761455, 440312), row

    low = 2**32 - 2**22 + 1
    high = low + 2**23
    grid = (low, 2**32 - 1, 2**32 + 15, high - 1)
    base = sieve._odd_base_primes(math.isqrt(high))
    got = sieve._kernel_chunk(sieve._load_kernel(), low, high, base, grid)
    want = reference.sieve_chunk(low, high, 1 << 20, base, grid)
    assert got.seps.tolist() == want.seps.tolist()
    assert dataclasses.replace(got, seps=None) == dataclasses.replace(want, seps=None)
    lib = sieve._load_kernel()
    check_scan(lib)
    check_fill(lib)
    check_geometric(lib)
    check_histogram(lib)


if __name__ == "__main__":
    main(sys.argv[1:])
