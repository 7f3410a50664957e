"""Check that the compiled sieve kernel builds, loads and counts exactly.

    python tests/kernel_check.py [extra cc flags...]

The flags are appended to `sieve.KERNEL_CC`, so a sanitizer build runs the
same checks, e.g. `python tests/kernel_check.py -fsanitize=undefined
-fno-sanitize-recover=all`.  It fails when `sieve_range` falls back to
numpy, when the counts at 1e8 differ from the published pi and pi2 (OEIS
A006880, A007508), when one chunk across 2**32, where a C int would
wrap, differs from the numpy reference, when the compiled Philox fill
differs from numpy's `Generator(Philox).random` (over lengths that end
inside a group of 16 counters, from an offset inside a block, and from a
counter whose word 0 wraps and carries into words 1..3), when the
sampler's draws, with the pending ones finished by numpy, differ from
numpy's log1p, floor and minimum (with and without a cap, and at a q
that puts a quotient within ulps of an integer, which must pend, and at
q = 1 - 2**-53, where every draw must pend), or when the histogram
differs from a Counter (int64 and uint32 streams, with values inside and
outside its table, which then must stay untouched).  Each call gets one
element more than it may touch, and a store there, or a read of it,
fails the check.
"""

import collections
import dataclasses
import math
import sys

import numpy as np

from twinsep import sieve


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
            # each buffer one element longer: a store past n - 1 changes its sentinel
            out = np.full(n + 1, -7, dtype=np.int64)
            pend_idx = np.full(n + 1, -7, dtype=np.int64)
            pend_v = np.full(n + 1, np.nan)
            k = lib.twinsep_geometric(key, ctr, first, n, f, lnq, m, out, pend_idx, pend_v)
            case = (f, lnq, m, first, n, k)
            assert out[n] == pend_idx[n] == -7 and np.isnan(pend_v[n]), case
            assert 0 <= k <= n and np.all(np.diff(pend_idx[:k]) > 0), case
            assert np.array_equal(pend_v[:k], v[pend_idx[:k]]), case
            must = [i - first for i in pending if first <= i < first + n]
            assert np.isin(must, pend_idx[:k]).all(), case
            out[pend_idx[:k]] = np.minimum(np.floor(np.log1p(pend_v[:k]) / lnq), m)
            assert np.array_equal(out[:n], want), case


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
            top = lib.twinsep_histogram(x.ctypes.data, stream.size, x.itemsize, got)
            assert top == want_top, (dtype, top, want_top)
            if 0 <= top <= cap:
                bins = {v: int(c) for v, c in enumerate(got[:cap]) if c}
                assert bins == counter, dtype
            else:
                assert not got.any(), dtype  # counts untouched
            assert got[cap] == 0, dtype


def main(flags):
    sieve.KERNEL_CC += tuple(flags)
    rep = sieve.sieve_range(sieve.SieveConfig(limit=200_000_000, checkpoint_grid=(10**8, 2 * 10**8)))
    print(rep.stats)
    assert rep.stats["kernel"] == "c", rep.stats["kernel"]
    row = rep.counts[0]
    assert (row.n, row.pi1, row.pi2) == (10**8, 5761455, 440312), row

    low = 2**32 - 2**22 + 1
    high = low + 2**23
    grid = (low, 2**32 - 1, 2**32 + 15, high - 1)
    base = sieve._odd_base_primes(math.isqrt(high))
    got = sieve._kernel_chunk(sieve._load_kernel(), low, high, base, grid)
    want = sieve._sieve_chunk(low, high, 1 << 20, base, grid)
    assert got.seps.tolist() == want.seps.tolist()
    assert dataclasses.replace(got, seps=None) == dataclasses.replace(want, seps=None)
    lib = sieve._load_kernel()
    check_fill(lib)
    check_geometric(lib)
    check_histogram(lib)


if __name__ == "__main__":
    main(sys.argv[1:])
