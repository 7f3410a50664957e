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
sampler's floor division differs from numpy's floor and minimum (from
v = -0.0 to the largest quotient in range, with and without a cap), or
when the histogram differs from a Counter (int64 and uint32 streams, with
values inside and outside its table, which then must stay untouched).  Each call gets one element more
than it may touch, and a store there, or a read of it, fails the check.
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


def check_floor_div(lib):
    top = 1.0 - 2.0**-53  # the largest double below 1: the largest |log1p(-u)| and q
    lnqs = (math.log(8 / 9), math.log(0.5), math.log(top))
    v = np.log1p(-np.random.default_rng(3).random(1000))
    v[:4] = (-0.0, math.log1p(-top), -1e-300, math.log(8 / 9) * 7)  # the 4th is 7 * lnq exactly
    for lnq in lnqs:
        for m in (math.inf, 0.0, 5.0, 2.0**60):
            want = np.minimum(np.floor(v / lnq), m).astype(np.int64)
            for n in (1, 4, 7, 8, 9, 17, 1000):
                # a NaN past v[n - 1] and a 0 past out[n - 1] show a read or a store past the end
                vin = np.append(v[:n], np.nan)
                got = np.zeros(n + 1, dtype=np.int64)
                lib.twinsep_floor_div(vin, n, lnq, m, got)
                assert np.array_equal(got[:n], want[:n]), (lnq, m, n)
                assert got[n] == 0, (lnq, m, n)


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
    check_floor_div(lib)
    check_histogram(lib)


if __name__ == "__main__":
    main(sys.argv[1:])
