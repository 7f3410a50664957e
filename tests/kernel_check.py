"""Check that the compiled sieve kernel builds, loads and counts exactly.

    python tests/kernel_check.py [extra cc flags...]

The flags are appended to `sieve.KERNEL_CC`, so a sanitizer build runs the
same checks, e.g. `python tests/kernel_check.py -fsanitize=undefined
-fno-sanitize-recover=all`.  It fails when `sieve_range` falls back to
numpy, when the counts at 1e8 differ from the published pi and pi2 (OEIS
A006880, A007508), when one chunk across 2**32, where a C int would
wrap, differs from the numpy reference, or when the compiled Philox fill
differs from numpy's `Generator(Philox).random`: over lengths that end
inside a group of 16 counters, from an offset inside a block, and from a
counter whose word 0 wraps and carries into words 1..3.
"""

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
            lib.twinsep_philox_fill(key, ctr, first, n, got[:n])
            assert np.array_equal(got[:n], want[first : first + n]), (counter, first, n)
            assert np.isnan(got[n]), (counter, first, n)


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
    check_fill(sieve._load_kernel())


if __name__ == "__main__":
    main(sys.argv[1:])
