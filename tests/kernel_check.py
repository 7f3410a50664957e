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
sampler's draws differ from numpy's log1p, floor and minimum (with and
without a cap, and at a q that puts a quotient within ulps of an integer,
which must pend, and at q = 1 - 2**-53, where every draw must pend; a
pending draw must hold the bits of its v in its own slot, and the call
must return how many pend), or when the histogram differs from a Counter
(int64 and uint32 streams, with values inside its table; for a stream
with a value outside it, the call must return -1 and leave the counts
untouched).  Each call gets one element more than it may touch (the
sampler's out one on each side), and a store there, or a read of it,
fails the check.
"""

import collections
import dataclasses
import math
import sys

import numpy as np

import reference
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


def geometric(lib, key, ctr, first, n, f, lnq, m):
    """twinsep_geometric's slots first .. first + n - 1 from one call, a draw or a pending v's
    bits each; and which of them pend, the negative ones."""
    # out has one element more on each side of [first, first + n): a store there changes a sentinel
    buf = np.full(first + n + 2, -7, dtype=np.int64)
    end = first + n
    npend = lib.twinsep_geometric(key.ctypes.data, ctr.ctypes.data, first, end, f, lnq, m,
                                  buf[1:].ctypes.data)
    case = (f, lnq, m, first, n)
    assert np.all(buf[: first + 1] == -7) and buf[end + 1] == -7, case
    got = buf[first + 1 : end + 1]
    pending = got < 0
    assert npend == np.count_nonzero(pending), case
    return got, pending


def check_geometric(lib):
    key = np.random.Philox(7).state["state"]["key"]
    ctr = np.zeros(4, dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(counter=ctr, key=key)).random(8193)
    top = 1.0 - 2.0**-53  # the largest double below 1: q = top gives the largest quotients
    ranges = ((0, 5000), (3, 4997), (1, 1), (6, 63), (129, 701))
    # (f, log q, cap, which draws must pend, ranges): draw 10's quotient is within ulps of 7 at
    # the third; at q = top every draw pends, also over 8192 and 8193 draws
    cases = ((-1.0, math.log(0.5), math.inf, (), ranges),
             (-0.7, math.log(8 / 9), 5.0, (), ranges),
             (-1.0, math.log1p(-u[10]) / 7, math.inf, (10,), ranges),
             (-1.0, math.log(top), 0.0, (), ranges),
             (-1.0, math.log(top), math.inf, range(u.size), ranges + ((0, 8192), (0, 8193))))
    for f, lnq, m, must, ranges in cases:
        for first, n in ranges:
            v = f * u[first : first + n]
            want = np.minimum(np.floor(np.log1p(v) / lnq), m).astype(np.int64)
            got, pending = geometric(lib, key, ctr, first, n, f, lnq, m)
            case = (f, lnq, m, first, n)
            assert np.array_equal(got[pending], v[pending].view(np.int64)), case
            assert np.array_equal(got[~pending], want[~pending]), case
            assert pending[[i - first for i in must if first <= i < first + n]].all(), case


def check_histogram(lib):
    cap = lib.histogram_cap
    rng = np.random.default_rng(4)
    streams = [rng.geometric(0.1, 1000) - 1, rng.integers(0, 5000, 10000), np.array([0]),
               np.array([cap - 1]), np.array([cap]), np.array([cap + 1, cap + 6, 0]),
               np.array([3, -1, 2]), np.array([2**62, 5])]
    for stream in streams:
        counter = collections.Counter(stream.tolist())
        # -1 for a value outside the table [0, cap), whatever it is
        want_top = max(counter) + 1 if 0 <= min(counter) and max(counter) < cap else -1
        for dtype, past in ((np.int64, -1), (np.uint32, 2**32 - 1)):
            if dtype == np.uint32 and not all(0 <= x < 2**32 for x in counter):
                continue
            # one more value that would change the result if it were read
            x = np.append(stream, past).astype(dtype)
            got = np.zeros(cap + 1, dtype=np.int64)
            top = lib.twinsep_histogram(x.ctypes.data, stream.size, x.itemsize, got.ctypes.data)
            assert top == want_top, (dtype, top, want_top)
            if top >= 0:
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
