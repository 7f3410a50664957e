"""Check that the compiled sieve kernel builds, loads and counts exactly.

    python tests/kernel_check.py [extra cc flags...]

The flags are appended to `sieve.KERNEL_CC`, so a sanitizer build runs the
same checks, e.g. `python tests/kernel_check.py -fsanitize=undefined
-fno-sanitize-recover=all`.  It fails when the kernel does not build,
when the counts at 1e8 differ from the published pi and pi2 (OEIS
A006880, A007508), when one chunk across 2**32, where a C int would
wrap, or one whole chunk of CHUNK_SPAN integers ending at 1e9, which
crosses all 64 blocks with both tiers of middle primes (base primes up
to 31607), differs from the numpy reference in `reference.py`, when the
scan by groups of 8 words (a chunk with no checkpoints, on a CPU with
AVX-512 VPOPCNTDQ, BITALG and VBMI2) or by words (a checkpoint every 1000
integers) differs from the reference or from the other (in blocks of 64
bytes and of the kernel's own size, ending in a short group and a tail;
from 9 and from a twin, with records in the middle and in the last word
of a group, and with a group whose first twin's upper member is bit 0 of
a byte inside a word), when the compiled Philox fill differs from numpy's
`Generator(Philox).random` (over lengths that end inside a group of 16
counters, from an offset inside a block, and from a counter whose word 0
wraps and carries into words 1..3), when the
sampler's draws differ from numpy's log1p, floor and minimum (with and
without a cap, and at a q that puts a quotient within ulps of an integer,
which must pend, and at q = 1 - 2**-53, where every draw must pend; a
pending draw must hold the bits of its v in its own slot, and the call
must return how many pend), or when the histogram differs from a Counter
(int64 and uint32 streams, with values inside its table, counted into rows
of 0, 1, 255, 256 and 257 values by pieces that split rows; for a piece with
a value outside it, the call must return -1, and for a one-row stream leave
the counts untouched).  Each call gets one element more than it may touch (the
sampler's out one on each side), and a store there, or a read of it,
fails the check.  It prints which scan the kernel takes on this CPU: on
one without those features, only the scan by words is checked.
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


def histogram(lib, stream, ends, pieces):
    """[(the Counter of each row of the table, the call's return value)] for each piece (lo, hi)
    of the stream counted by twinsep_histogram into rows that end at ends, as int64 and, where
    every value fits, as uint32; a row the calls left at zero is an empty Counter."""
    cap, got = lib.histogram_cap, []
    ends = np.array(ends, dtype=np.int64)
    for dtype, past in ((np.int64, -1), (np.uint32, 2**32 - 1)):
        if dtype == np.uint32 and not all(0 <= x < 2**32 for x in stream.tolist()):
            continue
        # one more value and one more count than the calls may touch, each of which would
        # change the result if it were read or written
        x = np.append(stream, past).astype(dtype)
        table = np.zeros(ends.size * cap + 1, dtype=np.int64)
        tops = [lib.twinsep_histogram(x.ctypes.data, lo, hi, x.itemsize, ends.ctypes.data,
                                      table.ctypes.data) for lo, hi in pieces]
        assert table[-1] == 0, dtype
        rows = [collections.Counter({v: int(c) for v, c in enumerate(row) if c})
                for row in table[:-1].reshape(ends.size, cap)]
        got.append((rows, tops))
    return got


def check_histogram(lib):
    cap = lib.histogram_cap
    rng = np.random.default_rng(4)
    streams = [rng.geometric(0.1, 1000) - 1, rng.geometric(0.1, 100) - 1,
               rng.integers(0, 5000, 10000), np.array([0]),
               np.array([cap - 1]), np.array([cap]), np.array([cap + 1, cap + 6, 0]),
               np.array([3, -1, 2]), np.array([2**62, 5])]
    for stream in streams:  # one row, one piece
        counter = collections.Counter(stream.tolist())
        # -1 for a value outside the table [0, cap), whatever it is
        want_top = max(counter) + 1 if 0 <= min(counter) and max(counter) < cap else -1
        for rows, tops in histogram(lib, stream, [stream.size], [(0, stream.size)]):
            assert tops == [want_top], (stream, tops, want_top)
            assert rows == [counter if want_top >= 0 else {}], stream  # -1: counts untouched
    # rows of 0, 1, 255, 256 and 257 values, in one piece, in pieces that split rows, the
    # 257-value row across two of them, and in pieces of 64 values
    sizes = [0, 1, 255, 256, 0, 257, 1]
    ends = np.cumsum(sizes).tolist()
    stream = rng.geometric(0.1, ends[-1]) - 1
    want = [collections.Counter(stream[lo:hi].tolist()) for lo, hi in zip([0, *ends], ends)]
    for cuts in ((), (100, 256), (600,), tuple(range(64, ends[-1], 64))):
        pieces = list(zip([0, *cuts], [*cuts, ends[-1]]))
        for rows, tops in histogram(lib, stream, ends, pieces):
            assert rows == want, cuts
            assert max(tops) == stream.max() + 1 and min(tops) >= 0, (cuts, tops)
    # a value outside the table in a later row: the piece that holds it returns -1
    for wide in (cap, cap + 5, -1, 2**62):
        bad = stream.copy()
        bad[700] = wide
        pieces = [(0, 600), (600, ends[-1])]
        for _, tops in histogram(lib, bad, ends, pieces):
            assert tops[0] >= 0 and tops[1] == -1, (wide, tops)


def check_scan(lib):
    kernel_block = sieve.KERNEL_BLOCK
    # from 9, the densest twins, the first, (11 13), in the first group of 8 words; from the
    # twin of 1000037, whose separation from no twin before, -1, sets no record; records in
    # the middle of a group (closed by the twin of 1002719, word 3 of group 1) and in a group's
    # last word (1270559, word 7 of group 140); the twin of 3000299 as group 1's first, its
    # upper member bit 0 of byte 4 of the group's first word; a chunk across 2**32
    for low, high in ((9, 30 * (2 * kernel_block + 100) + 1), (1_000_037, 1_100_037),
                      (999_999, 1_300_000), (3000301 - 30 * 68, 3100299),
                      (2**32 - 2**20 + 1, 2**32 + 2**20 + 1)):
        base = sieve._odd_base_primes(math.isqrt(high))
        grids = ((), tuple(range(low, high, 1000)))
        wants = [reference.sieve_chunk(low, high, 1 << 20, base, grid) for grid in grids]
        for block in (64, kernel_block):
            sieve.KERNEL_BLOCK = block
            got = [sieve._kernel_chunk(lib, low, high, base, grid) for grid in grids]
            for grid, summary, want in zip(grids, got, wants):
                case = (low, high, len(grid), block)
                assert summary.seps.tolist() == want.seps.tolist(), case
                assert dataclasses.replace(summary, seps=want.seps) == want, case
            # with no grid, the scan by groups of 8 words where the CPU has it; with a checkpoint
            # every 1000 integers, by words: the same stream, records and counts
            vector, words = (dataclasses.replace(g, seps=g.seps.tolist(), checkpoints=())
                             for g in got)
            assert vector == words, (low, high, block)
    sieve.KERNEL_BLOCK = kernel_block


def main(flags):
    sieve.KERNEL_CC += tuple(flags)
    rep = sieve.sieve_range(sieve.SieveConfig(limit=200_000_000, checkpoint_grid=(10**8, 2 * 10**8)))
    print(rep.stats)
    row = rep.counts[0]
    assert (row.n, row.pi1, row.pi2) == (10**8, 5761455, 440312), row

    lib = sieve._load_kernel()
    if lib.scan == "vector":
        print("scan: vector; the scans by groups of 8 words and by words are both checked")
    else:
        print("scan: words; this CPU lacks an AVX-512 feature of the scan by groups of 8 "
              "words (F, BW, DQ, VBMI, VBMI2, BITALG, VPOPCNTDQ), so only the scan by words is "
              "checked")
    for low, high, grid in ((2**32 - 2**22 + 1, 2**32 + 2**22 + 1, (2**32 - 1, 2**32 + 15)),
                            (10**9 + 1 - sieve.CHUNK_SPAN, 10**9 + 1, (10**9 - 10**8,))):
        grid = (low, *grid, high - 1)
        base = sieve._odd_base_primes(math.isqrt(high - 1))
        got = sieve._kernel_chunk(lib, low, high, base, grid)
        want = reference.sieve_chunk(low, high, 1 << 20, base, grid)
        assert got.seps.tolist() == want.seps.tolist(), (low, high)
        assert dataclasses.replace(got, seps=None) == dataclasses.replace(want, seps=None)
    check_scan(lib)
    check_fill(lib)
    check_geometric(lib)
    check_histogram(lib)


if __name__ == "__main__":
    main(sys.argv[1:])
