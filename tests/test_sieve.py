import dataclasses
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from twinsep import sieve
from twinsep.errors import ValidationError
from twinsep.sieve import (
    ChunkSummary,
    CountRecord,
    SieveConfig,
    geometric_checkpoints,
    read_separations,
    sieve_range,
    write_separations,
)


ROOT = Path(__file__).resolve().parents[1]

# pi(10^k) (OEIS A006880) and twin pairs (p, p+2) with p+2 <= 10^k (OEIS A007508), k = 1..8
PUBLISHED_PI = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455)
PUBLISHED_PI2 = (2, 8, 35, 205, 1224, 8169, 58980, 440312)

# chunk spans (multiples of 6, as _chunk_plan requires) small enough to put many chunk
# boundaries below 1e5
CHUNK_SPANS = (6, 12, 66, 1002, 30 << 9)


def run(limit, segment_size=1 << 20, grid=()):
    return sieve_range(SieveConfig(limit=limit, segment_size=segment_size, checkpoint_grid=grid))


def run_chunked(limit, span, segment_size=1 << 20, grid=()):
    """sieve_range in-process, with chunks of span integers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "CHUNK_SPAN", span)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        return run(limit, segment_size, grid)


def snapshot(rep):
    """Counts with field types, the stream with its dtype, onsets, metadata."""
    return (
        [[(type(v), v) for v in dataclasses.astuple(r)] for r in rep.counts],
        rep.separations.dtype,
        rep.separations.tolist(),
        [[(type(v), v) for v in onset] for onset in rep.max_separation_onsets],
        rep.metadata,
    )


def oracle_onsets(seps, terms):
    """Each new running maximum of an oracle stream, with its closing twin."""
    out, best = [], -1
    for sep, term in zip(seps, terms):
        if sep > best:
            out.append((sep, term))
            best = sep
    return out


def typed(value):
    """value with the type of every scalar in it, so 1 and np.int64(1) differ."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value), value


def assert_same_summary(got, want):
    for f in dataclasses.fields(ChunkSummary):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.name == "seps":
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert typed(g) == typed(w), f.name


@st.composite
def chunk_case(draw):
    """An odd low >= 9, a high up to 3e6 + 1, a base bound >= isqrt(high - 1), and a grid inside."""
    low = 2 * draw(st.integers(min_value=4, max_value=1_499_999)) + 1
    high = draw(st.integers(min_value=low + 1, max_value=3_000_001))
    bound = math.isqrt(draw(st.integers(min_value=high - 1, max_value=4 * high)))
    grid = draw(st.sets(st.integers(min_value=low, max_value=high - 1), max_size=8))
    return low, high, bound, tuple(sorted(grid))


@st.composite
def limit_and_grid(draw):
    """A limit up to 1e5 and a checkpoint grid of up to 8 points inside [1, limit]."""
    limit = draw(st.integers(min_value=2, max_value=100_000))
    grid = draw(st.sets(st.integers(min_value=1, max_value=limit), max_size=8))
    return limit, tuple(sorted(grid))


@st.composite
def chunked_case(draw):
    """limit_and_grid plus a chunk span giving at most 3000 chunks."""
    limit, grid = draw(limit_and_grid())
    span = draw(st.sampled_from([s for s in CHUNK_SPANS if limit // s <= 3000]))
    return limit, grid, span


class TestCounts:
    def test_limit_2(self):
        rep = run(2)
        assert rep.counts[-1] == CountRecord(n=2, pi1=1, pi2=0)
        assert rep.separations.size == 0

    def test_limit_10(self):
        rep = run(10)
        rec = rep.counts[-1]
        assert (rec.pi1, rec.pi2) == (4, 2)  # twins (3 5) and (5 7)

    def test_limit_100(self):
        rec = run(100).counts[-1]
        assert (rec.pi1, rec.pi2) == (25, 8)
        # 25 primes, trailing singletons 79 83 89 97, minus primes 2 and 3
        assert rec.pi1_adjusted == 25 - 4 - 2

    def test_small_limits_match_oracle(self, oracle100k):
        primes, twins = oracle100k["primes"], oracle100k["twins"]
        for limit in range(2, 400):
            rec = run(limit).counts[-1]
            assert (rec.pi1, rec.pi2) == oracle.counts_at(primes, twins, limit), limit

    def test_monotone_over_checkpoint_grid(self):
        grid = geometric_checkpoints(100_000, per_decade=20, start=100)
        rep = run(100_000, grid=grid)
        pi1 = [r.pi1 for r in rep.counts]
        pi2 = [r.pi2 for r in rep.counts]
        assert pi1 == sorted(pi1)
        assert pi2 == sorted(pi2)

    def test_checkpoint_counts_match_final_runs(self):
        grid = (10, 100, 1000, 9973, 10_000)
        rep = run(10_000, grid=grid)
        for rec in rep.counts:
            alone = run(rec.n).counts[-1]
            assert rec == alone

    def test_pi1_adjusted_matches_oracle(self, oracle100k):
        # every small limit covers the 2-3-5-7 prelude and the first segments
        primes, twins = oracle100k["primes"], oracle100k["twins"]
        for limit in (*range(2, 400), 1000, 4999, 100_000):
            rec = run(limit, segment_size=1024).counts[-1]
            if not any(3 < t and t + 2 <= limit for t in twins):
                assert rec.pi1_adjusted is None, limit
                continue
            trailing = oracle.trailing_singletons(primes, twins, limit)
            assert rec.pi1_adjusted == rec.pi1 - trailing - 2, limit

    def test_published_counts_to_1e8(self):
        grid = tuple(10**k for k in range(1, 9))
        rep = run(10**8, grid=grid)
        assert [r.n for r in rep.counts] == list(grid)
        assert tuple(r.pi1 for r in rep.counts) == PUBLISHED_PI
        assert tuple(r.pi2 for r in rep.counts) == PUBLISHED_PI2

    def test_no_adjustment_before_first_real_twin(self):
        # up to 6 the only twin is (3 5), which never anchors an adjustment
        rec = run(6).counts[-1]
        assert rec.pi2 == 1
        assert rec.pi1_adjusted is None


class TestSeparations:
    def test_stream_to_100(self):
        # twins after (3 5): (5 7) (11 13) (17 19) (29 31) (41 43) (59 61) (71 73)
        # singletons between: -, -, 23, 37, {47 53}, 67
        rep = run(100)
        assert rep.separations.tolist() == [0, 0, 1, 1, 2, 1]

    def test_onsets_to_100(self):
        rep = run(100)
        assert rep.max_separation_onsets == [(0, 11), (1, 29), (2, 59)]

    def test_stream_matches_oracle(self, oracle100k):
        rep = run(oracle100k["limit"])
        assert rep.separations.tolist() == oracle100k["seps"]

    def test_stream_length_invariant(self):
        for limit in (2, 5, 7, 30, 1000, 12345):
            rep = run(limit)
            assert rep.separations.size == max(0, rep.counts[-1].pi2 - 2)

    def test_onsets_match_oracle(self, oracle100k):
        # each new running maximum of the oracle stream, stamped with the
        # lower member of the twin that closes its interval
        expected, best = [], -1
        for sep, term in zip(oracle100k["seps"], oracle100k["terms"]):
            if sep > best:
                expected.append((sep, term))
                best = sep
        rep = run(oracle100k["limit"])
        assert rep.max_separation_onsets == expected

    def test_onsets_strictly_increasing(self, oracle100k):
        rep = run(oracle100k["limit"])
        ons = rep.max_separation_onsets
        assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(ons, ons[1:]))

    def test_twin_disjointness(self, oracle100k):
        twins = [t for t in oracle100k["twins"] if t > 5]
        assert all(b - a >= 4 for a, b in zip(twins, twins[1:]))


class TestDeterminism:
    @pytest.mark.parametrize("segment_size", [1024, 4096, 65536, 1 << 20])
    def test_segment_size_invariance(self, segment_size, oracle100k, monkeypatch):
        # the compiled kernel ignores segment_size: the numpy fallback's segment loop uses it
        monkeypatch.setattr(sieve, "_load_kernel", lambda: None)
        ref = run(oracle100k["limit"])
        assert ref.stats["kernel"] == "numpy"
        rep = run(oracle100k["limit"], segment_size=segment_size)
        assert [dataclasses.astuple(r) for r in rep.counts] == [
            dataclasses.astuple(r) for r in ref.counts
        ]
        assert np.array_equal(rep.separations, ref.separations)
        assert rep.max_separation_onsets == ref.max_separation_onsets

    @settings(max_examples=30, deadline=None)
    @given(
        limit_grid=limit_and_grid(),
        segment_size=st.sampled_from([1024, 2048, 30000, 1 << 20]),
    )
    def test_exactness_random_limits(self, limit_grid, segment_size, oracle100k):
        # the grid usually ends below limit, so the stream outruns the last checkpoint
        limit, grid = limit_grid
        primes, twins = oracle100k["primes"], oracle100k["twins"]
        rep = run(limit, segment_size=segment_size, grid=grid)
        assert [r.n for r in rep.counts] == list(grid or (limit,))
        for rec in rep.counts:
            assert (rec.pi1, rec.pi2) == oracle.counts_at(primes, twins, rec.n), rec.n
        pi2 = oracle.counts_at(primes, twins, limit)[1]
        assert rep.separations.size == max(0, pi2 - 2)
        assert rep.separations.tolist() == oracle100k["seps"][: max(0, pi2 - 2)]


class TestChunks:
    """A run is a plan of chunks folded in order: the plan must not show in the output."""

    def check_against_one_chunk(self, limit, grid, span, segment_size, oracle100k):
        rep = run_chunked(limit, span, segment_size, grid)
        assert snapshot(rep) == snapshot(run(limit, segment_size, grid))
        primes, twins = oracle100k["primes"], oracle100k["twins"]
        for rec in rep.counts:
            assert (rec.pi1, rec.pi2) == oracle.counts_at(primes, twins, rec.n), rec.n
        k = max(0, oracle.counts_at(primes, twins, limit)[1] - 2)
        seps, terms = oracle100k["seps"][:k], oracle100k["terms"][:k]
        assert rep.separations.tolist() == seps
        assert rep.max_separation_onsets == oracle_onsets(seps, terms)

    @pytest.mark.parametrize("segment_size", [1024, 1 << 20])
    def test_boundary_cases(self, segment_size, oracle100k):
        # with 30-integer chunks from 9: the first two primes of [69, 99) are the twin
        # (71 73), [669, 699) holds primes but no twin and the checkpoint 680, and
        # [1329, 1359) holds no prime and the checkpoint 1340
        limit, span, grid = 2000, 30, (10, 72, 73, 680, 1340, 2000)
        primes, twins = oracle100k["primes"], oracle100k["twins"]
        assert [sieve.FIRST_SEGMENT + k * span for k in (2, 22, 44)] == [69, 669, 1329]
        assert [p for p in primes if 69 <= p < 99][:2] == [71, 73]
        assert any(669 <= p < 699 for p in primes)
        assert not any(669 <= t < 697 for t in twins)
        assert not any(1329 <= p < 1359 for p in primes)
        self.check_against_one_chunk(limit, grid, span, segment_size, oracle100k)

    @settings(max_examples=50, deadline=None)
    @given(limit=st.integers(min_value=sieve.FIRST_SEGMENT, max_value=10**11))
    def test_every_chunk_starts_on_an_odd_multiple_of_3(self, limit):
        # so low is never prime, and no twin (low - 2, low) straddles two chunks
        plan = sieve._chunk_plan(limit)
        lows = [low for low, _ in plan]
        assert all(low % 6 == 3 for low in lows)
        assert lows == [sieve.FIRST_SEGMENT, *(high for _, high in plan[:-1])]
        assert plan[-1][1] == limit + 1

    @settings(max_examples=40, deadline=None)
    @given(case=chunked_case(), segment_size=st.sampled_from([1024, 2048, 1 << 20]))
    @example(case=(400, (3, 9, 10, 11, 13, 200, 397), 6), segment_size=1024)  # chunks without primes
    def test_chunk_span_invariance(self, case, segment_size, oracle100k):
        limit, grid, span = case
        self.check_against_one_chunk(limit, grid, span, segment_size, oracle100k)

    def test_thread_pool(self, monkeypatch):
        # the compiled kernel, then numpy, each on a thread pool of two workers
        grid = geometric_checkpoints(300_000, per_decade=5, start=100)
        ref = run(300_000, segment_size=1024, grid=grid)
        monkeypatch.setattr(sieve, "CHUNK_SPAN", 30 << 11)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        compiled = run(300_000, segment_size=1024, grid=grid)
        assert compiled.stats["kernel"] == ("c" if sieve._load_kernel() else "numpy")
        monkeypatch.setattr(sieve, "_load_kernel", lambda: None)
        fallback = run(300_000, segment_size=1024, grid=grid)
        assert fallback.stats["kernel"] == "numpy"
        for rep in (compiled, fallback):
            assert (rep.stats["workers"], rep.stats["chunks"]) == (2, 5)
            assert snapshot(rep) == snapshot(ref)

    def test_script_without_main_guard(self, tmp_path):
        # workers started by spawn would re-run this script on import and break the pool
        script = tmp_path / "script.py"
        script.write_text(
            "import dataclasses, os\n"
            "from twinsep import sieve\n"
            "sieve._load_kernel = lambda: None\n"
            "sieve.CHUNK_SPAN = 30 << 11\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "rep = sieve.sieve_range(sieve.SieveConfig(limit=300_000))\n"
            "print(rep.stats['kernel'], rep.stats['workers'], *dataclasses.astuple(rep.counts[-1]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["numpy", "2", "300000", "25997", "2994", "25973"]

    def test_stats(self, monkeypatch):
        rep = run(100_000, segment_size=1024)
        assert set(rep.stats) == {
            "kernel", "workers", "chunks", "segments", "wall_s", "segments_per_s", "peak_rss_mb"
        }
        # 3334 wheel bytes: one 64 KB kernel block, or 49 numpy segments of 1024 odd flags
        blocks = 1 if rep.stats["kernel"] == "c" else 49
        assert (rep.stats["workers"], rep.stats["chunks"], rep.stats["segments"]) == (1, 1, blocks)
        assert rep.stats["peak_rss_mb"] > 0
        assert not set(rep.stats) & set(rep.metadata)
        monkeypatch.setattr(sieve, "_load_kernel", lambda: None)
        rep = run(100_000, segment_size=1024)
        assert (rep.stats["kernel"], rep.stats["segments"]) == ("numpy", 49)

    def test_import_leaves_process_pool_unloaded(self, tmp_path):
        # and builds no kernel: that waits for the first sieve
        code = "import sys, twinsep; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), XDG_CACHE_HOME=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        assert list(tmp_path.iterdir()) == []


def wheel_examples(test):
    """Chunks that start or end at the edges of the kernel's wheel bytes and words.

    A wheel byte covers 30 integers and a word 240, from low - low % 30.
    (239 241) and (269 271) are twins whose lower member is bit 63 of a
    word, for low = 9 and low = 31.
    """
    cases = [(low, low + 2000, 47, (low, low + 1000)) for low in range(9, 41, 2)]  # each low % 30
    cases += [(low, 1000, 31, grid) for low in (9, 31) for grid in ((), (240,), (241,), (300,))]
    cases += [(low, high, 17, ()) for low in (9, 31) for high in (240, 241, 242, 270, 271, 272)]
    for case in cases:
        for block in (8, 64):
            test = example(case=case, segment_size=1024, block=block)(test)
    return test


class TestKernel:
    """The compiled chunk function against the numpy reference, and its loader."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=chunk_case(),
        segment_size=st.sampled_from([1024, 2048, 30000, 1 << 20]),
        block=st.sampled_from([8, 64, 4096, sieve.KERNEL_BLOCK]),  # wheel bytes
    )
    @example(case=(9, 10, 3, (9,)), segment_size=1024, block=8)  # one odd number, no prime
    @example(case=(9, 12, 3, ()), segment_size=1024, block=8)
    @wheel_examples
    def test_matches_numpy_chunk(self, kernel, case, segment_size, block):
        low, high, bound, grid = case
        base = sieve._odd_base_primes(bound)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "KERNEL_BLOCK", block)
            got = sieve._kernel_chunk(kernel, low, high, base, grid)
        assert_same_summary(got, sieve._sieve_chunk(low, high, segment_size, base, grid))

    @pytest.mark.parametrize("block", [8, 64])
    @pytest.mark.parametrize("low", [9, 29, 31, 37, 89, 97, 101])
    def test_presieved_primes_set_back(self, kernel, low, block):
        # the presieved primes 7..97 sit in wheel bytes 0..3 from low - low % 30; each high
        # cuts between two of them, or leaves them all in range
        base = sieve._odd_base_primes(math.isqrt(2000))
        presieved = [p for p in range(7, 98) if all(p % q for q in range(2, p))]
        highs = {low + 1, low + 2, 2000} | {p + 1 for p in presieved if p >= low}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "KERNEL_BLOCK", block)
            for high in sorted(highs):
                got = sieve._kernel_chunk(kernel, low, high, base, (high - 1,))
                assert_same_summary(got, sieve._sieve_chunk(low, high, 1024, base, (high - 1,)))

    @pytest.mark.parametrize("block", [8, 64])
    def test_bucketed_primes_near_2_32(self, kernel, block):
        # nearly every base prime (up to 65537) exceeds a block of 8 or 64 wheel bytes
        low = 2**32 - 2**16 + 1
        high = low + 2**17
        base = sieve._odd_base_primes(math.isqrt(high))
        assert np.count_nonzero(base >= block) > 0.99 * base.size
        grid = (low, 2**32 - 1, 2**32 + 15, high - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "KERNEL_BLOCK", block)
            got = sieve._kernel_chunk(kernel, low, high, base, grid)
        assert_same_summary(got, sieve._sieve_chunk(low, high, 1 << 20, base, grid))

    def test_bucketed_prime_skips_blocks(self, kernel):
        # 64-byte blocks over 2**22 integers: 2185 blocks, and the base primes, up to 3767,
        # step over as many as 58 blocks between two hits of one progression
        low = 10**7 + 1
        high = low + 2**22
        base = sieve._odd_base_primes(math.isqrt(high))
        assert base[-1] > 50 * 64
        grid = (low + 2**21, high - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "KERNEL_BLOCK", 64)
            got = sieve._kernel_chunk(kernel, low, high, base, grid)
        assert_same_summary(got, sieve._sieve_chunk(low, high, 1 << 20, base, grid))

    def test_chunk_above_2_32(self, kernel):
        # low and every prime index arithmetic pass 2**32: a C int would wrap
        low = 2**32 - 2**22 + 1
        high = low + 2**23
        base = sieve._odd_base_primes(math.isqrt(high))
        grid = (low, 2**32 - 1, 2**32 + 15, high - 1)
        got = sieve._kernel_chunk(kernel, low, high, base, grid)
        assert_same_summary(got, sieve._sieve_chunk(low, high, 1 << 20, base, grid))
        n, below, _, _ = got.checkpoints[1]
        assert n == 2**32 - 1 and got.twins > 0 and got.primes > below  # primes above 2**32

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiler_means_compiled_kernel(self):
        assert run(10**6).stats["kernel"] == "c"

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert sieve._load_kernel.__wrapped__() is not None
        built = list((tmp_path / "twinsep").iterdir())
        assert len(built) == 1 and built[0].name.startswith("chunk-")
        assert built[0].suffix == ".so"
        stamp = built[0].stat().st_mtime_ns
        assert sieve._load_kernel.__wrapped__() is not None
        assert list((tmp_path / "twinsep").iterdir()) == built
        assert built[0].stat().st_mtime_ns == stamp  # reused, not rebuilt

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_unwritable_cache_builds_in_a_temp_dir(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert sieve._load_kernel.__wrapped__() is not None
        assert list(tmp_path.iterdir()) == [blocker]

    def test_failed_build_gives_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(sieve, "KERNEL_CC", (*sieve.KERNEL_CC, "-no-such-option"))
        assert sieve._load_kernel.__wrapped__() is None
        assert list((tmp_path / "twinsep").glob("*")) == []

    def test_no_compiler_gives_none(self, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert sieve._load_kernel.__wrapped__() is None


class TestConfigValidation:
    def test_limit_too_small(self):
        with pytest.raises(ValidationError):
            SieveConfig(limit=1)

    def test_limit_too_large(self):
        # 2**62 keeps every int64 argument and product of the compiled kernel in range
        SieveConfig(limit=2**62)
        with pytest.raises(ValidationError, match=r"2\*\*62"):
            SieveConfig(limit=2**62 + 1)

    def test_segment_too_small(self):
        with pytest.raises(ValidationError):
            SieveConfig(limit=100, segment_size=512)

    def test_grid_not_increasing(self):
        with pytest.raises(ValidationError):
            SieveConfig(limit=100, checkpoint_grid=(10, 10, 50))

    def test_grid_beyond_limit(self):
        with pytest.raises(ValidationError):
            SieveConfig(limit=100, checkpoint_grid=(10, 200))

    def test_count_record_invariant(self):
        with pytest.raises(ValidationError):
            CountRecord(n=10, pi1=2, pi2=2)


class TestCheckpointHelpers:
    def test_geometric_grid_shape(self):
        grid = geometric_checkpoints(10**6, per_decade=20, start=1000)
        assert grid[0] >= 1000
        assert grid[-1] == 10**6
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert len(grid) == 61  # 3 decades at 20/decade, inclusive

    def test_geometric_grid_below_start(self):
        assert geometric_checkpoints(500, per_decade=20, start=1000) == (500,)


class TestSerialization:
    def test_separation_roundtrip(self, tmp_path):
        path = tmp_path / "seps.bin"
        seps = run(10_000).separations
        write_separations(path, seps)
        back = read_separations(path)
        assert np.array_equal(back, seps)
        # little-endian u32 on disk
        assert path.stat().st_size == 4 * seps.size
        raw = path.read_bytes()
        assert int.from_bytes(raw[:4], "little") == int(seps[0])

    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_out_of_range_rejected(self, tmp_path, bad):
        with pytest.raises(ValidationError, match="32-bit"):
            write_separations(tmp_path / "seps.bin", np.array([0, bad], dtype=np.int64))

    @pytest.mark.parametrize("dtype", ["<u4", ">u4", np.int64])
    def test_written_bytes(self, tmp_path, dtype):
        # a <u4 stream is written as it is; every other dtype is range-checked and cast
        values = [0, 1, 255, 2**16 + 3, 2**32 - 1]
        path = tmp_path / "seps.bin"
        write_separations(path, np.array(values, dtype=dtype))
        assert path.read_bytes() == b"".join(v.to_bytes(4, "little") for v in values)

    def test_partial_record_rejected(self, tmp_path):
        path = tmp_path / "seps.bin"
        write_separations(path, run(10_000).separations)
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02")
        with pytest.raises(ValidationError, match="4-byte"):
            read_separations(path)
