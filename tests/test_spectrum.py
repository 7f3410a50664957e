import collections
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinsep import sieve
from twinsep.errors import ValidationError
from twinsep.sieve import CountRecord, SieveConfig, sieve_range
from twinsep.spectrum import (
    S0Convention,
    S0Estimate,
    SeparationSpectrum,
    accumulate,
    merge,
    read_spectrum_csv,
    s0_from_counts,
    write_spectrum_csv,
)

sep_lists = st.lists(st.integers(min_value=0, max_value=60), max_size=200)


class TestAccumulate:
    def test_stream_to_100(self):
        spec = accumulate([0, 0, 1, 1, 2, 1])
        assert spec.bins == {0: 2, 1: 3, 2: 1}
        assert spec.total_intervals == 6
        assert spec.total_singletons == 5

    def test_empty(self):
        spec = accumulate([])
        assert spec.bins == {}
        assert (spec.total_intervals, spec.total_singletons) == (0, 0)

    def test_singleton(self):
        assert accumulate([7]).bins == {7: 1}

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            accumulate([1, -2])

    @pytest.mark.parametrize(
        "stream", [[np.inf, 1.0], [1.0, np.nan], [-np.inf], [2.0**63], [1e300, 0.0]]
    )
    def test_rejects_non_finite_and_huge_floats(self, stream):
        # before the cast to int64, so numpy's "invalid value encountered in cast" never fires
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"finite integers below 2\*\*63"):
                accumulate(np.array(stream))

    @pytest.mark.parametrize("stream", [[-1e300], [1.0, -(2.0**64)], [-(2.0**63)]])
    def test_rejects_huge_negative_floats(self, stream):
        # also before the cast: a float below -2**63 would warn there too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=">= 0"):
                accumulate(np.array(stream))

    def test_accepts_floats_below_2_63(self):
        assert accumulate(np.array([2.0**62, 0.0, 0.0])).bins == {0: 2, 2**62: 1}
        with pytest.raises(ValidationError, match=">= 0"):
            accumulate(np.array([-1.0, 1.0]))

    @given(sep_lists, sep_lists)
    def test_concat_equals_merge(self, xs, ys):
        assert accumulate(xs + ys) == merge(accumulate(xs), accumulate(ys))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64, np.float64])
    @pytest.mark.parametrize(
        "size,top",
        [(1, 0), (1000, 30), (1000, 999), (1000, 1000), (50, 10**6),
         (2**16 - 1, 60), (2**16 + 1, 60), (3 * 2**16 + 5, 60), (3 * 2**16 + 5, 2**17)],
    )
    def test_matches_counter(self, dtype, size, top):
        # both branches: bincount while max < size, np.unique above; uint32 and uint64
        # streams longer than BINCOUNT_BLOCK are counted a block at a time
        arr = np.random.default_rng(size + top).integers(0, top + 1, size).astype(dtype)
        counts = collections.Counter(int(x) for x in arr)
        spec = accumulate(arr)
        assert spec.bins == dict(counts)
        assert spec.total_intervals == size
        assert spec.total_singletons == sum(s * c for s, c in counts.items())
        assert all(type(s) is int and type(c) is int for s, c in spec.bins.items())

    def test_sparse_values(self):
        spec = accumulate(np.array([0, 10**12]))
        assert spec.bins == {0: 1, 10**12: 1}
        assert spec.total_singletons == 10**12

    def test_total_beyond_int64(self):
        spec = accumulate(np.array([2**62, 2**62]))
        assert spec.bins == {2**62: 2}
        assert spec.total_singletons == 2**63
        big = accumulate(np.array([2**64 - 1, 1, 1], dtype=np.uint64))
        assert big.bins == {1: 2, 2**64 - 1: 1}
        assert big.total_singletons == 2**64 + 1


def kernel_streams():
    """(name, stream) pairs for the compiled histogram, each checked against a Counter."""
    rng = np.random.default_rng(19)
    geometric = rng.geometric(0.1, 5000) - 1
    wide = rng.integers(0, 3000, 5000)  # top above the kernel's table, below the size
    return [
        ("int64", geometric.astype(np.int64)),
        ("uint32", geometric.astype(np.uint32)),
        ("int32", geometric.astype(np.int32)),  # numpy counts it
        ("wide-int64", wide.astype(np.int64)),
        ("wide-uint32", wide.astype(np.uint32)),
        ("non-contiguous", geometric.astype(np.int64)[::3]),
        ("non-contiguous-uint32", geometric.astype(np.uint32)[1::2]),
        ("one", np.array([5], dtype=np.int64)),
        ("one-zero", np.array([0], dtype=np.uint32)),
        ("sparse", np.array([3, 10**12, 3], dtype=np.int64)),
        ("sparse-uint32", np.array([2**32 - 1, 0], dtype=np.uint32)),
        ("top-equals-size", np.array([3, 0, 1, 2], dtype=np.int64)),
        ("top-above-size", np.array([4, 0, 1, 2], dtype=np.uint32)),
    ]


class TestCompiledHistogram:
    @pytest.mark.parametrize("name,stream", kernel_streams(), ids=[n for n, _ in kernel_streams()])
    def test_matches_counter(self, kernel, name, stream, monkeypatch):
        counts = collections.Counter(stream.tolist())
        compiled = accumulate(stream)
        monkeypatch.setattr(sieve, "_load_kernel", lambda: None)
        fallback = accumulate(stream)
        assert compiled.bins == fallback.bins == dict(counts), name
        assert all(type(s) is int and type(c) is int for s, c in compiled.bins.items())

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    def test_empty(self, kernel, dtype):
        assert accumulate(np.array([], dtype=dtype)).bins == {}

    @pytest.mark.parametrize("stream", [[3, -1, 2], [-(2**63)], [5000] * 3 + [-1]])
    def test_negative(self, kernel, stream):
        with pytest.raises(ValidationError, match=">= 0"):
            accumulate(np.array(stream, dtype=np.int64))

    def test_slices_of_one_stream(self, kernel):
        # per_checkpoint_spectra histograms contiguous slices of the sieve's uint32 stream
        stream = (np.random.default_rng(7).geometric(0.08, 20000) - 1).astype(np.uint32)
        for lo, hi in ((0, 1), (0, 17), (17, 1040), (1040, 20000)):
            want = collections.Counter(stream[lo:hi].tolist())
            assert accumulate(stream[lo:hi]).bins == dict(want)


class TestMerge:
    def test_binwise_sum(self):
        a = accumulate([0])
        b = accumulate([0, 0, 3])
        assert merge(a, b).bins == {0: 3, 3: 1}

    def test_identity(self):
        x = accumulate([1, 2, 2])
        assert merge(x, SeparationSpectrum()) == x

    @given(sep_lists, sep_lists)
    def test_commutative(self, xs, ys):
        assert merge(accumulate(xs), accumulate(ys)) == merge(accumulate(ys), accumulate(xs))

    @given(sep_lists, sep_lists, sep_lists)
    def test_associative(self, xs, ys, zs):
        a, b, c = accumulate(xs), accumulate(ys), accumulate(zs)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


class TestCountAbove:
    @pytest.mark.parametrize(
        "seps", [[], [3], [0, 0, 1, 1, 2, 1, 5, 5, 9, 12]], ids=["empty", "one", "gaps"]
    )
    @pytest.mark.parametrize("x", [-7, -0.5, 0, 0.5, 2, 3, 3.5, 4, 8.999, 9, 11.25, 12, 12.5, 1e9])
    def test_matches_counter(self, seps, x):
        # x < 0, on a bin, between bins (4 and 11.25 in "gaps"), non-integer and above the maximum
        spec = SeparationSpectrum(dict(collections.Counter(seps)))
        assert spec.count_above(x) == sum(1 for s in seps if s > x)


class TestS0:
    def test_raw_n100(self):
        est = s0_from_counts(CountRecord(n=100, pi1=25, pi2=8), S0Convention.RAW)
        assert est.value == pytest.approx(9 / 8, abs=1e-15)

    def test_paper_offset_n100(self):
        est = s0_from_counts(CountRecord(n=100, pi1=25, pi2=8), S0Convention.PAPER_OFFSET)
        assert est.value == pytest.approx(11 / 6, rel=1e-12)

    def test_interval_exact_n100(self):
        spec = accumulate([0, 0, 1, 1, 2, 1])
        est = s0_from_counts(
            CountRecord(n=100, pi1=25, pi2=8), S0Convention.INTERVAL_EXACT, spectrum=spec
        )
        assert est.value == pytest.approx(5 / 6, rel=1e-12)

    def test_all_primes_paired(self):
        est = s0_from_counts(CountRecord(n=50, pi1=10, pi2=5), S0Convention.RAW)
        assert est.value == 0.0

    def test_raw_requires_twins(self):
        with pytest.raises(ValidationError):
            s0_from_counts(CountRecord(n=3, pi1=2, pi2=0), S0Convention.RAW)

    def test_paper_offset_requires_three_twins(self):
        with pytest.raises(ValidationError):
            s0_from_counts(CountRecord(n=10, pi1=4, pi2=2), S0Convention.PAPER_OFFSET)

    def test_interval_exact_requires_spectrum(self):
        with pytest.raises(ValidationError):
            s0_from_counts(CountRecord(n=100, pi1=25, pi2=8), S0Convention.INTERVAL_EXACT)

    def test_convention_accepts_strings(self):
        est = s0_from_counts(CountRecord(n=100, pi1=25, pi2=8), "raw")
        assert est.convention is S0Convention.RAW

    def test_estimate_rejects_negative(self):
        with pytest.raises(ValidationError):
            S0Estimate(-0.5, S0Convention.RAW)


class TestSieveAgreement:
    def test_interval_exact_vs_raw_converges(self):
        # raw counts 2, 3 and trailing singletons; both effects are O(1)/pi2
        diffs = {}
        for limit in (1000, 100_000):
            rep = sieve_range(SieveConfig(limit=limit))
            rec = rep.counts[-1]
            spec = accumulate(rep.separations)
            raw = s0_from_counts(rec, S0Convention.RAW).value
            exact = s0_from_counts(rec, S0Convention.INTERVAL_EXACT, spectrum=spec).value
            diffs[limit] = abs(raw - exact)
        assert diffs[100_000] < diffs[1000]


class TestCsv:
    def test_roundtrip(self, tmp_path):
        spec = accumulate([0, 0, 1, 5, 5, 5])
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, spec, metadata={"source": "test", "f": "0"})
        back, meta = read_spectrum_csv(path)
        assert back == spec
        assert meta == {"source": "test", "f": "0"}

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_spectrum_csv(path)

    def test_rejects_duplicate_bin(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("s,count\n1,2\n1,3\n")
        with pytest.raises(ValidationError):
            read_spectrum_csv(path)
