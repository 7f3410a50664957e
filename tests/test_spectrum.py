import collections

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
