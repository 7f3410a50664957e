import collections
import ctypes
import gc
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twinsep import spectrum
from twinsep.errors import ValidationError
from twinsep.ioutil import read_csv, write_csv
from twinsep.sieve import CountRecord, SieveConfig, sieve_range
from twinsep.spectrum import (
    S0Convention,
    S0Estimate,
    SeparationSpectrum,
    accumulate,
    read_spectrum_csv,
    s0_from_counts,
    write_spectrum_csv,
)

sep_lists = st.lists(st.integers(min_value=0, max_value=60), max_size=200)
# a metadata key or value that write_csv accepts, but for the "=" it rejects in a key
metadata_text = st.text().filter(lambda text: not set(text) & {"\r", "\n"} and text.strip() == text)


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

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_accepts_narrow_and_wide_floats(self, dtype):
        # the 2**63 bound is compared in float64 or wider, never cast to float16 with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert accumulate(np.array([3.0, 0.0, 3.0], dtype=dtype)).bins == {0: 1, 3: 2}
            with pytest.raises(ValidationError, match=">= 0"):
                accumulate(np.array([-1.0, 1.0], dtype=dtype))

    @pytest.mark.parametrize(
        "stream",
        [np.array([True, False]), np.array(["1", "2"]), np.array([1 + 0j, 2 + 0j]),
         np.array([1, 2], dtype=object), np.array([1, 2], dtype="m8[s]")],
        ids=["bool", "str", "complex", "object", "timedelta"],
    )
    def test_rejects_other_dtypes(self, stream):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="integers or real floats"):
                accumulate(stream)

    @given(sep_lists, sep_lists)
    def test_concat_equals_merge(self, xs, ys):
        # the spectrum of xs + ys is the binwise sum of the two spectra
        summed = collections.Counter(accumulate(xs).bins) + collections.Counter(accumulate(ys).bins)
        assert accumulate(xs + ys).bins == dict(summed)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64, np.float64])
    @pytest.mark.parametrize(
        "size,top",
        [(1, 0), (1000, 30), (1000, 999), (1000, 1000), (50, 10**6),
         (2**16 - 1, 60), (2**16 + 1, 60), (3 * 2**16 + 5, 60), (3 * 2**16 + 5, 2**17),
         (5000, 2000)],
    )
    def test_matches_counter(self, dtype, size, top):
        # both counters: the kernel's table while max < 1024, and np.unique of the whole
        # stream above it
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
    wide = rng.integers(0, 3000, 5000)  # top above the kernel's table
    return [
        ("int64", geometric.astype(np.int64)),
        ("uint32", geometric.astype(np.uint32)),
        ("int32", geometric.astype(np.int32)),  # cast to int64 for the kernel
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
    def test_matches_counter(self, kernel, name, stream):
        counts = collections.Counter(stream.tolist())
        compiled = accumulate(stream)
        numpy_only = dict(zip(*(a.tolist() for a in np.unique(stream, return_counts=True))))
        assert compiled.bins == numpy_only == dict(counts), name
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


def counted_calls(kernel, monkeypatch):
    """The list that the arguments of each twinsep_histogram call are appended to from now on;
    the calls go through a PyDLL handle, which keeps the GIL."""
    held = ctypes.PyDLL(kernel._name).twinsep_histogram
    held.argtypes, held.restype = kernel.twinsep_histogram.argtypes, ctypes.c_int64
    calls = []

    def counted(*args):
        calls.append(args)
        return held(*args)

    monkeypatch.setattr(kernel, "twinsep_histogram", counted)
    return calls


def counted_numpy(monkeypatch, name):
    """The list that the arguments of each np.<name> call are appended to from now on."""
    fn, calls = getattr(np, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(np, name, counted)
    return calls


class TestWorkerCount:
    """The spectrum is the same on 1, 2 or 3 CPUs: each worker counts the blocks it claims into
    a table of its own, and a block outside the table sends the whole stream to numpy's
    counter on the calling thread."""

    SIZE = 20_000 + 3
    POSITIONS = (0, 9_500, SIZE - 1)  # in the first, a middle and the last block

    @staticmethod
    def stream(dtype):
        return (np.random.default_rng(23).geometric(0.1, TestWorkerCount.SIZE) - 1).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    def test_blocks_sum_to_the_count(self, kernel, on_cpus, monkeypatch, dtype):
        monkeypatch.setattr(spectrum, "BLOCK_VALUES", 1000)
        arr = self.stream(dtype)
        want = dict(collections.Counter(arr.tolist()))
        for k in (1, 2, 3):
            spec, workers = on_cpus(k, accumulate, arr)
            assert (spec.bins, workers) == (want, k)

    def test_full_size_blocks(self, kernel, on_cpus):
        arr = (np.random.default_rng(29).geometric(0.1, 4 * spectrum.BLOCK_VALUES + 3) - 1)
        want = dict(collections.Counter(arr.tolist()))
        for k in (1, 2, 3):
            spec, workers = on_cpus(k, accumulate, arr)
            assert (spec.bins, workers) == (want, min(k, 2))

    def test_negative_in_one_block(self, kernel, on_cpus, monkeypatch):
        monkeypatch.setattr(spectrum, "BLOCK_VALUES", 1000)
        for at in self.POSITIONS:
            arr = self.stream(np.int64)
            arr[at] = -1
            for k in (1, 2, 3):
                with pytest.raises(ValidationError, match=">= 0"):
                    on_cpus(k, accumulate, arr)

    def test_a_wide_first_block_stops_every_worker(self, kernel, on_cpus, monkeypatch):
        # a value outside the table in the first block: the worker that claims it drops the
        # blocks left, so the others stop at their next claim, and numpy counts the stream.
        # The kernel is called here through a PyDLL handle, which keeps the GIL, and no
        # thread is made to give the GIL up on a timer, so no worker can claim a block
        # between that call and the drop: the calls are counted, not raced.
        monkeypatch.setattr(spectrum, "BLOCK_VALUES", 100)
        calls = counted_calls(kernel, monkeypatch)
        arr = self.stream(np.int64)
        arr[0] = 1024
        want = dict(collections.Counter(arr.tolist()))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(100.0)
        try:
            for k in (1, 2, 3):
                calls.clear()
                spec, workers = on_cpus(k, accumulate, arr)
                assert spec.bins == want, k
                assert workers == k and len(calls) <= workers, (k, workers, len(calls))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dtype,wide", [(np.int64, 1024), (np.int64, 10**12),
                                            (np.uint32, 5000), (np.uint64, 2**64 - 1)])
    def test_value_outside_the_table_in_one_block(self, kernel, on_cpus, monkeypatch, dtype,
                                                  wide):
        # the kernel's table ends at histogram_cap = 1024; a uint64 of 2**63 or more reads to
        # the kernel as negative, and goes to np.unique
        monkeypatch.setattr(spectrum, "BLOCK_VALUES", 1000)
        for at in self.POSITIONS:
            arr = self.stream(dtype)
            arr[at] = wide
            want = dict(collections.Counter(arr.tolist()))
            for k in (1, 2, 3):
                spec, _ = on_cpus(k, accumulate, arr)
                assert spec.bins == want, (at, k)


@st.composite
def running_streams(draw):
    """(dtype, values, stops): a stream of at most 40 values with stops into it (repeated and
    zero stops allowed), some values outside the compiled table and, in a signed stream,
    maybe one negative."""
    dtype = draw(st.sampled_from([np.int64, np.uint64, np.uint32, np.int32]))
    values = draw(st.lists(st.integers(0, 30), min_size=1, max_size=40))
    wide = {np.int64: 10**12, np.uint64: 2**63 + 5, np.uint32: 5000, np.int32: 1024}[dtype]
    for at in draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
        values[at] = draw(st.sampled_from([1024, wide]))
    if dtype in (np.int64, np.int32) and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = -1
    stops = sorted(draw(st.lists(st.integers(0, len(values)), min_size=1, max_size=12)))
    return dtype, values, stops


class TestRunningSpectra:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(running_streams(), st.sampled_from([1, 2, 3]))
    def test_matches_prefix_counters(self, kernel, on_cpus, monkeypatch, case, cpus):
        # pieces of 3 values and batches of 4 slices, so that a value outside the table falls
        # in an early or a late batch, and the running spectrum carries across batches
        monkeypatch.setattr(spectrum, "BLOCK_VALUES", 3)
        monkeypatch.setattr(spectrum, "ROWS_AT_ONCE", 4)
        dtype, values, stops = case
        arr = np.array(values, dtype=dtype)
        if -1 in values[: stops[-1]]:
            with pytest.raises(ValidationError, match="separations must be >= 0"):
                on_cpus(cpus, spectrum._running_spectra, arr, stops)
            return
        got, _ = on_cpus(cpus, spectrum._running_spectra, arr, stops)
        assert len(got) == len(stops)
        # every spectrum of a fold comes from one table: the kernel's, or np.unique's
        assert len({spec.separations.dtype for spec in got}) == 1
        for spec, stop in zip(got, stops):
            assert spec.bins == collections.Counter(values[:stop])
            assert list(spec.bins) == sorted(spec.bins)  # ascending
            assert all(type(s) is type(c) is int for s, c in spec.bins.items())
            assert (spec.total_intervals, spec.total_singletons) == (
                stop, sum(values[:stop])
            )
        # rows may share the fold's arrays, so no spectrum can write to them
        for spec in got:
            for array in (spec.separations, spec.counts):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0

    def test_one_kernel_call_per_piece_per_batch(self, kernel, monkeypatch):
        # 5000 stops into 20,000 values make 20 batches of at most 256 slices, each batch
        # within one piece of BLOCK_VALUES values: a call counts every slice the piece
        # overlaps, so 20 calls count the stream, not one a slice
        rng = np.random.default_rng(31)
        arr = (rng.geometric(0.1, 20_000) - 1).astype(np.uint32)
        stops = np.sort(rng.integers(0, arr.size + 1, 5000)).tolist()
        calls = counted_calls(kernel, monkeypatch)
        got = spectrum._running_spectra(arr, stops)
        assert len(calls) <= -(-len(stops) // spectrum.ROWS_AT_ONCE) == 20
        for i in (0, 1, 2500, 4999):
            assert got[i].bins == collections.Counter(arr[: stops[i]].tolist()), i

    @pytest.mark.parametrize("late", [False, True], ids=["early", "last"])
    def test_one_sort_per_wide_fold(self, kernel, monkeypatch, late):
        # the same fold with 5000, a value outside the kernel's table, in an early slice or the
        # last: numpy folds the stream again from its first slice with one sort of the whole
        # stream, not one a slice, and one bincount per batch of the slices before the last
        rng = np.random.default_rng(31)
        arr = (rng.geometric(0.1, 20_000) - 1).astype(np.uint32)
        stops = np.sort(rng.integers(0, arr.size + 1, 5000)).tolist()
        arr[stops[-1] - 1 if late else 50] = 5000
        assert stops[-2] < stops[-1] - 1 and stops[-1] > 50
        rows = max(1, spectrum.ROWS_AT_ONCE * kernel.histogram_cap // np.unique(arr).size)
        sorts = counted_numpy(monkeypatch, "unique")
        bincounts = counted_numpy(monkeypatch, "bincount")
        got = spectrum._running_spectra(arr, stops)
        monkeypatch.undo()
        assert len(sorts) == 1
        assert len(bincounts) <= -(-4999 // rows)
        for i in [*range(0, len(stops), 500), len(stops) - 1]:
            assert got[i].bins == collections.Counter(arr[: stops[i]].tolist()), i

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.uint64])
    def test_one_row_per_batch_past_the_cell_budget(self, kernel, monkeypatch, dtype):
        # more distinct values than ROWS_AT_ONCE x histogram_cap cells hold: each numpy batch
        # is one row, and the spectra keep the stream's dtype and stay read-only
        monkeypatch.setattr(spectrum, "ROWS_AT_ONCE", 1)
        rng = np.random.default_rng(37)
        arr = rng.integers(0, 3000, 5000).astype(dtype)
        assert np.unique(arr).size > kernel.histogram_cap
        stops = np.sort(rng.integers(0, arr.size + 1, 20)).tolist()
        bincounts = counted_numpy(monkeypatch, "bincount")
        got = spectrum._running_spectra(arr, stops)
        assert len(got) == len(stops) and len(bincounts) == len(stops) - 1
        for spec, stop in zip(got, stops):
            assert spec.bins == collections.Counter(arr[:stop].tolist()), stop
            assert spec.separations.dtype == dtype and spec.counts.dtype == np.int64
            assert not (spec.separations.flags.writeable or spec.counts.flags.writeable)


class TestEmptyBins:
    def test_empty_bin_is_not_a_separation(self):
        bins = {3: 4, 500: 0}
        spec = SeparationSpectrum(bins)
        assert spec.max_separation() == 3
        assert spec == SeparationSpectrum({3: 4})
        assert (spec.total_intervals, spec.total_singletons) == (4, 12)
        assert bins == {3: 4, 500: 0}  # the caller's dict is left as it was

    def test_only_empty_bins(self):
        spec = SeparationSpectrum({0: 0, 7: 0})
        assert spec.max_separation() is None
        assert spec == SeparationSpectrum()


class TestFromBins:
    @pytest.mark.parametrize("bins", [{-1: 2}, {3: -1}, {-1: 0}, {2**64: 1}, {1: 2**63}])
    def test_out_of_range_is_a_validation_error(self, bins):
        with pytest.raises(ValidationError, match=r"keys in \[0, 2\*\*64\)"):
            SeparationSpectrum(bins)

    def test_arrays_ascending_and_read_only(self):
        spec = SeparationSpectrum({2**64 - 1: 1, 7: 0, 1: 2})
        assert spec.separations.tolist() == [1, 2**64 - 1] and spec.counts.tolist() == [2, 1]
        assert list(spec.bins) == [1, 2**64 - 1]
        assert (spec.total_intervals, spec.total_singletons) == (3, 2**64 + 1)
        assert (spec.max_separation(), spec.count_above(2.0**63)) == (2**64 - 1, 1)
        assert not spec.separations.flags.writeable and not spec.counts.flags.writeable


class TestCountAbove:
    @pytest.mark.parametrize(
        "seps", [[], [3], [0, 0, 1, 1, 2, 1, 5, 5, 9, 12]], ids=["empty", "one", "gaps"]
    )
    @pytest.mark.parametrize("x", [-7, -0.5, 0, 0.5, 2, 3, 3.5, 4, 8.999, 9, 11.25, 12, 12.5, 1e9,
                                   -math.inf, math.inf, math.nan])
    def test_matches_counter(self, kernel, seps, x):
        # x < 0, on a bin, between bins (4 and 11.25 in "gaps"), non-integer, above the maximum,
        # infinite and nan (the total, 0 and 0); on a spectrum built from a dict, and on the
        # last row of a fold with three stops
        arr = np.array(seps, dtype=np.int64)
        folded = spectrum._running_spectra(arr, [0, arr.size // 2, arr.size])[-1]
        for spec in (SeparationSpectrum(dict(collections.Counter(seps))), folded):
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


SPECTRUM_CELLS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["x", "", "+4", "1_0", "-0", "1.0", str(2**63 - 1), str(2**63),
                     str(-(2**63)), str(-(2**63) - 1), str(10**30)]),
)


def spectrum_row_by_row(path, rows):
    """The (separation, count) pairs in ascending order, or the error message, of a spectrum
    CSV's rows of (s, count) cells checked one at a time, as read_spectrum_csv checks them."""
    bins = {}
    for lineno, (s_text, c_text) in enumerate(rows, start=2):
        row = {"s": s_text, "count": c_text}
        try:
            s, c = int(s_text), int(c_text)
        except ValueError:
            return f"{path}:{lineno}: unparseable row {row!r}"
        if s < 0 or c < 0:
            return f"{path}:{lineno}: negative separation or count {row!r}"
        if max(s, c) >= 2**63:
            return f"{path}:{lineno}: separation or count is 2**63 or more"
        if s in bins:
            return f"{path}:{lineno}: duplicate separation {s}"
        bins[s] = c
    return [(s, c) for s, c in sorted(bins.items()) if c]


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

    def test_zero_count_row_reads_as_absent(self, tmp_path):
        with_zero, without = tmp_path / "with_zero.csv", tmp_path / "without.csv"
        with_zero.write_text("s,count\n0,5\n1,2\n500,0\n")
        without.write_text("s,count\n0,5\n1,2\n")
        assert read_spectrum_csv(with_zero) == read_spectrum_csv(without)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(SPECTRUM_CELLS, SPECTRUM_CELLS), max_size=12))
    @example([("5", "1"), ("1", "2"), ("3", "0"), ("5", "3")])  # unsorted, a repeat apart
    @example([("5", "1"), ("1", "2"), ("3", "0")])
    def test_matches_row_by_row_reading(self, tmp_path, rows):
        # the whole-column parse and checks give the spectrum, or the first faulty line's
        # message, that reading the rows one by one gives
        path = tmp_path / "rows.csv"
        path.write_text("s,count\n" + "".join(f"{s},{c}\n" for s, c in rows))
        try:
            spec = read_spectrum_csv(path)[0]
            got = list(zip(spec.separations.tolist(), spec.counts.tolist()))
        except ValidationError as exc:
            got = str(exc)
        assert got == spectrum_row_by_row(path, rows)

    @pytest.mark.parametrize("text, line, problem", [
        # a later check's fault on an earlier line wins over an earlier check's on a later one
        ("s,count\n1,2\n1,3\n4,5\nx,1\n", 3, "duplicate separation 1"),
        (f"s,count\n1,2\n3,{2**63}\n3,1\n-1,1\n", 3, "separation or count is 2**63 or more"),
        ("s,count\n5,1\n5,-1\nx,1\n", 3, "negative separation or count {'s': '5', 'count': '-1'}"),
    ], ids=["duplicate-before-unparseable", "2-63-before-duplicate", "negative-before-duplicate"])
    def test_first_faulty_line_wins(self, tmp_path, text, line, problem):
        path = tmp_path / "two_faults.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            read_spectrum_csv(path)
        assert str(info.value) == f"{path}:{line}: {problem}"

    def test_read_csv_columns(self, tmp_path):
        # a quoted cell may hold a comma or a quote, and a cell past the header's is dropped
        path = tmp_path / "quoted.csv"
        path.write_text('# metadata: k=v\ns,count\n"1,2",3,extra\n\n"a""b",4\n7,8\n')
        assert read_csv(path, ("s",)) == ({"k": "v"}, [3, 5, 6],
                                          {"s": ["1,2", 'a"b', "7"], "count": ["3", "4", "8"]})
        # a quoted header names its columns as a plain one does
        path.write_text('"s","c,d"\n1,2\n')
        assert read_csv(path, ("s", "c,d")) == ({}, [2], {"s": ["1"], "c,d": ["2"]})
        # a quote left open ends with its line, and the next line is a row of its own
        path.write_text('s,count\n5,"6\n7,8\n')
        assert read_csv(path, ("s",)) == ({}, [2, 3], {"s": ["5", "7"], "count": ["6", "8"]})

    def test_read_csv_names_the_first_short_row(self, tmp_path):
        # a quote left open ends with its line, which is then one cell short
        path = tmp_path / "short.csv"
        path.write_text('s,count\n1,2\n"5,6\n3\n')
        with pytest.raises(ValidationError) as info:
            read_csv(path, ("s",))
        assert str(info.value) == f"{path}:3: unparseable row ['5,6']"

    def test_reading_makes_no_object_per_row(self, tmp_path):
        # the cells are held as strings in a list per column, and the spectrum as arrays, so
        # the garbage collector tracks a few more objects, however many rows the file holds
        path = tmp_path / "wide.csv"
        write_spectrum_csv(path, accumulate(np.arange(10**5)))
        for read in (lambda: read_csv(path, ("s", "count")), lambda: read_spectrum_csv(path)):
            gc.collect()
            before = len(gc.get_objects())
            held = read()
            assert len(gc.get_objects()) - before < 100
            del held

    @pytest.mark.parametrize("key, value", [("source", "s\nx.bin"), ("source", "s\rx.bin"),
                                            ("a\nb", "1")])
    def test_metadata_line_break_rejected_before_writing(self, tmp_path, key, value):
        # a line break would end the metadata line early, and the file would not read back
        path = tmp_path / "spectrum.csv"
        with pytest.raises(ValidationError, match=f"metadata {re.escape(repr(key))} must not"):
            write_csv(path, {key: value}, ["s", "count"], [(1, 2)])
        assert not path.exists()

    @pytest.mark.parametrize("key, value", [("a=b", "1"), ("source", " x.bin"),
                                            ("source", "x.bin\t"), (" k", "1"), ("k\x0c", "1")])
    def test_metadata_that_would_not_read_back_rejected_before_writing(self, tmp_path, key,
                                                                       value):
        # the reader splits a metadata line at its first "=" and strips the key and the value
        path = tmp_path / "spectrum.csv"
        with pytest.raises(ValidationError, match=f"metadata {re.escape(repr(key))} must not"):
            write_csv(path, {key: value}, ["s", "count"], [(1, 2)])
        assert not path.exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(metadata_text.filter(lambda key: "=" not in key), metadata_text,
                           max_size=4))
    def test_accepted_metadata_reads_back(self, tmp_path, metadata):
        path = tmp_path / "meta.csv"
        write_csv(path, metadata, ["s", "count"], [(1, 2)])
        assert read_csv(path, ("s",))[0] == metadata
