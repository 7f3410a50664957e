import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import BLOCK_DRAWS
from twinsep import montecarlo
from twinsep.errors import ValidationError
from twinsep.model import ModelParams, SolverInput, solve_approx, solve_exact, solve_f0
from twinsep.montecarlo import (
    GofReport,
    SimConfig,
    _chi2_isf,
    _finish_draws,
    gof_compare,
    sample_separations,
)
from twinsep.spectrum import SeparationSpectrum, accumulate

# sha256 of the little-endian draws of LAWS[law] at n = 100000 and seed 42, as perfbench pins
PINNED = {
    "f0": "240a8c6dc55b3312b38e9456cb6a450f6b2490c20ce5bf27ae9264d81ebd5551",
    "f1": "058ebb98c7308feb6e30cca67ea0205c3b8b49a1e2336f5471ba06f5f8f83e88",
}
LAWS = {
    "f0": lambda: solve_f0(8.0),
    "f1": lambda: solve_exact(SolverInput(s0=8.0, pi2=10**6, f=1.0)),
}
CUT5 = solve_approx(SolverInput(s0=2.0, pi2=100, f=5.0))


def one_shot_draws(config):
    """The sampler as one whole-array pass: the reference for the blocked one."""
    p = config.params
    rng = np.random.Generator(np.random.Philox(config.seed))
    u = rng.random(config.n_events)
    lnq = math.log(p.q)
    if p.l_cut is None:
        s = np.floor(np.log1p(-u) / lnq)
    else:
        m = math.floor(p.l_cut)
        u = u * -math.expm1((m + 1) * lnq)
        s = np.minimum(np.floor(np.log1p(-u) / lnq), m)
    return s.astype(np.int64)


class TestSampler:
    @pytest.mark.parametrize("law,digest", sorted(PINNED.items()))
    def test_pinned_stream(self, law, digest):
        draws = sample_separations(SimConfig(LAWS[law](), n_events=100_000, seed=42))
        assert hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize(
        "n",
        [1, 3, 4, 5, BLOCK_DRAWS - 1, BLOCK_DRAWS, BLOCK_DRAWS + 1, 2 * BLOCK_DRAWS * 3 + 3,
         (1 << 20) + 3],
    )
    def test_blocks_keep_the_stream(self, law, n):
        config = SimConfig(LAWS[law](), n_events=n, seed=2**64 - 1 - n)
        draws = sample_separations(config)
        assert draws.dtype == np.int64
        assert np.array_equal(draws, one_shot_draws(config))

    def test_geometric_mean(self):
        # q = 1/2 gives mean q/(1-q) = 1 and variance q/(1-q)^2 = 2
        params = solve_f0(1.0)
        draws = sample_separations(SimConfig(params, n_events=10**6, seed=20240101))
        sigma_mean = math.sqrt(2.0) / 1000
        assert abs(draws.mean() - 1.0) < 3 * sigma_mean

    def test_single_draw_support(self):
        params = solve_approx(SolverInput(s0=3.0, pi2=100, f=1.0))
        draw = sample_separations(SimConfig(params, n_events=1, seed=5))
        assert 0 <= draw[0] <= math.ceil(params.l_cut)

    def test_seed_determinism(self):
        params = solve_f0(4.0)
        a = sample_separations(SimConfig(params, n_events=1000, seed=99))
        b = sample_separations(SimConfig(params, n_events=1000, seed=99))
        c = sample_separations(SimConfig(params, n_events=1000, seed=100))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_truncated_support(self):
        params = solve_approx(SolverInput(s0=2.0, pi2=50, f=4.0))
        draws = sample_separations(SimConfig(params, n_events=50_000, seed=1))
        assert draws.max() <= math.floor(params.l_cut)
        assert draws.min() >= 0

    def test_frequencies_match_pmf(self):
        params = solve_f0(5.0)
        n = 10**6
        draws = sample_separations(SimConfig(params, n_events=n, seed=7))
        spec = accumulate(draws)
        q = params.q
        for s in range(0, 60):
            p = (1 - q) * q**s
            if p < 1e-4:
                break
            tol = 4 * math.sqrt(n * p * (1 - p))
            assert abs(spec.bins.get(s, 0) - n * p) < tol, s

    def test_config_validation(self):
        params = solve_f0(1.0)
        with pytest.raises(ValidationError):
            SimConfig(params, n_events=0, seed=1)
        with pytest.raises(ValidationError):
            SimConfig(params, n_events=10, seed=-1)


def digest(draws):
    return hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest()


class TestWorkerCount:
    """The draws are the same on 1, 2 or 3 CPUs: blocks are claimed by any worker, and each
    worker finishes the pending draws of its own blocks."""

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_block_edges(self, on_cpus, law):
        b = montecarlo.BLOCK_DRAWS
        for n in (b - 1, b, b + 1, 2 * b + 3, 4 * b + 3):
            config = SimConfig(LAWS[law](), n_events=n, seed=n)
            want, _ = on_cpus(1, sample_separations, config)
            for k in (2, 3):
                got, workers = on_cpus(k, sample_separations, config)
                assert np.array_equal(got, want), (n, k)
                assert workers == max(1, min(k, -(-n // b) // 2)), (n, k)  # 2 blocks a worker

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_pinned_stream_in_small_blocks(self, on_cpus, monkeypatch, law):
        # 100 blocks, so every worker count runs
        monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 1000)
        for k in (1, 2, 3):
            draws, workers = on_cpus(k, sample_separations,
                                     SimConfig(LAWS[law](), n_events=100_000, seed=42))
            assert (digest(draws), workers) == (PINNED[law], k)

    def test_every_draw_pends_in_small_blocks(self, on_cpus, monkeypatch):
        # at s0 = 1e15 every draw pends: each block of 1000 is finished by numpy whole
        monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 1000)
        for cut in (None, "typical"):
            config = SimConfig(law_with_cut(1e15, cut), n_events=20_000 + 7, seed=5)
            want = reference.sample_separations(config)
            for k in (1, 2, 3):
                got, workers = on_cpus(k, sample_separations, config)
                assert np.array_equal(got, want), (cut, k)
                assert workers == k

    def test_every_draw_pends_in_full_size_blocks(self, on_cpus):
        # the same with the module's own blocks: 4 of them, and 3 draws in a fifth
        config = SimConfig(solve_f0(1e15), n_events=4 * montecarlo.BLOCK_DRAWS + 3, seed=6)
        want = reference.sample_separations(config)
        for k in (1, 2, 3):
            got, workers = on_cpus(k, sample_separations, config)
            assert np.array_equal(got, want), k
            assert workers == min(k, 2)


def compiled_fill(kernel, state, first, n, f=1.0):
    """f times doubles first .. first + n - 1 of a fresh Generator from Philox state["state"]."""
    out = np.full(n, np.nan)
    kernel.twinsep_philox_fill(state["key"], state["counter"], first, n, f, out)
    return out


class TestPhiloxFill:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_matches_numpy(self, kernel, seed):
        state = np.random.Philox(seed).state["state"]
        want = np.random.Generator(np.random.Philox(seed)).random(10**6 + 10)
        for n in (1, 3, 4, 5, 63, 64, 65, BLOCK_DRAWS - 1, BLOCK_DRAWS + 1, 10**6 + 3):
            for first in (0, 7):
                got = compiled_fill(kernel, state, first, n)
                assert np.array_equal(got, want[first : first + n]), (n, first)

    def test_counter_carry(self, kernel):
        # word 0 of the counter wraps after 40 blocks, and words 1 and 2 wrap with it; the
        # groups of 16 blocks that straddle the wrap take the scalar path
        bit_generator = np.random.Philox(5)
        state = bit_generator.state
        state["state"]["counter"] = np.array([2**64 - 40, 2**64 - 1, 2**64 - 1, 9], np.uint64)
        bit_generator.state = state
        want = np.random.Generator(bit_generator).random(1000)
        for first, n in ((0, 1000), (3, 997), (130, 161), (155, 9)):
            got = compiled_fill(kernel, state["state"], first, n)
            assert np.array_equal(got, want[first : first + n]), (first, n)

    @pytest.mark.parametrize("f", [-1.0, -0.3, 1.0])
    def test_factor(self, kernel, f):
        # the fill's factor is one IEEE multiply per double: -s * u, exactly -(s * u)
        state = np.random.Philox(11).state["state"]
        want = np.random.Generator(np.random.Philox(11)).random(BLOCK_DRAWS + 9)
        for first, n in ((0, BLOCK_DRAWS + 9), (5, 200)):
            got = compiled_fill(kernel, state, first, n, f)
            assert np.array_equal(got, -(-f * want[first : first + n])), (first, n)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_sampler_without_kernel(self, kernel, law):
        # the kernel's draws against the numpy reference's, made without it
        config = SimConfig(LAWS[law](), n_events=3 * BLOCK_DRAWS + 5, seed=2**63 + 1)
        compiled = sample_separations(config)
        numpy_only = reference.sample_separations(config)
        assert numpy_only.dtype == compiled.dtype == np.int64
        assert np.array_equal(numpy_only, compiled)


def law_with_cut(s0, cut):
    """solve_f0(s0), or that law under a cutoff of 0, 3 * sbar or 1e300."""
    law = solve_f0(s0)
    if cut is None:
        return law
    l_cut = {"zero": 0.0, "typical": 3 * law.sbar, "huge": 1e300}[cut]
    return dataclasses.replace(law, l_cut=l_cut, f=1.0)


PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox_counter(key, words):
    """The counter whose Philox4x64-10 block under key is words: the rounds run backwards."""
    mask = 2**64 - 1
    inv0, inv1 = (pow(m, -1, 2**64) for m in PHILOX_M)
    x0, x1, x2, x3 = (int(w) for w in words)
    for r in reversed(range(10)):
        k0, k1 = ((int(k) + r * w) & mask for k, w in zip(key, PHILOX_W))
        # a round maps (x0, x1, x2, x3) to (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1,
        # lo(M0 x0)), and M0, M1 are odd
        y0, y2 = x3 * inv0 & mask, x1 * inv1 & mask
        y1, y3 = x0 ^ (PHILOX_M[1] * y2 >> 64) ^ k0, x2 ^ (PHILOX_M[0] * y0 >> 64) ^ k1
        x0, x1, x2, x3 = y0, y1, y2, y3
    return x0 | x1 << 64 | x2 << 128 | x3 << 192


def state_counter(counter):
    """A 256-bit counter as Philox's state["counter"], four little-endian words."""
    return np.array([counter >> 64 * w & (2**64 - 1) for w in range(4)], dtype=np.uint64)


def compiled_draws(kernel, key, counter, first, n, f, lnq, m):
    """twinsep_geometric's draws first .. first + n - 1 from one call, with the pending ones
    finished by numpy, and the call's own slots, where each pending draw is negative."""
    out = np.empty(first + n, dtype=np.int64)
    at = [a.ctypes.data for a in (key, counter, out)]
    npend = kernel.twinsep_geometric(at[0], at[1], first, first + n, f, lnq, m, at[2])
    draws, raw = out[first:], out[first:].copy()
    pending = raw < 0
    assert npend == np.count_nonzero(pending)
    draws[pending] = _finish_draws(raw[pending].view(np.float64), lnq, None if m == math.inf else m)
    return draws, raw


class TestCompiledSampler:
    """twinsep_geometric, with its pending draws finished by numpy, against the numpy reference."""

    @pytest.mark.parametrize("s0", [0.01, 8.0, 1e6, 1e15])
    @pytest.mark.parametrize("cut", [None, "zero", "typical", "huge"])
    def test_draws_match_fallback(self, kernel, s0, cut):
        law = law_with_cut(s0, cut)
        # the kernel fills 512 draws at a time: 511, 512 and 513 end inside, at and past one
        sizes = [1, 7, 8, 9, 511, 512, 513, BLOCK_DRAWS - 1, BLOCK_DRAWS + 1]
        compiled = [sample_separations(SimConfig(law, n_events=n, seed=n)) for n in sizes]
        for n, draws in zip(sizes, compiled):
            assert np.array_equal(draws, reference.sample_separations(SimConfig(law, n_events=n,
                                                                                seed=n)))
        assert compiled[-1].max() <= (math.inf if cut is None else math.floor(law.l_cut))

    @settings(max_examples=100, deadline=None)
    @given(log10_s0=st.floats(-2.0, 15.0), cut=st.sampled_from([None, "zero", "typical", "huge"]),
           n=st.integers(1, 3 * BLOCK_DRAWS + 5), seed=st.integers(0, 2**64 - 1))
    def test_draws_match_fallback_fuzz(self, kernel, log10_s0, cut, n, seed):
        config = SimConfig(law_with_cut(10.0**log10_s0, cut), n_events=n, seed=seed)
        assert np.array_equal(sample_separations(config), reference.sample_separations(config))

    def test_quotients_near_integers(self, kernel):
        # q = exp(log1p(v_i) / k) puts draw i's quotient log1p(v_i) / log q within ulps of k,
        # where the certificate must leave it to numpy, or settle it on the right side
        u = np.random.Generator(np.random.Philox(17)).random(64)
        for i, v in enumerate(-u):
            for k in range(1, 21):
                q = math.exp(math.log1p(v) / k)
                if not 0.0 < q < 1.0:
                    continue
                law = ModelParams(a=1.0 - q, sbar=-1.0 / math.log(q), q=q, l_cut=None, f=0.0)
                config = SimConfig(law, n_events=64, seed=17)
                draws = sample_separations(config)
                assert np.array_equal(draws, reference.sample_separations(config)), (i, k)
                assert k - 1 <= draws[i] <= k, (i, k)

    def test_transform_edges(self, kernel):
        # v = -0.0 (a quotient of 0), -1e-300, the largest |v|, 1 - 2**-53, and 2**-7 - 1, whose
        # quotient at q = 1/2 is 7: no seed draws them, so a counter is made whose Philox block
        # holds them, in the head, a vector group or the tail of a call
        top = 1.0 - 2.0**-53
        key = np.random.Philox(3).state["state"]["key"]
        for f, us in ((-1.0, [0.0, top, 127 / 128, 0.5]), (-2e-300, [0.5, 0.0, 0.5, 0.5])):
            words = [int(u * 2**53) << 11 for u in us]
            for block, first, n in ((5, 0, 128), (16, 0, 70), (9, 37, 200)):
                counter = state_counter(philox_counter(key, words) - block - 1)
                stream = np.random.Generator(np.random.Philox(counter=counter, key=key))
                u = stream.random(first + n)[first:]
                assert u[4 * block - first + 3] == us[3]
                v = f * u
                for lnq in (math.log(0.5), math.log(top)):
                    for m in (math.inf, 0.0, 3.0):
                        got, raw = compiled_draws(kernel, key, counter, first, n, f, lnq, m)
                        want = np.minimum(np.floor(np.log1p(v) / lnq), m).astype(np.int64)
                        assert np.array_equal(got, want), (f, block, lnq, m)
                        if us[0] == 0.0 and first <= 4 * block:
                            # v = -0.0 pends, and its bits are INT64_MIN
                            assert raw[4 * block - first] == np.iinfo(np.int64).min
                        if lnq == math.log(top) and m == math.inf and f == -1.0:
                            # the largest quotient in range, log1p(-top) / log(top)
                            assert 3.3e17 < got[4 * block - first + 1] < 2**63

    def test_pending_and_settled_draws_mix(self, kernel):
        # at s0 = 1e7 about 3 draws in 10 pend: one call over the second block leaves each in
        # its own slot, as the bits of its v, and settles the others as numpy does
        law = solve_f0(1e7)
        want = reference.sample_separations(SimConfig(law, n_events=2 * BLOCK_DRAWS, seed=9))
        u = np.random.Generator(np.random.Philox(9)).random(2 * BLOCK_DRAWS)
        v, want = -u[BLOCK_DRAWS:], want[BLOCK_DRAWS:]
        state = np.random.Philox(9).state["state"]
        got, raw = compiled_draws(kernel, state["key"], state["counter"], BLOCK_DRAWS,
                                  BLOCK_DRAWS, -1.0, math.log(law.q), math.inf)
        pending = raw < 0
        assert 0.1 < pending.mean() < 0.5
        assert np.array_equal(raw[pending], v[pending].view(np.int64))
        assert np.array_equal(raw[~pending], want[~pending])
        assert pending[want >= 2**25].all()  # T * y >= 1/2: no certificate can settle these
        assert np.array_equal(got, want)


def dense_gof(empirical, params):
    """(chi2, dof, ks) walking every s in 0..max + 1: the reference for gof_compare."""
    total = empirical.total_intervals
    s_max = empirical.max_separation()
    q = params.q
    s = np.arange(s_max + 1)
    probs = (1.0 - q) * q**s
    if params.l_cut is None:
        tail = q ** (s_max + 1)
    else:
        m = math.floor(params.l_cut)
        norm = -math.expm1((m + 1) * math.log(q))
        probs = np.where(s <= m, probs / norm, 0.0)
        tail = max(0.0, (q ** (s_max + 1) - q ** (m + 1)) / norm) if s_max < m else 0.0
    bins = empirical.bins
    observed = np.array([bins.get(k, 0) for k in range(s_max + 1)] + [0.0])
    expected = np.append(total * probs, total * tail)
    pooled = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed[::-1], expected[::-1]):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_o or acc_e:
        if pooled:
            pooled[-1] = (pooled[-1][0] + acc_o, pooled[-1][1] + acc_e)
        else:
            pooled.append((acc_o, acc_e))
    chi2 = 0.0
    for o, e in reversed(pooled):
        if e <= 0.0:
            if o > 0:
                chi2 = math.inf
            continue
        chi2 += (o - e) ** 2 / e
    ks = float(np.max(np.abs(np.cumsum(observed[:-1]) / total - np.cumsum(probs))))
    return float(chi2), len(pooled) - 1, min(1.0, ks)


def assert_matches_dense(spec, params):
    """gof_compare against dense_gof: dof and the verdict exactly, chi2 and ks to rounding (the
    dense walk adds bin by bin, while gof_compare sums each pool of several bins and the empty
    bins between each pair of occupied ones in closed form)."""
    chi2, dof, ks = dense_gof(spec, params)
    if dof < 1:
        with pytest.raises(ValidationError, match="fewer than 2 bins"):
            gof_compare(spec, params)
        return
    report = gof_compare(spec, params)
    assert report.dof == dof
    assert report.passed == (chi2 < report.chi2_critical)
    assert math.isclose(report.chi2, chi2, rel_tol=1e-12)
    assert math.isclose(report.ks_distance, ks, rel_tol=1e-12)


class TestGof:
    @pytest.mark.parametrize(
        "params,bins",
        [
            # q = 1/2: the pmf underflows near s = 1075; stray bins run on
            # both sides of the support bound near 1200
            (solve_f0(1.0), {0: 60, 1: 25, 2: 10, 3: 3, 4: 2, 1500: 1, 4000: 2}),
            (solve_f0(1.0), {0: 60, 1: 25, 2: 10, **{s: 1 for s in range(1050, 1250)}}),
            (solve_f0(1.0), {s: 2**12 >> s for s in range(13)}),
            (CUT5, {0: 40, 1: 20, 2: 10, 30: 5, 900: 1}),
            (CUT5, {0: 40, 1: 20, 2: 10, math.floor(CUT5.l_cut) + 1: 3}),
            (CUT5, {0: 40, 1: 20, 2: 10, 3: 2}),
            (LAWS["f0"](), None),
            (LAWS["f1"](), None),
            # every occupied bin above the support; one at `last` with bins above it; one at
            # the top of the support alone; the first occupied bin far above 0
            (CUT5, {math.floor(CUT5.l_cut) + 1: 60, math.floor(CUT5.l_cut) + 5: 10}),
            (CUT5, {0: 40, 1: 20, math.floor(CUT5.l_cut): 30, math.floor(CUT5.l_cut) + 2: 4}),
            (CUT5, {math.floor(CUT5.l_cut): 70}),
            (solve_f0(1000.0), {3000: 60, 3001: 1}),
        ],
    )
    def test_matches_dense_walk(self, params, bins):
        if bins is None:
            spec = accumulate(sample_separations(SimConfig(params, n_events=20_000, seed=3)))
        else:
            spec = SeparationSpectrum(bins)
        assert_matches_dense(spec, params)

    @pytest.mark.parametrize(
        "s0,cut,bins",
        [
            # bins 3..9 are empty but each expects 5 or more: a pool apiece, in closed form
            (4.0, None, {0: 2000, 1: 1600, 2: 1300, 10: 400, 11: 300, 40: 2}),
            (4.0, "typical", {0: 2000, 1: 1600, 2: 1300, 10: 400, 11: 300}),
            # q near 1: pools of many empty bins each, found by a logarithm
            (1000.0, None, {5: 20, 700: 15, 2500: 10, 6000: 5, 9000: 2}),
            (1000.0, "typical", {0: 30, 1500: 20, 2999: 5}),
            (1000.0, "typical", {0: 30, 1500: 20, 2999: 5, 3001: 1, 10**5: 2}),
            # the top bin of the support (13) alone expects 5 or more, so it is a pool of its
            # own, and the counts above the support join it, whether it is occupied or empty
            (4.0, "typical", {0: 2000, 1: 1600, 2: 1300, 10: 400, 11: 300, 13: 60, 14: 3, 40: 2}),
            (4.0, "typical", {0: 2000, 1: 1600, 2: 1300, 10: 400, 11: 300, 15: 4}),
        ],
    )
    def test_empty_runs_match_dense_walk(self, s0, cut, bins):
        assert_matches_dense(SeparationSpectrum(bins), law_with_cut(s0, cut))

    @pytest.mark.parametrize("s0", [1e-3, 0.5, 1.0, 8.0, 1e4, 1e7, 1e15])
    def test_no_cutoff_top_is_exact(self, s0):
        # with no cutoff gof_compare takes the cutoff's formulas at this top: they give the
        # plain law only because q**(top + 1) is 0.0 and the normaliser exactly 1.0
        q = solve_f0(s0).q
        top = math.ceil(1200 / -math.log2(q))
        assert q ** (top + 1) == 0.0
        assert -math.expm1((top + 1) * math.log(q)) == 1.0

    @pytest.mark.parametrize("s0", [30.0, 20.0])
    def test_empty_bin_changes_nothing(self, s0):
        # the walk ends at the largest separation, and an empty bin far out is not one
        spec = accumulate(np.random.default_rng(1).geometric(1 / 9, 2000) - 1)
        stretched = SeparationSpectrum({**spec.bins, 500: 0})
        assert gof_compare(stretched, solve_f0(s0)) == gof_compare(spec, solve_f0(s0))

    @settings(max_examples=60, deadline=None)
    @given(log10_s0=st.floats(-1.0, 3.5), cut=st.sampled_from([None, "typical"]),
           bins=st.dictionaries(st.integers(0, 30_000), st.integers(0, 400), min_size=1,
                                max_size=40),
           base=st.integers(0, 2000))
    def test_sparse_spectra_match_dense_walk(self, log10_s0, cut, bins, base):
        spec = SeparationSpectrum({**bins, 0: base + 50})
        assert_matches_dense(spec, law_with_cut(10.0**log10_s0, cut))

    def test_memory_bounded_by_bins(self, tmp_path):
        # at s0 = 1e15 the largest draw of 1e4 is near 1e16: a walk over every bin would need
        # petabytes, and this one runs in a 1 GB address space
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = (
            "import resource, sys\n"
            "from twinsep.cli import main\n"
            "assert main(['simulate', '--s0', '1e15', '--n', '10000', '--seed', '42',"
            " '--out', 'synth.csv']) == 0\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "sys.exit(main(['gof', '--spectrum', 'synth.csv', '--s0', '1e15']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("chi2="))
        fields = dict(tok.split("=", 1) for tok in line.split())
        assert int(fields["dof"]) >= 100 and fields["pass"] == "True", proc.stdout

    def test_far_stray_bin_is_cheap(self):
        spec = SeparationSpectrum({0: 500, 1: 250, 2: 125, 3: 60, 10**7: 1})
        gof_compare(spec, solve_f0(1.0))  # warm-up: the first call pays a one-off import
        t0 = time.perf_counter()
        report = gof_compare(spec, solve_f0(1.0))
        assert time.perf_counter() - t0 < 1.0
        assert report.dof >= 1

    def test_self_consistency_pass_rate(self):
        params = solve_f0(5.0)
        passed = 0
        trials = 25
        for seed in range(trials):
            draws = sample_separations(SimConfig(params, n_events=20_000, seed=seed))
            report = gof_compare(accumulate(draws), params, alpha=0.01)
            passed += report.passed
        assert passed >= trials - 1

    def test_gross_mismatch_fails(self):
        uniform = SeparationSpectrum({s: 10 for s in range(21)})
        report = gof_compare(uniform, solve_f0(1.0), alpha=0.01)
        assert not report.passed
        assert report.ks_distance > 0.2

    def test_pooling_rule_dof(self):
        # q = 1/2, 100 events: expected 50 25 12.5 6.25 3.125 | tail 3.125
        # tail pools with s=4 to reach 6.25, leaving 5 bins -> dof 4
        obs = SeparationSpectrum({0: 60, 1: 25, 2: 10, 3: 3, 4: 2})
        report = gof_compare(obs, solve_f0(1.0), alpha=0.01)
        assert report.dof == 4

    def test_observation_beyond_cutoff_fails(self):
        params = solve_approx(SolverInput(s0=2.0, pi2=100, f=5.0))
        bad = math.floor(params.l_cut) + 8
        obs = SeparationSpectrum({0: 40, 1: 20, 2: 10, bad: 5})
        report = gof_compare(obs, params, alpha=0.01)
        assert not report.passed

    def test_determinism(self):
        params = solve_f0(3.0)
        draws = sample_separations(SimConfig(params, n_events=5000, seed=11))
        spec = accumulate(draws)
        assert gof_compare(spec, params) == gof_compare(spec, params)

    def test_requires_enough_events(self):
        with pytest.raises(ValidationError):
            gof_compare(SeparationSpectrum({0: 30}), solve_f0(1.0))

    def test_alpha_bounds(self):
        spec = SeparationSpectrum({0: 40, 1: 20, 2: 10})
        with pytest.raises(ValidationError):
            gof_compare(spec, solve_f0(1.0), alpha=0.0)

    def test_report_invariants(self):
        with pytest.raises(ValidationError):
            GofReport(chi2=-1.0, dof=3, ks_distance=0.5, passed=False, alpha=0.01, chi2_critical=1.0)
        with pytest.raises(ValidationError):
            GofReport(chi2=1.0, dof=3, ks_distance=1.5, passed=False, alpha=0.01, chi2_critical=1.0)


ORACLE_DOFS = [*range(1, 401), 500, 1000, 10**4, 10**5, 2 * 10**5]
ALPHAS = [1e-300, 1e-100, 1e-20, 1e-6, 0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999999]


class TestChi2Isf:
    def test_matches_scipy(self):
        chdtri = pytest.importorskip("scipy.special").chdtri
        worse = [
            (dof, alpha)
            for dof in ORACLE_DOFS
            for alpha in ALPHAS
            if not math.isclose(_chi2_isf(dof, alpha), chdtri(dof, alpha), rel_tol=1e-12)
        ]
        assert worse == []

    @pytest.mark.parametrize(
        "dof,alpha,want",
        [
            # scipy.special.chdtri; (71, 0.01) is the critical value of README step 6
            (71, 0.01, 101.62144051355197),
            (1, 0.05, 3.8414588206941285),
            (10, 0.001, 29.58829844507442),
            (400, 0.05, 447.6324678308084),
            (3, 0.999999, 0.00024181048720587874),
            (7, 1e-20, 109.82144367398818),
            (10**5, 1e-300, 117494.58207835734),
        ],
    )
    def test_pinned_values(self, dof, alpha, want):
        assert math.isclose(_chi2_isf(dof, alpha), want, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "dof,alpha,want",
        [
            # mpmath 1.3.0's gammainc and findroot at 50 digits, to 30: past dof 2e5 at alpha
            # near 1, scipy.special.chdtri drifts (at alpha 0.999999 by 4.8e-12 relative at dof
            # 1e6 and 4.9e-8 at 4e6), and _chi2_isf is within 1e-15 of these
            (2 * 10**5, 0.75, 199573.052626334353317853788488),
            (2 * 10**5, 0.95, 198960.841493577431045153730589),
            (2 * 10**5, 0.999999, 197008.054130199071587746103736),
            (10**6, 0.75, 999045.76441877541862086101432),
            (10**6, 0.95, 997674.963276473819341384716979),
            (10**6, 0.999999, 993292.033737399476989392187155),
            (4 * 10**6, 0.75, 3998091.89169290027295840750487),
            (4 * 10**6, 0.95, 3995348.78869172235518693145723),
            (4 * 10**6, 0.999999, 3986569.67953045730130587255858),
        ],
    )
    def test_large_dof_near_1(self, dof, alpha, want):
        assert math.isclose(_chi2_isf(dof, alpha), want, rel_tol=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_closed_forms(self, alpha):
        # two degrees of freedom: an exponential tail; one: a squared normal
        assert math.isclose(_chi2_isf(2, alpha), -2.0 * math.log(alpha), rel_tol=1e-13)
        z = NormalDist().inv_cdf(alpha / 2.0)
        assert math.isclose(_chi2_isf(1, alpha), z * z, rel_tol=1e-12)

    def test_monotone(self):
        for dof in (1, 2, 3, 10, 71, 400, 10**4):
            values = [_chi2_isf(dof, alpha) for alpha in ALPHAS]
            assert all(b < a for a, b in zip(values, values[1:])), dof
        for alpha in ALPHAS:
            values = [_chi2_isf(dof, alpha) for dof in (1, 2, 3, 10, 71, 400, 10**4)]
            assert all(a < b for a, b in zip(values, values[1:])), alpha

    def test_runs_without_scipy(self, tmp_path):
        # scipy blocked: any import of it raises ImportError
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from twinsep.cli import main\n"
            "from twinsep.model import solve_f0\n"
            "from twinsep.montecarlo import gof_compare\n"
            "from twinsep.spectrum import read_spectrum_csv\n"
            "out = sys.argv[1]\n"
            "assert main(['simulate', '--s0', '8.0', '--n', '100000', '--seed', '42',\n"
            "             '--out', out]) == 0\n"
            "assert main(['gof', '--spectrum', out, '--s0', '8.0', '--alpha', '0.01']) == 0\n"
            "print(repr(gof_compare(read_spectrum_csv(out)[0], solve_f0(8.0)).chi2_critical))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "synth.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "critical=101.6214 " in lines[1]
        assert math.isclose(float(lines[-2]), 101.62144051355197, rel_tol=1e-12)
        assert lines[-1] == "[]"
