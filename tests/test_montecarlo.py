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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinsep import sieve
from twinsep.errors import ValidationError
from twinsep.model import ModelParams, SolverInput, solve_approx, solve_exact, solve_f0
from twinsep.montecarlo import (
    BLOCK_DRAWS,
    CALL_DRAWS,
    GofReport,
    SimConfig,
    _chi2_isf,
    _finish_draws,
    gof_compare,
    sample_separations,
)
from twinsep.spectrum import SeparationSpectrum, accumulate

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
    @pytest.mark.parametrize(
        "law,digest",
        [
            ("f0", "240a8c6dc55b3312b38e9456cb6a450f6b2490c20ce5bf27ae9264d81ebd5551"),
            ("f1", "058ebb98c7308feb6e30cca67ea0205c3b8b49a1e2336f5471ba06f5f8f83e88"),
        ],
    )
    def test_pinned_stream(self, law, digest):
        draws = sample_separations(SimConfig(LAWS[law](), n_events=100_000, seed=42))
        assert hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize(
        "n",
        [1, 3, 4, 5, BLOCK_DRAWS - 1, BLOCK_DRAWS, BLOCK_DRAWS + 1, 2 * BLOCK_DRAWS * 3 + 3,
         CALL_DRAWS + 3],
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
    def test_sampler_without_kernel(self, kernel, law, monkeypatch):
        config = SimConfig(LAWS[law](), n_events=3 * BLOCK_DRAWS + 5, seed=2**63 + 1)
        compiled = sample_separations(config)
        monkeypatch.setattr(sieve, "_load_kernel", lambda: None)
        fallback = sample_separations(config)
        assert fallback.dtype == compiled.dtype == np.int64
        assert np.array_equal(fallback, compiled)


def law_with_cut(s0, cut):
    """solve_f0(s0), or that law under a cutoff of 0, 3 * sbar or 1e300."""
    law = solve_f0(s0)
    if cut is None:
        return law
    l_cut = {"zero": 0.0, "typical": 3 * law.sbar, "huge": 1e300}[cut]
    return dataclasses.replace(law, l_cut=l_cut, f=1.0)


def fallback_draws(config, monkeypatch):
    """The draws of config on numpy alone, as when no compiler builds the kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(sieve, "_load_kernel", lambda: None)
        return sample_separations(config)


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
    """twinsep_geometric's draws with the pending ones finished by numpy, and their indices."""
    out = np.empty(n, dtype=np.int64)
    pend_idx = np.empty(n, dtype=np.int64)
    pend_v = np.empty(n)
    k = kernel.twinsep_geometric(key, counter, first, n, f, lnq, m, out, pend_idx, pend_v)
    fixed = np.empty(k, dtype=np.int64)
    _finish_draws(pend_v[:k], lnq, None if m == math.inf else m, fixed)
    out[pend_idx[:k]] = fixed
    return out, pend_idx[:k]


class TestCompiledSampler:
    """twinsep_geometric, with its pending draws finished by numpy, against numpy alone."""

    @pytest.mark.parametrize("s0", [0.01, 8.0, 1e6, 1e15])
    @pytest.mark.parametrize("cut", [None, "zero", "typical", "huge"])
    def test_draws_match_fallback(self, kernel, s0, cut, monkeypatch):
        law = law_with_cut(s0, cut)
        sizes = [1, 7, 8, 9, BLOCK_DRAWS - 1, BLOCK_DRAWS + 1]
        compiled = [sample_separations(SimConfig(law, n_events=n, seed=n)) for n in sizes]
        for n, draws in zip(sizes, compiled):
            assert np.array_equal(draws, fallback_draws(SimConfig(law, n_events=n, seed=n),
                                                        monkeypatch))
        assert compiled[-1].max() <= (math.inf if cut is None else math.floor(law.l_cut))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log10_s0=st.floats(-2.0, 15.0), cut=st.sampled_from([None, "zero", "typical", "huge"]),
           n=st.integers(1, 3 * BLOCK_DRAWS + 5), seed=st.integers(0, 2**64 - 1))
    def test_draws_match_fallback_fuzz(self, kernel, log10_s0, cut, n, seed, monkeypatch):
        config = SimConfig(law_with_cut(10.0**log10_s0, cut), n_events=n, seed=seed)
        assert np.array_equal(sample_separations(config), fallback_draws(config, monkeypatch))

    def test_quotients_near_integers(self, kernel, monkeypatch):
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
                assert np.array_equal(draws, fallback_draws(config, monkeypatch)), (i, k)
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
                        got, pending = compiled_draws(kernel, key, counter, first, n, f, lnq, m)
                        want = np.minimum(np.floor(np.log1p(v) / lnq), m).astype(np.int64)
                        assert np.array_equal(got, want), (f, block, lnq, m)
                        if us[0] == 0.0 and first <= 4 * block:
                            assert 4 * block - first in pending  # v = -0.0
                        if lnq == math.log(top) and m == math.inf and f == -1.0:
                            # the largest quotient in range, log1p(-top) / log(top)
                            assert 3.3e17 < got[4 * block - first + 1] < 2**63


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
    observed = np.array([empirical.bins.get(k, 0) for k in range(s_max + 1)] + [0.0])
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
        ],
    )
    def test_matches_dense_walk(self, params, bins):
        if bins is None:
            spec = accumulate(sample_separations(SimConfig(params, n_events=20_000, seed=3)))
        else:
            spec = SeparationSpectrum(bins)
        report = gof_compare(spec, params)
        assert (report.chi2, report.dof, report.ks_distance) == dense_gof(spec, params)

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


ORACLE_DOFS = [*range(1, 401), 500, 1000, 10**4, 10**5]
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
