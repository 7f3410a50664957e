import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsep.errors import ConvergenceError, ValidationError
from twinsep.model import (
    ModelParams,
    SolverInput,
    cutoff_law,
    eval_pmf,
    solve_approx,
    solve_exact,
    solve_f0,
)
from twinsep.pipeline import CountTable, checkpoint_rows
from twinsep.sieve import CountRecord
from twinsep.spectrum import s0_from_counts

ROOT = Path(__file__).resolve().parents[1]
s0_values = st.floats(min_value=0.1, max_value=1000.0, allow_nan=False)
GRID_S0 = [10 ** (k / 2) for k in range(-8, 11)]  # 1e-4 .. 1e5
NEAR_FLOAT_MAX = [1e300, 1e307, 1e308, sys.float_info.max]


def relation_residuals(params, s0, pi2, f):
    """Substitute params into the three model relations; scale by lhs size."""
    a, q, l_cut = params.a, params.q, params.l_cut
    c = f / pi2
    r1 = abs(a / (1 - q) - (1 + c))
    r2 = abs(a * (1 - q ** (l_cut + 1)) / (1 - q) - 1.0)
    r3 = abs(q / (1 - q) - (l_cut + 1) * c - s0) / max(1.0, s0)
    return r1, r2, r3


class TestSolveF0:
    def test_s0_one(self):
        p = solve_f0(1.0)
        assert p.q == pytest.approx(0.5, abs=1e-15)
        assert p.a == pytest.approx(0.5, abs=1e-15)
        assert p.sbar == pytest.approx(1.4426950408889634, abs=1e-14)
        assert p.l_cut is None and p.f == 0.0

    def test_s0_ten(self):
        p = solve_f0(10.0)
        assert p.sbar == pytest.approx(10.49205868725707, abs=1e-12)
        assert p.a == pytest.approx(1 / 11, abs=1e-15)
        # both closed-form sums must come back exact
        assert p.a / (1 - p.q) == pytest.approx(1.0, abs=1e-12)
        assert p.a * p.q / (1 - p.q) ** 2 == pytest.approx(10.0, rel=1e-12)

    def test_large_s0_tail(self):
        p = solve_f0(1e4)
        assert abs(p.sbar - 1e4 - 0.5) < 1e-3

    @pytest.mark.parametrize("s0", [1e2, 1e3, 1e4])
    def test_sbar_tracks_s0(self, s0):
        p = solve_f0(s0)
        assert p.sbar / s0 - 1 < 1.1 / (2 * s0)
        assert p.sbar > s0

    @settings(max_examples=300)
    @given(s0=s0_values)
    def test_closed_form_identities(self, s0):
        p = solve_f0(s0)
        total = p.a / (1 - p.q)
        mean = p.a * p.q / (1 - p.q) ** 2
        assert abs(total - 1.0) <= 1e-12
        assert abs(mean - s0) <= 1e-12 * max(1.0, s0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            solve_f0(0.0)
        with pytest.raises(ValidationError):
            solve_f0(-2.0)

    @pytest.mark.parametrize("s0", [math.inf, math.nan])
    def test_rejects_non_finite(self, s0):
        # 1/log1p(1/inf) would divide by zero
        with pytest.raises(ValidationError, match="finite"):
            solve_f0(s0)
        with pytest.raises(ValidationError, match="finite"):
            SolverInput(s0=s0, pi2=1000, f=1.0)


class TestSolveApprox:
    def test_reference_case(self):
        p = solve_approx(SolverInput(s0=10.0, pi2=1000, f=1.0))
        assert p.l_cut == pytest.approx(71.48706060044306, abs=1e-9)
        assert p.a == pytest.approx(1.001 / 11, rel=1e-12)
        assert p.sbar == pytest.approx(10.49205868725707, abs=1e-12)

    def test_normalisation_with_real_cutoff(self):
        p = solve_approx(SolverInput(s0=10.0, pi2=1000, f=1.0))
        total = p.a * (1 - p.q ** (p.l_cut + 1)) / (1 - p.q)
        assert abs(total - 1.0) < 1e-10

    def test_small_f_recovers_f0(self):
        base = solve_f0(10.0)
        p = solve_approx(SolverInput(s0=10.0, pi2=10**6, f=1e-6))
        assert p.l_cut > 250
        assert p.a == pytest.approx(base.a, rel=1e-10)
        assert p.sbar == base.sbar

    def test_f_zero_delegates(self):
        p = solve_approx(SolverInput(s0=10.0, pi2=1000, f=0.0))
        assert p == solve_f0(10.0)

    def test_f_equal_pi2_rejected(self):
        with pytest.raises(ValidationError):
            SolverInput(s0=10.0, pi2=1000, f=1000.0)

    @pytest.mark.parametrize("pi2", [2**63, 10**400])
    def test_pi2_beyond_int64_rejected(self, pi2):
        # pi2/f would raise OverflowError for a pi2 no float can hold
        with pytest.raises(ValidationError, match=r"pi2 must be an integer in \[3, 2\*\*63\)"):
            SolverInput(s0=10.0, pi2=pi2, f=1.0)
        assert solve_approx(SolverInput(s0=10.0, pi2=2**63 - 1, f=1.0)).l_cut > 0

    @pytest.mark.parametrize("f", [1e-320, 5e-324])
    def test_subnormal_f_rejected(self, f):
        # pi2/f overflows, so the cutoff log(1 + pi2/f)*sbar would be infinite
        with pytest.raises(ValidationError, match="cutoff is infinite"):
            SolverInput(s0=10.0, pi2=1000, f=f)
        assert math.isfinite(solve_approx(SolverInput(s0=10.0, pi2=1000, f=1e-300)).l_cut)

    def test_nan_f_rejected(self):
        # NaN fails every comparison, so each check on f must be one that NaN fails;
        # otherwise solve_approx reports a bad a and solve_exact spins to ConvergenceError
        with pytest.raises(ValidationError, match="f must be >= 0, got nan"):
            SolverInput(s0=5.0, pi2=100, f=math.nan)


class TestClosedForms:
    """solve_f0 and solve_approx are the literal closed forms, bit for bit."""

    @pytest.mark.parametrize("s0", GRID_S0)
    def test_f0(self, s0):
        want = ModelParams(
            a=1.0 / (1.0 + s0), sbar=1.0 / math.log1p(1.0 / s0), q=s0 / (1.0 + s0),
            l_cut=None, f=0.0,
        )
        assert repr(solve_f0(s0)) == repr(want)
        assert repr(solve_approx(SolverInput(s0=s0, pi2=1000, f=0.0))) == repr(want)

    @pytest.mark.parametrize("s0", GRID_S0)
    def test_approx(self, s0):
        for pi2, f in ((3, 1e-6), (8, 1.0), (1000, 0.5), (10**9, 1.0), (10**9, 5e8)):
            a = (1.0 + f / pi2) / (1.0 + s0)
            if a > 1.0:
                with pytest.raises(ValidationError) as exc:
                    solve_approx(SolverInput(s0=s0, pi2=pi2, f=f))
                assert str(exc.value) == (
                    f"risk factor f={f} too large for s0={s0}: normalisation exceeds 1"
                )
                continue
            sbar = 1.0 / math.log1p(1.0 / s0)
            want = ModelParams(
                a=a, sbar=sbar, q=s0 / (1.0 + s0), l_cut=-1.0 + math.log1p(pi2 / f) * sbar, f=f
            )
            assert repr(solve_approx(SolverInput(s0=s0, pi2=pi2, f=f))) == repr(want)


class TestSolveExact:
    def test_f_zero_degenerate(self):
        assert solve_exact(SolverInput(s0=7.0, pi2=100, f=0.0)) == solve_f0(7.0)

    def test_reference_case(self):
        s0, pi2, f = 10.0, 1000, 1.0
        p = solve_exact(SolverInput(s0=s0, pi2=pi2, f=f))
        r1, r2, r3 = relation_residuals(p, s0, pi2, f)
        assert max(r1, r2, r3) < 1e-10
        assert p.q > 10 / 11  # mean relation pushes q above the approximate value
        assert p.sbar >= solve_approx(SolverInput(s0=s0, pi2=pi2, f=f)).sbar

    def test_desk_case_n100(self):
        s0, pi2, f = 1.125, 8, 1.0
        p = solve_exact(SolverInput(s0=s0, pi2=pi2, f=f))
        r1, r2, r3 = relation_residuals(p, s0, pi2, f)
        assert max(r1, r2, r3) < 1e-10
        assert p.l_cut > 0

    @settings(max_examples=150, deadline=None)
    @given(s0=s0_values, pi2=st.sampled_from([100, 10_000, 10**6]), f=st.sampled_from([0.5, 1.0, 5.0]))
    def test_random_inputs_satisfy_relations(self, s0, pi2, f):
        if f > pi2 / 10:  # stay inside the modelled regime
            f = pi2 / 10
        p = solve_exact(SolverInput(s0=s0, pi2=pi2, f=f))
        r1, r2, r3 = relation_residuals(p, s0, pi2, f)
        assert max(r1, r2, r3) < 1e-10

    def test_domain_grid(self):
        # every input ends in a law, a ValidationError or a ConvergenceError; at
        # s0 = 1e308 the iterates overflow, and q rounds to 1 once s0 passes 2**53
        solved = 0
        for s0 in GRID_S0 + NEAR_FLOAT_MAX:
            for pi2 in (3, 10**3, 10**9):
                for ratio in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999):
                    f = ratio * pi2
                    try:
                        p = solve_exact(SolverInput(s0=s0, pi2=pi2, f=f))
                    except (ValidationError, ConvergenceError) as exc:
                        assert s0 in NEAR_FLOAT_MAX, (s0, pi2, f, exc)
                        continue
                    assert max(relation_residuals(p, s0, pi2, f)) < 1e-10, (s0, pi2, f)
                    solved += 1
        assert solved == len(GRID_S0) * 3 * 7
        with pytest.raises(ConvergenceError, match="beyond the float range"):
            solve_exact(SolverInput(s0=1e308, pi2=10, f=5))

    def test_leaves_scipy_unloaded(self):
        # a bracketing root finder from scipy.optimize would cost its import here
        code = (
            "import sys, twinsep\n"
            "twinsep.solve_exact(twinsep.SolverInput(s0=8.0, pi2=10**6, f=1.0))\n"
            "print('scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestEvalPmf:
    def test_value_at_zero(self):
        p = solve_f0(1.0)
        assert eval_pmf(p, 0) == pytest.approx(0.5, abs=1e-15)

    def test_ratio_law(self):
        p = solve_approx(SolverInput(s0=3.0, pi2=500, f=1.0))
        for s in range(0, int(p.l_cut) - 1):
            ratio = eval_pmf(p, s) / eval_pmf(p, s + 1)
            assert ratio == pytest.approx(math.exp(1 / p.sbar), rel=1e-12)

    def test_zero_beyond_cutoff(self):
        p = solve_approx(SolverInput(s0=3.0, pi2=500, f=1.0))
        assert eval_pmf(p, int(p.l_cut) + 1) == 0.0

    def test_mass_below_cutoff_at_most_one(self):
        p = solve_approx(SolverInput(s0=3.0, pi2=500, f=1.0))
        total = sum(eval_pmf(p, s) for s in range(0, math.floor(p.l_cut) + 1))
        assert total <= 1.0 + 1e-12

    def test_negative_separation_rejected(self):
        with pytest.raises(ValidationError):
            eval_pmf(solve_f0(1.0), -1)


class TestPredictLmax:
    def test_n100_case(self):
        rec = CountRecord(n=100, pi1=25, pi2=8)
        params = cutoff_law(s0_from_counts(rec).value, rec.pi2, 1.0)
        assert params == cutoff_law(9 / 8, 8, 1.0)
        l_cut = solve_approx(SolverInput(s0=9 / 8, pi2=8, f=1.0)).l_cut
        assert l_cut == pytest.approx(2.4548166450612476, abs=1e-12)
        # observed maximum separation below 100 is 2
        assert 2 <= math.ceil(l_cut) <= params.l_ceil

    def test_cutoff_law_is_solve_approx(self):
        # the one pin of which solver is the law every reported cutoff comes from:
        # making solve_exact the law flips this test and no other
        for s0, pi2, f in [(9 / 8, 8, 1.0), (10.0, 1000, 1.0), (8.0, 10**6, 3.5), (0.5, 100, 0.1)]:
            assert cutoff_law(s0, pi2, f) == solve_approx(SolverInput(s0=s0, pi2=pi2, f=f))
            assert cutoff_law(s0, pi2, f) != solve_exact(SolverInput(s0=s0, pi2=pi2, f=f))

    def test_decreasing_in_f(self):
        rec = CountRecord(n=10**6, pi1=78498, pi2=8169)
        s0 = s0_from_counts(rec).value
        ls = [cutoff_law(s0, rec.pi2, f).l_cut for f in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(ls, ls[1:]))

    def test_increasing_in_pi2_at_fixed_s0(self):
        ls = [
            solve_approx(SolverInput(s0=5.0, pi2=pi2, f=1.0)).l_cut
            for pi2 in (100, 1000, 10_000, 100_000)
        ]
        assert all(a < b for a, b in zip(ls, ls[1:]))

    def test_increasing_in_s0(self):
        ls = [
            solve_approx(SolverInput(s0=s0, pi2=10_000, f=1.0)).l_cut
            for s0 in (1.0, 2.0, 5.0, 20.0)
        ]
        assert all(a < b for a, b in zip(ls, ls[1:]))

    def test_requires_positive_f(self):
        for f in (0.0, -1.0):
            with pytest.raises(ValidationError):
                checkpoint_rows(CountTable(rows=[CountRecord(n=100, pi1=25, pi2=8)]), f=f)


class TestModelParamsValidation:
    def test_q_sbar_consistency_enforced(self):
        with pytest.raises(ValidationError):
            ModelParams(a=0.5, sbar=2.0, q=0.5, l_cut=None, f=0.0)

    def test_cutoff_flag_tied_to_f(self):
        with pytest.raises(ValidationError):
            ModelParams(a=0.5, sbar=1 / math.log(2), q=0.5, l_cut=10.0, f=0.0)
        with pytest.raises(ValidationError):
            ModelParams(a=0.5, sbar=1 / math.log(2), q=0.5, l_cut=None, f=1.0)

    @pytest.mark.parametrize("l_cut", [math.inf, math.nan, -1.0])
    def test_cutoff_finite_and_nonnegative(self, l_cut):
        # l_ceil takes math.ceil of it, which raises OverflowError on inf
        with pytest.raises(ValidationError, match="l_cut"):
            ModelParams(a=0.5, sbar=1 / math.log(2), q=0.5, l_cut=l_cut, f=1.0)

    def test_nan_f_rejected(self):
        with pytest.raises(ValidationError, match="f must be >= 0, got nan"):
            ModelParams(a=0.5, sbar=1 / math.log(2), q=0.5, l_cut=3.0, f=math.nan)

    def test_l_ceil(self):
        p = solve_approx(SolverInput(s0=10.0, pi2=1000, f=1.0))
        assert p.l_ceil == 72
        assert solve_f0(1.0).l_ceil is None
