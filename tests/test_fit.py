import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsep.errors import ValidationError
from twinsep.fit import (
    MODEL_EXP_SLOPE,
    fit_exp_slope,
    fit_m0,
    fit_s0_linear,
    fit_s0_loglog,
)
from twinsep.spectrum import SeparationSpectrum, accumulate


def check_orthogonality(X, y, coeffs, tol=1e-9):
    resid = y - X @ np.asarray(coeffs)
    assert np.all(np.abs(X.T @ resid) < tol)


class TestExpSlope:
    def test_synthetic_exponential(self):
        bins = {s: round(1000 * math.exp(-0.5 * s)) for s in range(11)}
        fit = fit_exp_slope(SeparationSpectrum(bins))
        assert fit.coefficients[1] == pytest.approx(-0.5, abs=0.01)
        assert fit.model_id == MODEL_EXP_SLOPE

    def test_n100_spectrum(self):
        fit = fit_exp_slope(SeparationSpectrum({0: 2, 1: 3, 2: 1}))
        assert fit.n_points == 3
        assert all(math.isfinite(c) for c in fit.coefficients)
        # hand OLS on the three points (s, log count)
        s = np.array([0.0, 1.0, 2.0])
        y = np.log([2.0, 3.0, 1.0])
        slope = ((s - s.mean()) * (y - y.mean())).sum() / ((s - s.mean()) ** 2).sum()
        intercept = y.mean() - slope * s.mean()
        assert fit.coefficients == pytest.approx((intercept, slope), abs=1e-12)

    def test_exact_log_linear_has_zero_rms(self):
        bins = {s: round(math.exp(14 - 0.25 * s)) for s in range(0, 30, 3)}
        fit = fit_exp_slope(SeparationSpectrum(bins))
        assert fit.residual_rms < 0.01  # rounding noise only

    def test_insufficient_bins(self):
        with pytest.raises(ValidationError):
            fit_exp_slope(SeparationSpectrum({4: 12}))
        with pytest.raises(ValidationError):
            fit_exp_slope(SeparationSpectrum({0: 5, 1: 2}))

    @settings(max_examples=50)
    @given(scale=st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, scale):
        base = {0: 40, 1: 22, 2: 11, 3: 5, 4: 2}
        f0 = fit_exp_slope(SeparationSpectrum(base))
        scaled = {s: max(1, round(c * scale * 1000)) for s, c in base.items()}
        unscaled = {s: max(1, round(c * 1000)) for s, c in base.items()}
        f1 = fit_exp_slope(SeparationSpectrum(unscaled))
        f2 = fit_exp_slope(SeparationSpectrum(scaled))
        assert f2.coefficients[1] == pytest.approx(f1.coefficients[1], abs=1e-3)
        assert f2.coefficients[0] - f1.coefficients[0] == pytest.approx(
            math.log(scale), abs=2e-3
        )
        del f0

    def test_orthogonality(self):
        bins = {0: 50, 1: 31, 2: 17, 3: 9, 4: 6, 5: 2}
        fit = fit_exp_slope(SeparationSpectrum(bins))
        s = np.array(sorted(bins), dtype=float)
        X = np.column_stack([np.ones_like(s), s])
        y = np.log([bins[int(v)] for v in s])
        check_orthogonality(X, y, fit.coefficients)


class TestM0Law:
    def test_exact_construction(self):
        pts = [(p, 1.321 / math.log(p)) for p in (10, 100, 10_000, 10**7)]
        fit = fit_m0(pts)
        assert fit.coefficients[0] == pytest.approx(1.321, abs=1e-12)
        assert fit.residual_rms < 1e-12
        assert fit.std_errors[0] < 1e-12

    def test_single_point_algebra(self):
        fit = fit_m0([(math.e**3, 0.5)])
        assert fit.coefficients[0] == pytest.approx(1.5, abs=1e-12)
        assert fit.std_errors[0] == 0.0

    def test_noise_recovery(self):
        rng = np.random.default_rng(42)
        sigma, n = 0.05, 200
        pis = np.logspace(3, 9, n)
        ms = (1.321 + rng.normal(0.0, sigma, n)) / np.log(pis)
        fit = fit_m0(list(zip(pis, ms)))
        assert abs(fit.coefficients[0] - 1.321) < 3 * sigma / math.sqrt(n)

    def test_domain_guard(self):
        with pytest.raises(ValidationError):
            fit_m0([(2, 1.0)])
        with pytest.raises(ValidationError):
            fit_m0([])


class TestNonFinitePoints:
    """An inf or nan pi1 or value is rejected, not fitted into NaN coefficients."""

    GOOD = [(100.0, 2.0), (1000.0, 3.0), (10_000.0, 4.0), (100_000.0, 5.0)]

    @pytest.mark.parametrize("fitter", [fit_m0, fit_s0_linear, fit_s0_loglog])
    @pytest.mark.parametrize(
        "bad", [(math.inf, 3.0), (math.nan, 3.0), (1000.0, math.inf), (1000.0, -math.inf),
                (1000.0, math.nan)],
    )
    def test_rejected(self, fitter, bad):
        with pytest.raises(ValidationError, match="point 2: pi1 and .* must be finite"):
            fitter([*self.GOOD[:2], bad, *self.GOOD[2:]])


class TestS0Linear:
    def test_exact_line_recovery(self):
        pts = [(round(math.exp(x)), 0.7918 * math.log(round(math.exp(x))) - 1.194)
               for x in np.linspace(7, 20, 10)]
        fit = fit_s0_linear(pts)
        assert fit.coefficients[0] == pytest.approx(-1.194, abs=1e-9)
        assert fit.coefficients[1] == pytest.approx(0.7918, abs=1e-9)

    def test_two_points_interpolate(self):
        fit = fit_s0_linear([(100, 2.0), (10_000, 5.0)])
        assert fit.residual_rms < 1e-12
        assert fit.std_errors == (0.0, 0.0)

    def test_degenerate_x(self):
        with pytest.raises(ValidationError):
            fit_s0_linear([(1000, 1.0), (1000, 2.0), (1000, 3.0)])

    def test_orthogonality(self):
        rng = np.random.default_rng(7)
        pis = np.logspace(4, 10, 25)
        s0s = 0.8 * np.log(pis) - 1.0 + rng.normal(0, 0.05, 25)
        fit = fit_s0_linear(list(zip(pis, s0s)))
        X = np.column_stack([np.ones(25), np.log(pis)])
        check_orthogonality(X, s0s, fit.coefficients)


class TestS0LogLog:
    COEFFS = (-3.55, 0.745, 1.10)

    def build(self, coeffs, lo=7.0, hi=23.0, n=16):
        pts = []
        for x in np.linspace(lo, hi, n):
            pi1 = float(np.exp(x))
            s0 = coeffs[0] + coeffs[1] * math.log(pi1) + coeffs[2] * math.log(math.log(pi1))
            pts.append((pi1, s0))
        return pts

    def test_exact_recovery(self):
        fit = fit_s0_loglog(self.build(self.COEFFS))
        assert fit.coefficients == pytest.approx(self.COEFFS, abs=1e-6)
        assert fit.residual_rms < 1e-9

    def test_domain_guard(self):
        with pytest.raises(ValidationError):
            fit_s0_loglog([(2, 1.0), (10, 2.0), (100, 3.0), (1000, 4.0)])

    def test_needs_four_points(self):
        with pytest.raises(ValidationError):
            fit_s0_loglog([(10, 1.0), (100, 2.0), (1000, 3.0)])

    def test_nested_model_consistency(self):
        # data generated with no loglog term: that coefficient must vanish
        pts = self.build((-1.194, 0.7918, 0.0))
        fit = fit_s0_loglog(pts)
        assert abs(fit.coefficients[2]) <= max(1e-8, fit.std_errors[2])
        # and the constrained fit is exactly the linear fit
        lin = fit_s0_linear(pts)
        assert lin.coefficients[0] == pytest.approx(-1.194, abs=1e-9)
        assert lin.coefficients[1] == pytest.approx(0.7918, abs=1e-9)

    def test_sensitivity_deltas_reported(self):
        rng = np.random.default_rng(3)
        pts = [(p, s + rng.normal(0, 0.02)) for p, s in self.build(self.COEFFS, n=24)]
        fit = fit_s0_loglog(pts)
        assert fit.sensitivity_deltas is not None
        assert len(fit.sensitivity_deltas) == 3
        # exact data moves nowhere
        exact = fit_s0_loglog(self.build(self.COEFFS, n=24))
        assert exact.sensitivity_deltas == pytest.approx((0.0, 0.0, 0.0), abs=1e-6)

    def test_orthogonality(self):
        pts = self.build(self.COEFFS, n=12)
        fit = fit_s0_loglog(pts)
        x = np.log([p for p, _ in pts])
        X = np.column_stack([np.ones_like(x), x, np.log(x)])
        y = np.array([v for _, v in pts])
        check_orthogonality(X, y, fit.coefficients, tol=1e-7)


class TestPipelineSlope:
    def test_slope_of_sieved_spectrum_is_sane(self, oracle100k):
        spec = accumulate(oracle100k["seps"])
        fit = fit_exp_slope(spec)
        m = -fit.coefficients[1]
        assert 0.05 < m < 1.0
