"""Equal-weight least-squares fits used across the analysis pipeline.

Every regression here is ordinary least squares with each datum weighted
equally, and every logarithm is natural.  Standard errors come from the
usual OLS covariance; with no residual degrees of freedom they are
reported as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .spectrum import SeparationSpectrum

MODEL_EXP_SLOPE = "exp_slope"
MODEL_M0_LAW = "m0_law"
MODEL_S0_LINEAR = "s0_linear"
MODEL_S0_LOGLOG = "s0_loglog"

# condition number of the design matrix above which a result is flagged
ILL_CONDITIONED = 1e8


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, ...]
    std_errors: tuple[float, ...]
    residual_rms: float
    n_points: int
    model_id: str
    warnings: tuple[str, ...] = ()
    # coefficient shifts when refitting on the upper half of the x-range
    sensitivity_deltas: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.coefficients) != len(self.std_errors):
            raise ValidationError("coefficients and std_errors must have equal length")


def _ols(X, y, model_id, warnings=()):
    n, k = X.shape
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise ValidationError("singular fit: regressors are degenerate")
    resid = y - X @ beta
    rss = float(resid @ resid)
    dof = n - k
    if dof > 0:
        cov = (rss / dof) * np.linalg.inv(X.T @ X)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    else:
        se = np.zeros(k)
    return FitResult(
        coefficients=tuple(float(b) for b in beta),
        std_errors=tuple(float(s) for s in se),
        residual_rms=math.sqrt(rss / n),
        n_points=n,
        model_id=model_id,
        warnings=tuple(warnings),
    )


def fit_exp_slope(spectrum: SeparationSpectrum) -> FitResult:
    """Slope of log(count) against separation over the nonzero bins.

    coefficients are [intercept, slope]; the slope estimates -1/sbar and
    the intercept estimates log of (total intervals * a).  Zero-count bins
    carry no datum and are excluded, not padded.
    """
    s, counts = spectrum.separations.astype(float), spectrum.counts
    if counts.size < 3:
        raise ValidationError(f"insufficient data: need >= 3 nonzero bins, got {counts.size}")
    X = np.column_stack([np.ones_like(s), s])
    return _ols(X, np.log(counts), MODEL_EXP_SLOPE)


def _finite_points(points, value: str) -> list[tuple[float, float]]:
    """points as (pi1, value) float pairs; a non-finite pi1 or value is rejected."""
    pts = [(float(p), float(v)) for p, v in points]
    for i, (p, v) in enumerate(pts):
        if not (math.isfinite(p) and math.isfinite(v)):
            raise ValidationError(f"point {i}: pi1 and {value} must be finite, got ({p}, {v})")
    return pts


def fit_m0(points) -> FitResult:
    """One-parameter law m = m0 / log(pi1).

    Equal-weight least squares reduces to the mean of m_i * log(pi1_i);
    the standard error is that of the mean.
    """
    pts = _finite_points(points, "m")
    if not pts:
        raise ValidationError("need at least one point")
    if any(p < 3 for p, _ in pts):
        raise ValidationError("pi1 must be >= 3: log(pi1) <= 1 region is excluded")
    y = np.array([m * math.log(p) for p, m in pts])
    m0 = float(y.mean())
    resid = y - m0
    n = len(y)
    se = float(resid.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return FitResult(
        coefficients=(m0,),
        std_errors=(se,),
        residual_rms=float(np.sqrt((resid**2).mean())),
        n_points=n,
        model_id=MODEL_M0_LAW,
    )


def fit_s0_linear(points) -> FitResult:
    """OLS of s0 on log(pi1); coefficients are [intercept, slope]."""
    pts = _finite_points(points, "s0")
    if len(pts) < 2:
        raise ValidationError(f"need >= 2 points, got {len(pts)}")
    if any(p < 1 for p, _ in pts):
        raise ValidationError("pi1 must be >= 1")
    x = np.log([p for p, _ in pts])
    y = np.array([v for _, v in pts])
    X = np.column_stack([np.ones_like(x), x])
    return _ols(X, y, MODEL_S0_LINEAR)


def fit_s0_loglog(points) -> FitResult:
    """OLS of s0 on [1, log(pi1), log(log(pi1))].

    coefficients are [intercept, linear, loglog].  The two slow regressors
    are nearly collinear over short ranges, so the result carries an
    ill-conditioning warning when the design matrix condition number is
    extreme, and sensitivity_deltas reports how the coefficients move when
    refitting on the upper half of the x-range.
    """
    pts = _finite_points(points, "s0")
    if len(pts) < 4:
        raise ValidationError(f"need >= 4 points, got {len(pts)}")
    if any(p <= math.e for p, _ in pts):
        raise ValidationError("pi1 must exceed e so that log(log(pi1)) is positive")

    def design(subset):
        x = np.log([p for p, _ in subset])
        return np.column_stack([np.ones_like(x), x, np.log(x)]), np.array(
            [v for _, v in subset]
        )

    X, y = design(pts)
    warnings = ()
    cond = np.linalg.cond(X)
    if cond > ILL_CONDITIONED:
        warnings = (f"ill-conditioned design matrix (cond={cond:.2e})",)
    fit = _ols(X, y, MODEL_S0_LOGLOG, warnings)

    x_all = np.log([p for p, _ in pts])
    mid = 0.5 * (x_all.min() + x_all.max())
    upper = [pt for pt, xv in zip(pts, x_all) if xv >= mid]
    deltas = None
    if len(upper) >= 4:
        Xu, yu = design(upper)
        try:
            refit = _ols(Xu, yu, MODEL_S0_LOGLOG)
        except ValidationError:
            refit = None
        if refit is not None:
            deltas = tuple(
                u - fullc for u, fullc in zip(refit.coefficients, fit.coefficients)
            )
    return replace(fit, sensitivity_deltas=deltas)
