"""Geometric separation model: closed-form and numerical parameter solving.

The probability that a twin interval holds s singleton primes is modelled
as P(s) = a * q**s with q = exp(-1/sbar).  Three relations tie the
parameters to the observed counts (writing c = f/pi2 for the risk ratio):

    1 + c = a / (1 - q)                        total mass plus the risk tail
    1     = a * (1 - q**(L+1)) / (1 - q)       mass up to the cutoff L
    s0    = q / (1 - q) - (L + 1) * c          observed mean separation

With f = 0 the cutoff disappears and the system solves exactly:
sbar = 1/log(1 + 1/s0), a = 1/(1 + s0).  With f > 0, dropping the
(L+1)*c term keeps those expressions and yields closed forms for a and L
(solve_approx); solve_exact instead solves the full system numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, NoSolutionError, ValidationError
from .sieve import CountRecord
from .spectrum import S0Convention, SeparationSpectrum, s0_from_counts

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 200
DEFAULT_RISK_FACTOR = 1.0
OVERSHOOT_ALPHA = 1e-3  # per-checkpoint false-alarm rate of overshoot_bound


@dataclass(frozen=True)
class ModelParams:
    """Solved pmf parameters.  l_cut is None exactly when f == 0 (no cutoff)."""

    a: float
    sbar: float
    q: float
    l_cut: float | None
    f: float

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ValidationError(f"a must be in (0, 1], got {self.a}")
        if not self.sbar > 0.0:
            raise ValidationError(f"sbar must be positive, got {self.sbar}")
        if not 0.0 < self.q < 1.0:
            raise ValidationError(f"q must be in (0, 1), got {self.q}")
        if abs(self.q - math.exp(-1.0 / self.sbar)) > 1e-12 * self.q:
            raise ValidationError("q and sbar disagree: q must equal exp(-1/sbar)")
        if self.f < 0.0:
            raise ValidationError(f"f must be >= 0, got {self.f}")
        if (self.f == 0.0) != (self.l_cut is None):
            raise ValidationError("l_cut must be None exactly when f == 0")
        if self.l_cut is not None and not 0.0 <= self.l_cut < math.inf:
            raise ValidationError(f"l_cut must be finite and >= 0, got {self.l_cut}")

    @property
    def m(self) -> float:
        """Decay slope of log-frequency per unit separation."""
        return 1.0 / self.sbar

    @property
    def l_ceil(self) -> int | None:
        """Integer cutoff for uses that need a whole separation count."""
        return None if self.l_cut is None else math.ceil(self.l_cut)


def overshoot_bound(law: ModelParams) -> float:
    """ceil(L) + sbar*ln(f/alpha): the 1-alpha quantile of the running maximum.

    The cutoff L leaves about f separations beyond it, so the running
    maximum M of the pi2-2 closed separations obeys
    P(M > L + x) ~ 1 - exp(-f*q**x); setting that to alpha = OVERSHOOT_ALPHA
    and taking 1 - exp(-y) ~ y gives x = sbar*ln(f/alpha).
    """
    return math.ceil(law.l_cut) + law.sbar * math.log(law.f / OVERSHOOT_ALPHA)


@dataclass(frozen=True)
class SolverInput:
    """Observed mean separation, twin count, and risk factor for one checkpoint."""

    s0: float
    pi2: int
    f: float

    def __post_init__(self):
        if not 0.0 < self.s0 < math.inf:
            raise ValidationError(f"s0 must be finite and > 0, got {self.s0}")
        if int(self.pi2) != self.pi2 or self.pi2 < 3:
            raise ValidationError(f"pi2 must be an integer >= 3, got {self.pi2}")
        if self.f < 0.0:
            raise ValidationError(f"f must be >= 0, got {self.f}")
        if self.f >= self.pi2:
            raise ValidationError(
                f"risk factor f={self.f} outside regime: must be well below pi2={self.pi2}"
            )
        if self.f > 0.0 and self.pi2 / self.f == math.inf:  # a subnormal f: L = log(1 + pi2/f)*sbar
            raise ValidationError(f"risk factor f={self.f} too small: the cutoff is infinite")


def solve_f0(s0: float) -> ModelParams:
    """Exact solution without a cutoff: sbar = 1/log(1 + 1/s0), a = 1/(1 + s0).

    The geometric sums then give total mass 1 and mean s0 identically.
    """
    if not 0.0 < s0 < math.inf:
        raise ValidationError(f"s0 must be finite and > 0, got {s0}")
    return ModelParams(
        a=1.0 / (1.0 + s0),
        sbar=1.0 / math.log1p(1.0 / s0),
        q=s0 / (1.0 + s0),
        l_cut=None,
        f=0.0,
    )


def solve_approx(inp: SolverInput) -> ModelParams:
    """Closed-form solution that drops the (L+1)*f/pi2 term from the mean relation.

    sbar and q match solve_f0; the normalisation picks up the factor
    (1 + f/pi2) and the cutoff becomes
    L = -1 + log(1 + pi2/f) / log(1 + 1/s0).
    """
    if inp.f == 0.0:
        return solve_f0(inp.s0)
    s0, c = inp.s0, inp.f / inp.pi2
    a = (1.0 + c) / (1.0 + s0)
    if a > 1.0:
        raise ValidationError(
            f"risk factor f={inp.f} too large for s0={s0}: normalisation exceeds 1"
        )
    sbar = 1.0 / math.log1p(1.0 / s0)
    l_cut = -1.0 + math.log1p(inp.pi2 / inp.f) * sbar
    return ModelParams(a=a, sbar=sbar, q=s0 / (1.0 + s0), l_cut=l_cut, f=inp.f)


def solve_exact(inp: SolverInput, tol: float = DEFAULT_TOL) -> ModelParams:
    """Solve the full three-relation system numerically.

    Eliminating a and q**(L+1) reduces the system to one equation for the
    odds y = q/(1-q):

        y - s0 - c * T / log1p(1/y) = 0,   T = log(1 + pi2/f),  c = f/pi2

    which is monotone on the bracket [s0, +inf) and solved by bisection
    with secant refinement.  Residuals are measured relative to each
    relation's left-hand side (max(1, |lhs|) scaling).  Solving in y
    rather than q keeps the mean relation well-conditioned at large s0.
    """
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if inp.f == 0.0:
        return solve_f0(inp.s0)
    s0, c = inp.s0, inp.f / inp.pi2
    big_t = math.log1p(inp.pi2 / inp.f)
    scale = max(1.0, s0)

    def resid(y):
        return (y - s0 - c * big_t / math.log1p(1.0 / y)) / scale

    lo = s0
    hi = s0 + max(1.0, c * big_t / math.log1p(1.0 / s0))
    for _ in range(64):
        if resid(hi) > 0.0:
            break
        hi = s0 + 2.0 * (hi - s0)
    else:
        raise NoSolutionError("could not bracket the cutoff equation")
    y = _find_root(resid, lo, hi, tol)

    q = y / (1.0 + y)
    a = (1.0 + c) / (1.0 + y)
    if a > 1.0:
        raise ValidationError(
            f"risk factor f={inp.f} too large for s0={s0}: normalisation exceeds 1"
        )
    sbar = 1.0 / math.log1p(1.0 / y)
    l_cut = -1.0 + big_t * sbar
    return ModelParams(a=a, sbar=sbar, q=q, l_cut=l_cut, f=inp.f)


def _find_root(g, lo, hi, tol, max_iter=MAX_ITERATIONS):
    """Root of monotone g on [lo, hi] with g(lo) <= 0 <= g(hi).

    Bisection steps keep the bracket honest; a secant candidate is taken
    whenever it lands comfortably inside.  Terminates on |g| <= tol.
    """
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo > 0.0 or ghi < 0.0:
        raise NoSolutionError("bracket does not straddle a sign change")
    x, gx = (lo, glo) if abs(glo) <= abs(ghi) else (hi, ghi)
    for _ in range(max_iter):
        if abs(gx) <= tol:
            return x
        width = hi - lo
        denom = ghi - glo
        cand = hi - ghi * width / denom if denom != 0.0 else 0.5 * (lo + hi)
        if not (lo + 0.01 * width < cand < hi - 0.01 * width):
            cand = 0.5 * (lo + hi)
        gc = g(cand)
        if gc == 0.0:
            return cand
        if gc < 0.0:
            lo, glo = cand, gc
        else:
            hi, ghi = cand, gc
        x, gx = (lo, glo) if abs(glo) <= abs(ghi) else (hi, ghi)
        if width <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
    if abs(gx) <= tol:
        return x
    raise ConvergenceError(
        f"no convergence to |residual| <= {tol} in {max_iter} iterations (best {gx:.3e})"
    )


def eval_pmf(params: ModelParams, s: int) -> float:
    """Model probability of separation s: a * q**s below the cutoff, else 0."""
    if s < 0:
        raise ValidationError(f"separation must be >= 0, got {s}")
    if params.l_cut is not None and s > params.l_cut:
        return 0.0
    return params.a * params.q**s


def risk_factor(value) -> float:
    """value as a risk factor for a finite cutoff, which must be > 0."""
    f = float(value)
    if not f > 0.0:
        raise ValidationError(f"risk factor f must be > 0 for a finite cutoff, got {f}")
    return f


def solve_checkpoint(
    record: CountRecord,
    f: float,
    convention: S0Convention | str = S0Convention.RAW,
    spectrum: SeparationSpectrum | None = None,
) -> ModelParams:
    """Self-consistent cutoff law at one checkpoint for risk factor f > 0.

    solve_approx at the checkpoint's pi2 and its s0 under convention
    (spectrum as for s0_from_counts); l_cut is the expected maximal
    separation.
    """
    f = risk_factor(f)
    s0 = s0_from_counts(record, convention, spectrum=spectrum).value
    return solve_approx(SolverInput(s0=s0, pi2=record.pi2, f=f))
