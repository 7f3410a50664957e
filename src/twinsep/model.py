"""Geometric separation model: one self-consistency map, its start and its fixed point.

The probability that a twin interval holds s singleton primes is modelled
as P(s) = a * q**s with q = exp(-1/sbar).  Three relations tie the
parameters to the observed counts (writing c = f/pi2 for the risk ratio):

    1 + c = a / (1 - q)                        total mass plus the risk tail
    1     = a * (1 - q**(L+1)) / (1 - q)       mass up to the cutoff L
    s0    = q / (1 - q) - (L + 1) * c          observed mean separation

In the odds y = q/(1-q) the first two give a = (1 + c)/(1 + y) and
L + 1 = T*sbar, with T = log(1 + pi2/f) and sbar = 1/log1p(1/y), so the
mean is the self-consistency map y = h(y) = s0 + c*T/log1p(1/y).  With
f = 0, h is the constant s0 and there is no cutoff (solve_f0); solve_approx
stops at the map's starting point y = s0, and solve_exact iterates it to its
fixed point.  h is increasing and h(s0) > s0, so the iterates climb; since
f < pi2, c*T < ln 2 < 1 and h(y) < s0 + c*T*(y + 1/2) falls ever further
below y, so they stop at the unique root.  cutoff_law chooses which of the
two is the law of a checkpoint: every cutoff twinsep reports is solved there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, ValidationError
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
        if not self.f >= 0.0:  # written so that NaN fails it
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
        if int(self.pi2) != self.pi2 or not 3 <= self.pi2 < 2**63:  # pi2/f needs a float pi2
            raise ValidationError(f"pi2 must be an integer in [3, 2**63), got {self.pi2}")
        if not self.f >= 0.0:  # written so that NaN fails it
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
    return _law(s0, s0)


def solve_approx(inp: SolverInput) -> ModelParams:
    """The law at the map's starting point y = s0, which drops the (L+1)*f/pi2 term.

    sbar and q match solve_f0, a = (1 + f/pi2)/(1 + s0) and
    L = -1 + log(1 + pi2/f) / log(1 + 1/s0).
    """
    if inp.f == 0.0:
        return solve_f0(inp.s0)
    return _law(inp.s0, inp.s0, inp.f, inp.pi2)


def solve_exact(inp: SolverInput) -> ModelParams:
    """The law at the fixed point of y <- s0 + c*T/log1p(1/y), iterated from y = s0.

    Each step is the residual of the mean relation; the loop stops once one
    is at most DEFAULT_TOL * max(1, s0), within MAX_ITERATIONS and the floats.
    """
    if inp.f == 0.0:
        return solve_f0(inp.s0)
    s0, pi2, f = inp.s0, inp.pi2, inp.f
    ct = f / pi2 * math.log1p(pi2 / f)
    tol = DEFAULT_TOL * max(1.0, s0)
    y = s0
    for _ in range(MAX_ITERATIONS):
        h = s0 + ct / math.log1p(1.0 / y)
        if abs(h - y) <= tol:
            return _law(h, s0, f, pi2)
        if h == math.inf:
            raise ConvergenceError(f"the fixed point for s0={s0} lies beyond the float range")
        y = h
    raise ConvergenceError(f"no convergence to |residual| <= {tol} in {MAX_ITERATIONS} iterations")


def _law(y: float, s0: float, f: float = 0.0, pi2: int = 1) -> ModelParams:
    """The law at odds y = q/(1-q) for mean s0, risk factor f and pi2 twins.

    a = (1 + f/pi2)/(1 + y) and sbar = 1/log1p(1/y); the cutoff
    L = log(1 + pi2/f)*sbar - 1 exists only when f > 0.
    """
    a = (1.0 + f / pi2) / (1.0 + y)
    if a > 1.0:
        raise ValidationError(f"risk factor f={f} too large for s0={s0}: normalisation exceeds 1")
    sbar = 1.0 / math.log1p(1.0 / y)
    l_cut = None if f == 0.0 else -1.0 + math.log1p(pi2 / f) * sbar
    return ModelParams(a=a, sbar=sbar, q=y / (1.0 + y), l_cut=l_cut, f=f)


def eval_pmf(params: ModelParams, s: int) -> float:
    """Model probability of separation s: a * q**s below the cutoff, else 0."""
    if s < 0:
        raise ValidationError(f"separation must be >= 0, got {s}")
    if params.l_cut is not None and s > params.l_cut:
        return 0.0
    return params.a * params.q**s


def risk_factor(value) -> float:
    """value as a risk factor for a finite cutoff, which must be > 0 and finite."""
    f = float(value)
    if not 0.0 < f < math.inf:
        raise ValidationError(f"risk factor f must be > 0 and finite, got {f}")
    return f


def cutoff_law(s0: float, pi2: int, f: float) -> ModelParams:
    """The law of mean separation s0 and pi2 twins at risk factor f; l_cut is its cutoff.

    Every cutoff twinsep reports is solved here: today by solve_approx, not solve_exact.
    """
    return solve_approx(SolverInput(s0=s0, pi2=pi2, f=f))


def solve_checkpoint(
    record: CountRecord,
    f: float,
    convention: S0Convention | str = S0Convention.RAW,
    spectrum: SeparationSpectrum | None = None,
) -> ModelParams:
    """cutoff_law at the checkpoint's pi2 and its s0 under convention and spectrum."""
    f = risk_factor(f)
    return cutoff_law(s0_from_counts(record, convention, spectrum=spectrum).value, record.pi2, f)
