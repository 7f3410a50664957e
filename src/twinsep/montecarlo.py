"""Synthetic separation sampling and goodness-of-fit checks.

Tests the core working hypothesis that twin occurrences behave like
fixed-probability random events in the prime sequence: draws from the
model pmf should be statistically indistinguishable from real separation
spectra.  The pass/fail thresholds (Pearson chi-square at a chosen alpha,
plus a KS distance) are reporting conventions of this toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sieve
from .errors import ValidationError
from .model import ModelParams
from .spectrum import SeparationSpectrum

GENERATOR = "philox4x64"  # counter-based; the seed fully determines the stream
DEFAULT_ALPHA = 0.01
POOL_MIN_EXPECTED = 5.0
# room for pending draws (16 bytes each) per twinsep_geometric call, which returns early when
# it fills: from s0 of about 1e7 on nearly every draw pends, and a call costs about 10 us
PENDING_DRAWS = 512
THRESHOLD_NOTE = "chi-square/KS pass thresholds are conventions of this toolkit"
_EPS = 2.0**-53


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    n_events: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n_events < 2**60:  # numpy cannot size an int64 array of 2**60 draws
            raise ValidationError(f"n_events must be in [1, 2**60), got {self.n_events}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class GofReport:
    chi2: float
    dof: int
    ks_distance: float
    passed: bool
    alpha: float
    chi2_critical: float
    note: str = THRESHOLD_NOTE

    def __post_init__(self):
        if self.chi2 < 0 or not 0.0 <= self.ks_distance <= 1.0:
            raise ValidationError("chi2 must be >= 0 and ks_distance in [0, 1]")


def sample_separations(config: SimConfig) -> np.ndarray:
    """i.i.d. draws from the model pmf, by inverse CDF on the geometric law.

    With a cutoff the pmf is renormalised over the integers 0..floor(l_cut)
    and sampled by mapping uniforms into the truncated CDF range; without
    one the draws are plain geometric: draw i is
    min(floor(log1p(-s * u_i) / log q), m), with s = 1 - q**(m+1) and m =
    floor(l_cut) under a cutoff, s = 1 and no cap without.  The seed alone
    fixes the stream: u_i is the i-th double of
    `np.random.Generator(np.random.Philox(seed)).random`, whatever the
    call size, so identical seeds give identical arrays.  The draws are
    made on the calling thread.

    The sieve's compiled kernel (`sieve._load_kernel`) makes them in
    `twinsep_geometric` calls, from the key and counter of
    `np.random.Philox(seed).state`: each fills -s * u_i (16 Philox counters
    at once where the CPU has AVX-512), takes a cheap logarithm, and
    floors each quotient that it can certify lies far enough from every
    integer for numpy's to floor alike.  The draws it cannot settle (a few
    in 1e7 at s0 of 5-13, a quotient of 0, and nearly every draw from s0
    of about 1e7 on) come back as pending (index, -s * u_i) pairs, at most
    PENDING_DRAWS a call, for `_finish_draws` to finish with numpy's log1p,
    division, floor and minimum.  Raises KernelError without the kernel.
    """
    p = config.params
    n = config.n_events
    lnq = math.log(p.q)
    m = None if p.l_cut is None else math.floor(p.l_cut)
    # -s is exact to apply in one multiply: IEEE rounding is symmetric in sign
    neg_scale = -1.0 if m is None else math.expm1((m + 1) * lnq)  # -(1 - q**(m+1))
    kernel = sieve._load_kernel()
    state = np.random.Philox(config.seed).state["state"]
    cap = math.inf if m is None else float(m)
    out = np.empty(n, dtype=np.int64)
    pend_idx = np.empty(PENDING_DRAWS, dtype=np.int64)
    pend_v = np.empty(PENDING_DRAWS)
    npend = np.empty(1, dtype=np.int64)
    key, counter, at_out, at_idx, at_v, at_npend = (
        a.ctypes.data for a in (state["key"], state["counter"], out, pend_idx, pend_v, npend)
    )
    lo = 0
    while lo < n:
        lo = kernel.twinsep_geometric(key, counter, lo, n, neg_scale, lnq, cap, at_out, at_idx,
                                      at_v, PENDING_DRAWS, at_npend)
        k = int(npend[0])
        if k:
            draws = np.empty(k, dtype=np.int64)
            _finish_draws(pend_v[:k], lnq, m, draws)
            out[pend_idx[:k]] = draws
    return out


def _finish_draws(v, lnq, m, out):
    """out = min(floor(log1p(v) / lnq), m) by numpy's ufuncs, with v = -s * u overwritten."""
    np.log1p(v, out=v)
    v /= lnq
    np.floor(v, out=v)
    if m is not None:
        np.minimum(v, m, out=v)
    np.copyto(out, v, casting="unsafe")


def _support_probabilities(params: ModelParams, s_max: int):
    """Renormalised pmf over 0..min(s_max, top) plus the tail mass beyond s_max.

    top bounds the support: floor(l_cut) with a cutoff, otherwise the s
    past which q**s < 2**-1200, far below the smallest subnormal, so the
    pmf is exactly 0.0 on every s above it.
    """
    q = params.q
    top = math.ceil(1200 / -math.log2(q)) if params.l_cut is None else math.floor(params.l_cut)
    s = np.arange(min(s_max, top) + 1)
    probs = (1.0 - q) * q**s
    if params.l_cut is None:
        tail = q ** (s_max + 1)
    else:
        norm = -math.expm1((top + 1) * math.log(q))  # 1 - q**(top+1)
        probs /= norm
        tail = max(0.0, (q ** (s_max + 1) - q ** (top + 1)) / norm) if s_max < top else 0.0
    return probs, tail


def gof_compare(
    empirical: SeparationSpectrum, params: ModelParams, alpha: float = DEFAULT_ALPHA
) -> GofReport:
    """Pearson chi-square and KS distance of a spectrum against the model.

    Expected counts below POOL_MIN_EXPECTED are pooled upward from the tail
    so the chi-square approximation stays valid; dof is the pooled bin
    count minus one.  Pass means the chi-square statistic stays below the
    critical value at the given alpha.
    """
    total = empirical.total_intervals
    if total < 50:
        raise ValidationError(f"insufficient events: need >= 50 intervals, got {total}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")

    s_max = empirical.max_separation() or 0
    probs, tail = _support_probabilities(params, s_max)
    # Above the support an empty bin has o = 0 and e = 0.0, which adds exactly
    # nothing to the pooling walk or the KS maximum: keep only occupied ones.
    stray = [c for s, c in sorted(empirical.bins.items()) if s >= probs.size]
    observed = np.array([empirical.bins.get(s, 0) for s in range(probs.size)] + stray + [0.0])
    probs = np.append(probs, np.zeros(len(stray)))
    expected = np.append(total * probs, total * tail)

    # pool from the tail until every pooled bin has enough expected mass
    pooled: list[tuple[float, float]] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed[::-1], expected[::-1]):
        acc_o += o
        acc_e += e
        if acc_e >= POOL_MIN_EXPECTED:
            pooled.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_o or acc_e:
        if pooled:
            last_o, last_e = pooled[-1]
            pooled[-1] = (last_o + acc_o, last_e + acc_e)
        else:
            pooled.append((acc_o, acc_e))
    pooled.reverse()
    if len(pooled) < 2:
        raise ValidationError("insufficient data: fewer than 2 bins after pooling")

    chi2 = 0.0
    for o, e in pooled:
        if e <= 0.0:
            if o > 0:
                chi2 = math.inf
            continue
        chi2 += (o - e) ** 2 / e
    dof = len(pooled) - 1
    crit = _chi2_isf(dof, alpha)

    cum_model = np.cumsum(probs)
    cum_emp = np.cumsum(observed[:-1]) / total
    ks = float(np.max(np.abs(cum_emp - cum_model)))

    return GofReport(
        chi2=float(chi2),
        dof=dof,
        ks_distance=min(1.0, ks),
        passed=bool(chi2 < crit),
        alpha=alpha,
        chi2_critical=crit,
    )


def _log_gamma_tails(a: float, y: float) -> tuple[float, float, float]:
    """(log P, log Q, log y**a e**-y / Gamma(a)) of the regularized incomplete gammas at (a, y).

    The smaller tail is evaluated directly and the other as its complement:
    P by its power series below y = a + 1, Q by its continued fraction
    (modified Lentz) above.
    """
    if a < 20.0:
        front = a * math.log(y) - y - math.lgamma(a)
    else:  # the same without subtracting terms of size a: Stirling's series for lgamma
        d, inv = (y - a) / a, 1.0 / (a * a)
        corr = (1.0 / 12 - inv * (1.0 / 360 - inv * (1.0 / 1260 - inv / 1680))) / a
        front = a * (math.log1p(d) - d) + 0.5 * math.log(a / (2.0 * math.pi)) - corr
    if y < a + 1.0:
        # P = front / a * sum_n y**n / ((a+1)...(a+n))
        term = total = 1.0
        k = a
        while term > total * _EPS:
            k += 1.0
            term *= y / k
            total += term
        log_p = front + math.log(total / a)
        return log_p, math.log1p(-math.exp(log_p)), front
    # Q = front / (y+1-a - 1(1-a)/(y+3-a - 2(2-a)/(y+5-a - ...))); for y >= a + 1 the
    # Lentz ratios c and 1/d stay above 0.58 b over the tested range, so neither vanishes
    b = y + 1.0 - a
    c, d = math.inf, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    log_q = front + math.log(h)
    return math.log1p(-math.exp(log_q)), log_q, front


def _chi2_isf(dof: int, alpha: float) -> float:
    """The chi-square critical value: the x with P(chi2 with dof degrees > x) = alpha.

    Solves Q(dof/2, x/2) = alpha by Newton's method on log Q against log x,
    from the Wilson-Hilferty approximation; above alpha = 0.5 it solves
    log P = log1p(-alpha) instead, so neither tail loses digits to a
    complement.  Each log tail is concave in log x, so the iterates
    overshoot the root at most once.  Agrees with scipy.special.chdtri to
    1.5e-14 relative over dof 1..400 and 500..1e5, alpha 1e-300..0.999999.
    """
    from statistics import NormalDist  # 4 ms of imports that only gof_compare needs

    a = dof / 2.0
    upper = alpha <= 0.5
    target = math.log(alpha) if upper else math.log1p(-alpha)
    z = -NormalDist().inv_cdf(alpha)
    v = 2.0 / (9.0 * dof)
    base = 1.0 - v + z * math.sqrt(v)
    if base > 0.0:
        t = math.log(a) + 3.0 * math.log(base)  # t = log(x/2)
    else:  # deep in the lower tail: P ~ (x/2)**a / Gamma(a + 1)
        t = (target + math.lgamma(a + 1.0)) / a
    for _ in range(50):  # at most 7 evaluations for dof up to 1e6 and alpha from 5e-324
        log_p, log_q, front = _log_gamma_tails(a, math.exp(t))
        # r > 0 while x is below the root; the Newton step in t is r / |d(log tail)/dt|,
        # and |d(log tail)/dt| = e**front / tail
        r, log_tail = (log_q - target, log_q) if upper else (target - log_p, log_p)
        step = r * math.exp(min(log_tail - front, 700.0))
        t += step
        if abs(step) <= 1e-12:
            break
    return 2.0 * math.exp(t)
