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
# draws per block a worker claims: about 0.2 ms of kernel time (2**15 to 2**17 ran alike)
BLOCK_DRAWS = 1 << 16
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
    call size, so identical seeds give identical arrays.

    Philox is counter-based, so any draw can be made from its index alone.
    [0, n) is cut into blocks of BLOCK_DRAWS draws, which the calling thread
    and one thread per further CPU in the affinity mask claim in turn
    (`sieve._on_workers`; one worker per two blocks at most, so a call of
    fewer than four blocks runs on the calling thread alone).  Each block is
    drawn by the sieve's compiled kernel (`sieve._load_kernel`) in one
    `twinsep_geometric` call, from the key and counter of
    `np.random.Philox(seed).state`: it fills -s * u_i (16 Philox counters
    at once where the CPU has AVX-512), takes a cheap logarithm, and
    floors each quotient that it can certify lies far enough from every
    integer for numpy's to floor alike.  A draw it cannot settle (a few in
    1e7 at s0 of 5-13, a quotient of 0, and nearly every draw from s0 of
    about 1e7 on) keeps the bits of its -s * u_i <= -0.0 in its own slot,
    which then reads as a negative int64; the call returns how many it
    left, and when there are any, the block's negative slots are finished
    by `_finish_draws` with numpy's log1p, division, floor and minimum.
    Every draw is the same whichever worker made it, so the array does not
    depend on the CPU count.  Raises KernelError without the kernel.
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
    key, counter, at_out = (a.ctypes.data for a in (state["key"], state["counter"], out))
    starts = range(0, n, BLOCK_DRAWS)
    workers = sieve._worker_count(len(starts) // 2)

    def draw(blocks):
        for lo in blocks:
            hi = min(lo + BLOCK_DRAWS, n)
            if kernel.twinsep_geometric(key, counter, lo, hi, neg_scale, lnq, cap, at_out):
                block = out[lo:hi]
                pending = block < 0
                block[pending] = _finish_draws(block[pending].view(np.float64), lnq, m)

    sieve._on_workers(draw, iter(starts), workers)
    return out


def _finish_draws(v, lnq, m):
    """min(floor(log1p(v) / lnq), m) by numpy's ufuncs, in v = -s * u, for an int64 array to take."""
    np.log1p(v, out=v)
    v /= lnq
    np.floor(v, out=v)
    if m is not None:
        np.minimum(v, m, out=v)
    return v


def gof_compare(
    empirical: SeparationSpectrum, params: ModelParams, alpha: float = DEFAULT_ALPHA
) -> GofReport:
    """Pearson chi-square and KS distance of a spectrum against the model.

    Expected counts below POOL_MIN_EXPECTED are pooled upward from the tail
    so the chi-square approximation stays valid; dof is the pooled bin
    count minus one.  Pass means the chi-square statistic stays below the
    critical value at the given alpha.

    The model's support is 0..top: floor(l_cut) with a cutoff, otherwise
    the s past which q**s < 2**-1200, where the pmf is exactly 0.0.  Both
    laws take the cutoff's formulas: without a cutoff, q**(top + 1) is 0.0
    and the normaliser 1 - q**(top + 1) is exactly 1.0.  A pool closes on
    what it expects alone, so `_pool_bounds` finds the pools of several
    bins from the model; every bin below them is a pool of its own.  One
    searchsorted reads the counts into the pools, and numpy scores the
    single bins: the occupied ones, and the empty ones by the gaps between
    consecutive occupied bins, each gap by its closed-form mass.  Memory
    and time grow with the occupied bins plus the pools of several bins,
    not with the largest separation.  The results equal a walk over every
    bin up to the largest separation (the test suite's `dense_gof`): dof
    and the verdict exactly, chi2 and ks to rounding.
    """
    total = empirical.total_intervals
    if total < 50:
        raise ValidationError(f"insufficient events: need >= 50 intervals, got {total}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")

    q = params.q
    lnq = math.log(q)
    top = math.floor(params.l_cut) if params.l_cut is not None else math.ceil(1200 / -math.log2(q))
    norm = -math.expm1((top + 1) * lnq)  # 1 - q**(top+1): exactly 1.0 with no cutoff
    s_max = empirical.max_separation()
    tail = max(0.0, (q ** (s_max + 1) - q ** (top + 1)) / norm) if s_max < top else 0.0
    last = min(s_max, top)  # bins above it have no model mass
    n_in = int(np.searchsorted(empirical.separations, last, side="right"))
    s_in = empirical.separations[:n_in].astype(np.int64)
    counts = empirical.counts.astype(np.float64)
    below = np.concatenate(([0.0], np.cumsum(counts)))  # below[i]: what the first i bins hold

    # the pools of several bins, of which the top one also holds the counts above the support
    scale = total / norm
    lows, expected, one = _pool_bounds(q, scale, total * tail, last)
    observed = -np.diff(below[np.append(counts.size, np.searchsorted(s_in, lows))])
    chi2 = np.sum((observed - expected) ** 2 / expected)
    # bins one..0, a pool each: the occupied ones, then the empty ones, as (0 - e)**2 / e = e,
    # each gap between consecutive occupied bins by its closed-form mass
    n_one = int(np.searchsorted(s_in, one, side="right"))
    e = total * ((1.0 - q) * q ** s_in[:n_one] / norm)
    chi2 += np.sum((counts[:n_one] - e) ** 2 / e)
    edges = np.concatenate(([-1], s_in[:n_one], [one + 1]))
    chi2 += scale * np.sum(q ** (edges[:-1] + 1) * -np.expm1((np.diff(edges) - 1) * lnq))
    dof = len(lows) + one
    if dof < 1:
        raise ValidationError("insufficient data: fewer than 2 bins after pooling")
    crit = _chi2_isf(dof, alpha)

    # KS, at each occupied bin, at the bin before it and at `last`: the empirical CDF steps up
    # only at occupied bins and the model's rises, so their gap is largest at one of these;
    # above the support the model's stays at its value at `last`
    cum = below / total
    at = np.concatenate((s_in, s_in - 1, np.full(counts.size - n_in + 1, last)))
    emp = np.concatenate((cum[1:n_in + 1], cum[:n_in], cum[n_in:]))
    ks = float(np.max(np.abs(emp + np.expm1((at + 1) * lnq) / norm)))

    return GofReport(
        chi2=float(chi2),
        dof=dof,
        ks_distance=min(1.0, ks),
        passed=bool(chi2 < crit),
        alpha=alpha,
        chi2_critical=crit,
    )


def _pool_bounds(q, scale, carry, last):
    """gof_compare's pools from the tail down, by the model alone: (lows, expected, one).

    Bin s expects scale * (1 - q) * q**s and the tail beyond `last` expects
    `carry`; a pool closes once it expects POOL_MIN_EXPECTED, and its width
    is found by a logarithm of its closed-form mass.  Pool i holds the bins
    from lows[i] up to the pool above and expects expected[i]; the top pool
    is always one of them, and what the bottom bins leave short joins the
    pool above.  Bins one..0 are a pool each: once a bin alone expects
    POOL_MIN_EXPECTED, every bin below it does too.
    """
    lnq = math.log(q)

    def mass(a, b):  # what the bins a..b expect: scale * (q**a - q**(b+1))
        return scale * q**a * -math.expm1((b - a + 1) * lnq)

    lows, expected, acc, b = [], [], carry, last
    if acc >= POOL_MIN_EXPECTED:  # the tail alone
        lows, expected, acc = [last + 1], [acc], 0.0
    while b >= 0:
        # the fewest bins b, b - 1, ... that fill the pool: k bins expect x * (q**-k - 1)
        need, x = POOL_MIN_EXPECTED - acc, scale * q ** (b + 1)
        if x > 0.0 and need / x < math.inf:
            w = math.log1p(need / x) / -lnq
        else:  # q**(b + 1) is negligible
            w = b + 1 - math.log(need / scale) / lnq
        k = max(1, min(math.ceil(min(w, 2.0**62)), b + 2))  # b + 2: past bin 0
        # the logarithm can be a bin off: settle k by the sum the pool takes
        if k > 1 and acc + mass(b - k + 2, b) >= POOL_MIN_EXPECTED:
            k -= 1
        elif acc + mass(b - k + 1, b) < POOL_MIN_EXPECTED:
            k += 1
        if lows and k == 1:  # bin b alone fills a pool with nothing carried, as do those below
            break
        if k > b + 1:  # bins b..0 fall short of a pool: they join the pool above, if any
            if lows:
                lows.pop()
                acc = expected.pop()
            return [*lows, 0], [*expected, acc + mass(0, b)], -1
        lows.append(b - k + 1)
        expected.append(acc + mass(b - k + 1, b))
        acc, b = 0.0, b - k
    return lows, expected, b


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
    1.5e-14 relative over dof 1..400 and 500..2e5, alpha 1e-300..0.999999,
    and with mpmath to 1e-15 at dof 2e5, 1e6 and 4e6 for alpha 0.5, 0.75,
    0.95 and 0.999999, where chdtri drifts near 1 (4.9e-8 at dof 4e6).
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
