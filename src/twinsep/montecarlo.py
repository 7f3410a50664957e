"""Synthetic separation sampling and goodness-of-fit checks.

Tests the core working hypothesis that twin occurrences behave like
fixed-probability random events in the prime sequence: draws from the
model pmf should be statistically indistinguishable from real separation
spectra.  The pass/fail thresholds (Pearson chi-square at a chosen alpha,
plus a KS distance) are reporting conventions of this toolkit.
"""

from __future__ import annotations

import bisect
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
# room for pending draws per worker, which twinsep_geometric fills across calls and blocks:
# from s0 of about 1e7 on nearly every draw pends, and each full list is finished in one
# _finish_draws call (16 bytes a draw, 128 KB a worker; at s0 = 1e15 a 1024-draw list made
# two workers slower than one, as each finish holds the GIL)
PENDING_DRAWS = 8192
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
    drawn by the sieve's compiled kernel (`sieve._load_kernel`) in
    `twinsep_geometric` calls, from the key and counter of
    `np.random.Philox(seed).state`: each fills -s * u_i (16 Philox counters
    at once where the CPU has AVX-512), takes a cheap logarithm, and
    floors each quotient that it can certify lies far enough from every
    integer for numpy's to floor alike.  The draws it cannot settle (a few
    in 1e7 at s0 of 5-13, a quotient of 0, and nearly every draw from s0
    of about 1e7 on) come back as pending (index, -s * u_i) pairs into the
    worker's own list of PENDING_DRAWS, and each full list (and the last)
    is finished by `_finish_draws` with numpy's log1p, division, floor and
    minimum.  Every draw is the same whichever worker made it, so the array
    does not depend on the CPU count.  Raises KernelError without the kernel.
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
    # allocated here, not in the workers: a thread that allocates gets its own malloc arena
    lists = [(np.empty(PENDING_DRAWS, dtype=np.int64), np.empty(PENDING_DRAWS),
              np.empty(1, dtype=np.int64)) for _ in range(workers)]

    def draw(blocks):
        pend_idx, pend_v, npend = lists.pop()
        at_idx, at_v, at_npend = pend_idx.ctypes.data, pend_v.ctypes.data, npend.ctypes.data
        k = 0  # pending draws listed so far
        for lo in blocks:
            hi = min(lo + BLOCK_DRAWS, n)
            while lo < hi:  # a call stops early only when the list is full
                lo = kernel.twinsep_geometric(key, counter, lo, hi, neg_scale, lnq, cap, at_out,
                                              at_idx + 8 * k, at_v + 8 * k, PENDING_DRAWS - k,
                                              at_npend)
                k += int(npend[0])
                if k == PENDING_DRAWS:
                    out[pend_idx] = _finish_draws(pend_v, lnq, m)
                    k = 0
        if k:
            out[pend_idx[:k]] = _finish_draws(pend_v[:k], lnq, m)

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
    the s past which q**s < 2**-1200, where the pmf is exactly 0.0.  The
    walk visits the occupied bins one by one and each run of empty bins
    between them at once (`_Pools.empty_run`), so its memory grows with the
    number of bins, and its time with the bins and the pools that span
    several empty bins, but neither with the largest separation.  The
    results equal a walk over every bin up to the largest separation (the
    test suite's `dense_gof`): dof and the verdict exactly, chi2 and ks to
    rounding.
    """
    total = empirical.total_intervals
    if total < 50:
        raise ValidationError(f"insufficient events: need >= 50 intervals, got {total}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")

    q = params.q
    cut = params.l_cut is not None
    top = math.floor(params.l_cut) if cut else math.ceil(1200 / -math.log2(q))
    norm = -math.expm1((top + 1) * math.log(q)) if cut else 1.0  # 1 - q**(top+1)
    keys = sorted(empirical.bins)
    s_max = keys[-1]
    if not cut:
        tail = q ** (s_max + 1)  # the model's mass beyond s_max
    else:
        tail = max(0.0, (q ** (s_max + 1) - q ** (top + 1)) / norm) if s_max < top else 0.0
    last = min(s_max, top)  # bins above it have no model mass
    n_in = bisect.bisect_right(keys, last)
    s_in = np.array(keys[:n_in], dtype=np.int64)
    probs = (1.0 - q) * q**s_in
    if cut:
        probs /= norm
    counts = np.array([empirical.bins[s] for s in keys], dtype=np.float64)

    # pool from the tail down: the mass beyond s_max, the bins above the support (which
    # expect nothing), then the support, one occupied bin or one run of empty bins at a time
    pools = _Pools(q, total / norm, float(counts[n_in:].sum()), total * tail)
    upper = last
    for s, o, e in zip(keys[:n_in][::-1], counts[:n_in][::-1].tolist(),
                       (total * probs[::-1]).tolist()):
        if s < upper:
            pools.empty_run(s + 1, upper)
        pools.acc_o += o
        pools.acc_e += e
        if pools.acc_e >= POOL_MIN_EXPECTED:
            pools.close()
        upper = s - 1
    if upper >= 0:
        pools.empty_run(0, upper)
    chi2, dof = pools.finish()
    crit = _chi2_isf(dof, alpha)

    # KS, at each bin the walk visits: the empirical CDF is flat over a run of empty bins and
    # the model's rises, so their gap is largest at one end of the run; above the support the
    # model's stays at its value at `last`
    edges = np.concatenate(([-1], s_in, [last + 1]))
    runs = np.flatnonzero(np.diff(edges) > 1)
    cum = np.cumsum(counts) / total
    flat = np.concatenate(([0.0], cum))[runs]
    at = np.concatenate((s_in, edges[runs] + 1, edges[runs + 1] - 1,
                         np.full(counts.size - n_in, last)))
    emp = np.concatenate((cum[:n_in], flat, flat, cum[n_in:]))
    ks = float(np.max(np.abs(emp + np.expm1((at + 1) * math.log(q)) / norm)))

    return GofReport(
        chi2=float(chi2),
        dof=dof,
        ks_distance=min(1.0, ks),
        passed=bool(chi2 < crit),
        alpha=alpha,
        chi2_critical=crit,
    )


class _Pools:
    """gof_compare's pooling, from the tail down, in running sums.

    (acc_o, acc_e) is the open pool, which closes once it expects
    POOL_MIN_EXPECTED.  The pool closed last stays apart from chi2: what is
    left open at the bottom joins it.  A run of empty bins a..b expects
    scale * (q**a - q**(b+1)), so the bins each pool of the run takes are
    found by a logarithm; once one bin alone expects POOL_MIN_EXPECTED,
    every bin below it does too, and is a pool of its own.
    """

    def __init__(self, q, scale, acc_o, acc_e):
        self.q, self.lnq, self.scale = q, math.log(q), scale
        self.acc_o, self.acc_e = acc_o, acc_e
        self.chi2, self.count, self.low = 0.0, 0, None
        if acc_e >= POOL_MIN_EXPECTED:
            self.close()

    def close(self):
        if self.low is not None:
            o, e = self.low
            self.chi2 += (o - e) ** 2 / e
        self.low = (self.acc_o, self.acc_e)
        self.count += 1
        self.acc_o = self.acc_e = 0.0

    def _mass(self, a, b):
        """What the bins a..b expect."""
        return self.scale * self.q**a * -math.expm1((b - a + 1) * self.lnq)

    def empty_run(self, a, b):
        """The empty bins b, b - 1, ..., a."""
        while b >= a:
            if self.acc_o == self.acc_e == 0.0 and self._mass(b, b) >= POOL_MIN_EXPECTED:
                # b .. a are a pool each, and (0 - e)**2 / e = e
                self.acc_e = self._mass(b, b)
                self.close()
                if b > a + 1:  # b - 1 .. a + 1 at once: the pool closed last stays a's
                    self.acc_e = self._mass(a + 1, b - 1)
                    self.close()
                    self.count += b - a - 2
                if b > a:
                    self.acc_e = self._mass(a, a)
                    self.close()
                return
            k = self._width(b)
            if k > b - a + 1:
                self.acc_e += self._mass(a, b)
                return
            self.acc_e += self._mass(b - k + 1, b)
            self.close()
            b -= k

    def _width(self, b):
        """The fewest bins b, b - 1, ... that fill the open pool."""
        need = POOL_MIN_EXPECTED - self.acc_e
        x = self.scale * self.q ** (b + 1)  # k bins expect x * (q**-k - 1)
        if x > 0.0 and need / x < math.inf:
            w = math.log1p(need / x) / -self.lnq
        else:  # q**(b + 1) is negligible
            w = b + 1 - math.log(need / self.scale) / self.lnq
        k = max(1, min(math.ceil(min(w, 2.0**62)), b + 2))  # b + 2: past bin 0
        # the logarithm can be a bin off: settle k by the sum the pool takes
        if k > 1 and self.acc_e + self._mass(b - k + 2, b) >= POOL_MIN_EXPECTED:
            k -= 1
        elif self.acc_e + self._mass(b - k + 1, b) < POOL_MIN_EXPECTED:
            k += 1
        return k

    def finish(self):
        """(chi2, dof) once the bottom bin is in: what is left open joins the pool closed last."""
        if self.acc_o or self.acc_e:
            if self.low is None:
                self.close()
            else:
                o, e = self.low
                self.low = (o + self.acc_o, e + self.acc_e)
        if self.count < 2:
            raise ValidationError("insufficient data: fewer than 2 bins after pooling")
        o, e = self.low
        return self.chi2 + (o - e) ** 2 / e, self.count - 1


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
