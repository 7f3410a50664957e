"""Acceptance criteria, one test per criterion, at pinned tolerances.

Criteria 3-6 share a single sieve run to 1e9 (module fixture).  Each test
prints one PASS/FAIL line on the live terminal.

Criterion 5's running-maximum clause takes its bound from the model,
twinsep.model.overshoot_bound.  The f=1 cutoff L leaves about f
separations beyond it, so at a checkpoint the running maximum passes L
with probability 1 - exp(-f), about 63%, and then overshoots it by a
geometric excess of scale sbar, not by 1.  The clause
therefore allows ceil(L) + sbar*ln(f/alpha), the 1-alpha quantile of the
overshoot, at a fixed alpha of 1e-3 per checkpoint.  The sieved data to
1e9 meets it (worst overshoot 3.81 sbar: the record 101 at n = 891 251,
model tail probability 0.022).  The former ceil(L)+1 level, still
reported, is exceeded at 52 of 81 checkpoints by the data and somewhere on
399 of 400 seeded streams drawn from the model itself, so data that
follows the model all but never meets it.  Two companion tests show that
the corrected clause still fails on mismatched cutoffs and that it is
calibrated on model streams.  The exceedance-count clause is unchanged.
"""

import math
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from twinsep.fit import fit_exp_slope, fit_m0, fit_s0_linear, fit_s0_loglog
from twinsep.model import (
    OVERSHOOT_ALPHA,
    SolverInput,
    overshoot_bound,
    solve_approx,
    solve_checkpoint,
    solve_exact,
    solve_f0,
)
from twinsep.montecarlo import SimConfig, gof_compare, sample_separations
from twinsep.pipeline import (
    max_separation_by_checkpoint,
    per_checkpoint_spectra,
    table_from_report,
)
from twinsep.sieve import SieveConfig, geometric_checkpoints, sieve_range
from twinsep.spectrum import (
    S0Convention,
    SeparationSpectrum,
    accumulate,
    s0_from_counts,
)

BIG_LIMIT = 10**9
M0_TARGET = 1.321
S1_TARGET = 0.7918
LOGLOG_TRIPLE = (-3.55, 0.745, 1.10)
CALIBRATION_STREAMS = 100


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def bigrun():
    grid = geometric_checkpoints(BIG_LIMIT, per_decade=20, start=10**5)
    t0 = time.monotonic()
    report = sieve_range(
        SieveConfig(limit=BIG_LIMIT, segment_size=1 << 22, checkpoint_grid=grid)
    )
    sieve_seconds = time.monotonic() - t0
    table = table_from_report(report)
    spectra = per_checkpoint_spectra(report.separations, table)
    return SimpleNamespace(
        report=report, table=table, spectra=spectra, sieve_seconds=sieve_seconds
    )


@pytest.fixture(scope="module")
def oracle_million():
    t0 = time.monotonic()
    primes = oracle.primes_upto(10**6)
    twins = oracle.twin_lowers(primes, 10**6)
    seps, _ = oracle.separation_stream(primes, 10**6)
    return SimpleNamespace(
        primes=primes, twins=twins, seps=seps, build_seconds=time.monotonic() - t0
    )


def test_criterion_1_sieve_exactness(oracle_million, capsys):
    """200 random limits in [2, 1e6]: counts and streams equal trial division's."""
    t0 = time.monotonic()
    rng = random.Random(20250808)
    limits = [rng.randint(2, 10**6) for _ in range(200)]
    for limit in limits:
        rep = sieve_range(SieveConfig(limit=limit))
        rec = rep.counts[-1]
        pi1, pi2 = oracle.counts_at(oracle_million.primes, oracle_million.twins, limit)
        assert (rec.pi1, rec.pi2) == (pi1, pi2), f"counts diverge at {limit}"
        k = sum(1 for t in oracle_million.twins if t != 3 and t + 2 <= limit)
        assert rep.separations.tolist() == oracle_million.seps[: max(0, k - 1)], (
            f"stream diverges at {limit}"
        )
    elapsed = oracle_million.build_seconds + (time.monotonic() - t0)
    ok = elapsed < 60.0
    announce(capsys, 1, "sieve exactness", ok, f"200 limits checked in {elapsed:.1f}s")
    assert ok


def test_criterion_2_closed_form_identities(capsys):
    """1000 random s0: f=0 sums exact to 1e-12; full-system residuals < 1e-10."""
    rng = random.Random(987654321)
    worst_f0 = worst_exact = 0.0
    regimes = [(100, 0.5), (100, 1.0), (10_000, 1.0), (10_000, 10.0), (10**6, 1.0)]
    for i in range(1000):
        s0 = 10 ** rng.uniform(-1.0, 3.0)
        p = solve_f0(s0)
        e_total = abs(p.a / (1 - p.q) - 1.0)
        e_mean = abs(p.a * p.q / (1 - p.q) ** 2 - s0) / max(1.0, s0)
        worst_f0 = max(worst_f0, e_total, e_mean)
        assert e_total <= 1e-12 and e_mean <= 1e-12, s0

        pi2, f = regimes[i % len(regimes)]
        px = solve_exact(SolverInput(s0=s0, pi2=pi2, f=f))
        c = f / pi2
        r1 = abs(px.a / (1 - px.q) - (1 + c))
        r2 = abs(px.a * (1 - px.q ** (px.l_cut + 1)) / (1 - px.q) - 1.0)
        r3 = abs(px.q / (1 - px.q) - (px.l_cut + 1) * c - s0) / max(1.0, s0)
        worst_exact = max(worst_exact, r1, r2, r3)
        assert max(r1, r2, r3) < 1e-10, (s0, pi2, f)
    announce(
        capsys, 2, "closed-form identities", True,
        f"worst f=0 error {worst_f0:.2e}, worst system residual {worst_exact:.2e}",
    )


def test_criterion_3_desk_scale_m0(bigrun, capsys):
    """Slopes over N = 1e5..1e9 fit the decay law within 10% of 1.321."""
    slopes = []
    for rec in bigrun.table.rows:
        fit = fit_exp_slope(bigrun.spectra[rec.n])
        slopes.append((rec.pi1, -fit.coefficients[1]))
    m0 = fit_m0(slopes).coefficients[0]
    rel = abs(m0 / M0_TARGET - 1.0)
    ok = rel <= 0.10 and bigrun.sieve_seconds < 1800.0
    announce(
        capsys, 3, "desk-scale m0", ok,
        f"m0 = {m0:.4f} vs {M0_TARGET} ({m0 / M0_TARGET - 1.0:+.1%}); "
        f"sieve {bigrun.sieve_seconds:.0f}s",
    )
    assert rel <= 0.10
    assert bigrun.sieve_seconds < 1800.0


def test_criterion_4_desk_scale_s1(bigrun, capsys):
    """Linear law of s0 against log(pi1): slope within 5% of 0.7918, intercept < 0."""
    pts = [(rec.pi1, s0_from_counts(rec).value) for rec in bigrun.table.rows]
    fit = fit_s0_linear(pts)
    intercept, slope = fit.coefficients
    rel = abs(slope / S1_TARGET - 1.0)
    ok = rel <= 0.05 and intercept < 0.0
    announce(
        capsys, 4, "desk-scale s0 slope", ok,
        f"slope = {slope:.4f} vs {S1_TARGET} ({slope / S1_TARGET - 1.0:+.1%}), "
        f"intercept = {intercept:.3f}",
    )
    assert rel <= 0.05
    assert intercept < 0.0


def cutoff_laws(rows, f=1.0):
    """The cutoff law at risk factor f for every checkpoint row, keyed by n."""
    return {rec.n: solve_checkpoint(rec, f) for rec in rows}


def plus_one_bound(law):
    """The former clause's level ceil(L)+1, kept as a diagnostic."""
    return math.ceil(law.l_cut) + 1


def overshoot_tail(law, observed):
    """Model probability 1 - exp(-f*q**(M - L)) that the running maximum exceeds M."""
    return -math.expm1(-law.f * law.q ** (observed - law.l_cut))


def overshoot_violations(maxes, laws, bound=overshoot_bound):
    """(n, observed, bound) at each checkpoint whose running maximum passes bound(law)."""
    return [
        (n, maxes[n], bound(law))
        for n, law in laws.items()
        if maxes[n] is not None and maxes[n] > bound(law)
    ]


def model_running_maxima(rows, seed):
    """Running maximum at each checkpoint of one separation stream drawn from the model.

    Between consecutive checkpoints the stream holds as many separations as
    the real data does, drawn from the untruncated geometric law solve_f0(s0)
    of the later checkpoint.  The f > 0 sampler truncates at floor(L), so its
    draws could never overshoot the cutoff.
    """
    maxes, done, running = {}, 0, 0
    for i, rec in enumerate(rows):
        k = max(0, rec.pi2 - 2)
        if k > done:
            params = solve_f0(s0_from_counts(rec).value)
            draws = sample_separations(SimConfig(params, n_events=k - done, seed=seed + i))
            running = max(running, int(draws.max()))
            done = k
        maxes[rec.n] = running
    return maxes


def test_criterion_5_cutoff_consistency(bigrun, capsys):
    """f=1: running max within ceil(L) + sbar*ln(f/alpha) at every checkpoint >= 1e5; <= 3 exceedances.

    The cutoff leaves the mass q**(L+1) = f/(pi2+f) beyond L, so of the
    pi2-2 separations a checkpoint has seen about Poisson(f) land beyond
    it, and the running maximum M obeys

        P(M > L + x) = 1 - (1 - q**(L+x+1))**(pi2-2) ~ 1 - exp(-f*q**x).

    Setting that to alpha and taking 1 - exp(-y) ~ y gives the closed form
    x = sbar*ln(f/alpha), used here with alpha = OVERSHOOT_ALPHA = 1e-3 per
    checkpoint and ceil(L) in place of L, and no other slack.  Over this
    grid it raised a false alarm on 2 of 400 seeded model streams (31 of
    400 at alpha = 1e-2); the calibration test below runs 100 of them.  On
    the data the worst overshoot is 3.81 sbar (record 101 at n = 891 251,
    L = 70.44, sbar = 8.02, tail probability 0.022), inside the bound of
    about 126.

    The former level ceil(L)+1 is reported, not asserted: the data exceeds
    it at 52 of 81 checkpoints, and 399 of 400 model streams exceed it too.
    """
    maxes = max_separation_by_checkpoint(bigrun.report.separations, bigrun.table)
    laws = cutoff_laws(bigrun.table.rows)
    violations = overshoot_violations(maxes, laws)
    above_plus_one = overshoot_violations(maxes, laws, plus_one_bound)
    overshoots = {
        n: (maxes[n] - law.l_cut) / law.sbar
        for n, law in laws.items()
        if maxes[n] is not None
    }
    worst_n = max(overshoots, key=overshoots.get)

    l_final = solve_checkpoint(bigrun.table.rows[-1], 1.0).l_cut
    exceedances = int(np.count_nonzero(bigrun.report.separations > l_final))

    ok = not violations and exceedances <= 3
    checkpoints = len(bigrun.table.rows)
    detail = (
        f"{len(violations)}/{checkpoints} checkpoints break ceil(L)+sbar*ln(f/alpha) "
        f"at alpha {OVERSHOOT_ALPHA:g}; worst overshoot {overshoots[worst_n]:.2f} sbar "
        f"at n={worst_n} (max {maxes[worst_n]}, L {laws[worst_n].l_cut:.2f}, "
        f"tail p {overshoot_tail(laws[worst_n], maxes[worst_n]):.3f}); "
        f"{len(above_plus_one)}/{checkpoints} checkpoints above the old ceil(L)+1 level; "
        f"{exceedances} separations exceed the final cutoff {l_final:.2f}"
    )
    announce(capsys, 5, "cutoff consistency", ok, detail)
    assert exceedances <= 3
    assert not violations, (
        f"record separations overshoot ceil(l_cut)+sbar*ln(f/{OVERSHOOT_ALPHA:g}); "
        f"violations at {len(violations)} checkpoints, e.g. {violations[:3]}"
    )


def test_criterion_5_rejects_mismatched_cutoffs(bigrun):
    """The overshoot check fails on cutoffs that disagree with the f they are checked at.

    L solved at f=100 but checked as f=1, and L built with log10 in place of
    log, both break the bound at n = 891 251 (bounds near 89 and 86 against
    the record 101).
    """
    maxes = max_separation_by_checkpoint(bigrun.report.separations, bigrun.table)
    rows = bigrun.table.rows
    laws = cutoff_laws(rows)
    mismatched = {
        "L at f=100": {n: replace(law, f=1.0) for n, law in cutoff_laws(rows, 100.0).items()},
        "L with log10": {
            rec.n: replace(
                laws[rec.n], l_cut=-1.0 + math.log10(1 + rec.pi2) * laws[rec.n].sbar
            )
            for rec in rows
        },
    }
    for name, bad_laws in mismatched.items():
        broken = {n for n, _, _ in overshoot_violations(maxes, bad_laws)}
        assert 891_251 in broken, (name, sorted(broken))


def test_criterion_5_calibration_on_model_streams(bigrun, capsys):
    """Seeded model streams on the bigrun grid: >= 95% break ceil(L)+1, >= 95% meet the overshoot bound.

    The streams come from model_running_maxima, about 50 ms each.  Under the
    model a stream keeps below ceil(L)+1 at every checkpoint only rarely:
    over streams 0..399 of this seeding one did (none of streams 0..99), so
    both clauses are asserted as rates, not as every stream.
    """
    rows = bigrun.table.rows
    laws = cutoff_laws(rows)
    old_failures = new_failures = 0
    for stream in range(CALIBRATION_STREAMS):
        maxes = model_running_maxima(rows, seed=stream * len(rows))
        old_failures += bool(overshoot_violations(maxes, laws, plus_one_bound))
        new_failures += bool(overshoot_violations(maxes, laws))
    allowed = CALIBRATION_STREAMS // 20
    ok = old_failures >= CALIBRATION_STREAMS - allowed and new_failures <= allowed
    announce(
        capsys, 5, "cutoff calibration", ok,
        f"of {CALIBRATION_STREAMS} model streams, {old_failures} break ceil(L)+1 and "
        f"{new_failures} break ceil(L)+sbar*ln(f/alpha) at alpha {OVERSHOOT_ALPHA:g}",
    )
    assert old_failures >= CALIBRATION_STREAMS - allowed, old_failures
    assert new_failures <= allowed, new_failures


def test_criterion_6_hypothesis_ks(bigrun, capsys):
    """Real spectra vs the no-cutoff model: ks_distance < 0.02 at 1e6..1e8."""
    results = {}
    for n in (10**6, 10**7, 10**8):
        rec = next(r for r in bigrun.table.rows if r.n == n)
        params = solve_f0(s0_from_counts(rec).value)
        results[n] = gof_compare(bigrun.spectra[n], params).ks_distance
    ok = all(ks < 0.02 for ks in results.values())
    announce(
        capsys, 6, "fixed-probability hypothesis", ok,
        "ks = " + ", ".join(f"{n:.0e}: {ks:.5f}" for n, ks in results.items()),
    )
    for n, ks in results.items():
        assert ks < 0.02, (n, ks)


def test_criterion_7_regression_recovery(capsys):
    """All four fits recover exactly-constructed coefficients to 1e-6."""
    # integer counts on an exact log-line: 2**(30-s)
    bins = {s: 2 ** (30 - s) for s in range(21)}
    spec = SeparationSpectrum(bins=bins)
    slope_fit = fit_exp_slope(spec)
    assert abs(slope_fit.coefficients[1] + math.log(2)) < 1e-9
    assert abs(slope_fit.coefficients[0] - 30 * math.log(2)) < 1e-9

    m0_fit = fit_m0([(p, M0_TARGET / math.log(p)) for p in (11, 101, 10**4, 10**8)])
    assert abs(m0_fit.coefficients[0] - M0_TARGET) < 1e-12

    xs = np.linspace(7.0, 23.0, 12)
    lin_pts = [(math.exp(x), S1_TARGET * x - 1.194) for x in xs]
    lin_fit = fit_s0_linear(lin_pts)
    assert abs(lin_fit.coefficients[0] + 1.194) < 1e-6
    assert abs(lin_fit.coefficients[1] - S1_TARGET) < 1e-6

    s0c, s1c, s2c = LOGLOG_TRIPLE
    log_pts = [(math.exp(x), s0c + s1c * x + s2c * math.log(x)) for x in xs]
    log_fit = fit_s0_loglog(log_pts)
    assert np.allclose(log_fit.coefficients, LOGLOG_TRIPLE, atol=1e-6)

    nested = fit_s0_loglog(lin_pts)
    assert abs(nested.coefficients[2]) <= max(1e-8, nested.std_errors[2])

    announce(
        capsys, 7, "regression recovery", True,
        f"all four fits reproduce constructions to 1e-6; nested loglog "
        f"coefficient {nested.coefficients[2]:.2e}",
    )


def test_criterion_8_mc_self_consistency(capsys):
    """Chi-square pass rate >= 95% over 100 seeds against the generating params."""
    params = solve_approx(SolverInput(s0=8.0, pi2=50_000, f=1.0))
    passed = 0
    for seed in range(100):
        draws = sample_separations(SimConfig(params, n_events=100_000, seed=seed))
        passed += gof_compare(accumulate(draws), params, alpha=0.01).passed
    ok = passed >= 95
    announce(capsys, 8, "monte carlo self-consistency", ok, f"{passed}/100 seeds pass")
    assert passed >= 95


def test_s0_conventions_converge(bigrun):
    """Raw and interval-exact s0 differ by O(1)/pi2, shrinking up the grid."""
    diffs = {}
    for n in (10**5, 10**8):
        rec = next(r for r in bigrun.table.rows if r.n == n)
        raw = s0_from_counts(rec, S0Convention.RAW).value
        exact = s0_from_counts(
            rec, S0Convention.INTERVAL_EXACT, spectrum=bigrun.spectra[n]
        ).value
        diffs[n] = abs(raw - exact)
    assert diffs[10**8] < diffs[10**5]


def test_bigrun_published_counts(bigrun):
    """The 1e9 row equals pi(1e9) (OEIS A006880) and pi2(1e9) (OEIS A007508)."""
    rec = bigrun.table.rows[-1]
    assert (rec.n, rec.pi1, rec.pi2) == (BIG_LIMIT, 50847534, 3424506)
