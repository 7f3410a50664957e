"""The three benchmark workloads and the checks on their outputs.

Each workload has ``setup(ctx, seed)`` (input generation, counted in
setup_s), ``run_pass(ctx, workdir)`` (one timed pass: laps around the
calls into twinsep, then output checks outside the laps) and
``finish(ctx)`` (run-level checks).  Expected values are pinned in expected.json from the
seed commit's outputs; published prime and twin-prime counts are embedded
here and checked independently of the pins.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

import twinsep
from twinsep import fit, model, montecarlo, pipeline, sieve, spectrum

# pi(10^k) (OEIS A006880) and twin pairs (p, p+2) with p+2 <= 10^k (OEIS A007508)
PUBLISHED = {
    10**5: (9592, 1224),
    10**6: (78498, 8169),
    10**7: (664579, 58980),
    10**8: (5761455, 440312),
    10**9: (50847534, 3424506),
}

# Floating fit and GOF fields are compared at this relative tolerance, far
# above the 1-ulp drift of e.g. a chi-square critical value from another
# scipy routine, far below any change that matters to the analysis.
REL_TOL = 1e-9
ABS_TOL = 1e-12

MAX_PASSES = 40
CMD_TIMEOUT_S = 120


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str | None:
    try:
        with open(path, "rb") as fh:
            return sha256_bytes(fh.read())
    except OSError:
        return None


def sha256_json(value) -> str:
    return sha256_bytes(json.dumps(value, sort_keys=True).encode())


def agrees(got, want) -> bool:
    """Exact for strings, ints and bools; REL_TOL for floats; recursive."""
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float))
            and isinstance(want, (int, float))
            and not isinstance(got, bool)
            and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(agrees(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(agrees(got[k], want[k]) for k in want)
        )
    return type(got) is type(want) and got == want


def _brief(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 80 else text[:77] + "..."


class Context:
    """Per-run state: laps of the current pass, the tracer, and check outcomes.

    expected is this workload's pinned values, or None to record them.
    """

    def __init__(self, workdir: str, expected: dict | None):
        self.workdir = workdir
        self.expected = expected
        self.recorded: dict = {}
        self.tracer = None
        self.pass_index = -1
        self.laps: list[tuple[str, float, float]] = []
        self.extra_ops: list[str] = []
        self.failed: set[tuple[int, str]] = set()
        self.failures: list[str] = []
        self._t = self._cpu = 0.0

    def begin_pass(self, index: int, tracer) -> str:
        self.pass_index = index
        self.tracer = tracer
        self.laps = []
        path = os.path.join(self.workdir, f"pass{index}")
        os.makedirs(path)
        self.mark()
        return path

    def mark(self) -> None:
        self._t, self._cpu = time.perf_counter(), cpu_seconds()

    def lap(self, op: str) -> None:
        t, c = time.perf_counter(), cpu_seconds()
        self.laps.append((op, t - self._t, c - self._cpu))
        self._t, self._cpu = t, c

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def extra_op(self, op: str) -> str:
        """Register a run-level operation checked outside any pass."""
        self.pass_index = -1
        self.extra_ops.append(op)
        return op

    def check(self, op: str, ok: bool, message: str) -> bool:
        if not ok:
            self.failed.add((self.pass_index, op))
            self.failures.append(f"pass {self.pass_index} {op}: {message}")
        return ok

    def expect(self, op: str, key: str, value) -> None:
        value = json.loads(json.dumps(value))
        if self.expected is None:
            self.recorded[key] = value
            return
        if key not in self.expected:
            self.check(op, False, f"{key}: no pinned value")
            return
        want = self.expected[key]
        self.check(op, agrees(value, want), f"{key}: got {_brief(value)}, pinned {_brief(want)}")


# ---------------------------------------------------------------- cli-walk-1e8

CLI_LIMIT = 10**8
CLI_STEPS = [
    ("sieve", ["sieve", "--limit", str(CLI_LIMIT), "--checkpoints", "geometric:20",
               "--out", "counts.csv", "--separations", "seps.bin", "--onsets", "onsets.csv"]),
    ("spectrum", ["spectrum", "--separations", "seps.bin", "--out", "spectrum.csv"]),
    ("s0", ["s0", "--counts", "counts.csv", "--convention", "raw", "--out", "s0.csv"]),
    ("fit", ["fit", "--kind", "s0lin", "--in", "s0.csv", "--out", "fit.json"]),
    ("predict", ["predict", "--counts", "counts.csv", "--f", "1.0", "--out", "lmax.csv"]),
    ("simulate", ["simulate", "--s0", "8.0", "--n", "100000", "--seed", "42", "--out", "synth.csv"]),
    ("gof", ["gof", "--spectrum", "synth.csv", "--s0", "8.0", "--alpha", "0.01"]),
    ("figures", ["figures", "--counts", "counts.csv", "--separations", "seps.bin",
                 "--onsets", "onsets.csv", "--f", "1.0", "--out-dir", "figs/"]),
]


def cli_env(root: str) -> dict:
    """The caller's environment with twinsep from root/src and no TWINSEP_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TWINSEP_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_python(argv, cwd, env) -> subprocess.CompletedProcess:
    """Run the interpreter to completion; a timed-out child is killed and reaped."""
    cmd = [sys.executable, *argv]
    try:
        return subprocess.run(
            cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=CMD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, -9, "", f"timed out after {CMD_TIMEOUT_S}s")


def import_probe(root: str) -> float:
    """Wall time of a fresh interpreter importing twinsep.cli."""
    t = time.perf_counter()
    proc = run_python(["-c", "import twinsep.cli"], root, cli_env(root))
    dt = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr[-300:]}")
    return dt


def _read_counts_csv(path) -> dict[int, tuple[int, int]]:
    out = {}
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    for line in lines[1:]:
        n, pi1, pi2 = line.split(",")[:3]
        out[int(n)] = (int(pi1), int(pi2))
    return out


def _parse_gof_stdout(text: str) -> dict:
    fields = dict(tok.split("=", 1) for tok in text.splitlines()[0].split())
    return {
        "chi2": float(fields["chi2"]),
        "dof": int(fields["dof"]),
        "critical": float(fields["critical"]),
        "ks": float(fields["ks"]),
        "pass": fields["pass"],
    }


class CliWalk:
    """The README walk-through at 1e8, one subprocess per command, closed loop."""

    name = "cli-walk-1e8"
    cmd_unit = "lap"  # cmd_p50_s is the median CLI command

    def __init__(self, root: str):
        self.root = root
        self.env = None

    def sizes(self) -> dict:
        return {"limit": CLI_LIMIT, "commands": len(CLI_STEPS), "per_decade": 20,
                "simulate_draws": 100000}

    def setup(self, ctx: Context, seed: int) -> None:
        self.env = cli_env(self.root)

    def run_pass(self, ctx: Context, workdir: str) -> None:
        results = {}
        for cmd, argv in CLI_STEPS:
            ctx.mark()
            with ctx.span(f"cli.{cmd}"):
                results[cmd] = run_python(["-m", "twinsep.cli", *argv], workdir, self.env)
            ctx.lap(cmd)
        self._verify(ctx, workdir, results)

    def _verify(self, ctx: Context, d: str, results: dict) -> None:
        for cmd, proc in results.items():
            ctx.check(cmd, proc.returncode == 0,
                      f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

        def path(name):
            return os.path.join(d, name)

        for key, op in [("counts.csv", "sieve"), ("seps.bin", "sieve"), ("onsets.csv", "sieve"),
                        ("spectrum.csv", "spectrum"), ("s0.csv", "s0"), ("lmax.csv", "predict"),
                        ("synth.csv", "simulate"), ("figs/fig1.csv", "figures"),
                        ("figs/fig2.csv", "figures"), ("figs/fig3.csv", "figures")]:
            ctx.expect(op, key, sha256_file(path(key)))

        try:
            counts = _read_counts_csv(path("counts.csv"))
        except (OSError, ValueError) as exc:
            ctx.check("sieve", False, f"counts.csv unreadable: {exc}")
        else:
            for n, published in PUBLISHED.items():
                if n <= CLI_LIMIT:
                    ctx.check("sieve", counts.get(n) == published,
                              f"(pi1, pi2) at {n} is {counts.get(n)}, published {published}")
            pi2 = counts.get(CLI_LIMIT, (0, 0))[1]
            size = os.path.getsize(path("seps.bin")) if os.path.exists(path("seps.bin")) else -1
            ctx.check("sieve", size == 4 * (pi2 - 2),
                      f"seps.bin holds {size} bytes for pi2={pi2}")

        try:
            with open(path("fit.json")) as fh:
                fitted = json.load(fh)
            fitted = {k: fitted[k] for k in
                      ("model_id", "coefficients", "std_errors", "residual_rms", "n_points")}
        except (OSError, ValueError, KeyError) as exc:
            fitted = f"unreadable: {exc}"
        ctx.expect("fit", "fit.json", fitted)

        try:
            gof = _parse_gof_stdout(results["gof"].stdout)
        except (IndexError, KeyError, ValueError) as exc:
            gof = f"unparseable: {exc}"
        ctx.expect("gof", "gof.stdout", gof)

    def finish(self, ctx: Context) -> None:
        pass


# ---------------------------------------------------------------- desk-1e9

DESK_LIMIT = 10**9
DESK_START = 10**5
DESK_PER_DECADE = 20
RISK_F = 1.0


class Desk:
    """The in-process analysis of scripts/run_desk_pipeline.py at N = 1e9."""

    name = "desk-1e9"
    cmd_unit = "pass"  # the whole in-process pipeline is one command

    def __init__(self, root: str):
        self.grid = ()

    def sizes(self) -> dict:
        return {"limit": DESK_LIMIT, "start": DESK_START, "per_decade": DESK_PER_DECADE,
                "checkpoints": len(self.grid), "risk_f": RISK_F}

    def setup(self, ctx: Context, seed: int) -> None:
        self.grid = sieve.geometric_checkpoints(
            DESK_LIMIT, per_decade=DESK_PER_DECADE, start=DESK_START
        )

    def run_pass(self, ctx: Context, workdir: str) -> None:
        counts_path = os.path.join(workdir, "counts.csv")
        seps_path = os.path.join(workdir, "seps.bin")
        fig_dir = os.path.join(workdir, "figs")

        ctx.mark()
        report = sieve.sieve_range(sieve.SieveConfig(limit=DESK_LIMIT, checkpoint_grid=self.grid))
        ctx.lap("sieve_range")
        table = pipeline.table_from_report(report)
        pipeline.write_counts(counts_path, table)
        ctx.lap("write_counts")
        table_back = pipeline.ingest_counts(counts_path)
        ctx.lap("ingest_counts")
        sieve.write_separations(seps_path, report.separations)
        ctx.lap("write_separations")
        seps = sieve.read_separations(seps_path)
        ctx.lap("read_separations")
        spectra = pipeline.per_checkpoint_spectra(seps, table)
        ctx.lap("per_checkpoint_spectra")
        maxes = pipeline.max_separation_by_checkpoint(seps, table)
        ctx.lap("max_separation_by_checkpoint")
        exceed = pipeline.count_cutoff_exceedances(seps, table, f=RISK_F)
        ctx.lap("count_cutoff_exceedances")
        rows = table.rows
        slopes = [fit.fit_exp_slope(spectra[rec.n]) for rec in rows]
        ctx.lap("fit_exp_slope")
        s0s = [spectrum.s0_from_counts(rec).value for rec in rows]
        m0 = fit.fit_m0([(rec.pi1, -s.coefficients[1]) for rec, s in zip(rows, slopes)])
        s0_pts = [(rec.pi1, s0) for rec, s0 in zip(rows, s0s)]
        lin = fit.fit_s0_linear(s0_pts)
        loglog = fit.fit_s0_loglog(s0_pts)
        ctx.lap("fit_laws")
        inputs = [model.SolverInput(s0=s0, pi2=rec.pi2, f=RISK_F) for rec, s0 in zip(rows, s0s)]
        approx = [model.solve_approx(inp) for inp in inputs]
        exact = [model.solve_exact(inp) for inp in inputs]
        ctx.lap("solve")
        decades = [(rec.n, s0) for rec, s0 in zip(rows, s0s) if rec.n in PUBLISHED]
        gofs = [(n, montecarlo.gof_compare(spectra[n], model.solve_f0(s0))) for n, s0 in decades]
        ctx.lap("gof_compare")
        figs = pipeline.figure_pipeline(
            table, spectra=spectra, f=RISK_F, onsets=report.max_separation_onsets
        )
        figs.write(fig_dir)
        ctx.lap("figure_pipeline")

        # --- output checks, outside the timed laps
        by_n = {rec.n: (rec.pi1, rec.pi2) for rec in rows}
        for n, published in PUBLISHED.items():
            ctx.check("sieve_range", by_n.get(n) == published,
                      f"(pi1, pi2) at {n} is {by_n.get(n)}, published {published}")
        ctx.check("sieve_range", report.separations.size == rows[-1].pi2 - 2,
                  f"{report.separations.size} separations for pi2={rows[-1].pi2}")
        ctx.expect("sieve_range", "onsets", sha256_json(report.max_separation_onsets))
        ctx.expect("write_counts", "counts.csv", sha256_file(counts_path))
        ctx.check("ingest_counts", table_back.rows == rows, "counts CSV round trip differs")
        ctx.expect("write_separations", "seps.bin", sha256_file(seps_path))
        ctx.check("read_separations", np.array_equal(seps, report.separations),
                  "separation stream round trip differs")
        ctx.expect("per_checkpoint_spectra", "spectra",
                   sha256_json([[n, sorted(spec.bins.items())] for n, spec in spectra.items()]))
        ctx.expect("max_separation_by_checkpoint", "max_by_checkpoint", sorted(maxes.items()))
        ctx.expect("count_cutoff_exceedances", "exceedances", sorted(exceed.items()))
        ctx.expect("fit_exp_slope", "slopes",
                   [[*s.coefficients, *s.std_errors] for s in slopes])
        ctx.expect("fit_laws", "laws", {
            "m0": [*m0.coefficients, *m0.std_errors],
            "s0_linear": [*lin.coefficients, *lin.std_errors],
            "s0_loglog": [*loglog.coefficients, *loglog.std_errors],
        })
        ctx.expect("solve", "solve_approx", [[p.a, p.sbar, p.l_cut] for p in approx])
        ctx.expect("solve", "solve_exact", [[p.a, p.sbar, p.l_cut] for p in exact])
        ctx.expect("gof_compare", "gof", [
            [n, g.chi2, g.dof, g.ks_distance, g.passed, g.chi2_critical] for n, g in gofs
        ])
        for name in ("fig1.csv", "fig2.csv", "fig3.csv"):
            ctx.expect("figure_pipeline", name, sha256_file(os.path.join(fig_dir, name)))

    def finish(self, ctx: Context) -> None:
        pass


# ---------------------------------------------------------------- mc-gof

MC_PER_PASS = 100
MC_DRAWS = 1_000_000
MC_S0 = (5.0, 13.0)  # raw s0 measured between 1e5 and 1e9
MC_LOG10_PI2 = (4.0, 8.0)
MC_MIN_PASS_RATIO = 0.9  # alpha = 0.01 on the true model passes ~99%
MEAN_SIGMAS = 6.0


def _model_moments(params) -> tuple[float, float]:
    """Mean of the (possibly truncated) geometric pmf and a variance bound."""
    q = params.q
    mean = q / (1.0 - q)
    if params.l_cut is not None:
        m1 = math.floor(params.l_cut) + 1
        qm = q**m1
        mean -= m1 * qm / (1.0 - qm)
    return mean, q / (1.0 - q) ** 2


class McGof:
    """Seeded synthetic replicates: solve, sample, histogram, score, fit.

    Every pass runs the same MC_PER_PASS replicates, so each replicate's
    time has a median over the passes and its outputs must repeat exactly.
    """

    name = "mc-gof"
    cmd_unit = "lap"  # cmd_p50_s is the median replicate

    def __init__(self, root: str):
        self.replicates: list[tuple[float, int, float, int]] = []
        self.first_pass: dict[str, list] = {}
        self.gof_calls = self.gof_passed = 0

    def sizes(self) -> dict:
        return {"replicates": MC_PER_PASS, "draws": MC_DRAWS, "s0": list(MC_S0),
                "log10_pi2": list(MC_LOG10_PI2), "f": [0.0, 1.0]}

    def setup(self, ctx: Context, seed: int) -> None:
        rng = np.random.default_rng(seed)
        s0 = rng.uniform(*MC_S0, MC_PER_PASS)
        pi2 = np.rint(10.0 ** rng.uniform(*MC_LOG10_PI2, MC_PER_PASS))
        seeds = rng.integers(0, 2**63, MC_PER_PASS)
        # f alternates 0 (no cutoff) and 1 (truncated sampler)
        self.replicates = [(float(s0[i]), int(pi2[i]), float(i % 2), int(seeds[i]))
                           for i in range(MC_PER_PASS)]

    @staticmethod
    def _replicate(s0, pi2, f, seed, n_events=MC_DRAWS):
        if f == 0.0:
            params = model.solve_f0(s0)
        else:
            params = model.solve_exact(model.SolverInput(s0=s0, pi2=pi2, f=f))
        draws = montecarlo.sample_separations(
            montecarlo.SimConfig(params=params, n_events=n_events, seed=seed)
        )
        return params, draws

    def run_pass(self, ctx: Context, workdir: str) -> None:
        for i, replicate in enumerate(self.replicates):
            op = f"replicate{i}"
            ctx.mark()
            params, draws = self._replicate(*replicate)
            spec = spectrum.accumulate(draws)
            gof = montecarlo.gof_compare(spec, params)
            slope = fit.fit_exp_slope(spec)
            ctx.lap(op)
            self._verify(ctx, op, params, draws, spec, gof, slope)

    def _verify(self, ctx, op, params, draws, spec, gof, slope) -> None:
        n = draws.size
        top = math.inf if params.l_cut is None else math.floor(params.l_cut)
        ctx.check(op, n == MC_DRAWS and int(draws.min()) >= 0 and int(draws.max()) <= top,
                  f"{n} draws in [{draws.min()}, {draws.max()}], cutoff {top}")
        ctx.check(op, spec.total_intervals == n and spec.total_singletons == int(draws.sum()),
                  "spectrum totals disagree with the draws")
        mean, var = _model_moments(params)
        ctx.check(op, abs(float(draws.mean()) - mean) <= MEAN_SIGMAS * math.sqrt(var / n),
                  f"sample mean {draws.mean():.5f}, model mean {mean:.5f}")
        ctx.check(op, gof.dof >= 1 and math.isfinite(gof.chi2) and gof.ks_distance < 0.01,
                  f"gof {gof}")
        ctx.check(op, math.isfinite(slope.coefficients[1]) and slope.coefficients[1] < 0,
                  f"slope {slope.coefficients}")
        # same seed, same replicate: every pass must reproduce the first exactly
        fingerprint = [spec.total_singletons, spec.max_separation(), gof.chi2,
                       *slope.coefficients]
        first = self.first_pass.setdefault(op, fingerprint)
        ctx.check(op, fingerprint == first, f"pass output {fingerprint} differs from {first}")
        if first is fingerprint:
            self.gof_calls += 1
            self.gof_passed += gof.passed

    def finish(self, ctx: Context) -> None:
        op = ctx.extra_op("gof_pass_ratio")
        ratio = self.gof_passed / self.gof_calls if self.gof_calls else 0.0
        ctx.check(op, ratio >= MC_MIN_PASS_RATIO,
                  f"{self.gof_passed}/{self.gof_calls} replicates pass GOF on their own model")

        # The walk-through's synthetic draws, and the truncated sampler, on fixed seeds.
        op = ctx.extra_op("pinned_draws")
        for key, (s0, pi2, f) in {"draws_f0": (8.0, 0, 0.0),
                                  "draws_f1": (8.0, 10**6, 1.0)}.items():
            _, draws = self._replicate(s0, pi2, f, 42, n_events=100000)
            ctx.expect(op, key, sha256_bytes(draws.astype("<i8").tobytes()))


WORKLOADS = {cls.name: cls for cls in (CliWalk, Desk, McGof)}


def library_calls() -> dict:
    """Span name -> (public twinsep function, counters) traced in-process."""
    return {
        "sieve.sieve_range": (sieve.sieve_range, lambda a, k, r: {
            "ints": a[0].limit,
            "segments": math.ceil((a[0].limit - 2) / (2 * a[0].segment_size)),
        }),
        "sieve.write_separations": (sieve.write_separations, None),
        "sieve.read_separations": (sieve.read_separations, lambda a, k, r: {"bytes": r.nbytes}),
        "pipeline.write_counts": (pipeline.write_counts, None),
        "pipeline.ingest_counts": (pipeline.ingest_counts, None),
        "pipeline.per_checkpoint_spectra": (pipeline.per_checkpoint_spectra,
                                            lambda a, k, r: {"checkpoints": len(r)}),
        "pipeline.max_separation_by_checkpoint": (pipeline.max_separation_by_checkpoint, None),
        "pipeline.count_cutoff_exceedances": (pipeline.count_cutoff_exceedances, None),
        "pipeline.figure_pipeline": (pipeline.figure_pipeline, None),
        "pipeline.FigureSet.write": (pipeline.FigureSet.write, None),
        "spectrum.accumulate": (spectrum.accumulate,
                                lambda a, k, r: {"elems": int(np.asarray(a[0]).size)}),
        "model.solve_f0": (model.solve_f0, None),
        "model.solve_approx": (model.solve_approx, None),
        "model.solve_exact": (model.solve_exact, None),
        "fit.fit_exp_slope": (fit.fit_exp_slope, None),
        "fit.fit_m0": (fit.fit_m0, None),
        "fit.fit_s0_linear": (fit.fit_s0_linear, None),
        "fit.fit_s0_loglog": (fit.fit_s0_loglog, None),
        "montecarlo.sample_separations": (montecarlo.sample_separations,
                                          lambda a, k, r: {"draws": a[0].n_events}),
        "montecarlo.gof_compare": (montecarlo.gof_compare,
                                   lambda a, k, r: {"passed": int(r.passed)}),
    }


def library_namespaces() -> list:
    """Every namespace through which twinsep code or the workloads reach a traced call."""
    return [twinsep, sieve, pipeline, spectrum, model, fit, montecarlo, pipeline.FigureSet]
