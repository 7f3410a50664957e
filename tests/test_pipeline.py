import collections
import math

import numpy as np
import pytest

from twinsep import spectrum
from twinsep.errors import ValidationError
from twinsep.fit import fit_exp_slope, fit_m0, fit_s0_linear
from twinsep.model import cutoff_law
from twinsep.pipeline import (
    CountTable,
    checkpoint_rows,
    count_cutoff_exceedances,
    figure_pipeline,
    ingest_counts,
    max_separation_by_checkpoint,
    per_checkpoint_spectra,
    table_from_report,
    write_counts,
)
from twinsep.sieve import CountRecord, SieveConfig, geometric_checkpoints, sieve_range
from twinsep.spectrum import S0Convention, SeparationSpectrum, accumulate, s0_from_counts


@pytest.fixture(scope="module")
def run100k():
    grid = geometric_checkpoints(100_000, per_decade=10, start=100)
    report = sieve_range(SieveConfig(limit=100_000, checkpoint_grid=grid))
    return report, table_from_report(report)


# Rows that each hit one skip rule of figure_pipeline, under one convention or another.
EDGE_TABLE = CountTable(
    rows=[
        CountRecord(n=2, pi1=1, pi2=0),  # s0 only from its spectrum; pi1 = 1 bars fig1 and m0
        CountRecord(n=9, pi1=3, pi2=2),  # raw s0 < 0 and no paper s0, but a fitted slope
        CountRecord(n=10, pi1=4, pi2=2),  # raw s0 == 0: fig2 only
        CountRecord(n=12, pi1=5, pi2=2),  # raw s0 > 0, but pi2 < 3 has no law
        CountRecord(n=100, pi1=25, pi2=8),
        CountRecord(n=1000, pi1=168, pi2=35),
    ]
)
EDGE_SPECTRA = {
    2: SeparationSpectrum({0: 2, 1: 1, 4: 1}),  # exact s0 5/4, and a slope
    9: SeparationSpectrum({0: 4, 1: 2, 2: 1}),  # exact s0 4/7, pi2 < 3
    12: SeparationSpectrum({0: 3}),  # exact s0 == 0, and too few bins for a slope
    100: SeparationSpectrum({0: 3, 1: 2, 3: 1}),
}  # 10 and 1000 have none: no slope, and no exact s0


def attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or None where it raises ValidationError."""
    try:
        return fn(*args, **kwargs)
    except ValidationError:
        return None


def message(fn, *args, **kwargs):
    """The text of the ValidationError fn(*args, **kwargs) raises, or None."""
    try:
        fn(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return None


def oracle_figures(table, spectra, f, conv, onsets):
    """fig1-fig3 and the two laws, each value from the call that defines it, row by row.

    fig1 admits rows with s0 > 0 and pi1 >= 2, fig2 rows with an s0 and
    pi1 >= 1, fig3 rows with a law, then the onsets; m0 is fitted over every
    row with a slope and pi1 >= 3, whether or not it has an s0.
    """
    spectra = spectra or {}
    s0, slope, law = {}, {}, {}
    for rec in table.rows:
        spec = spectra.get(rec.n)
        est = attempt(s0_from_counts, rec, conv, spectrum=spec)
        if est is not None:
            s0[rec.n] = est.value
        fit = None if spec is None else attempt(fit_exp_slope, spec)
        if fit is not None:
            slope[rec.n] = (-fit.coefficients[1], fit.std_errors[1])
        params = None if est is None else attempt(cutoff_law, est.value, rec.pi2, f)
        if params is not None:
            law[rec.n] = params
    m0_points = [(r.pi1, slope[r.n][0]) for r in table.rows if r.n in slope and r.pi1 >= 3]
    m0_fit = fit_m0(m0_points) if m0_points else None
    s0_points = [(r.pi1, s0[r.n]) for r in table.rows if r.n in s0]
    s0_fit = attempt(fit_s0_linear, s0_points)
    fig1 = [
        {
            "n": r.n,
            "pi1": r.pi1,
            "log_pi1": math.log(r.pi1),
            "inv_s0": 1.0 / s0[r.n],
            "slope_m": slope[r.n][0] if r.n in slope else "",
            "slope_se": slope[r.n][1] if r.n in slope else "",
            "m0_curve": m0_fit.coefficients[0] / math.log(r.pi1) if m0_fit else "",
        }
        for r in table.rows
        if r.n in s0 and s0[r.n] > 0 and r.pi1 >= 2
    ]
    fig2 = [
        {
            "n": r.n,
            "pi1": r.pi1,
            "log_pi1": math.log(r.pi1),
            "s0": s0[r.n],
            "s0_fit": (
                s0_fit.coefficients[0] + s0_fit.coefficients[1] * math.log(r.pi1)
                if s0_fit else ""
            ),
        }
        for r in table.rows
        if r.n in s0 and r.pi1 >= 1
    ]
    fig3 = [
        {
            "series": "predicted",
            "n": r.n,
            "log_n": math.log(r.n),
            "value": law[r.n].l_cut,
            "l_ceil": law[r.n].l_ceil,
        }
        for r in table.rows
        if r.n in law
    ] + [
        {"series": "onset", "n": n, "log_n": math.log(n), "value": sep, "l_ceil": ""}
        for sep, n in onsets or []
    ]
    return fig1, fig2, fig3, m0_fit, s0_fit


class TestIngest:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n,pi1,pi2\n10,4,2\n100,25,8\n")
        table = ingest_counts(path)
        assert [(r.n, r.pi1, r.pi2) for r in table.rows] == [(10, 4, 2), (100, 25, 8)]

    def test_out_of_order_rows_name_the_line(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n,pi1,pi2\n100,25,8\n10,4,2\n")
        with pytest.raises(ValidationError, match=":3:"):
            ingest_counts(path)

    def test_nonmonotone_pi1_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n,pi1,pi2\n10,25,8\n100,20,9\n")
        with pytest.raises(ValidationError, match="monotonicity"):
            ingest_counts(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n,pi1\n10,4\n")
        with pytest.raises(ValidationError, match="pi2"):
            ingest_counts(path)

    def test_duplicate_n(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n,pi1,pi2\n10,4,2\n10,4,2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            ingest_counts(path)

    def test_unparseable_row(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n,pi1,pi2\n10,four,2\n")
        with pytest.raises(ValidationError, match=":2:"):
            ingest_counts(path)

    @pytest.mark.parametrize("row", ["100,\x1c25,8,19", "100,25,8,\x1c19"],
                             ids=["pi1", "pi1_adjusted"])
    def test_pi1_adjusted_parses_as_the_counts_do(self, tmp_path, row):
        # \x1c is whitespace to str.strip() but not to int(): no column may strip it first
        path = tmp_path / "counts.csv"
        path.write_text(f"n,pi1,pi2,pi1_adjusted\n10,4,2,\n{row}\n")
        with pytest.raises(ValidationError, match=r"counts\.csv:3: unparseable row"):
            ingest_counts(path)

    def test_blank_pi1_adjusted_is_none(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n,pi1,pi2,pi1_adjusted\n10,4,2,  \n100,25,8, 19 \n")
        assert [r.pi1_adjusted for r in ingest_counts(path).rows] == [None, 19]

    def test_negative_pi1_adjusted_names_the_line(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n,pi1,pi2,pi1_adjusted\n10,4,2,\n100,25,8,-7\n")
        with pytest.raises(ValidationError, match=r"counts\.csv:3: pi1_adjusted must be in \[0, "):
            ingest_counts(path)

    @pytest.mark.parametrize("text, problem", [
        # a later check's fault on an earlier line wins over an earlier check's on a later one
        ("n,pi1,pi2\n10,4,2\n10,4,2\n20,x,3\n", "duplicate n=10 (first seen on line 2)"),
        ("n,pi1,pi2\n10,25,8\n100,20,9\n200,30,x\n",
         "monotonicity violation at n=100 (previous row had n=10, pi1=25, pi2=8)"),
        ("n,pi1,pi2,pi1_adjusted\n10,4,2,\n100,25,8,-7\n100,x,35,\n",
         "pi1_adjusted must be in [0, pi1], got -7"),
    ], ids=["duplicate-before-unparseable", "monotonicity-before-unparseable",
            "record-before-unparseable"])
    def test_first_faulty_line_wins(self, tmp_path, text, problem):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            ingest_counts(path)
        assert str(info.value) == f"{path}:3: {problem}"

    def test_roundtrip(self, tmp_path):
        table = CountTable(
            rows=[
                CountRecord(n=10, pi1=4, pi2=2),
                CountRecord(n=100, pi1=25, pi2=8, pi1_adjusted=19),
            ],
            metadata={"log_base": "natural", "origin": "unit-test"},
        )
        path = tmp_path / "counts.csv"
        write_counts(path, table)
        back = ingest_counts(path)
        assert back.rows == table.rows
        assert back.metadata == table.metadata


class TestCheckpointViews:
    def test_spectra_totals(self, run100k):
        report, table = run100k
        spectra = per_checkpoint_spectra(report.separations, table)
        for rec in table.rows:
            assert spectra[rec.n].total_intervals == max(0, rec.pi2 - 2)

    def test_final_spectrum_is_whole_stream(self, run100k):
        report, table = run100k
        spectra = per_checkpoint_spectra(report.separations, table)
        final = spectra[table.rows[-1].n]
        assert final.total_intervals == report.separations.size

    def test_running_max(self, run100k):
        report, table = run100k
        maxes = max_separation_by_checkpoint(report.separations, table)
        for rec in table.rows:
            k = max(0, rec.pi2 - 2)
            if k:
                assert maxes[rec.n] == int(report.separations[:k].max())

    def test_stream_too_short_rejected(self, run100k):
        _, table = run100k
        for view in (
            per_checkpoint_spectra,
            max_separation_by_checkpoint,
            count_cutoff_exceedances,
        ):
            with pytest.raises(ValidationError, match="too short"):
                view([0, 1, 2], table)

    def test_decreasing_pi2_rejected(self):
        table = CountTable(
            rows=[CountRecord(n=100, pi1=25, pi2=8), CountRecord(n=200, pi1=46, pi2=7)]
        )
        with pytest.raises(ValidationError, match="decreases"):
            per_checkpoint_spectra(list(range(10)), table)

    def test_spectra_fold_matches_prefix_histograms(self, run100k):
        # every view is read from the running spectrum; each is checked here
        # against a literal scan of the prefix the checkpoint has closed
        report, table = run100k
        seps = report.separations
        spectra = per_checkpoint_spectra(seps, table)
        maxes = max_separation_by_checkpoint(seps, table)
        for rec in table.rows:
            k = max(0, rec.pi2 - 2)
            assert spectra[rec.n] == accumulate(seps[:k])
            assert maxes[rec.n] == int(seps[:k].max())  # k >= 6 from n = 100 on
        for f in (1.0, 5.0):  # f = 5 still solves at n = 100, where pi2 = 8
            counts = count_cutoff_exceedances(seps, table, f=f)
            for rec in table.rows:
                l_cut = cutoff_law(s0_from_counts(rec).value, rec.pi2, f).l_cut
                k = max(0, rec.pi2 - 2)
                assert counts[rec.n] == int(np.count_nonzero(seps[:k] > l_cut)), (f, rec.n)
            assert max(counts.values()) > 1

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.uint64, np.int32])
    @pytest.mark.parametrize("wide", [None, 0, -3])  # a value >= 1024 in slice 0, or a late one
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_running_tables_match_merged_slices(self, run100k, on_cpus, monkeypatch, dtype,
                                                wide, cpus):
        # pieces of 100 values and batches of 4 checkpoints, so that several workers claim
        # pieces and the running spectrum carries from batch to batch; from the batch with a
        # value outside the compiled table on, the stream is counted slice by slice on the
        # calling thread, so a late one is first met by the workers, and one in slice 0 only
        # by the first batch's single worker (its 4 slices hold too few values for two); an
        # int32 stream is cast to int64 and counted like the others
        report, table = run100k
        seps = report.separations.astype(dtype)
        if wide is not None:
            seps[max(0, table.rows[wide].pi2 - 3)] = 5000
        monkeypatch.setattr(spectrum, "BLOCK_VALUES", 100)
        monkeypatch.setattr(spectrum, "ROWS_AT_ONCE", 4)
        got, workers = on_cpus(cpus, per_checkpoint_spectra, seps, table)
        want, counts, done = {}, collections.Counter(), 0
        for rec in table.rows:
            k = max(0, rec.pi2 - 2)
            counts.update(seps[done:k].tolist())
            want[rec.n] = SeparationSpectrum(dict(counts))
            done = k
        assert got == want and list(got) == list(want)
        assert all(type(s) is type(c) is int for v in got.values() for s, c in v.bins.items())
        assert (workers > 1) == (cpus > 1 and wide != 0)

    @pytest.mark.parametrize("f", [1.0, 3.5])
    @pytest.mark.parametrize("conv", list(S0Convention))
    @pytest.mark.parametrize("data", ["1e5", "edge"])
    def test_checkpoint_rows_match_oracle(self, data, conv, f, run100k):
        # every field of every row, each from the call that defines it or from the stream
        # itself: on the 1e5 run the prefix a checkpoint has closed, on the edge table the
        # values of its hand-made spectrum; a row with no spectrum has no maximum and no
        # exceedances, and a row with no law names the first call that failed
        report, table = run100k
        spectra = per_checkpoint_spectra(report.separations, table)
        streams = {rec.n: report.separations[: max(0, rec.pi2 - 2)] for rec in table.rows}
        if data == "edge":
            table, spectra = EDGE_TABLE, EDGE_SPECTRA
            streams = {n: np.repeat(spec.separations, spec.counts) for n, spec in spectra.items()}
        rows = checkpoint_rows(table, spectra, f, conv)
        assert [row.record for row in rows] == table.rows
        for row in rows:
            rec, spec, seps = row.record, spectra.get(row.record.n), streams.get(row.record.n)
            est = attempt(s0_from_counts, rec, conv, spectrum=spec)
            s0 = None if est is None else est.value
            law = None if s0 is None else attempt(cutoff_law, s0, rec.pi2, f)
            error = message(s0_from_counts, rec, conv, spectrum=spec) or (
                None if law is not None else message(cutoff_law, s0, rec.pi2, f)
            )
            assert row.spectrum is spec, rec.n
            assert (row.s0, row.law) == (s0, law), rec.n
            assert (None if row.error is None else str(row.error)) == error, rec.n
            assert (law is None) == (error is not None), rec.n
            top = None if seps is None or not seps.size else int(seps.max())
            exceed = None if seps is None or law is None else np.count_nonzero(seps > law.l_cut)
            assert (row.max_separation, row.exceedances) == (top, exceed), rec.n
        if data == "edge" and conv is S0Convention.RAW:
            # raw s0 == 0 at n=10 and pi2 < 3 at n=12: an s0, but no law
            assert [r.record.n for r in rows if r.s0 is not None and r.law is None] == [10, 12]

    def test_running_tables_reject_a_negative_value(self, run100k, monkeypatch):
        # batches of 4 checkpoints, so that a negative in a middle or the last batch is met
        # after the batches before it were counted
        report, table = run100k
        monkeypatch.setattr(spectrum, "BLOCK_VALUES", 100)
        monkeypatch.setattr(spectrum, "ROWS_AT_ONCE", 4)
        middle = table.rows[len(table.rows) // 2].pi2 - 3
        for at in (0, middle, report.separations.size - 1):
            seps = report.separations.astype(np.int64)
            seps[at] = -1
            with pytest.raises(ValidationError, match="must be >= 0"):
                per_checkpoint_spectra(seps, table)

    def test_exceedances_from_spectra(self, run100k):
        # each count is a read of the checkpoint's running spectrum at its own cutoff
        report, table = run100k
        spectra = per_checkpoint_spectra(report.separations, table)
        for conv in ("raw", "paper_offset"):
            assert count_cutoff_exceedances(report.separations, table, 1.0, conv) == {
                rec.n: spectra[rec.n].count_above(
                    cutoff_law(s0_from_counts(rec, conv).value, rec.pi2, 1.0).l_cut
                )
                for rec in table.rows
            }, conv
        # under interval_exact each cutoff is solve_approx of that spectrum's own mean
        assert count_cutoff_exceedances(report.separations, table, 1.0, "interval_exact") == {
            100: 1, 126: 1, 158: 1, 200: 2, 251: 2, 316: 0, 398: 0, 501: 1, 631: 1, 794: 1,
            1000: 2, 1259: 2, 1585: 2, 1995: 3, 2512: 3, 3162: 4, 3981: 4, 5012: 3, 6310: 0,
            7943: 0, 10000: 0, 12589: 0, 15849: 0, 19953: 0, 25119: 1, 31623: 2, 39811: 2,
            50119: 1, 63096: 2, 79433: 1, 100000: 1,
        }

    def test_unsolvable_checkpoint_named(self):
        table = CountTable(rows=[CountRecord(n=1000, pi1=168, pi2=35)])
        with pytest.raises(ValidationError, match="checkpoint n=1000: risk factor f=1e-320"):
            count_cutoff_exceedances(np.zeros(33, dtype=np.uint32), table, f=1e-320)

    def test_exceedances_reject_zero_risk_factor(self, run100k):
        report, table = run100k
        with pytest.raises(ValidationError, match="f must be > 0"):
            count_cutoff_exceedances(report.separations, table, f=0.0)

    @pytest.mark.parametrize("f,conv", [(-1.0, "raw"), (0.0, "raw"), (1.0, "bogus")])
    def test_exceedances_check_arguments_before_the_fold(self, run100k, monkeypatch, f, conv):
        def fold(*args):
            raise AssertionError("the stream was counted before the arguments were checked")

        monkeypatch.setattr(spectrum, "_running_spectra", fold)
        report, table = run100k
        with pytest.raises(ValidationError):
            count_cutoff_exceedances(report.separations, table, f=f, convention=conv)

    def test_exceedances_stay_near_risk_factor(self, run100k):
        # with f=1, about one completed separation should exceed each
        # checkpoint's cutoff; small-N checkpoints are noisier
        report, table = run100k
        counts = count_cutoff_exceedances(report.separations, table, f=1.0)
        tail = {n: c for n, c in counts.items() if n >= 10_000}
        assert max(tail.values()) <= 3


class TestFigurePipeline:
    def test_three_datasets(self, run100k):
        report, table = run100k
        spectra = per_checkpoint_spectra(report.separations, table)
        figs = figure_pipeline(
            table, spectra=spectra, f=1.0, onsets=report.max_separation_onsets
        )
        assert figs.fig1 and figs.fig2 and figs.fig3
        # fig1 carries the computed-slope series when spectra are given
        slopes = [r for r in figs.fig1 if r["slope_m"] != ""]
        assert slopes
        # fig2 carries the fitted line
        assert all(isinstance(r["s0_fit"], float) for r in figs.fig2)
        # fig3 has both series
        series = {r["series"] for r in figs.fig3}
        assert series == {"predicted", "onset"}
        assert figs.metadata["log_base"] == "natural"

    @pytest.mark.parametrize("onset", [(3, 0), (-1, 11)])
    def test_bad_onset_rejected(self, run100k, onset):
        _, table = run100k
        with pytest.raises(ValidationError, match="onset needs n >= 1"):
            figure_pipeline(table, f=1.0, onsets=[(0, 11), onset])

    def test_predicted_series_tracks_onsets(self, run100k):
        # onsets overshoot the cutoff by a few mean separations when a
        # record lands (that is what the risk factor prices in), so the
        # check here is scale agreement, not a hard bound
        report, table = run100k
        figs = figure_pipeline(table, f=1.0, onsets=report.max_separation_onsets)
        preds = {r["n"]: r["value"] for r in figs.fig3 if r["series"] == "predicted"}
        assert sorted(preds.values()) == list(preds.values())  # grows with n
        for sep, n in report.max_separation_onsets:
            later = [preds[m] for m in sorted(preds) if m >= n]
            if later and n >= 1000:
                assert sep <= 2.5 * later[0]

    @pytest.mark.parametrize("f", [1.0, 3.5])
    @pytest.mark.parametrize(
        "data, conv",
        [
            (data, conv)
            for data in ("1e5", "1e5-bare", "edge", "edge-bare")
            for conv in S0Convention
            # interval_exact without spectra is rejected: test_exact_needs_spectra
            if not (data.endswith("bare") and conv is S0Convention.INTERVAL_EXACT)
        ],
    )
    def test_rows_match_oracle(self, data, conv, f, run100k):
        report, table = run100k
        spectra = per_checkpoint_spectra(report.separations, table)
        onsets = report.max_separation_onsets
        if data.startswith("edge"):
            table, spectra, onsets = EDGE_TABLE, EDGE_SPECTRA, [(1, 9), (3, 100)]
        if data.endswith("bare"):
            spectra = onsets = None
        figs = figure_pipeline(table, spectra=spectra, f=f, convention=conv, onsets=onsets)
        fig1, fig2, fig3, m0_fit, s0_fit = oracle_figures(table, spectra, f, conv, onsets)
        assert [r["n"] for r in figs.fig1] == [r["n"] for r in fig1]
        assert [r["n"] for r in figs.fig2] == [r["n"] for r in fig2]
        assert [(r["series"], r["n"]) for r in figs.fig3] == [(r["series"], r["n"]) for r in fig3]
        assert figs.fig1 == fig1
        assert figs.fig2 == fig2
        assert figs.fig3 == fig3
        assert (figs.m0_fit, figs.s0_fit) == (m0_fit, s0_fit)

    def test_edge_rows_hit_each_skip_rule(self):
        figs = figure_pipeline(EDGE_TABLE, spectra=EDGE_SPECTRA, f=1.0)
        assert [r["n"] for r in figs.fig1] == [12, 100, 1000]  # n=9 has no s0, n=10 has s0 == 0
        assert [r["n"] for r in figs.fig2] == [10, 12, 100, 1000]
        assert [r["n"] for r in figs.fig3] == [100, 1000]  # pi2 < 3 below n=100
        # n=9 has no raw s0, yet its slope joins n=100's in the m0 fit; n=2's has pi1 < 3
        assert figs.m0_fit.n_points == 2
        exact = figure_pipeline(EDGE_TABLE, spectra=EDGE_SPECTRA, f=1.0, convention="interval_exact")
        assert [r["n"] for r in exact.fig1] == [9, 100]  # n=12 has exact s0 == 0
        assert [r["n"] for r in exact.fig2] == [2, 9, 12, 100]  # n=2 has pi1 < 2
        assert [r["n"] for r in exact.fig3] == [100]

    def test_exact_needs_spectra(self, run100k):
        _, table = run100k
        with pytest.raises(ValidationError, match="interval_exact convention requires spectra"):
            figure_pipeline(table, f=1.0, convention="interval_exact")

    def test_no_spectra_leaves_slope_blank(self, run100k):
        _, table = run100k
        figs = figure_pipeline(table, f=1.0)
        assert all(r["slope_m"] == "" for r in figs.fig1)

    def test_single_row_table_omits_fit(self):
        table = CountTable(rows=[CountRecord(n=100, pi1=25, pi2=8)])
        figs = figure_pipeline(table, f=1.0)
        assert len(figs.fig2) == 1
        assert figs.fig2[0]["s0_fit"] == ""

    def test_write(self, tmp_path, run100k):
        report, table = run100k
        figs = figure_pipeline(table, f=1.0, onsets=report.max_separation_onsets)
        paths = figs.write(tmp_path / "figs")
        assert len(paths) == 3
        head = open(paths[0]).readline()
        assert head.startswith("# metadata:")


class TestTableValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            CountTable(rows=[CountRecord(n=100, pi1=25, pi2=8), CountRecord(n=10, pi1=4, pi2=2)])


ENTRY_POINTS = {
    "s0_from_counts": lambda run, conv: s0_from_counts(run[1].rows[-1], conv),
    "figure_pipeline": lambda run, conv: figure_pipeline(run[1], convention=conv),
    "checkpoint_rows": lambda run, conv: checkpoint_rows(run[1], convention=conv),
    "count_cutoff_exceedances": lambda run, conv: count_cutoff_exceedances(
        run[0].separations, run[1], convention=conv
    ),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("conv", ["bogus", "exact", "", None, 1])
def test_unknown_convention_is_a_validation_error(run100k, entry, conv):
    with pytest.raises(ValidationError, match="raw, paper_offset or interval_exact"):
        ENTRY_POINTS[entry](run100k, conv)
