import functools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twinsep import cli, model, sieve
from twinsep.cli import main
from twinsep.ioutil import read_columns
from twinsep.model import SolverInput, cutoff_law, solve_exact
from twinsep.pipeline import count_cutoff_exceedances, ingest_counts, per_checkpoint_spectra
from twinsep.sieve import SieveConfig, geometric_checkpoints, read_separations, sieve_range
from twinsep.spectrum import read_spectrum_csv, s0_from_counts


@pytest.fixture()
def sieved(tmp_path):
    counts = tmp_path / "counts.csv"
    seps = tmp_path / "seps.bin"
    onsets = tmp_path / "onsets.csv"
    rc = main(
        [
            "sieve",
            "--limit", "50000",
            "--checkpoints", "geometric:10",
            "--out", str(counts),
            "--separations", str(seps),
            "--onsets", str(onsets),
        ]
    )
    assert rc == 0
    return counts, seps, onsets


class TestSieveCommand:
    def test_outputs_match_library(self, sieved, tmp_path):
        counts, seps, _ = sieved
        table = ingest_counts(counts)
        grid = geometric_checkpoints(50000, per_decade=10)
        report = sieve_range(SieveConfig(limit=50000, checkpoint_grid=grid))
        assert [r.n for r in table.rows] == [r.n for r in report.counts]
        assert table.rows == report.counts
        assert np.array_equal(read_separations(seps), report.separations)

    def test_counts_header_and_metadata(self, sieved):
        counts, _, _ = sieved
        lines = counts.read_text().splitlines()
        data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[data_start] == "n,pi1,pi2,pi1_adjusted"
        assert any("onset_n" in l for l in lines[:data_start])
        # a fixed line, pinned by the benchmark; no run parameter sets it
        assert [l for l in lines if "segment_size" in l] == ["# metadata: segment_size=1048576"]

    def test_deterministic_bytes(self, sieved, tmp_path, monkeypatch):
        # and TWINSEP_SEGMENT_SIZE, no longer read, changes neither exit code nor bytes
        monkeypatch.setenv("TWINSEP_SEGMENT_SIZE", "abc")
        out = tmp_path / "again"
        out.mkdir()
        rc = main(
            [
                "sieve", "--limit", "50000", "--checkpoints", "geometric:10",
                "--out", str(out / "counts.csv"), "--separations", str(out / "seps.bin"),
                "--onsets", str(out / "onsets.csv"),
            ]
        )
        assert rc == 0
        for path in sieved:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_validation_exit_code(self, tmp_path):
        rc = main(
            [
                "sieve", "--limit", "1",
                "--out", str(tmp_path / "c.csv"),
                "--separations", str(tmp_path / "s.bin"),
            ]
        )
        assert rc == 2

    def test_explicit_checkpoint_list(self, tmp_path):
        counts = tmp_path / "c.csv"
        rc = main(
            [
                "sieve", "--limit", "1000", "--checkpoints", "100,500,1000",
                "--out", str(counts), "--separations", str(tmp_path / "s.bin"),
            ]
        )
        assert rc == 0
        assert [r.n for r in ingest_counts(counts).rows] == [100, 500, 1000]

    def test_summary_names_the_last_checkpoint(self, tmp_path, capsys):
        # the counts printed are those of the last checkpoint, not of the limit
        out = tmp_path / "c.csv"
        argv = ["sieve", "--limit", "100000", "--checkpoints", "1000,,2000", "--out", str(out),
                "--separations", str(tmp_path / "s.bin")]
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "sieved to 100000: separations=1222 checkpoints=2, last at n=2000: pi1=303 pi2=61\n"
        )
        assert [(r.n, r.pi1, r.pi2) for r in ingest_counts(out).rows] == [(1000, 168, 35),
                                                                          (2000, 303, 61)]

    def test_stats_manifest(self, sieved, tmp_path):
        counts, seps, onsets = sieved
        out = tmp_path / "run"
        out.mkdir()
        rc = main(
            [
                "sieve", "--limit", "50000", "--checkpoints", "geometric:10",
                "--out", str(out / "counts.csv"), "--separations", str(out / "seps.bin"),
                "--onsets", str(out / "onsets.csv"), "--stats", str(out / "stats.json"),
            ]
        )
        assert rc == 0
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats) == {
            "limit", "python", "numpy",
            "workers", "chunks", "segments", "scan", "wall_s", "segments_per_s", "peak_rss_mb",
        }
        assert (stats["limit"], stats["workers"], stats["chunks"]) == (50000, 1, 1)
        assert stats["scan"] == sieve._load_kernel().scan
        # the manifest is the only file that describes the run; the data files are unchanged
        for name, path in [("counts.csv", counts), ("seps.bin", seps), ("onsets.csv", onsets)]:
            assert (out / name).read_bytes() == path.read_bytes(), name

    def test_stats_peak_rss_is_the_run_s_own(self, tmp_path):
        # a run started from a process holding 200 MB: on Linux its ru_maxrss starts at that
        # process's peak, and the manifest gives the peak of the run's own program
        held = np.ones(25_000_000)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        argv = [sys.executable, "-m", "twinsep.cli", "sieve", "--limit", "1000",
                "--out", str(tmp_path / "c.csv"), "--separations", str(tmp_path / "s.bin"),
                "--stats", str(tmp_path / "m.json")]
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        del held
        assert json.loads((tmp_path / "m.json").read_text())["peak_rss_mb"] < 150


BAD_FILES = {
    "non_integer": "separation,n\n0,11\n1,twenty-nine\n",
    "no_separation_column": "sep,n\n0,11\n",
    "header_only": "n,pi1,pi2\n",
    "counts_n_zero": "n,pi1,pi2\n0,100,10\n1000,168,35\n",
    "onsets_n_zero": "separation,n\n0,11\n3,0\n",
    "spectrum_negative_count": "s,count\n0,5\n1,-2\n",
    "spectrum_negative_s": "s,count\n-1,3\n0,5\n",
    "spectrum_ok": "s,count\n0,5\n1,2\n",
    "spectrum_s_huge": f"s,count\n0,5\n1,2\n{10**400},1\n",
    "spectrum_count_2_63": f"s,count\n0,5\n1,{2**63}\n",
    "s0_inf": "pi1,s0\n100,5\n1000,inf\n10000,7\n100000,8\n",
    "m_nan": "pi1,m\n100,0.2\nnan,0.1\n",
    "counts_negative_adjusted": "n,pi1,pi2,pi1_adjusted\n100,25,8,-7\n",
    "counts_nul": "n,pi1,pi2\n100,25,8\n1000,16\x008,35\n",
}


class TestContract:
    """Bad input exits 2 with a one-line error naming the problem, never a traceback."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["figures", "--counts", "{counts}", "--onsets", "{non_integer}",
              "--out-dir", "{tmp}/figs"], ":3:"),
            (["figures", "--counts", "{counts}", "--onsets", "{no_separation_column}",
              "--out-dir", "{tmp}/figs"], "separation"),
            (["sieve", "--limit", "1000", "--checkpoints", "geometric:x",
              "--out", "{tmp}/c.csv", "--separations", "{tmp}/s.bin"], "geometric:x"),
            (["sieve", "--limit", "1000", "--checkpoints", "geometric5",
              "--out", "{tmp}/c.csv", "--separations", "{tmp}/s.bin"], "geometric5"),
            (["predict", "--counts", "{counts}", "--f", "abc", "--out", "{tmp}/o.csv"], "--f"),
            (["gof", "--spectrum", "{tmp}/none.csv", "--s0", "5.0", "--alpha", "abc"], "--alpha"),
            (["s0", "--counts", "{counts}", "--convention", ""], "--convention"),
            (["sieve", "--limit", "1000", "--segment-size", "2048", "--out", "{tmp}/c.csv",
              "--separations", "{tmp}/s.bin"], "unrecognized arguments: --segment-size"),
            (["predict", "--counts", "{counts}", "--f", "0", "--out", "{tmp}/o.csv"], "--f"),
            (["predict", "--counts", "{counts}", "--f", "-1", "--out", "{tmp}/o.csv"], "--f"),
            (["figures", "--counts", "{counts}", "--f", "0", "--out-dir", "{tmp}/figs"], "--f"),
            (["spectrum", "--separations", "{truncated}", "--out", "{tmp}/sp.csv"], "4-byte"),
            (["simulate", "--s0", "5", "--n", "1000", "--seed", "1", "--f", "-1",
              "--out", "{tmp}/sp.csv"], "--f"),
            (["gof", "--spectrum", "{tmp}/none.csv", "--s0", "5", "--f", "-1"], "--f"),
            (["s0", "--counts", "{header_only}", "--convention", "exact",
              "--separations", "{tmp}/none.bin"], "header_only.csv: no data rows"),
            (["predict", "--counts", "{counts_n_zero}", "--out", "{tmp}/o.csv"],
             "counts_n_zero.csv:2:"),
            (["figures", "--counts", "{counts}", "--onsets", "{onsets_n_zero}",
              "--out-dir", "{tmp}/figs"], "onsets_n_zero.csv"),
            (["report", "--limit", "1000000", "--f", "0"], "--f"),
            (["report", "--limit", "1000", "--start", "0"], "start"),
            (["report", "--limit", "1000", "--start", "1"], "checkpoint n=1:"),
            (["sieve", "--limit", "99999999999999999999999", "--out", "{tmp}/c.csv",
              "--separations", "{tmp}/s.bin"], "2**62"),
            (["gof", "--spectrum", "{spectrum_negative_count}", "--s0", "5"],
             "spectrum_negative_count.csv:3:"),
            (["fit", "--kind", "slope", "--in", "{spectrum_negative_s}", "--out", "{tmp}/f.json"],
             "spectrum_negative_s.csv:2:"),
            (["simulate", "--s0", "inf", "--n", "10", "--seed", "1", "--out", "{tmp}/sp.csv"],
             "s0 must be finite"),
            (["gof", "--spectrum", "{spectrum_ok}", "--s0", "inf"], "s0 must be finite"),
            (["report", "--limit", "100000", "--f", "1e-320"],
             "checkpoint n=100000: risk factor f=1e-320 too small"),
            (["simulate", "--s0", "5", "--pi2", "100", "--f", "1e-320", "--n", "10", "--seed", "1",
              "--out", "{tmp}/sp.csv"], "cutoff is infinite"),
            (["gof", "--spectrum", "{spectrum_ok}", "--s0", "5", "--pi2", "100", "--f", "1e-320"],
             "cutoff is infinite"),
            (["fit", "--kind", "s0lin", "--in", "{s0_inf}", "--out", "{tmp}/f.json"],
             "s0_inf.csv: point 1: pi1 and s0 must be finite"),
            (["fit", "--kind", "s0loglog", "--in", "{s0_inf}", "--out", "{tmp}/f.json"],
             "s0_inf.csv: point 1: pi1 and s0 must be finite"),
            (["fit", "--kind", "m0", "--in", "{m_nan}", "--out", "{tmp}/f.json"],
             "m_nan.csv: point 1: pi1 and m must be finite"),
            (["gof", "--spectrum", "{spectrum_s_huge}", "--s0", "5"], "spectrum_s_huge.csv:4:"),
            (["fit", "--kind", "slope", "--in", "{spectrum_s_huge}", "--out", "{tmp}/f.json"],
             "spectrum_s_huge.csv:4:"),
            (["gof", "--spectrum", "{spectrum_count_2_63}", "--s0", "5"],
             "spectrum_count_2_63.csv:3:"),
            (["predict", "--counts", "{counts_negative_adjusted}", "--out", "{tmp}/o.csv"],
             "counts_negative_adjusted.csv:2: pi1_adjusted"),
            (["figures", "--counts", "{counts}", "--convention", "exact", "--out-dir", "{tmp}/figs"],
             "interval_exact convention requires spectra"),
            (["predict", "--counts", "{counts}", "--convention", "exact", "--out", "{tmp}/o.csv"],
             "--separations is required for the exact convention"),
            (["s0", "--counts", "{counts}", "--convention", "exact"],
             "--separations is required for the exact convention"),
            (["predict", "--counts", "{counts}", "--f", "inf", "--out", "{tmp}/o.csv"], "--f"),
            (["figures", "--counts", "{counts}", "--f", "inf", "--out-dir", "{tmp}/figs"], "--f"),
            (["report", "--limit", "1000000", "--f", "inf"], "--f"),
            (["simulate", "--s0", "5", "--n", str(2**64), "--seed", "1", "--out", "{tmp}/sp.csv"],
             "n_events must be in [1, 2**60)"),
            (["predict", "--counts", "{counts_nul}", "--out", "{tmp}/o.csv"],
             "counts_nul.csv:3: unparseable row {'n': '1000', 'pi1': '16\\x008', 'pi2': '35'}"),
        ],
        ids=[
            "onsets-non-integer",
            "onsets-no-separation-column",
            "checkpoints-geometric-x",
            "checkpoints-geometric5",
            "predict-f-abc",
            "gof-alpha-abc",
            "s0-convention-empty",
            "sieve-segment-size-removed",
            "predict-f-0",
            "predict-f-negative",
            "figures-f-0",
            "seps-partial-record",
            "simulate-f-negative",
            "gof-f-negative",
            "s0-header-only-counts",
            "counts-n-zero",
            "onsets-n-zero",
            "report-f-0",
            "report-start-0",
            "report-unsolvable-checkpoint",
            "sieve-limit-above-2-62",
            "gof-spectrum-negative-count",
            "fit-spectrum-negative-separation",
            "simulate-s0-inf",
            "gof-s0-inf",
            "report-f-subnormal",
            "simulate-f-subnormal",
            "gof-f-subnormal",
            "fit-s0lin-inf",
            "fit-s0loglog-inf",
            "fit-m0-nan",
            "gof-spectrum-s-2-63",
            "fit-spectrum-s-2-63",
            "gof-spectrum-count-2-63",
            "predict-negative-pi1-adjusted",
            "figures-exact-no-separations",
            "predict-exact-no-separations",
            "s0-exact-no-separations",
            "predict-f-inf",
            "figures-f-inf",
            "report-f-inf",
            "simulate-n-2-64",
            "counts-nul-byte",
        ],
    )
    def test_exit_2(self, argv, needle, sieved, tmp_path, capsys):
        counts, seps, _ = sieved
        files = {"counts": counts, "tmp": tmp_path, "truncated": tmp_path / "trunc.bin"}
        files["truncated"].write_bytes(seps.read_bytes()[:-2])
        for name, text in BAD_FILES.items():
            files[name] = tmp_path / f"{name}.csv"
            files[name].write_text(text)
        capsys.readouterr()
        try:
            rc = main([arg.format(**files) for arg in argv])
        except SystemExit as exc:  # argparse rejects bad option values itself
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert needle in err.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [["s0", "--counts", "{bad}"], ["gof", "--spectrum", "{bad}", "--s0", "5"],
         ["figures", "--counts", "{counts}", "--onsets", "{bad}", "--out-dir", "{tmp}/figs"]],
        ids=["s0", "gof", "figures-onsets"],
    )
    def test_binary_csv_exits_2(self, argv, sieved, tmp_path, capsys):
        # bytes that are not text in any line: csv never sees them
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"n,pi1,pi2\n\x80\xfe\xff,1,2\n")
        files = {"bad": bad, "counts": sieved[0], "tmp": tmp_path}
        capsys.readouterr()
        assert main([arg.format(**files) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == f"error: {bad}: not a text file"

    def test_subnormal_f_skips_every_row(self, sieved, tmp_path, capsys):
        # with f = 1e-320, pi2/f overflows and no checkpoint has a finite cutoff
        counts, seps, onsets = sieved
        capsys.readouterr()
        assert main(["predict", "--counts", str(counts), "--f", "1e-320",
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert main(["figures", "--counts", str(counts), "--separations", str(seps),
                     "--onsets", str(onsets), "--f", "1e-320",
                     "--out-dir", str(tmp_path / "figs")]) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"skipped {len(ingest_counts(counts).rows)} rows" in err
        assert read_columns(tmp_path / "p.csv", ("n",), int)[1] == []
        _, rows = read_columns(tmp_path / "figs" / "fig3.csv", ("series",), str)
        assert rows and {series for series, in rows} == {"onset"}

    def test_out_of_memory_exits_4(self, tmp_path, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("Unable to allocate 147. GiB")

        monkeypatch.setattr(cli, "sieve_range", exhausted)
        capsys.readouterr()
        rc = main(["sieve", "--limit", "1000", "--out", str(tmp_path / "c.csv"),
                   "--separations", str(tmp_path / "s.bin")])
        err = capsys.readouterr().err
        assert rc == 4
        assert "Traceback" not in err
        assert err.strip().splitlines() == ["error: out of memory: Unable to allocate 147. GiB"]

    @pytest.mark.parametrize("command,code", [("sieve", 4), ("spectrum", 4), ("simulate", 4),
                                              ("report", 4), ("s0", 0), ("predict", 0)])
    def test_without_compiler(self, command, code, sieved, tmp_path, monkeypatch, capsys):
        # a command that needs the kernel exits 4 with one line naming cc; s0 and predict
        # never load it
        counts, seps, _ = sieved
        argv = {
            "sieve": ["--limit", "1000", "--out", str(tmp_path / "c.csv"),
                      "--separations", str(tmp_path / "s.bin")],
            "spectrum": ["--separations", str(seps), "--out", str(tmp_path / "spec.csv")],
            "simulate": ["--s0", "8", "--n", "100", "--seed", "1", "--out", str(tmp_path / "x.csv")],
            "report": ["--limit", "100000"],
            "s0": ["--counts", str(counts), "--out", str(tmp_path / "s0.csv")],
            "predict": ["--counts", str(counts), "--out", str(tmp_path / "lmax.csv")],
        }[command]
        monkeypatch.setattr(shutil, "which", lambda name: None)
        # a loader whose cache does not hold the kernel already built
        monkeypatch.setattr(sieve, "_load_kernel", functools.cache(sieve._load_kernel.__wrapped__))
        capsys.readouterr()
        assert main([command, *argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.splitlines() == [
                "i/o error: no `cc` on PATH: twinsep needs it to build its compiled kernel"
            ]


class TestSpectrumAndS0:
    def test_spectrum_roundtrip(self, sieved, tmp_path):
        _, seps, _ = sieved
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--separations", str(seps), "--out", str(out)]) == 0
        spec, meta = read_spectrum_csv(out)
        assert spec.total_intervals == read_separations(seps).size
        assert "intervals" in meta

    def test_source_with_line_break_exits_2(self, sieved, tmp_path, capsys):
        # the source path is written as metadata, where a line break would end its line early
        # and leave a file that does not read back; no file is written
        seps = tmp_path / "s\nx.bin"
        seps.write_bytes(sieved[1].read_bytes())
        out = tmp_path / "sp.csv"
        capsys.readouterr()
        assert main(["spectrum", "--separations", str(seps), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["error: metadata 'source' must not hold a line break"]
        assert not out.exists()

    def test_source_with_leading_space_exits_2(self, sieved, tmp_path, monkeypatch, capsys):
        # the reader strips a metadata value, so ' x.bin' would read back as 'x.bin'
        monkeypatch.chdir(tmp_path)
        (tmp_path / " x.bin").write_bytes(sieved[1].read_bytes())
        capsys.readouterr()
        assert main(["spectrum", "--separations", " x.bin", "--out", "s.csv"]) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "error: metadata 'source' must not hold '=' in its key, nor whitespace at either "
            "end of its key or value"]
        assert not (tmp_path / "s.csv").exists()

    def test_s0_raw_stdout(self, sieved, capsys):
        counts, _, _ = sieved
        assert main(["s0", "--counts", str(counts), "--convention", "raw"]) == 0
        out = capsys.readouterr().out
        assert "n,pi1,s0" in out
        assert "# metadata: s0_convention=raw" in out

    def test_s0_exact_needs_spectrum(self, sieved):
        counts, _, _ = sieved
        assert main(["s0", "--counts", str(counts), "--convention", "exact"]) == 2

    def test_s0_exact(self, sieved, tmp_path):
        counts, seps, _ = sieved
        s0_csv = tmp_path / "s0.csv"
        rc = main(
            [
                "s0", "--counts", str(counts), "--convention", "exact",
                "--separations", str(seps), "--out", str(s0_csv),
            ]
        )
        assert rc == 0
        table = ingest_counts(counts)
        spectra = per_checkpoint_spectra(read_separations(seps), table)
        # one row per checkpoint that has closed an interval, as the library computes it
        want = [
            (str(rec.n), str(rec.pi1),
             repr(s0_from_counts(rec, "interval_exact", spectra[rec.n]).value))
            for rec in table.rows
            if spectra[rec.n].total_intervals
        ]
        meta, got = read_columns(s0_csv, ("n", "pi1", "s0"), str)
        assert meta["s0_convention"] == "interval_exact"
        assert len(want) >= 3
        assert got == want
        fit_json = tmp_path / "fit.json"
        assert main(["fit", "--kind", "s0lin", "--in", str(s0_csv), "--out", str(fit_json)]) == 0
        assert json.loads(fit_json.read_text())["n_points"] == len(want)


class TestFitCommand:
    def test_fit_s0lin_from_s0_output(self, sieved, tmp_path):
        counts, _, _ = sieved
        s0_csv = tmp_path / "s0.csv"
        assert main(["s0", "--counts", str(counts), "--out", str(s0_csv)]) == 0
        fit_json = tmp_path / "fit.json"
        rc = main(["fit", "--kind", "s0lin", "--in", str(s0_csv), "--out", str(fit_json)])
        assert rc == 0
        payload = json.loads(fit_json.read_text())
        assert payload["model_id"] == "s0_linear"
        assert len(payload["coefficients"]) == 2
        assert payload["n_points"] >= 3

    def test_fit_slope_from_spectrum(self, sieved, tmp_path):
        _, seps, _ = sieved
        spec_path = tmp_path / "spectrum.csv"
        main(["spectrum", "--separations", str(seps), "--out", str(spec_path)])
        fit_json = tmp_path / "fit.json"
        rc = main(["fit", "--kind", "slope", "--in", str(spec_path), "--out", str(fit_json)])
        assert rc == 0
        payload = json.loads(fit_json.read_text())
        assert payload["coefficients"][1] < 0  # decaying histogram

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main(["fit", "--kind", "slope", "--in", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "f.json")])
        assert rc == 4


class TestPredictCommand:
    def test_predict_columns(self, sieved, tmp_path):
        counts, _, _ = sieved
        out = tmp_path / "lmax.csv"
        rc = main(["predict", "--counts", str(counts), "--f", "1.0", "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "n,log_n,s0,sbar,a,l_cut,l_ceil"
        last = lines[-1].split(",")
        assert int(last[0]) == 50000
        assert float(last[5]) > 0

    def test_flag_sets_the_risk_factor(self, sieved, tmp_path):
        counts, _, _ = sieved
        out = tmp_path / "lmax.csv"
        assert main(["predict", "--counts", str(counts), "--out", str(out)]) == 0
        assert "risk_factor=1.0" in out.read_text()
        out2 = tmp_path / "lmax2.csv"
        assert main(["predict", "--counts", str(counts), "--f", "0.5", "--out", str(out2)]) == 0
        assert "risk_factor=0.5" in out2.read_text()

    def test_exact_from_separations(self, sieved, tmp_path):
        counts, seps, _ = sieved
        out = tmp_path / "lmax.csv"
        argv = ["predict", "--counts", str(counts), "--separations", str(seps)]
        assert main([*argv, "--convention", "exact", "--out", str(out)]) == 0
        table = ingest_counts(counts)
        spectra = per_checkpoint_spectra(read_separations(seps), table)
        want = []
        for rec in table.rows:
            spec = spectra[rec.n]
            if spec.total_intervals:
                s0 = spec.total_singletons / spec.total_intervals
                want.append((rec.n, s0, cutoff_law(s0, rec.pi2, 1.0).l_cut))
        assert len(want) > 10
        _, rows = read_columns(out, ("n", "s0", "l_cut"), float)
        assert rows == [tuple(map(float, row)) for row in want]
        # the stream is read only under exact: the raw file is the same with or without it
        assert main([*argv, "--out", str(tmp_path / "raw.csv")]) == 0
        assert main(["predict", "--counts", str(counts), "--out", str(tmp_path / "raw2.csv")]) == 0
        assert (tmp_path / "raw.csv").read_bytes() == (tmp_path / "raw2.csv").read_bytes()

    def test_monotonicity_error_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n,pi1,pi2\n100,25,8\n10,4,2\n")
        rc = main(["predict", "--counts", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestSimulateAndGof:
    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--s0", "5.0", "--n", "20000", "--seed", "42"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_then_gof_passes(self, tmp_path, capsys):
        synth = tmp_path / "synth.csv"
        main(["simulate", "--s0", "5.0", "--n", "50000", "--seed", "7", "--out", str(synth)])
        capsys.readouterr()
        rc = main(["gof", "--spectrum", str(synth), "--s0", "5.0", "--alpha", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pass=True" in out
        assert "note:" in out

    def test_gof_detects_wrong_model(self, tmp_path, capsys):
        synth = tmp_path / "synth.csv"
        main(["simulate", "--s0", "5.0", "--n", "50000", "--seed", "7", "--out", str(synth)])
        capsys.readouterr()
        rc = main(["gof", "--spectrum", str(synth), "--s0", "2.0"])
        assert rc == 0
        assert "pass=False" in capsys.readouterr().out

    def test_simulate_truncated_requires_pi2(self, tmp_path):
        rc = main(["simulate", "--s0", "5.0", "--f", "1.0", "--n", "100",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestFiguresCommand:
    def test_figures_written(self, sieved, tmp_path):
        counts, seps, onsets = sieved
        out_dir = tmp_path / "figs"
        rc = main(
            [
                "figures", "--counts", str(counts), "--separations", str(seps),
                "--onsets", str(onsets), "--f", "1.0", "--out-dir", str(out_dir),
            ]
        )
        assert rc == 0
        for name in ("fig1.csv", "fig2.csv", "fig3.csv"):
            text = (out_dir / name).read_text()
            assert text.startswith("# metadata:")
        fig3 = (out_dir / "fig3.csv").read_text()
        assert "onset" in fig3 and "predicted" in fig3


class TestReportCommand:
    def test_reader_closing_early_exits_0(self):
        # `twinsep report ... | head -1`: unbuffered, so each line is written as printed
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        argv = [sys.executable, "-m", "twinsep.cli", "report", "--limit", "1000000",
                "--start", "10000"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"sieve to")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0, err
        assert err == b""

    def test_decade_rows_reach_the_largest_limit(self):
        # a row for every power of ten from 1e3 that a --limit up to 2**62 can reach
        assert cli.REPORT_DECADES == {10**k for k in range(3, 30) if 10**k <= sieve.MAX_LIMIT}

    def test_smoke(self, capsys):
        assert main(["report", "--limit", "1000000", "--start", "10000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("m0 law:") for l in lines)
        # the header line names the scan the kernel takes on this CPU
        assert lines[0].endswith(f"scan: {sieve._load_kernel().scan})"), lines[0]

    def test_m0_is_the_fig1_law(self, tmp_path, capsys):
        # the printed law and fig1's m0_curve come from one figure_pipeline call
        out_dir = tmp_path / "figs"
        argv = ["report", "--limit", "1000000", "--start", "10000", "--out-dir", str(out_dir)]
        assert main(argv) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("m0 law:"))
        printed = line.split()[4]
        _, rows = read_columns(out_dir / "fig1.csv", ("pi1", "m0_curve"), float)
        pi1, m0_curve = rows[-1]
        assert f"{m0_curve * math.log(pi1):.4f}" == printed

    @pytest.mark.parametrize(
        "argv, check",
        [
            # too few intervals at n=1000 for gof_compare: that row's ks is blank
            (["--limit", "2000", "--start", "100"],
             lambda out: any(l.split() and l.split()[0] == "1000" and len(l.split()) == 6
                             for l in out.splitlines())),
            # one checkpoint: the linear and three-term laws cannot be fitted
            (["--limit", "1000000", "--start", "10000000"],
             lambda out: "s0 linear: n/a" in out and "s0 three-term: n/a" in out),
        ],
        ids=["gof-too-few-intervals", "one-checkpoint"],
    )
    def test_unfittable_input_exits_0(self, argv, check, capsys):
        assert main(["report", *argv]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert check(captured.out)


@pytest.fixture(scope="module")
def run1e6(tmp_path_factory):
    """counts.csv, seps.bin and onsets.csv of a sieve to 1e6, 20 checkpoints a decade from 1e5."""
    out = tmp_path_factory.mktemp("run1e6")
    paths = out / "counts.csv", out / "seps.bin", out / "onsets.csv"
    grid = ",".join(map(str, geometric_checkpoints(10**6, start=10**5)))
    assert main(["sieve", "--limit", "1000000", "--checkpoints", grid, "--out", str(paths[0]),
                 "--separations", str(paths[1]), "--onsets", str(paths[2])]) == 0
    return paths


class TestLawSwap:
    """A dry run of making solve_exact the law, by patching it in for solve_approx.

    Only what is solved through cutoff_law follows the patch, so every cutoff
    the commands report must then equal solve_exact's on the row's s0.
    """

    CONVENTIONS = {"raw": "raw", "paper": "paper_offset", "exact": "interval_exact"}

    def reported(self, run, tmp_path, capsys):
        """The cutoffs predict, figures, report and count_cutoff_exceedances give at f = 1."""
        counts, seps, onsets = map(str, run)
        out = {}
        for conv in self.CONVENTIONS:
            lmax, figs = tmp_path / f"lmax-{conv}.csv", tmp_path / f"figs-{conv}"
            assert main(["predict", "--counts", counts, "--separations", seps,
                         "--convention", conv, "--out", str(lmax)]) == 0
            columns = ("n", "s0", "sbar", "a", "l_cut", "l_ceil")
            out["predict", conv] = read_columns(lmax, columns, str)[1]
            assert main(["figures", "--counts", counts, "--separations", seps, "--onsets", onsets,
                         "--convention", conv, "--out-dir", str(figs)]) == 0
            _, rows = read_columns(figs / "fig3.csv", ("series", "n", "value", "l_ceil"), str)
            out["fig3", conv] = [row[1:] for row in rows if row[0] == "predicted"]
        capsys.readouterr()
        assert main(["report", "--limit", "1000000", "--start", "100000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        head = next(i for i, line in enumerate(lines) if line.split()[:1] == ["n"])
        out["report"] = [tuple(line.split()[i] for i in (0, 2, 5)) for line in lines[head + 1 :]]
        out["exceed"] = count_cutoff_exceedances(read_separations(seps), ingest_counts(counts))
        return out

    def oracle(self, run, printed):
        """The same from solve_exact on each row's s0, and the stream itself."""
        table = ingest_counts(run[0])
        seps = read_separations(run[1])
        spectra = per_checkpoint_spectra(seps, table)
        out, laws = {}, {}
        for conv, name in self.CONVENTIONS.items():
            rows = []
            for rec in table.rows:
                s0 = s0_from_counts(rec, name, spectra[rec.n]).value
                rows.append((rec, s0, solve_exact(SolverInput(s0=s0, pi2=rec.pi2, f=1.0))))
            out["predict", conv] = [
                (str(rec.n), repr(s0), repr(law.sbar), repr(law.a), repr(law.l_cut),
                 str(law.l_ceil))
                for rec, s0, law in rows
            ]
            out["fig3", conv] = [
                (str(rec.n), repr(law.l_cut), str(law.l_ceil)) for rec, _, law in rows
            ]
            laws[conv] = {rec.n: law for rec, _, law in rows}
        # report and count_cutoff_exceedances use the raw convention
        out["exceed"] = {
            rec.n: int(np.count_nonzero(seps[: rec.pi2 - 2] > laws["raw"][rec.n].l_cut))
            for rec in table.rows
        }
        out["report"] = [
            (n, f"{laws['raw'][int(n)].l_cut:.2f}", str(out["exceed"][int(n)]))
            for n, _, _ in printed
        ]
        return out

    def test_every_cutoff_follows_cutoff_law(self, run1e6, tmp_path, capsys, monkeypatch):
        before = self.reported(run1e6, tmp_path, capsys)
        monkeypatch.setattr(model, "solve_approx", solve_exact)
        after = self.reported(run1e6, tmp_path, capsys)
        want = self.oracle(run1e6, after["report"])
        assert {"100000", "1000000"} <= {n for n, _, _ in after["report"]}
        for key, rows in want.items():
            assert after[key] == rows, key
            # the patch has teeth: every output moves, the exceedances at n = 501187
            assert before[key] != after[key], key


FUZZ_FLOATS = st.one_of(
    st.sampled_from(
        ["inf", "-inf", "nan", "5e-324", "1e-310", "2.2250738585072014e-308", "1e-300",
         "1e308", "1.7976931348623157e308", "-1e308", "-1", "-0.0", "0", str(2**64),
         "0.5", "1", "3.5", "8"]
    ),
    st.floats().map(repr),
)
FUZZ_INTS = st.one_of(
    st.sampled_from(["inf", "nan", "1e4", "-1", "0", "3", str(2**64), str(10**400)]),
    st.integers(-(2**70), 2**70).map(str),
)
# n above 1e4 is left out so that no example allocates much; simulate-n-2-64 covers the top
FUZZ_N = st.one_of(st.sampled_from(["inf", "nan", "-1", "0"]), st.integers(1, 10**4).map(str))


# Text that a command-line argument can hold: no NUL, no lone surrogate.
FUZZ_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    max_size=12)
FUZZ_CHECKPOINTS = st.one_of(
    st.sampled_from(["geometric", "geometric:", ",", "1,,2"]),
    FUZZ_INTS,
    FUZZ_INTS.map("geometric:{}".format),
    st.lists(FUZZ_INTS, max_size=4).map(",".join),
    FUZZ_TEXT,
)


@st.composite
def fuzz_argv(draw):
    """One sieve, predict, figures, simulate or gof command line with numeric flags and
    checkpoint specs drawn at the edges."""
    command = draw(st.sampled_from(["sieve", "predict", "figures", "simulate", "gof"]))
    flags = {
        "sieve": {"--checkpoints": FUZZ_CHECKPOINTS},
        "predict": {"--f": FUZZ_FLOATS},
        "figures": {"--f": FUZZ_FLOATS},
        "simulate": {"--f": FUZZ_FLOATS, "--pi2": FUZZ_INTS},
        "gof": {"--f": FUZZ_FLOATS, "--pi2": FUZZ_INTS, "--alpha": FUZZ_FLOATS},
    }[command]
    required = {
        "sieve": {"--limit": st.just("100000")},
        "simulate": {"--s0": FUZZ_FLOATS, "--n": FUZZ_N, "--seed": FUZZ_INTS},
        "gof": {"--s0": FUZZ_FLOATS},
    }.get(command, {})
    argv = [command]
    for flag, values in flags.items():
        value = draw(st.one_of(st.none(), values))
        if value is not None:
            argv += [flag, value]
    for flag, values in required.items():
        argv += [flag, draw(values)]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A sieve to 1e5 and the spectrum of its stream, the fixed inputs of the contract fuzz."""
    out = tmp_path_factory.mktemp("fuzz")
    counts, seps = out / "counts.csv", out / "seps.bin"
    assert main(["sieve", "--limit", "100000", "--out", str(counts),
                 "--separations", str(seps), "--onsets", str(out / "onsets.csv")]) == 0
    assert main(["spectrum", "--separations", str(seps), "--out", str(out / "spectrum.csv")]) == 0
    return out


class TestContractFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=fuzz_argv())
    @example(argv=["gof", "--f", "1", "--pi2", str(10**400), "--s0", "5"])  # pi2/f overflowed
    # a grid of 1e11 points a decade took minutes, and one of 1e400 overflowed a float
    @example(argv=["sieve", "--checkpoints", "geometric:100000000000", "--limit", "100000"])
    @example(argv=["sieve", "--checkpoints", f"geometric:{10**400}", "--limit", "100000"])
    def test_numeric_flags(self, argv, fuzz_files, capsys):
        # any value of a numeric flag or a checkpoint spec exits 0, 2, 3 or 4 with a message,
        # never a traceback
        files = {
            "sieve": ["--out", "fuzz-counts.csv", "--separations", "fuzz-seps.bin"],
            "predict": ["--counts", "counts.csv", "--out", "lmax.csv"],
            "figures": ["--counts", "counts.csv", "--out-dir", "figs"],
            "simulate": ["--out", "synth.csv"],
            "gof": ["--spectrum", "spectrum.csv"],
        }[argv[0]]
        files = [str(fuzz_files / arg) if i % 2 else arg for i, arg in enumerate(files)]
        capsys.readouterr()
        try:
            rc = main([*argv, *files])
        except SystemExit as exc:  # argparse rejects bad option values itself
            rc = exc.code
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err, argv


# The commands that once read a TWINSEP_* default, with {dir} for the fixed inputs and {out} for
# the output directory.
ENV_COMMANDS = {
    "sieve": "sieve --limit 100000 --out {out}/counts.csv --separations {out}/seps.bin",
    "s0": "s0 --counts {dir}/counts.csv --separations {dir}/seps.bin --out {out}/s0.csv",
    "predict": "predict --counts {dir}/counts.csv --separations {dir}/seps.bin"
               " --out {out}/lmax.csv",
    "figures": "figures --counts {dir}/counts.csv --separations {dir}/seps.bin"
               " --onsets {dir}/onsets.csv --out-dir {out}",
    "simulate": "simulate --s0 8 --pi2 1000 --n 1000 --seed 1 --out {out}/synth.csv",
    "gof": "gof --spectrum {dir}/spectrum.csv --s0 8 --pi2 1000",
    "report": "report --limit 100000 --start 10000 --per-decade 5",
}
# each would change some output if it were read
ENV_SET = {"TWINSEP_F": "2", "TWINSEP_CONVENTION": "exact", "TWINSEP_CHECKPOINTS": "geometric:3",
           "TWINSEP_ALPHA": "0.5"}


class TestEnvironment:
    @pytest.mark.parametrize("command", ENV_COMMANDS)
    def test_outputs_ignore_environment(self, command, fuzz_files, tmp_path, monkeypatch,
                                        capsys):
        # a command reads its command line and the files it names: the variables that once
        # set defaults change neither the exit code, nor stdout, nor a byte of any output
        def run(side):
            # each run writes to ./out in a directory of its own, so stdout names the same paths
            (tmp_path / side / "out").mkdir(parents=True)
            monkeypatch.chdir(tmp_path / side)
            capsys.readouterr()
            rc = main(ENV_COMMANDS[command].format(dir=fuzz_files, out="out").split())
            # report prints its wall times
            stdout = re.sub(r"[\d.]+s\b|\d+ segments/s", "<time>", capsys.readouterr().out)
            return rc, stdout, {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}

        clean = run("clean")
        with monkeypatch.context() as patch:
            for name, value in ENV_SET.items():
                patch.setenv(name, value)
            assert run("env") == clean
        assert clean[0] == 0


# The commands that read files, with a {key} of FILE_INPUTS for each input and {out} for the output.
FILE_INPUTS = {"seps": "seps.bin", "spectrum": "spectrum.csv", "counts": "counts.csv",
               "onsets": "onsets.csv"}
FILE_COMMANDS = [
    "spectrum --separations {seps} --out {out}",
    "gof --spectrum {spectrum} --s0 8",
    "gof --spectrum {spectrum} --s0 8 --f 1 --pi2 1000",
    "s0 --counts {counts} --out {out}",
    "s0 --counts {counts} --convention exact --separations {seps} --out {out}",
    "predict --counts {counts} --out {out}",
    "predict --counts {counts} --convention exact --separations {seps} --out {out}",
    "figures --counts {counts} --out-dir {out}",
    "figures --counts {counts} --separations {seps} --onsets {onsets} --convention exact"
    " --out-dir {out}",
]
CSV_CELLS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["", "nan", "inf", "-0", "1e3", "0x10", " 7", "n", "#", '"', "\x00"]),
    st.text(max_size=8),
)


@st.composite
def mangled(draw, original: bytes, name: str):
    """The bytes of a valid input file, cut short, spliced, extended, or replaced outright."""
    how = draw(st.sampled_from(["truncate", "splice", "row", "garbage", "values"]))
    if how == "truncate":
        return original[: draw(st.integers(0, len(original)))]
    if how == "splice":
        at = draw(st.integers(0, len(original)))
        cut = draw(st.integers(0, 16))
        return original[:at] + draw(st.binary(max_size=16)) + original[at + cut :]
    if how == "row" and name == "counts.csv" and draw(st.booleans()):  # a later checkpoint
        n, pi1, pi2 = (int(x) for x in original.split()[-1].split(b",")[:3])
        grow = st.integers(0, 2**66)
        row = f"{n + 1 + draw(grow)},{pi1 + draw(grow)},{pi2 + draw(grow)},\r\n"
        return original + row.encode()
    if how == "row" and name.endswith(".csv"):  # one more row of strange cells
        cells = draw(st.lists(CSV_CELLS, min_size=1, max_size=5))
        return original + (",".join(cells) + "\r\n").encode("utf-8", "surrogatepass")
    if how == "values" and name.endswith(".bin"):  # a well-formed stream of any uint32 values
        top = draw(st.sampled_from([2, 1025, 5000, 2**32 - 1]))
        values = draw(st.lists(st.integers(0, top), max_size=3000))
        return np.array(values, dtype="<u4").tobytes()
    return draw(st.binary(max_size=256))


class TestFileContentFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data())
    def test_mangled_inputs(self, data, fuzz_files, tmp_path_factory, capsys):
        # any content of an input file exits 0, 2, 3 or 4 with a message, never a traceback
        template = data.draw(st.sampled_from(FILE_COMMANDS))
        work = tmp_path_factory.mktemp("mangled")
        paths = {"out": str(work / "out")}
        for key, name in FILE_INPUTS.items():
            if f"{{{key}}}" in template:
                original = (fuzz_files / name).read_bytes()
                (work / name).write_bytes(data.draw(mangled(original, name), label=name))
                paths[key] = str(work / name)
        argv = template.format(**paths).split()
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err, argv
