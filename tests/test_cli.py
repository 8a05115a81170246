import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import scanpp as sp
from scanpp import cli, fileio, serialize
from scanpp.cli import main
from scanpp.fit import DurationModel, SaccadeModel, TrainConfig, GridSpec, split

from conftest import make_fixations, random_scanpath

OMEGA = sp.Rect(0.0, 0.0, 640.0, 480.0)
SRC = Path(__file__).resolve().parent.parent / "src"


def write_dataset(tmp_path, count=8, seed=21, n=8):
    rng = np.random.default_rng(seed)
    paths = [random_scanpath(rng, n, OMEGA, reader=f"r{i % 2}", text=f"t{i}")
             for i in range(count)]
    out = tmp_path / "data.csv"
    fileio.write_scanpaths(str(out), paths)
    return str(out), paths


def write_config(tmp_path, grid=None, **over):
    config = TrainConfig(learning_rate=0.02, batch_size=4, max_epochs=2,
                         patience=2, seed=5, split=(0.6, 0.2, 0.2)).replace(**over)
    out = tmp_path / "config.json"
    serialize.write_text(str(out), serialize.dumps_config(config, grid))
    return str(out), config


class TestParsing:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--bogus"])
        assert err.value.code == 2

    def test_fit_without_screen(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        code = main(["fit", "--data", data, "--out", str(tmp_path / "f.txt"),
                     "--variant", "poisson"])
        assert code == 2

    def test_missing_file(self, tmp_path):
        code = main(["ingest", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code = main(["ingest", "--data", str(bad),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1


class TestThreads:
    @pytest.fixture(autouse=True)
    def restore_blas_threads(self):
        before = cli._blas_threads()
        yield
        if before:
            cli._blas_threads(max(before.values()))

    def run_ingest(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        return main(["ingest", "--data", data, "--out", str(tmp_path / "o.csv")])

    def test_non_integer_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCANPP_THREADS", "abc")
        assert self.run_ingest(tmp_path) == 2

    def test_nonpositive_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCANPP_THREADS", "0")
        assert self.run_ingest(tmp_path) == 2

    def test_valid_count_exported(self, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SCANPP_THREADS", "3")
        assert self.run_ingest(tmp_path) == 0
        assert os.environ["OMP_NUM_THREADS"] == "3"

    def test_limit_reaches_the_loaded_blas(self, tmp_path):
        """The count is set in the OpenBLAS numpy loaded, and the log reads it back."""
        data, _ = write_dataset(tmp_path)
        script = (
            "import ctypes, sys\n"
            "from scanpp.cli import main\n"
            f"code = main(['ingest', '--data', {data!r}, '--out', {str(tmp_path / 'o.csv')!r}])\n"
            "maps = open('/proc/self/maps').read().splitlines()\n"
            "libs = [line.split()[-1] for line in maps if 'libscipy_openblas64_' in line]\n"
            "get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_ if libs else None\n"
            "print(code, get() if get else 'none')\n")
        env = dict(os.environ, SCANPP_THREADS="1", OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        if run.stdout.split()[1:] == ["none"]:
            pytest.skip("numpy is not linked against scipy-openblas64")
        assert run.stdout.split() == ["0", "1"], run.stderr
        assert "INFO thread count 1 in libscipy_openblas64_" in run.stderr


class TestIngest:
    def test_canonicalizes_units(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("# unit=ms\n"
                       "reader_id,text_id,onset,duration,x,y\n"
                       "r0,t0,100,150,12.5,20\n"
                       "r0,t0,400,120,30,40\n")
        out = tmp_path / "canon.csv"
        assert main(["ingest", "--data", str(raw), "--out", str(out)]) == 0
        paths = fileio.load_scanpaths(str(out))
        assert len(paths) == 1
        assert paths[0].fixations[0].onset == pytest.approx(0.1)
        assert paths[0].fixations[0].duration == pytest.approx(0.15)

    def test_canonical_form_is_fixed_point(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["ingest", "--data", data, "--out", str(out1)]) == 0
        assert main(["ingest", "--data", str(out1), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_words_only_drops_offword_fixations(self, tmp_path, word_layout):
        fixes = make_fixations(
            [(0.1, 0.1), (0.5, 0.1), (0.9, 0.1)],
            [(55.0, 105.0), (500.0, 400.0), (165.0, 105.0)])
        path = sp.Scanpath("r1", "t1", fixes)
        data = tmp_path / "d.csv"
        layout = tmp_path / "l.csv"
        fileio.write_scanpaths(str(data), [path])
        fileio.write_layouts(str(layout), [word_layout])
        out = tmp_path / "o.csv"
        assert main(["ingest", "--data", str(data), "--layout", str(layout),
                     "--words-only", "--out", str(out)]) == 0
        kept = fileio.load_scanpaths(str(out))
        assert len(kept[0]) == 2
        assert [f.x for f in kept[0]] == [55.0, 165.0]

    def test_missing_layout_entry(self, tmp_path, word_layout):
        data, _ = write_dataset(tmp_path, count=1)
        layout = tmp_path / "l.csv"
        fileio.write_layouts(str(layout), [word_layout])
        code = main(["ingest", "--data", data, "--layout", str(layout),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1


class TestAggregate:
    def test_first_fixation_values(self, tmp_path, word_layout):
        fixes = make_fixations(
            [(0.1, 0.1), (0.3, 0.15), (0.6, 0.08)],
            [(55.0, 105.0), (165.0, 105.0), (60.0, 110.0)])
        path = sp.Scanpath("r1", "t1", fixes)
        data = tmp_path / "d.csv"
        layout = tmp_path / "l.csv"
        fileio.write_scanpaths(str(data), [path])
        fileio.write_layouts(str(layout), [word_layout])
        out = tmp_path / "agg.csv"
        assert main(["aggregate", "--data", str(data), "--layout", str(layout),
                     "--measure", "first_fixation", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "reader_id,text_id,word_index,measure,value"
        assert "r1,t1,0,first_fixation,0.1" in lines
        assert "r1,t1,1,first_fixation,0.15" in lines

    def test_pooling_runs(self, tmp_path, word_layout):
        fixes = make_fixations([(0.1, 0.1)], [(55.0, 105.0)])
        data = tmp_path / "d.csv"
        layout = tmp_path / "l.csv"
        fileio.write_scanpaths(str(data), [
            sp.Scanpath("r1", "t1", fixes), sp.Scanpath("r2", "t1", fixes)])
        fileio.write_layouts(str(layout), [word_layout])
        out = tmp_path / "agg.csv"
        assert main(["aggregate", "--data", str(data), "--layout", str(layout),
                     "--measure", "total", "--pool", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()[1:] if l]
        assert rows
        assert all(r.split(",")[0] == "pooled" for r in rows)


class TestFit:
    def test_poisson_fit_document(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "p.fit"
        assert main(["fit", "--data", data, "--out", str(out),
                     "--variant", "poisson", "--screen", "640x480",
                     "--config", cfg]) == 0
        loaded = serialize.loads_fit(serialize.read_text(str(out)))
        assert loaded.model.kind == "saccade"
        assert loaded.model.spec.variant == "poisson"
        assert loaded.result.seed == 5
        assert loaded.result.best_epoch >= 1
        assert np.isfinite(loaded.result.test_loglik)

    def test_non_finite_screen_fails_at_the_boundary(self, tmp_path, capsys):
        data, _ = write_dataset(tmp_path)
        out = tmp_path / "p.fit"
        capsys.readouterr()
        assert main(["fit", "--data", data, "--out", str(out), "--variant", "poisson",
                     "--screen", "nanx768"]) == 1
        assert "ERROR rectangle width must be finite and > 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("train,message", [
        ({"batch_size": 2.5}, "batch size must be an integer >= 1, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"split": "abc"},
         "split must be three fractions >= 0 that sum to 1, got ('a', 'b', 'c')"),
        ({"learning_rate": True}, "learning rate must be a real number, got True"),
    ], ids=["batch_size", "seed", "split", "learning_rate"])
    def test_malformed_config_value_fails_at_the_boundary(self, tmp_path, capsys, train,
                                                          message):
        data, _ = write_dataset(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"train": train}))
        out = tmp_path / "p.fit"
        capsys.readouterr()
        assert main(["fit", "--data", data, "--out", str(out), "--variant", "poisson",
                     "--screen", "640x480", "--config", str(cfg)]) == 1
        assert f"ERROR {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_refit_is_byte_identical(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        cfg, _ = write_config(tmp_path)
        out1 = tmp_path / "a.fit"
        out2 = tmp_path / "b.fit"
        args = ["fit", "--data", data, "--variant", "hawkes",
                "--screen", "640x480", "--config", cfg]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cli_overrides_config_file(self, tmp_path, capsys):
        data, _ = write_dataset(tmp_path)
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "p.fit"
        assert main(["fit", "--data", data, "--out", str(out),
                     "--variant", "poisson", "--screen", "640x480",
                     "--config", cfg, "--seed", "9"]) == 0
        loaded = serialize.loads_fit(serialize.read_text(str(out)))
        assert loaded.result.seed == 9
        err = capsys.readouterr().err
        assert "resolved config" in err
        assert "seed=9[cli]" in err
        assert "learning_rate=0.02[file]" in err
        assert "momentum=0.9[file]" in err

    def test_reader_columns_from_data(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "h.fit"
        assert main(["fit", "--data", data, "--out", str(out),
                     "--variant", "hawkes", "--mean-fn", "full",
                     "--screen", "640x480", "--config", cfg]) == 0
        loaded = serialize.loads_fit(serialize.read_text(str(out)))
        assert loaded.model.spec.columns == ("intercept", "reader:r0", "reader:r1")

    def test_duration_fit(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "d.fit"
        assert main(["fit", "--data", data, "--out", str(out),
                     "--kind", "duration", "--duration-variant", "plain",
                     "--no-readers", "--config", cfg]) == 0
        loaded = serialize.loads_fit(serialize.read_text(str(out)))
        assert loaded.model.kind == "duration"
        assert loaded.model.spec.columns == ("intercept",)

    def test_convolution_duration_fit_without_spillover(self, tmp_path):
        data, _ = write_dataset(tmp_path, count=6)
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "c.fit"
        assert main(["fit", "--data", data, "--out", str(out),
                     "--kind", "duration", "--duration-variant", "convolution",
                     "--config", cfg]) == 0
        loaded = serialize.loads_fit(serialize.read_text(str(out)))
        assert loaded.model.spec.mean_variant == "convolution"
        assert loaded.model.spec.spillover == ()
        assert loaded.result.train_trace and np.all(np.isfinite(loaded.result.train_trace))
        assert math.isfinite(loaded.result.test_loglik)

    def test_grid_search_uses_config_grid(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        grid = GridSpec(batch_sizes=(4,), learning_rates=(0.1, 0.01),
                        weight_decays=(0.0,), kernel_inits=((2.0, 3.0, 0.5),))
        cfg, _ = write_config(tmp_path, grid=grid)
        out = tmp_path / "g.fit"
        assert main(["fit", "--data", data, "--out", str(out),
                     "--variant", "poisson", "--screen", "640x480",
                     "--config", cfg, "--grid"]) == 0
        loaded = serialize.loads_fit(serialize.read_text(str(out)))
        assert loaded.result.selected is not None
        assert loaded.result.selected["batch_size"] == 4
        assert loaded.result.selected["learning_rate"] in (0.1, 0.01)
        assert len(loaded.result.grid_trace) == 2

    def test_use_effects_requires_table(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        cfg, _ = write_config(tmp_path)
        code = main(["fit", "--data", data, "--out", str(tmp_path / "x.fit"),
                     "--variant", "hawkes", "--mean-fn", "full",
                     "--use-effects", "freq", "--screen", "640x480",
                     "--config", cfg])
        assert code == 2


class TestEval:
    def fit_pair(self, tmp_path):
        data, paths = write_dataset(tmp_path)
        cfg, config = write_config(tmp_path)
        base = tmp_path / "base.fit"
        other = tmp_path / "hawkes.fit"
        assert main(["fit", "--data", data, "--out", str(base),
                     "--variant", "poisson", "--screen", "640x480",
                     "--config", cfg]) == 0
        assert main(["fit", "--data", data, "--out", str(other),
                     "--variant", "hawkes", "--screen", "640x480",
                     "--config", cfg]) == 0
        return data, paths, cfg, config, str(base), str(other)

    def test_report_and_csv(self, tmp_path):
        data, paths, cfg, config, base, other = self.fit_pair(tmp_path)
        report_path = tmp_path / "cmp.txt"
        csv_path = tmp_path / "cmp.csv"
        assert main(["eval", "--data", data, "--baseline", base,
                     "--fit", other, "--config", cfg, "--replicates", "200",
                     "--out-report", str(report_path),
                     "--out-csv", str(csv_path)]) == 0
        report = serialize.loads_report(report_path.read_text())
        assert report.model == "hawkes"
        assert report.baseline == "poisson"
        idx = split(list(range(len(paths))), config.split, config.seed)
        expected_events = sum(len(paths[i]) for i in idx.test)
        assert report.test_events == expected_events
        # report documents persist the summary, not the per-event deltas
        assert report.values.size == 0
        assert report.summary.replicates == 200
        assert report.summary.low <= report.summary.mean <= report.summary.high
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "model,baseline,dataset_variant,index,delta"
        assert len(lines) == 1 + expected_events
        deltas = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(np.isfinite(d) for d in deltas)

    def test_rerun_is_byte_identical(self, tmp_path):
        data, _, cfg, _, base, other = self.fit_pair(tmp_path)
        outs = []
        for tag in ("x", "y"):
            report_path = tmp_path / f"{tag}.txt"
            csv_path = tmp_path / f"{tag}.csv"
            assert main(["eval", "--data", data, "--baseline", base,
                         "--fit", other, "--config", cfg,
                         "--replicates", "100", "--block-bootstrap",
                         "--out-report", str(report_path),
                         "--out-csv", str(csv_path)]) == 0
            outs.append((report_path.read_bytes(), csv_path.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag,value,rule", [
        ("--bootstrap-seed", "-1", "bootstrap seed must be an integer >= 0, got -1"),
        ("--replicates", "0", "replicates must be an integer >= 1, got 0"),
    ], ids=["bootstrap-seed", "replicates"])
    def test_bad_bootstrap_setting_is_one_error_line(self, tmp_path, capsys, flag, value, rule):
        data, _, cfg, _, base, other = self.fit_pair(tmp_path)
        capsys.readouterr()
        code = main(["eval", "--data", data, "--baseline", base, "--fit", other,
                     "--config", cfg, flag, value, "--out-report", str(tmp_path / "r.txt"),
                     "--out-csv", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if not line.startswith("INFO ")] == [
            f"ERROR {rule}"]
        assert not (tmp_path / "r.txt").exists()

    def test_kind_mismatch(self, tmp_path):
        data, _, cfg, _, base, _ = self.fit_pair(tmp_path)
        dur = tmp_path / "dur.fit"
        assert main(["fit", "--data", data, "--out", str(dur),
                     "--kind", "duration", "--no-readers", "--config", cfg]) == 0
        code = main(["eval", "--data", data, "--baseline", base,
                     "--fit", str(dur), "--config", cfg,
                     "--out-report", str(tmp_path / "r.txt"),
                     "--out-csv", str(tmp_path / "r.csv")])
        assert code == 1

    @pytest.mark.parametrize("bad,message", [
        ("test_loglik abc", "bad float 'abc'"),
        ("train_trace 1.5 abc", "bad float 'abc'"),
        ("selected learning_rate", "bad float ''"),
        ("grid x 0.01 0.0 - 1.5", "bad integer 'x'"),
        ("grid 4 0.01 0.0 - abc", "bad float 'abc'"),
    ])
    def test_malformed_baseline_field_is_parse_error(self, tmp_path, capsys, bad, message):
        data, _ = write_dataset(tmp_path)
        cfg, _ = write_config(tmp_path)
        good = tmp_path / "good.fit"
        assert main(["fit", "--data", data, "--out", str(good), "--variant", "poisson",
                     "--screen", "640x480", "--config", cfg]) == 0
        lines = good.read_text().split("\n")
        at = lines.index("scanpp-params 1")
        lines.insert(at, bad)
        baseline = tmp_path / "bad.fit"
        baseline.write_text("\n".join(lines))
        code = main(["eval", "--data", data, "--baseline", str(baseline), "--fit", str(good),
                     "--config", cfg, "--out-report", str(tmp_path / "r.txt"),
                     "--out-csv", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err.endswith(f"\nERROR line {at + 1}: {message}\n")

    REPORT = ("scanpp-report 1\nmodel hawkes\nbaseline poisson\ndataset_variant all\n"
              "replicates 200\nseed 0\ntest_events 12\nmean 0.5\nci_low 0.1\nci_high 0.9\n")

    def test_report_document_loads(self):
        report = serialize.loads_report(self.REPORT)
        assert (report.model, report.baseline, report.test_events) == ("hawkes", "poisson", 12)
        assert (report.summary.mean, report.summary.replicates) == (0.5, 200)
        assert serialize.dumps_report(report) == self.REPORT

    @pytest.mark.parametrize("good,bad,message", [
        ("mean 0.5", "mean abc", "line 8: bad float 'abc'"),
        ("ci_high 0.9", "ci_high", "line 10: bad float ''"),
        ("replicates 200", "replicates 2.5", "line 5: bad integer '2.5'"),
        ("test_events 12", "test_events x", "line 7: bad integer 'x'"),
        ("seed 0", "sede 0", "line 6: unknown key 'sede'"),
    ])
    def test_malformed_report_is_parse_error(self, good, bad, message):
        with pytest.raises(sp.ParseError, match=f"^{message}$"):
            serialize.loads_report(self.REPORT.replace(good, bad))


class TestSimulate:
    def poisson_params(self, tmp_path, nu=2e-5):
        spec = sp.SaccadeSpec(variant="poisson")
        model = SaccadeModel(spec, OMEGA)
        params = sp.SaccadeParams.initial(spec, nu=nu)
        path = tmp_path / "params.txt"
        serialize.write_text(str(path), serialize.dumps_params(model, model.pack(params)))
        return str(path)

    def test_sampling_from_fit_document(self, tmp_path):
        data, _ = write_dataset(tmp_path)
        cfg, _ = write_config(tmp_path)
        fit_path = tmp_path / "p.fit"
        assert main(["fit", "--data", data, "--out", str(fit_path),
                     "--variant", "poisson", "--screen", "640x480",
                     "--config", cfg]) == 0
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--params", str(fit_path), "--horizon", "5",
                     "--count", "3", "--seed", "11", "--out", str(out)]) == 0
        paths = fileio.load_scanpaths(str(out))
        assert [p.text_id for p in paths] == ["sim0", "sim1", "sim2"]
        assert all(p.reader_id == "sim" for p in paths)
        for p in paths:
            for fix in p:
                assert fix.onset <= 5.0
                assert fix.duration > 0.0
                assert OMEGA.contains(fix.x, fix.y)

    def test_logs_thinning_counts(self, tmp_path, capsys):
        params = self.poisson_params(tmp_path)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--params", params, "--horizon", "4",
                     "--count", "2", "--seed", "7", "--out", str(out)]) == 0
        events = sum(len(p) for p in fileio.load_scanpaths(str(out)))
        err = capsys.readouterr().err
        # the Poisson bound is the intensity, so every candidate is accepted
        assert (f"INFO thinning accepted {events} of {events} candidates (rate 1.0000); "
                "0 location draws fell back to the truncated normal") in err

    def test_seed_controls_output_bytes(self, tmp_path):
        params = self.poisson_params(tmp_path)
        outs = {}
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            out = tmp_path / f"{tag}.csv"
            assert main(["simulate", "--params", params, "--horizon", "4",
                         "--count", "2", "--seed", str(seed),
                         "--out", str(out)]) == 0
            outs[tag] = out.read_bytes()
        assert outs["a"] == outs["b"]
        assert outs["a"] != outs["c"]

    def test_combined_parameter_document(self, tmp_path):
        spec = sp.SaccadeSpec(variant="poisson")
        model = SaccadeModel(spec, OMEGA)
        raw = model.pack(sp.SaccadeParams.initial(spec, nu=3e-5))
        dur_spec = sp.DurationSpec(columns=("intercept",))
        dur_model = DurationModel(dur_spec)
        dur_params = sp.DurationParams.initial(dur_spec, sigma2=0.01).replace(
            w=np.array([np.log(0.5)]))
        path = tmp_path / "both.txt"
        serialize.write_text(str(path),
                             serialize.dumps_params(model, raw)
                             + serialize.dumps_params(dur_model, dur_model.pack(dur_params)))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--params", str(path), "--horizon", "60",
                     "--count", "1", "--seed", "3", "--out", str(out)]) == 0
        sims = fileio.load_scanpaths(str(out))
        durs = np.array([f.duration for f in sims[0]])
        assert durs.size > 10
        # log-normal around 500 ms with tiny spread
        assert 0.3 < np.median(durs) < 0.85

    @pytest.mark.parametrize("spec", [
        sp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=("intercept", "reader:r0")),
        sp.SaccadeSpec(variant="poisson"),
    ])
    def test_x_row_length_checked(self, tmp_path, spec):
        model = SaccadeModel(spec, OMEGA)
        params = sp.SaccadeParams.initial(spec, nu=2e-5, sigma2=400.0)
        path = tmp_path / "params.txt"
        serialize.write_text(str(path), serialize.dumps_params(model, model.pack(params)))
        code = main(["simulate", "--params", str(path), "--horizon", "2",
                     "--x-row", "1", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--x-row", "--x-dur-row"])
    def test_x_row_must_be_numeric(self, tmp_path, capsys, flag):
        path = self.poisson_params(tmp_path)
        capsys.readouterr()
        code = main(["simulate", "--params", path, "--horizon", "2",
                     flag, "abc", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"ERROR {flag} must be comma-separated numbers, got 'abc'" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        path = self.poisson_params(tmp_path)
        capsys.readouterr()
        out = tmp_path / "s.csv"
        code = main(["simulate", "--params", path, "--horizon", "2", "--count", count,
                     "--out", str(out)])
        assert code == 2
        assert f"ERROR --count must be >= 1, got {count}" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_horizon_fails_before_sampling(self, tmp_path, capsys):
        path = self.poisson_params(tmp_path)
        capsys.readouterr()
        out = tmp_path / "s.csv"
        t0 = time.perf_counter()
        # the event cap bounds the run where a NaN horizon gets through
        code = main(["simulate", "--params", path, "--horizon", "nan", "--max-events", "200",
                     "--out", str(out)])
        assert code == 1 and time.perf_counter() - t0 < 5.0
        assert "ERROR horizon must be > 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_file_without_parameters(self, tmp_path):
        bogus = tmp_path / "empty.txt"
        bogus.write_text("nothing here\n")
        code = main(["simulate", "--params", str(bogus), "--horizon", "2",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1


class TestPlot:
    def setup_files(self, tmp_path):
        spec = sp.SaccadeSpec(variant="hawkes")
        model = SaccadeModel(spec, OMEGA)
        params = sp.SaccadeParams.initial(spec, nu=1e-5, sigma2=400.0)
        raw = model.pack(params)
        params_path = tmp_path / "params.txt"
        serialize.write_text(str(params_path), serialize.dumps_params(model, raw))
        fixes = make_fixations(
            [(0.2, 0.1), (0.5, 0.1), (1.0, 0.1)],
            [(100.0, 100.0), (300.0, 200.0), (500.0, 300.0)])
        path = sp.Scanpath("r0", "t0", fixes)
        history_path = tmp_path / "history.csv"
        fileio.write_scanpaths(str(history_path), [path])
        return str(params_path), str(history_path), spec, model.unpack(raw), path

    def test_csv_holds_exact_intensities(self, tmp_path):
        params_path, history_path, spec, params, path = self.setup_files(tmp_path)
        prefix = tmp_path / "page"
        assert main(["plot", "--params", params_path, "--history", history_path,
                     "--times", "0.9", "--grid", "4",
                     "--out-prefix", str(prefix)]) == 0
        svg = (tmp_path / "page_t0.svg").read_text()
        assert svg.startswith("<svg")
        lines = (tmp_path / "page_t0.csv").read_text().splitlines()
        assert lines[0] == "x,y,intensity"
        assert len(lines) == 17
        state = sp.HistoryState.build(sp.Scanpath("r0", "t0", path.fixations[:2]), None, spec,
                                      params)
        for line in lines[1:3]:
            x, y, value = (float(tok) for tok in line.split(","))
            expected = state.intensity_at(0.9, [(x, y)])[0]
            assert value == pytest.approx(expected, rel=1e-12)

    def test_time_inside_fixation(self, tmp_path):
        params_path, history_path, *_ = self.setup_files(tmp_path)
        code = main(["plot", "--params", params_path, "--history", history_path,
                     "--times", "1.05", "--grid", "3",
                     "--out-prefix", str(tmp_path / "p")])
        assert code == 1

    def test_bad_times_flag(self, tmp_path):
        params_path, history_path, *_ = self.setup_files(tmp_path)
        code = main(["plot", "--params", params_path, "--history", history_path,
                     "--times", "abc", "--grid", "3",
                     "--out-prefix", str(tmp_path / "p")])
        assert code == 2

    def test_reader_filter_without_match(self, tmp_path):
        params_path, history_path, *_ = self.setup_files(tmp_path)
        code = main(["plot", "--params", params_path, "--history", history_path,
                     "--times", "0.9", "--reader", "rX",
                     "--out-prefix", str(tmp_path / "p")])
        assert code == 1
