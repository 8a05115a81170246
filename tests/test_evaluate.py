import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import scanpp as sp
import scanpp.evaluate
from scanpp.evaluate import (
    Bootstrap,
    ComparisonReport,
    bootstrap,
    compare_suite,
    delta_loglik,
    ks_exponential,
    model_name,
    time_rescaling_gaps,
)
from scanpp.fit import DivergenceError, TrainConfig, train

from conftest import random_scanpath, small_instance


class TestDelta:
    def test_elementwise_difference(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([0.5, 2.5, 1.0])
        assert np.allclose(delta_loglik(a, b), [0.5, -0.5, 2.0])
        assert np.allclose(delta_loglik(b, a), -delta_loglik(a, b))

    def test_misaligned_rejected(self):
        with pytest.raises(sp.ValidationError):
            delta_loglik(np.zeros(3), np.zeros(4))


class TestBootstrap:
    def test_binary_sample_interval(self):
        values = np.array([0.0] * 500 + [1.0] * 500)
        boot = bootstrap(values, replicates=2000, seed=0)
        # binomial mean 0.5 with standard error 0.5/sqrt(1000)
        assert boot.mean == pytest.approx(0.5, abs=0.002)
        assert boot.low == pytest.approx(0.469, abs=0.002)
        assert boot.high == pytest.approx(0.531, abs=0.002)
        assert boot.replicates == 2000

    def test_deterministic_by_seed(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=200)
        a = bootstrap(values, replicates=500, seed=7)
        b = bootstrap(values, replicates=500, seed=7)
        assert (a.mean, a.low, a.high) == (b.mean, b.low, b.high)
        c = bootstrap(values, replicates=500, seed=8)
        assert (a.low, a.high) != (c.low, c.high)

    def test_constant_sample_degenerates(self):
        boot = bootstrap(np.full(50, 3.25), replicates=200, seed=0)
        assert boot.low == boot.mean == boot.high == 3.25

    def test_single_replicate(self):
        boot = bootstrap(np.array([1.0, 2.0, 3.0]), replicates=1, seed=4)
        assert boot.low == pytest.approx(boot.mean)
        assert boot.high == pytest.approx(boot.mean)

    def test_width_scales_with_sample_size(self):
        rng = np.random.default_rng(3)
        widths = {}
        for n in (100, 400, 1600):
            values = rng.normal(size=n)
            boot = bootstrap(values, replicates=2000, seed=1)
            widths[n] = boot.high - boot.low
        assert widths[100] / widths[400] == pytest.approx(2.0, rel=0.25)
        assert widths[400] / widths[1600] == pytest.approx(2.0, rel=0.25)

    def test_block_resampling_respects_dependence(self):
        values = np.array([0.0] * 50 + [10.0] * 50)
        blocks = np.array([0] * 50 + [1] * 50)
        plain = bootstrap(values, replicates=1000, seed=0)
        grouped = bootstrap(values, replicates=1000, seed=0, blocks=blocks)
        assert grouped.high - grouped.low > 3 * (plain.high - plain.low)
        assert grouped.low >= 0.0
        assert grouped.high <= 10.0

    def test_input_validation(self):
        with pytest.raises(sp.ValidationError):
            bootstrap(np.empty(0))
        with pytest.raises(sp.ValidationError):
            bootstrap(np.ones(5), replicates=0)
        with pytest.raises(sp.ValidationError):
            bootstrap(np.ones(5), blocks=np.zeros(4))

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    @pytest.mark.parametrize("blocks", [None, np.array([0, 0, 1, 1, 2])])
    def test_non_finite_value_is_named(self, bad, blocks):
        values = np.array([1.0, bad, 2.0, bad, 3.0])
        with pytest.raises(sp.ValidationError,
                           match=rf"non-finite values: the value at index 1 is {bad}$"):
            bootstrap(values, replicates=50, seed=0, blocks=blocks)

    def test_summary_ordering_enforced(self):
        with pytest.raises(sp.ValidationError):
            Bootstrap(mean=1.0, low=2.0, high=3.0, replicates=10, seed=0)


class TestKs:
    def test_accepts_unit_exponential(self):
        gaps = np.random.default_rng(10).exponential(1.0, size=5000)
        stat, p = ks_exponential(gaps)
        assert 0.0 <= stat <= 1.0
        assert p > 0.01

    def test_rejects_wrong_scale(self):
        gaps = np.random.default_rng(11).exponential(0.5, size=5000)
        _, p = ks_exponential(gaps)
        assert p < 1e-6

    def test_rejects_degenerate_sample(self):
        _, p = ks_exponential(np.full(500, 0.001))
        assert p < 1e-6

    def test_input_validation(self):
        with pytest.raises(sp.ValidationError):
            ks_exponential(np.empty(0))
        for gaps in ([0.5, 0.0], [1.0, -0.3], [1.0, np.nan, 0.3]):
            with pytest.raises(sp.ValidationError):
                ks_exponential(np.array(gaps))

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 4400])
    def test_equals_scipy_asymptotic_kstest(self, n):
        samples = [np.random.default_rng(n).exponential(1.3, size=n)]
        if n >= 50:
            # ties, and a sample far enough off to give a tiny p-value
            samples.append(np.round(samples[0], 1) + 0.1)
            samples.append(0.2 * samples[0])
        for gaps in samples:
            want = stats.kstest(gaps, "expon", args=(0.0, 1.0), mode="asymp")
            assert ks_exponential(gaps) == (float(want.statistic), float(want.pvalue))

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, scanpp; print('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        assert run.stdout.strip() == "False"


class TestTimeRescaling:
    def test_concatenates_per_path_increments(self):
        rng = np.random.default_rng(14)
        paths = []
        pds = []
        spec = params = omega = None
        for _ in range(3):
            path, design, spec, params, omega = small_instance(rng, n=5)
            paths.append(path)
            pds.append(sp.PathData.from_scanpath(path, design))
        pooled = time_rescaling_gaps(pds, spec, params, omega)
        manual = np.concatenate(
            [sp.compensator_increments(pd, spec, params, omega) for pd in pds])
        assert np.array_equal(pooled, manual)
        assert pooled.size == 15

    def test_empty_input(self):
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=1.0)
        out = time_rescaling_gaps([], spec, params, sp.Rect(0, 0, 1, 1))
        assert out.size == 0


class TestModelName:
    def test_nesting_chain(self):
        assert model_name(sp.SaccadeSpec(variant="poisson")) == "poisson"
        assert model_name(sp.SaccadeSpec(variant="last_fixation")) == "last_fixation"
        assert model_name(sp.SaccadeSpec(variant="hawkes")) == "hawkes"
        assert model_name(sp.SaccadeSpec(
            variant="hawkes", mean_fn="affine",
            columns=("intercept",))) == "css"
        assert model_name(sp.SaccadeSpec(
            variant="hawkes", mean_fn="full",
            columns=("intercept", "reader:r0"))) == "rse"
        assert model_name(sp.SaccadeSpec(
            variant="hawkes", mean_fn="full",
            columns=("intercept", "reader:r0", "freq"))) == "rse+predictors"


class TestComparisonReport:
    def summary(self, low, mean, high):
        return Bootstrap(mean=mean, low=low, high=high, replicates=100, seed=0)

    def test_properties(self):
        values = np.array([0.2, 0.4, 0.6])
        report = ComparisonReport(model="hawkes", baseline="poisson",
                                  values=values, summary=self.summary(0.1, 0.4, 0.7),
                                  dataset_variant="full", test_events=3)
        assert report.mean == 0.4
        assert report.ci == (0.1, 0.7)
        assert report.excludes_zero

    def test_interval_spanning_zero(self):
        report = ComparisonReport(model="hawkes", baseline="poisson",
                                  values=np.empty(0),
                                  summary=self.summary(-0.1, 0.2, 0.5),
                                  dataset_variant="full", test_events=40)
        assert not report.excludes_zero

    def test_negative_interval_excludes_zero(self):
        report = ComparisonReport(model="hawkes", baseline="poisson",
                                  values=np.empty(0),
                                  summary=self.summary(-0.5, -0.3, -0.1),
                                  dataset_variant="full", test_events=40)
        assert report.excludes_zero

    def test_size_invariant(self):
        with pytest.raises(sp.ValidationError):
            ComparisonReport(model="m", baseline="b", values=np.zeros(3),
                             summary=self.summary(-0.1, 0.0, 0.1),
                             dataset_variant="full", test_events=5)


class TestCompareSuite:
    OMEGA = sp.Rect(0.0, 0.0, 400.0, 300.0)

    def scanpaths(self, count=10, seed=20):
        rng = np.random.default_rng(seed)
        return [random_scanpath(rng, 8, self.OMEGA, reader=f"r{i % 2}",
                                text=f"t{i}") for i in range(count)]

    def config(self):
        return TrainConfig(learning_rate=0.02, batch_size=4, max_epochs=2,
                           patience=2, seed=5, split=(0.6, 0.2, 0.2))

    def test_chain_structure(self):
        paths = self.scanpaths()
        specs = [sp.SaccadeSpec(variant="last_fixation"),
                 sp.SaccadeSpec(variant="hawkes", columns=("intercept",))]
        reports, members = compare_suite(
            paths, self.OMEGA, specs, sp.SaccadeSpec(variant="poisson"),
            self.config(), replicates=50)
        assert [m.name for m in members] == ["poisson", "last_fixation", "hawkes"]
        assert [r.model for r in reports] == ["last_fixation", "hawkes"]
        assert all(r.baseline == "poisson" for r in reports)
        n_test = members[0].test_per_event.size
        assert n_test == 2 * 8
        for report in reports:
            assert report.test_events == n_test
            assert report.values.shape == (n_test,)
            assert report.summary.replicates == 50

    def test_deterministic(self):
        paths = self.scanpaths()
        specs = [sp.SaccadeSpec(variant="last_fixation")]
        args = (paths, self.OMEGA, specs, sp.SaccadeSpec(variant="poisson"),
                self.config())
        r1, m1 = compare_suite(*args, replicates=50)
        r2, m2 = compare_suite(*args, replicates=50)
        assert np.array_equal(r1[0].values, r2[0].values)
        assert r1[0].summary.low == r2[0].summary.low
        assert np.array_equal(m1[1].result.raw, m2[1].result.raw)

    def test_identical_specs_give_zero_delta(self):
        paths = self.scanpaths()
        base = sp.SaccadeSpec(variant="poisson")
        # full batches keep the closed-form init stationary for both fits
        config = TrainConfig(learning_rate=0.02, batch_size=64, max_epochs=2,
                             patience=2, seed=5, split=(0.6, 0.2, 0.2))
        reports, members = compare_suite(paths, self.OMEGA, [base], base,
                                         config, replicates=50)
        assert np.allclose(reports[0].values, 0.0, atol=1e-9)
        assert reports[0].mean == pytest.approx(0.0, abs=1e-9)

    def test_block_bootstrap_path(self):
        paths = self.scanpaths()
        specs = [sp.SaccadeSpec(variant="last_fixation")]
        reports, _ = compare_suite(paths, self.OMEGA, specs,
                                   sp.SaccadeSpec(variant="poisson"),
                                   self.config(), replicates=50,
                                   block_bootstrap=True)
        assert reports[0].summary.low <= reports[0].summary.high

    def test_effect_columns_resolved(self):
        paths = self.scanpaths(count=8)

        def effects(path):
            return {"freq": {i: float(i % 3) for i in range(len(path))}}

        specs = [sp.SaccadeSpec(variant="hawkes", mean_fn="full",
                                columns=("intercept", "freq"))]
        reports, members = compare_suite(
            paths, self.OMEGA, specs, sp.SaccadeSpec(variant="poisson"),
            self.config(), effects_by_path=effects, replicates=50)
        assert members[1].name == "rse+predictors"
        assert reports[0].values.size == members[0].test_per_event.size

    def test_baseline_failure_aborts(self):
        paths = self.scanpaths(count=4)
        config = TrainConfig(max_epochs=2, patience=2, seed=0,
                             split=(0.0, 0.5, 0.5))
        with pytest.raises(sp.ValidationError, match="baseline"):
            compare_suite(paths, self.OMEGA, [], sp.SaccadeSpec(variant="poisson"),
                          config)

    def test_failed_member_skipped_with_warning(self, monkeypatch):
        paths = self.scanpaths()

        def flaky(model, data, config, init=None, kernel_init=None):
            if model.spec.variant == "last_fixation":
                raise DivergenceError("forced failure")
            return train(model, data, config, init=init, kernel_init=kernel_init)

        monkeypatch.setattr(scanpp.evaluate, "train", flaky)
        specs = [sp.SaccadeSpec(variant="last_fixation"),
                 sp.SaccadeSpec(variant="hawkes", columns=("intercept",))]
        with pytest.warns(UserWarning, match="fit failed for last_fixation"):
            reports, members = compare_suite(
                paths, self.OMEGA, specs, sp.SaccadeSpec(variant="poisson"),
                self.config(), replicates=50)
        assert [m.name for m in members] == ["poisson", "hawkes"]
        assert [r.model for r in reports] == ["hawkes"]
