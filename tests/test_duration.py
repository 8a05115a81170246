import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

import dense_duration as dense
import scanpp as sp
from scanpp.duration import (
    DurationParams,
    DurationSpec,
    _means,
    duration_loglik_grad,
    event_mean,
    fit_linear_log,
    gamma_kernel,
    gamma_logpdf,
    lognormal_logpdf,
)

from conftest import assert_shrunk, make_fixations, shrink_blocks


def path_data(onsets, durations, design):
    """The events as a one-scanpath batch; the duration models read no locations."""
    return sp.PathData(onsets, durations, np.zeros((len(onsets), 2)), design)


def two_event_path():
    fixes = make_fixations([(0.1, 0.1), (1.1, 0.2)], [(1, 1), (2, 2)])
    return sp.Scanpath("r", "t", fixes)


class TestKernel:
    def test_hand_value(self):
        assert gamma_kernel(1.0, 2.0, 3.0, 0.0) == pytest.approx(
            9.0 * math.exp(-3.0), rel=1e-12)

    def test_shift_moves_argument(self):
        direct = gamma_kernel(0.5, 2.5, 1.5, 0.0)
        # with shift theta the kernel at tau equals the unshifted one at tau+theta
        assert gamma_kernel(0.2, 2.5, 1.5, 0.3) == pytest.approx(direct, rel=1e-12)

    def test_mass_matches_quadrature(self):
        # the shift cuts the gamma density's mass below beta·theta off
        for alpha, beta, theta in [(2.0, 3.0, 0.5), (1.5, 0.8, 0.0), (4.0, 2.0, 1.2)]:
            mass, _ = integrate.quad(gamma_kernel, 0.0, np.inf,
                                     args=(alpha, beta, theta), epsabs=1e-12)
            assert mass == pytest.approx(special.gammaincc(alpha, beta * theta), rel=1e-9)

    def test_mass_is_one_without_shift(self):
        mass, _ = integrate.quad(gamma_kernel, 0.0, np.inf, args=(2.0, 3.0, 0.0),
                                 epsabs=1e-12)
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_domain_checks(self):
        with pytest.raises(sp.ValidationError):
            gamma_kernel(1.0, 1.0, 3.0, 0.0)
        with pytest.raises(sp.ValidationError):
            gamma_kernel(1.0, 2.0, 0.0, 0.0)
        with pytest.raises(sp.ValidationError):
            gamma_kernel(1.0, 2.0, 3.0, -0.1)
        with pytest.raises(sp.UsageError):
            gamma_kernel(-0.5, 2.0, 3.0, 0.0)


class TestDensities:
    def test_lognormal_hand_value(self):
        assert lognormal_logpdf(1.0, 0.0, 1.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), rel=1e-12)

    def test_lognormal_matches_scipy(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0.05, 2.0, size=20)
        xi, s2 = 0.4, 0.3
        ref = stats.lognorm.logpdf(d, s=math.sqrt(s2), scale=math.exp(xi))
        assert np.allclose(lognormal_logpdf(d, xi, s2), ref, rtol=1e-10)

    def test_gamma_matches_scipy(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.05, 2.0, size=20)
        xi, shape = -0.7, 2.5
        # mean exp(xi) with the given shape means scale = exp(xi) / shape
        ref = stats.gamma.logpdf(d, a=shape, scale=math.exp(xi) / shape)
        assert np.allclose(gamma_logpdf(d, xi, shape), ref, rtol=1e-10)

    def test_gamma_mean_is_exp_xi(self):
        xi, shape = 0.3, 4.0
        mean, _ = integrate.quad(
            lambda d: d * math.exp(gamma_logpdf(d, xi, shape)), 0.0, np.inf)
        assert mean == pytest.approx(math.exp(xi), rel=1e-8)

    def test_rejects_nonpositive_durations(self):
        with pytest.raises(sp.ValidationError):
            lognormal_logpdf(0.0, 0.0, 1.0)
        with pytest.raises(sp.ValidationError):
            gamma_logpdf(-1.0, 0.0, 1.0)


class TestSpecValidation:
    def test_spillover_must_be_declared(self):
        with pytest.raises(sp.ValidationError):
            DurationSpec(mean_variant="convolution", spillover=("e",), columns=("f",))

    def test_plain_rejects_spillover(self):
        with pytest.raises(sp.ValidationError):
            DurationSpec(mean_variant="plain", spillover=("e",), columns=("e",))

    def test_markov_needs_lags(self):
        with pytest.raises(sp.ValidationError):
            DurationSpec(mean_variant="markov", spillover=("e",), columns=("e",), lags=0)

    @pytest.mark.parametrize("variant,spillover", [("plain", ()), ("convolution", ()),
                                                   ("convolution", ("e",))])
    def test_only_markov_takes_lags(self, variant, spillover):
        with pytest.raises(sp.ValidationError, match="the .* mean has no lags"):
            DurationSpec(mean_variant=variant, spillover=spillover, columns=("e",), lags=3)

    def test_param_shape_mismatch(self):
        spec = DurationSpec(mean_variant="markov", spillover=("e",),
                            columns=("e",), lags=2)
        params = DurationParams.initial(spec).replace(w_prime=np.zeros((1, 1)))
        pd = sp.PathData.from_scanpath(two_event_path(), np.ones((2, 1)))
        with pytest.raises(sp.ValidationError):
            duration_loglik_grad(pd, spec, params)


class TestMeans:
    def test_conv_hand_value(self):
        spec = DurationSpec(mean_variant="convolution", spillover=("e",),
                            columns=("e",))
        params = DurationParams.initial(spec, kernel=(2.0, 3.0, 0.0)).replace(
            w=np.array([0.5]), w_prime=np.array([0.3]))
        path = two_event_path()
        design = np.array([[2.0], [1.0]])
        xi = _means(path.onsets, design, (0,), spec, params)[1]
        k = 9.0 * math.exp(-3.0)
        assert xi[0] == pytest.approx(1.0, rel=1e-12)
        assert xi[1] == pytest.approx(0.5 + 0.3 * 2.0 * k, rel=1e-12)
        assert event_mean(1, path.onsets, design, spec, params) == pytest.approx(
            xi[1], rel=1e-12)

    def test_markov_hand_value(self):
        spec = DurationSpec(mean_variant="markov", spillover=("e",),
                            columns=("e",), lags=2)
        params = DurationParams.initial(spec).replace(
            w=np.array([0.0]), w_prime=np.array([[0.5], [0.5]]))
        design = np.array([[1.0], [0.5], [0.0]])
        xi = _means(np.array([0.1, 0.5, 1.0]), design, (0,), spec, params)[1]
        assert xi[0] == pytest.approx(0.0, abs=1e-15)
        assert xi[1] == pytest.approx(0.5, rel=1e-12)
        assert xi[2] == pytest.approx(0.75, rel=1e-12)
        assert event_mean(2, np.array([0.1, 0.5, 1.0]), design, spec, params) == pytest.approx(
            0.75, rel=1e-12)

    def test_markov_masks_before_start(self):
        spec = DurationSpec(mean_variant="markov", spillover=("e",),
                            columns=("c", "e"), lags=3)
        params = DurationParams.initial(spec).replace(
            w=np.array([1.0, 0.0]), w_prime=np.full((3, 1), 9.0))
        design = np.array([[2.0, 5.0], [2.0, 5.0]])
        xi = _means(np.array([0.1, 0.5]), design, (0,), spec, params)[1]
        # lags reaching before the first event contribute nothing
        assert xi[0] == pytest.approx(2.0, rel=1e-12)
        assert xi[1] == pytest.approx(2.0 + 9.0 * 5.0, rel=1e-12)

    def test_conv_zero_weight_equals_plain(self):
        spec = DurationSpec(mean_variant="convolution", spillover=("e",),
                            columns=("c", "e"))
        plain = DurationSpec(mean_variant="plain", columns=("c", "e"))
        params = DurationParams.initial(spec).replace(w=np.array([0.2, -0.4]))
        plain_params = DurationParams.initial(plain).replace(w=params.w)
        pd = sp.PathData.from_scanpath(two_event_path(), np.array([[1.0, 0.5], [1.0, 2.0]]))
        ll_conv = duration_loglik_grad(pd, spec, params)[0]
        ll_plain = duration_loglik_grad(pd, plain, plain_params)[0]
        assert np.array_equal(ll_conv, ll_plain)

    def test_loglik_total_and_distribution_switch(self):
        path = two_event_path()
        spec_ln = DurationSpec(columns=("c",))
        spec_ga = DurationSpec(columns=("c",), distribution="gamma")
        params = DurationParams.initial(spec_ln, sigma2=0.4).replace(
            w=np.array([-1.0]), shape=3.0)
        pd = sp.PathData.from_scanpath(path, np.ones((2, 1)))
        ll_ln = duration_loglik_grad(pd, spec_ln, params)[0]
        ll_ga = duration_loglik_grad(pd, spec_ga, params)[0]
        want_ln = lognormal_logpdf(path.durations, -1.0, 0.4)
        want_ga = gamma_logpdf(path.durations, -1.0, 3.0)
        assert np.allclose(ll_ln, want_ln, rtol=1e-12)
        assert np.allclose(ll_ga, want_ga, rtol=1e-12)
        assert float(np.sum(ll_ln)) == pytest.approx(np.sum(want_ln), rel=1e-12)


class TestDesignRows:
    def case(self):
        spec = DurationSpec(columns=("intercept",))
        params = DurationParams.initial(spec, sigma2=0.4).replace(w=np.array([-1.5]))
        return two_event_path(), spec, params

    def test_columns_require_design_rows(self):
        path, spec, params = self.case()
        assert np.isfinite(_means(path.onsets, np.ones((2, 1)), (0,), spec, params)[1]).all()
        with pytest.raises(sp.UsageError, match="design rows"):
            _means(path.onsets, None, (0,), spec, params)
        # a PathData always holds rows, by default none, so those are of the wrong shape
        with pytest.raises(sp.ValidationError, match="design rows"):
            duration_loglik_grad(sp.PathData.from_scanpath(path), spec, params)

    @pytest.mark.parametrize("design", [np.ones((2, 2)), np.ones((3, 1)), np.ones(2)])
    def test_design_shape_checked(self, design):
        path, spec, params = self.case()
        with pytest.raises(sp.ValidationError, match="design rows"):
            _means(path.onsets, design, (0,), spec, params)
        if design.shape == (2, 2):
            with pytest.raises(sp.ValidationError, match="design rows"):
                duration_loglik_grad(sp.PathData.from_scanpath(path, design), spec, params)


def mean_setup(variant, distribution, rng, n=40):
    """Random onsets and a three-column design; spillover from both effects."""
    spill = () if variant == "plain" else ("e", "f")
    spec = DurationSpec(mean_variant=variant, spillover=spill,
                        lags=3 if variant == "markov" else 0,
                        distribution=distribution, columns=("c", "e", "f"))
    params = DurationParams.initial(spec, kernel=(2.2, 3.0, 0.05)).replace(
        w=np.array([0.3, -0.2, 0.45]), shape=2.5)
    if variant != "plain":
        params = params.replace(
            w_prime=rng.uniform(-0.8, 0.8, size=np.shape(params.w_prime)))
    onsets = np.cumsum(rng.uniform(0.1, 0.5, size=n))
    design = rng.normal(size=(n, 3))
    design[:, 0] = 1.0
    return spec, params, onsets, design


class TestEventMean:
    @pytest.mark.parametrize("distribution", ["lognormal", "gamma"])
    @pytest.mark.parametrize("variant", ["plain", "markov"])
    def test_bitwise_prefix_means(self, variant, distribution):
        spec, params, onsets, design = mean_setup(variant, distribution,
                                                  np.random.default_rng(21))
        for n in range(len(onsets)):
            want = _means(onsets[:n + 1], design[:n + 1], (0,), spec, params)[1][n]
            # rows past n must not matter
            assert event_mean(n, onsets, design, spec, params) == want, n

    @pytest.mark.parametrize("distribution", ["lognormal", "gamma"])
    def test_convolution_prefix_means(self, distribution):
        spec, params, onsets, design = mean_setup("convolution", distribution,
                                                  np.random.default_rng(22))
        got = [event_mean(n, onsets, design, spec, params) for n in range(len(onsets))]
        want = [_means(onsets[:n + 1], design[:n + 1], (0,), spec, params)[1][n]
                for n in range(len(onsets))]
        # row n's spillover sums its pairs in the same order in both
        assert got == want

    @pytest.mark.parametrize("distribution", ["lognormal", "gamma"])
    def test_convolution_bitwise_without_spillover_values(self, distribution):
        """The sampler's default duration row: intercept only, spillover columns zero."""
        spec, params, onsets, _ = mean_setup("convolution", distribution,
                                             np.random.default_rng(23))
        design = np.tile([1.0, 0.0, 0.0], (len(onsets), 1))
        for n in range(len(onsets)):
            want = _means(onsets[:n + 1], design[:n + 1], (0,), spec, params)[1][n]
            assert event_mean(n, onsets, design, spec, params) == want, n

    def test_first_event_has_no_spillover(self):
        spec, params, onsets, design = mean_setup("convolution", "lognormal",
                                                  np.random.default_rng(24), n=3)
        assert event_mean(0, onsets, design, spec, params) == pytest.approx(
            float(design[0] @ params.w), rel=1e-15)

    @pytest.mark.parametrize("variant", ["plain", "markov", "convolution"])
    @pytest.mark.parametrize("n", [-1, 3, 4, 1.5, True, 2.0])
    def test_index_outside_the_events_rejected(self, variant, n):
        spec, params, onsets, design = mean_setup(variant, "lognormal",
                                                  np.random.default_rng(25), n=3)
        rule = r"in \[0, 3\)" if n in (3, 4) and type(n) is int else "an integer >= 0"
        with pytest.raises(sp.ValidationError, match=rf"^event index must be {rule}, got {n!r}$"):
            event_mean(n, onsets, design, spec, params)


def fd_check(spec, params, onsets, durations, design, fields, eps=1e-6, tol=2e-5):
    pd = path_data(onsets, durations, design)
    _, grads = duration_loglik_grad(pd, spec, params)

    def total(p):
        return float(np.sum(duration_loglik_grad(pd, spec, p)[0]))

    for field in fields:
        val = getattr(params, field)
        grad = np.atleast_1d(np.asarray(grads[field], dtype=float))
        if np.isscalar(val) or np.ndim(val) == 0:
            hi = total(params.replace(**{field: val + eps}))
            lo = total(params.replace(**{field: val - eps}))
            fd = (hi - lo) / (2 * eps)
            assert grad.reshape(-1)[0] == pytest.approx(fd, rel=tol, abs=1e-7), field
        else:
            flat = np.asarray(val, dtype=float)
            for idx in np.ndindex(flat.shape):
                bumped = flat.copy()
                bumped[idx] += eps
                hi = total(params.replace(**{field: bumped}))
                bumped = flat.copy()
                bumped[idx] -= eps
                lo = total(params.replace(**{field: bumped}))
                fd = (hi - lo) / (2 * eps)
                assert np.asarray(grads[field])[idx] == pytest.approx(
                    fd, rel=tol, abs=1e-7), (field, idx)


class TestGradients:
    def test_convolution_lognormal(self):
        rng = np.random.default_rng(7)
        n = 6
        onsets = np.cumsum(rng.uniform(0.2, 0.6, size=n))
        durations = rng.uniform(0.1, 0.4, size=n)
        design = rng.uniform(-1.0, 1.0, size=(n, 2))
        design[:, 0] = 1.0
        spec = DurationSpec(mean_variant="convolution", spillover=("e",),
                            columns=("c", "e"))
        params = DurationParams.initial(spec, kernel=(1.8, 2.5, 0.4), sigma2=0.5)
        params = params.replace(w=rng.uniform(-0.5, 0.5, size=2),
                                w_prime=np.array([0.6]))
        fd_check(spec, params, onsets, durations, design,
                 ("w", "w_prime", "kernel_alpha", "kernel_beta", "kernel_theta",
                  "sigma2"))

    def test_markov_gamma(self):
        rng = np.random.default_rng(8)
        n = 6
        onsets = np.cumsum(rng.uniform(0.2, 0.6, size=n))
        durations = rng.uniform(0.1, 0.4, size=n)
        design = rng.uniform(-1.0, 1.0, size=(n, 2))
        spec = DurationSpec(mean_variant="markov", spillover=("c", "e"),
                            columns=("c", "e"), lags=2, distribution="gamma")
        params = DurationParams.initial(spec).replace(
            w=rng.uniform(-0.5, 0.5, size=2),
            w_prime=rng.uniform(-0.3, 0.3, size=(2, 2)), shape=2.2)
        fd_check(spec, params, onsets, durations, design, ("w", "w_prime", "shape"))

    def test_convolution_without_spillover_columns(self):
        rng = np.random.default_rng(10)
        n = 5
        onsets = np.cumsum(rng.uniform(0.2, 0.6, size=n))
        durations = rng.uniform(0.1, 0.4, size=n)
        spec = DurationSpec(mean_variant="convolution", columns=("c",))
        params = DurationParams.initial(spec, sigma2=0.7).replace(w=np.array([-1.2]))
        _, grads = duration_loglik_grad(path_data(onsets, durations, np.ones((n, 1))), spec,
                                        params)
        for key in ("w_prime", "kernel_alpha", "kernel_beta", "kernel_theta"):
            assert grads[key].shape == (0,), key
        fd_check(spec, params, onsets, durations, np.ones((n, 1)), ("w", "sigma2"))

    def test_plain_sigma2(self):
        rng = np.random.default_rng(9)
        n = 5
        onsets = np.cumsum(rng.uniform(0.2, 0.6, size=n))
        durations = rng.uniform(0.1, 0.4, size=n)
        design = np.ones((n, 1))
        spec = DurationSpec(columns=("c",))
        params = DurationParams.initial(spec, sigma2=0.7).replace(w=np.array([-1.2]))
        fd_check(spec, params, onsets, durations, design, ("w", "sigma2"))


SEGMENTS = (0, 1, 2, 90, 1500)


def duration_units(lengths, seed=31):
    """Scanpaths of the given lengths over columns (c, e, f), c = 1, e and f normal."""
    rng = np.random.default_rng(seed)
    units = []
    for k, m in enumerate(lengths):
        onsets = np.cumsum(rng.uniform(0.1, 0.5, m))
        design = np.column_stack([np.ones(m), rng.normal(size=(m, 2))])
        units.append(sp.PathData(onsets, rng.uniform(0.1, 0.4, m), np.zeros((m, 2)), design,
                                 labels=(f"r{k}/t{k}",)))
    return units


def spill_case(variant, distribution, n_spill):
    """A spec over (c, e, f) with the first n_spill of (e, f) spilling over."""
    spec = DurationSpec(mean_variant=variant, spillover=("e", "f")[:n_spill],
                        lags=3 if variant == "markov" else 0, distribution=distribution,
                        columns=("c", "e", "f"))
    params = DurationParams.initial(spec, sigma2=0.3).replace(
        w=np.array([math.log(0.2), 0.1, -0.05]), shape=4.0)
    if variant == "convolution":
        params = params.replace(w_prime=np.array([0.3, -0.2][:n_spill]),
                                kernel_alpha=np.array([2.2, 3.0][:n_spill]),
                                kernel_beta=np.array([3.0, 5.0][:n_spill]),
                                kernel_theta=np.array([0.05, 0.0][:n_spill]))
    elif variant == "markov":
        params = params.replace(w_prime=np.array([[0.3, -0.2], [0.1, 0.05],
                                                  [-0.1, 0.2]])[:, :n_spill])
    return spec, params


@functools.lru_cache(maxsize=None)
def dense_convolution(distribution, n_spill):
    spec, params = spill_case("convolution", distribution, n_spill)
    return dense.loglik_grad(sp.PathData.concat(duration_units(SEGMENTS)), spec, params)


def assert_matches(got, grads, want, want_grads):
    """Every per-event term and every gradient entry within 1e-12, relative or absolute."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert list(grads) == list(want_grads)
    for key, value in want_grads.items():
        np.testing.assert_allclose(grads[key], value, rtol=1e-12, atol=1e-12, err_msg=key)


class TestBandAgainstDense:
    @pytest.mark.parametrize("tiny", [False, True], ids=["blocks", "tiny-blocks"])
    @pytest.mark.parametrize("n_spill", [0, 1, 2])
    @pytest.mark.parametrize("distribution", ["lognormal", "gamma"])
    def test_convolution(self, monkeypatch, distribution, n_spill, tiny):
        spec, params = spill_case("convolution", distribution, n_spill)
        batch = sp.PathData.concat(duration_units(SEGMENTS))
        if tiny:
            blocks = shrink_blocks(monkeypatch)
        got, grads = duration_loglik_grad(batch, spec, params)
        assert_matches(got, grads, *dense_convolution(distribution, n_spill))
        if tiny and n_spill:
            # every pair within a segment, 20 to a block or one long row alone
            assert_shrunk(blocks, 1400)
            assert sum(size for _, size in blocks) == sum(m * (m - 1) // 2 for m in SEGMENTS)

    @pytest.mark.parametrize("distribution", ["lognormal", "gamma"])
    def test_markov_lags_stay_in_their_scanpath(self, distribution):
        spec, params = spill_case("markov", distribution, 2)
        units = duration_units((0, 1, 2, 90, 3, 40))
        batch = sp.PathData.concat(units)
        got, grads = duration_loglik_grad(batch, spec, params)
        per_path = [duration_loglik_grad(u, spec, params) for u in units]
        np.testing.assert_array_equal(got, np.concatenate([r for r, _ in per_path]))
        want_grads = {key: sum(g[key] for _, g in per_path) for key in grads}
        assert_matches(got, grads, got, want_grads)
        assert_matches(got, grads, *dense.loglik_grad(batch, spec, params))

    def test_long_path_memory(self):
        spec, params = spill_case("convolution", "lognormal", 1)
        (unit,) = duration_units((4000,))
        tracemalloc.start()
        try:
            result, grads = duration_loglik_grad(unit, spec, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(result)) and np.all(np.isfinite(grads["kernel_alpha"]))
        # one dense n x n array at n = 4000 takes 128 MB
        assert peak < 32 * 2**20


class TestLinearFit:
    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.05, 1.5, size=40)
        design = np.ones((40, 1))
        fit = fit_linear_log(values, design, ("intercept",))
        logs = np.log(values)
        assert fit.weights[0] == pytest.approx(np.mean(logs), abs=1e-12)
        assert fit.sigma2 == pytest.approx(np.mean((logs - np.mean(logs)) ** 2), abs=1e-12)
        want = lognormal_logpdf(values, np.mean(logs), fit.sigma2)
        assert np.allclose(fit.per_record, want, rtol=1e-12)
        assert np.sum(fit.per_record) == pytest.approx(np.sum(want), rel=1e-12)

    def test_recovers_exact_linear_relation(self):
        x = np.linspace(-1.0, 2.0, 25)
        values = np.exp(2.0 - 0.5 * x)
        design = np.column_stack([np.ones(25), x])
        fit = fit_linear_log(values, design, ("intercept", "x"))
        assert fit.weights == pytest.approx([2.0, -0.5], abs=1e-9)
        assert not fit.dropped

    def test_collinear_column_dropped_with_warning(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, size=30)
        values = np.exp(1.0 + x + rng.normal(0, 0.05, size=30))
        design = np.column_stack([np.ones(30), x, 2.0 * x])
        with pytest.warns(UserWarning, match="collinear column 'x2'"):
            fit = fit_linear_log(values, design, ("intercept", "x", "x2"))
        assert fit.dropped == ("x2",)
        assert fit.weights[2] == 0.0
        clean = fit_linear_log(values, design[:, :2], ("intercept", "x"))
        assert np.allclose(fit.per_record, clean.per_record, rtol=1e-10)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(sp.ValidationError):
            fit_linear_log(np.array([0.5, 0.0]), np.ones((2, 1)), ("c",))

    def test_rejects_empty(self):
        with pytest.raises(sp.ValidationError):
            fit_linear_log(np.empty(0), np.empty((0, 1)), ("c",))

