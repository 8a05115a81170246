import math
import re

import numpy as np
import pytest
import scipy.optimize

import scanpp as sp
from scanpp.fit import (
    DurationModel,
    FitResult,
    GridSpec,
    SaccadeModel,
    Split,
    TrainConfig,
    _total,
    _whitener,
    grid_search,
    objective,
    poisson_mle_nu,
    split,
    train,
    warm_start,
)
from scanpp.mathutil import softplus_inv
from scanpp.serialize import dumps_fit, loads_fit

from conftest import random_scanpath

PIXEL_OMEGA = sp.Rect(0.0, 0.0, 800.0, 600.0)


def saccade_units(rng, model, count=4, events=6):
    units = []
    for _ in range(count):
        path = random_scanpath(rng, events, PIXEL_OMEGA)
        design = rng.uniform(-1.0, 1.0, size=(events, model.spec.p))
        if model.spec.p:
            design[:, 0] = 1.0
        units.append(sp.PathData.from_scanpath(path, design))
    return units


def duration_units(rng, p, count=4, events=8):
    units = []
    for _ in range(count):
        path = random_scanpath(rng, events, PIXEL_OMEGA)
        design = rng.uniform(-1.0, 1.0, size=(events, p))
        design[:, 0] = 1.0
        units.append(sp.PathData.from_scanpath(path, design))
    return units


def loglik(model, raw, unit):
    """A batch's log-likelihood, as the sum of its per-event terms."""
    return _total(model.per_event_loglik(raw, unit))


def assert_fd_matches(model, units, raw, eps=1e-6, tol=1e-4):
    grad = np.zeros(model.dim)
    for u in units:
        _, g = model.grad_unit(raw, u)
        grad += g

    def total(r):
        return sum(loglik(model, r, u) for u in units)

    for j in range(model.dim):
        step = np.zeros(model.dim)
        step[j] = eps
        fd = (total(raw + step) - total(raw - step)) / (2 * eps)
        denom = max(abs(grad[j]), abs(fd), 1e-6)
        assert abs(grad[j] - fd) / denom <= tol, (model.names[j], grad[j], fd)


class TestAdapters:
    @pytest.mark.parametrize("variant,mean_fn,seed", [
        ("poisson", "baseline", 50), ("last_fixation", "baseline", 51),
        ("hawkes", "baseline", 52), ("hawkes", "affine", 53),
        ("hawkes", "full", 54)])
    def test_saccade_gradients(self, variant, mean_fn, seed):
        rng = np.random.default_rng(seed)
        cols = ("intercept", "x1") if variant == "hawkes" else ()
        spec = sp.SaccadeSpec(variant=variant, mean_fn=mean_fn, columns=cols)
        model = SaccadeModel(spec, PIXEL_OMEGA)
        units = saccade_units(rng, model, count=2)
        raw = rng.uniform(-0.5, 0.5, size=model.dim)
        assert_fd_matches(model, units, raw)

    # seed 64 draws a negative kernel-shift raw value, where the shift is
    # clipped at zero and its gradient must vanish
    @pytest.mark.parametrize("mean_variant,distribution,seed", [
        ("plain", "lognormal", 60), ("convolution", "lognormal", 61),
        ("markov", "lognormal", 62), ("plain", "gamma", 63), ("convolution", "gamma", 64)])
    def test_duration_gradients(self, mean_variant, distribution, seed):
        rng = np.random.default_rng(seed)
        spill = ("x1",) if mean_variant != "plain" else ()
        spec = sp.DurationSpec(mean_variant=mean_variant, spillover=spill,
                               columns=("intercept", "x1"), distribution=distribution,
                               lags=2 if mean_variant == "markov" else 0)
        model = DurationModel(spec)
        units = duration_units(rng, 2, count=2)
        raw = rng.uniform(-0.5, 0.5, size=model.dim)
        assert_fd_matches(model, units, raw)

    def test_saccade_pack_unpack_round_trip(self):
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn="full",
                              columns=("intercept", "x1"))
        model = SaccadeModel(spec, sp.Rect(0.0, 0.0, 1024.0, 768.0))
        params = sp.SaccadeParams(
            nu=3.2e-6, alpha=[0.4, -0.2], beta=[0.8, 0.1],
            A=[[1.05, -0.02], [0.03, 0.97]], b=[40.0, -12.0],
            C=[[5.0, -3.0], [2.0, 1.0]], sigma2=850.0)
        back = model.unpack(model.pack(params))
        assert back.nu == pytest.approx(params.nu, rel=1e-10)
        assert np.allclose(back.alpha, params.alpha, rtol=1e-12)
        assert np.allclose(back.beta, params.beta, rtol=1e-12)
        assert np.allclose(back.A, params.A, rtol=1e-12)
        assert np.allclose(back.b, params.b, rtol=1e-10)
        assert np.allclose(back.C, params.C, rtol=1e-10)
        assert back.sigma2 == pytest.approx(params.sigma2, rel=1e-10)

    def test_saccade_names_and_constrained_alignment(self):
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn="full",
                              columns=("intercept", "x1"))
        model = SaccadeModel(spec, PIXEL_OMEGA)
        assert model.names == (
            "nu", "alpha[intercept]", "alpha[x1]", "beta[intercept]", "beta[x1]",
            "A[0,0]", "A[0,1]", "A[1,0]", "A[1,1]", "b[0]", "b[1]",
            "C[0,intercept]", "C[0,x1]", "C[1,intercept]", "C[1,x1]", "sigma2")
        raw = np.random.default_rng(1).uniform(-0.5, 0.5, size=model.dim)
        values = model.constrained(raw)
        params = model.unpack(raw)
        assert values[model.names.index("nu")] == pytest.approx(params.nu)
        assert values[model.names.index("sigma2")] == pytest.approx(params.sigma2)
        assert values[model.names.index("b[1]")] == pytest.approx(params.b[1])
        assert values[model.names.index("C[1,x1]")] == pytest.approx(params.C[1, 1])

    @pytest.mark.parametrize("variant,mean_fn", [
        ("poisson", "baseline"), ("last_fixation", "baseline"), ("hawkes", "baseline"),
        ("hawkes", "affine"), ("hawkes", "full")])
    def test_pixel_batch_gives_pixel_likelihood(self, variant, mean_fn):
        # a batch in pixels, as read from file, gives the per-event terms and
        # the chained gradient of the saccade model in pixels, bit for bit;
        # the training total sums the compensator by source, not by event, so
        # it is their sum within 1e-13 relative
        rng = np.random.default_rng(15)
        cols = ("intercept", "x1") if variant == "hawkes" else ()
        spec = sp.SaccadeSpec(variant=variant, mean_fn=mean_fn, columns=cols)
        model = SaccadeModel(spec, PIXEL_OMEGA)
        batch = sp.PathData.concat(saccade_units(rng, model, count=3, events=20))
        raw = rng.uniform(-0.5, 0.5, size=model.dim)
        params = model.unpack(raw)
        terms = sp.saccade.loglik_terms(batch, spec, params, PIXEL_OMEGA)
        assert loglik(model, raw, batch) == terms.total
        assert np.array_equal(model.per_event_loglik(raw, batch), terms.per_event)
        total, grads = sp.saccade.loglik_grad(batch, spec, params, PIXEL_OMEGA)
        ll, grad = model.grad_unit(raw, batch)
        assert total == pytest.approx(terms.total, rel=1e-13)
        assert ll == pytest.approx(terms.total, rel=1e-13)
        assert model.grad_unit(raw, batch, want_grad=False) == (ll, None)
        assert np.array_equal(grad, model.layout.chain(raw, grads))

    def test_rescaling_is_exact_reparameterization(self):
        rng = np.random.default_rng(12)
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn="full",
                              columns=("intercept", "x1"))
        scaled = SaccadeModel(spec, PIXEL_OMEGA)
        units = saccade_units(rng, scaled, count=2)
        raw = rng.uniform(-0.5, 0.5, size=scaled.dim)
        params = scaled.unpack(raw)
        # the packed vector is in screen units, and the model's likelihood is
        # the one in pixels
        ll_s = sum(loglik(scaled, raw, u) for u in units)
        ll_p = sum(sp.saccade.loglik_terms(u, spec, params, PIXEL_OMEGA).total for u in units)
        assert ll_s == ll_p

        # The trainer's fitting coordinates are a second exact change of
        # variables: raw = basis @ z. A kernel 20 times narrower than the
        # screen makes the basis lift the kernel weights.
        params = params.replace(sigma2=1600.0)
        raw = scaled.pack(params)
        basis = scaled.fitting_basis(units, raw)
        # the lift is screen size over kernel width, the same computed in pixels
        lift = max(PIXEL_OMEGA.width, PIXEL_OMEGA.height) / math.sqrt(1600.0)
        W = lift * _whitener(np.concatenate([u.design for u in units]))
        for part in ("alpha", "beta"):
            block = scaled.layout.slices[part]
            assert np.allclose(basis[block, block], W, rtol=1e-12, atol=0.0)
        z = np.linalg.solve(basis, raw)
        through_z = basis @ z
        loss, grad = objective(scaled, units, raw)
        assert objective(scaled, units, through_z, want_grad=False)[0] == pytest.approx(
            loss, rel=1e-12)
        grad_z = basis.T @ grad
        for j in range(scaled.dim):
            step = np.zeros(scaled.dim)
            step[j] = 1e-6
            fd = (objective(scaled, units, basis @ (z + step), want_grad=False)[0]
                  - objective(scaled, units, basis @ (z - step), want_grad=False)[0]) / 2e-6
            assert abs(grad_z[j] - fd) <= 1e-4 * max(abs(fd), 1e-3), (j, grad_z[j], fd)

        # Packing, unpacking and fit documents never see the basis.
        back = scaled.unpack(through_z)
        assert np.allclose(scaled.pack(back), raw, rtol=1e-12, atol=1e-14)
        assert back.sigma2 == pytest.approx(params.sigma2, rel=1e-12)
        assert np.allclose(back.C, params.C, rtol=1e-12, atol=1e-12)
        result = FitResult(names=scaled.names, raw=through_z, params=back, train_trace=(loss,),
                           val_trace=(loss,), best_epoch=1, selected={})
        loaded = loads_fit(dumps_fit(scaled, result))
        assert loaded.model.names == scaled.names
        assert np.array_equal(loaded.result.raw, through_z)

    def test_fitting_basis_whitens_collinear_design(self):
        rng = np.random.default_rng(14)
        cols = ("intercept", "reader:a", "reader:b")
        units = []
        for r in range(2):
            path = random_scanpath(rng, 7, PIXEL_OMEGA)
            design = np.tile([1.0, r == 0, r == 1], (7, 1))
            units.append(sp.PathData.from_scanpath(path, design))
        X = np.concatenate([u.design for u in units])
        width = max(PIXEL_OMEGA.width, PIXEL_OMEGA.height) / 8.0
        for mean_fn in ("baseline", "affine", "full"):
            spec = sp.SaccadeSpec(variant="hawkes", mean_fn=mean_fn, columns=cols)
            model = SaccadeModel(spec, PIXEL_OMEGA)
            raw = model.pack(sp.SaccadeParams.initial(spec, nu=1e-6, sigma2=width ** 2))
            basis = model.fitting_basis(units, raw)
            if mean_fn == "baseline":
                # no center map sets the step size: packed coordinates
                assert np.array_equal(basis, np.eye(model.dim))
                continue
            assert np.linalg.matrix_rank(basis) == model.dim
            # the intercept equals the sum of the reader columns: one flat
            # direction, and over the other two the square of the screen
            # size over the kernel width as second moment
            for part in ("alpha", "beta"):
                idx = [model.names.index(f"{part}[{c}]") for c in cols]
                moments = np.linalg.svd(X @ basis[np.ix_(idx, idx)],
                                        compute_uv=False) ** 2 / len(X)
                assert np.allclose(np.sort(moments), [0.0, 64.0, 64.0], atol=1e-9)
            kernel = [i for i, name in enumerate(model.names) if name.startswith(("alpha", "beta"))]
            rest = np.delete(np.arange(model.dim), kernel)
            assert np.array_equal(basis[np.ix_(rest, rest)], np.eye(len(rest)))
            assert not basis[np.ix_(rest, kernel)].any() and not basis[np.ix_(kernel, rest)].any()

    def test_duration_pack_unpack_round_trip(self):
        spec = sp.DurationSpec(mean_variant="convolution", spillover=("x1",),
                               columns=("intercept", "x1"))
        model = DurationModel(spec)
        params = sp.DurationParams(
            w=[-1.4, 0.3], w_prime=[0.25], kernel_alpha=[2.6], kernel_beta=[3.1],
            kernel_theta=[0.7], sigma2=0.21)
        back = model.unpack(model.pack(params))
        assert np.allclose(back.w, params.w, rtol=1e-12)
        assert np.allclose(back.w_prime, params.w_prime, rtol=1e-12)
        assert back.kernel_alpha[0] == pytest.approx(2.6, rel=1e-10)
        assert back.kernel_beta[0] == pytest.approx(3.1, rel=1e-10)
        assert back.kernel_theta[0] == pytest.approx(0.7, rel=1e-10)
        assert back.sigma2 == pytest.approx(0.21, rel=1e-12)
        zero_shift = model.unpack(model.pack(params.replace(kernel_theta=[0.0])))
        assert zero_shift.kernel_theta[0] == 0.0

    def test_duration_names(self):
        spec = sp.DurationSpec(mean_variant="markov", spillover=("x1",),
                               columns=("intercept", "x1"), lags=2)
        assert DurationModel(spec).names == (
            "w[intercept]", "w[x1]", "w_prime[lag1,x1]", "w_prime[lag2,x1]", "sigma2")
        conv = sp.DurationSpec(mean_variant="convolution", spillover=("x1",),
                               columns=("intercept", "x1"), distribution="gamma")
        assert DurationModel(conv).names == (
            "w[intercept]", "w[x1]", "w_prime[x1]", "kernel_alpha[x1]",
            "kernel_beta[x1]", "kernel_theta[x1]", "shape")

    def test_default_init_matches_closed_forms(self):
        rng = np.random.default_rng(13)
        spec = sp.SaccadeSpec(variant="poisson")
        model = SaccadeModel(spec, PIXEL_OMEGA)
        units = saccade_units(rng, model, count=3)
        nu = model.unpack(model.default_init(units)).nu
        assert nu == pytest.approx(poisson_mle_nu(units, PIXEL_OMEGA), rel=1e-12)

        dspec = sp.DurationSpec(columns=("intercept",))
        dmodel = DurationModel(dspec)
        dunits = duration_units(rng, 1, count=3)
        dparams = dmodel.unpack(dmodel.default_init(dunits))
        logs = np.concatenate([np.log(u.durations) for u in dunits])
        assert dparams.w[0] == pytest.approx(float(np.mean(logs)), rel=1e-12)
        assert dparams.sigma2 == pytest.approx(float(np.var(logs)), rel=1e-10)


class TestSplits:
    def test_sizes_and_coverage(self):
        parts = split(list(range(10)), (0.8, 0.1, 0.1), seed=3)
        assert (len(parts.train), len(parts.val), len(parts.test)) == (8, 1, 1)
        assert sorted(parts.train + parts.val + parts.test) == list(range(10))

    def test_deterministic(self):
        a = split(list(range(20)), (0.6, 0.2, 0.2), seed=5)
        b = split(list(range(20)), (0.6, 0.2, 0.2), seed=5)
        assert a == b

    def test_bad_fractions(self):
        # one rule and one message for a split, given directly or in a config
        for bad in ((0.5, 0.2, 0.2), (0.9, 0.2, -0.1), (0.5, 0.5), (math.nan, 0.5, 0.5)):
            message = re.escape(f"split must be three fractions >= 0 that sum to 1, got {bad}")
            with pytest.raises(sp.ValidationError, match=f"^{message}$"):
                split([1, 2, 3], bad, seed=0)
            with pytest.raises(sp.ValidationError, match=f"^{message}$"):
                TrainConfig(split=bad)


def _kernel_init(i):
    """A grid whose second kernel init has entry i (shape, rate, shift) set."""
    def build(value):
        kernel = [2.0, 3.0, 0.5]
        kernel[i] = value
        return GridSpec(kernel_inits=((2.0, 3.0, 0.5), tuple(kernel)))
    return build


# Every numeric setting: how to build with a value, an out-of-range value (None
# where only finiteness is required), and the field's name as its message
# starts. Grid entries come after a valid one.
NUMERIC_SETTINGS = {
    "TrainConfig.learning_rate": (lambda v: TrainConfig(learning_rate=v), 0.0, "learning rate"),
    "TrainConfig.momentum": (lambda v: TrainConfig(momentum=v), 1.0, "momentum"),
    "TrainConfig.weight_decay": (lambda v: TrainConfig(weight_decay=v), -1e-3, "weight decay"),
    "TrainConfig.batch_size": (lambda v: TrainConfig(batch_size=v), 0, "batch size"),
    "TrainConfig.max_epochs": (lambda v: TrainConfig(max_epochs=v, patience=0), 0,
                               "max_epochs"),
    "TrainConfig.patience": (lambda v: TrainConfig(patience=v, max_epochs=30), 31, "patience"),
    "TrainConfig.seed": (lambda v: TrainConfig(seed=v), -1, "seed"),
    "TrainConfig.split": (lambda v: TrainConfig(split=(v, 0.5, 0.5)), -0.5, "split"),
    "GridSpec.batch_sizes": (lambda v: GridSpec(batch_sizes=(64, v)), 0, "batch size"),
    "GridSpec.learning_rates": (lambda v: GridSpec(learning_rates=(0.1, v)), -1.0,
                                "learning rate"),
    "GridSpec.weight_decays": (lambda v: GridSpec(weight_decays=(0.0, v)), -1e-4,
                               "weight decay"),
    "GridSpec.kernel_inits.shape": (_kernel_init(0), 1.0, "kernel shape"),
    "GridSpec.kernel_inits.rate": (_kernel_init(1), 0.0, "kernel rate"),
    "GridSpec.kernel_inits.shift": (_kernel_init(2), -0.1, "kernel shift"),
    "SimConfig.horizon": (lambda v: sp.SimConfig(horizon=v, omega=PIXEL_OMEGA), 0.0,
                          "horizon"),
    "SimConfig.max_events": (lambda v: sp.SimConfig(horizon=1.0, omega=PIXEL_OMEGA,
                                                    max_events=v), 0, "max_events"),
    "SimConfig.seed": (lambda v: sp.SimConfig(horizon=1.0, omega=PIXEL_OMEGA, seed=v), -1,
                       "seed"),
    "Rect.x0": (lambda v: sp.Rect(v, 0.0, 1.0, 1.0), None, "rectangle x0"),
    "Rect.y0": (lambda v: sp.Rect(0.0, v, 1.0, 1.0), None, "rectangle y0"),
    "Rect.width": (lambda v: sp.Rect(0.0, 0.0, v, 1.0), 0.0, "rectangle width"),
    "Rect.height": (lambda v: sp.Rect(0.0, 0.0, 1.0, v), -1.0, "rectangle height"),
    "DurationSpec.lags": (lambda v: sp.DurationSpec(mean_variant="markov", spillover=("a",),
                                                    columns=("a",), lags=v), -1, "lags"),
}

# The settings that count or seed also reject a number that is not an integer;
# the others, the float settings, reject a bool and a numeric string.
INTEGER_SETTINGS = ("TrainConfig.batch_size", "TrainConfig.max_epochs", "TrainConfig.patience",
                    "TrainConfig.seed", "GridSpec.batch_sizes", "SimConfig.max_events",
                    "SimConfig.seed", "DurationSpec.lags")
NOT_REAL = (True, False, "0.5")


class TestConfigs:
    def test_train_config_validation(self):
        with pytest.raises(sp.ValidationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(sp.ValidationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(sp.ValidationError):
            TrainConfig(weight_decay=-1e-3)
        with pytest.raises(sp.ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(sp.ValidationError):
            TrainConfig(max_epochs=0)
        with pytest.raises(sp.ValidationError):
            TrainConfig(patience=31, max_epochs=30)
        with pytest.raises(sp.ValidationError):
            TrainConfig(split=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("field,value,message", [
        ("learning_rate", math.nan, "learning rate must be finite and > 0, got nan"),
        ("learning_rate", math.inf, "learning rate must be finite and > 0, got inf"),
        ("learning_rate", -math.inf, "learning rate must be finite and > 0, got -inf"),
        ("weight_decay", math.nan, "weight decay must be finite and >= 0, got nan"),
        ("weight_decay", math.inf, "weight decay must be finite and >= 0, got inf"),
    ])
    def test_non_finite_rates_rejected(self, field, value, message):
        with pytest.raises(sp.ValidationError, match=f"^{message}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("setting,value", [
        (name, value) for name, (_, bad, _) in NUMERIC_SETTINGS.items()
        for value in ((math.nan, math.inf, -math.inf) + (() if bad is None else (bad,))
                      + ((2.5,) if name in INTEGER_SETTINGS else NOT_REAL))
        # an infinite horizon is allowed: the path runs to the event cap
        if not (name == "SimConfig.horizon" and value == math.inf)])
    def test_numeric_setting_rejected(self, setting, value):
        build, _, stem = NUMERIC_SETTINGS[setting]
        with pytest.raises(sp.ValidationError, match=f"^{re.escape(stem)} must "):
            build(value)

    def test_integer_setting_takes_integers_only(self):
        # a whole float and a bool are not integers; a numpy integer is
        for value in (64.0, True):
            with pytest.raises(sp.ValidationError,
                               match=f"^batch size must be an integer >= 1, got {value!r}$"):
                TrainConfig(batch_size=value)
        assert TrainConfig(batch_size=np.int64(64)).batch_size == 64
        assert GridSpec(batch_sizes=(np.int64(4),)).batch_sizes == (4,)

    @pytest.mark.parametrize("field,build", [
        ("columns", lambda v: sp.SaccadeSpec(columns=v)),
        ("columns", lambda v: sp.DurationSpec(columns=v)),
        ("spillover", lambda v: sp.DurationSpec(mean_variant="convolution", spillover=v,
                                                columns=("a", "b"))),
    ], ids=["SaccadeSpec.columns", "DurationSpec.columns", "DurationSpec.spillover"])
    def test_name_list_rejects_a_string(self, field, build):
        with pytest.raises(sp.ValidationError,
                           match=f"^{field} must be a sequence of names, not the string 'ab'$"):
            build("ab")

    def test_grid_spec(self):
        grid = GridSpec(batch_sizes=(2, 4, 8), learning_rates=(0.1, 0.01, 0.001),
                        weight_decays=(0.0, 1e-4))
        assert grid.size == 18
        with pytest.raises(sp.ValidationError):
            GridSpec(batch_sizes=())

    def test_fit_result_properties(self):
        result = FitResult(names=("nu",), raw=np.zeros(1), params=None,
                           train_trace=(3.0, 2.0, 2.5), val_trace=(3.1, 2.2, 2.6),
                           best_epoch=2, selected={}, test_loglik=-50.0,
                           test_events=25)
        assert result.best_val_loss == 2.2
        assert result.test_loglik_per_fixation == pytest.approx(-2.0)
        empty = FitResult(names=("nu",), raw=np.zeros(1), params=None,
                          train_trace=(), val_trace=(), best_epoch=0, selected={})
        assert math.isnan(empty.test_loglik_per_fixation)


class TestTraining:
    def units(self, seed=30, count=8, events=8):
        rng = np.random.default_rng(seed)
        return duration_units(rng, 1, count=count, events=events)

    def intercept_model(self):
        return DurationModel(sp.DurationSpec(columns=("intercept",)))

    def test_stationary_at_closed_form_optimum(self):
        model = self.intercept_model()
        units = self.units()
        config = TrainConfig(learning_rate=0.1, batch_size=64, max_epochs=4,
                             patience=4, split=(1.0, 0.0, 0.0), seed=0)
        result = train(model, units, config)
        logs = np.concatenate([np.log(u.durations) for u in units])
        assert result.params.w[0] == pytest.approx(float(np.mean(logs)), abs=1e-9)
        assert result.params.sigma2 == pytest.approx(float(np.var(logs)), rel=1e-8)

    def test_poisson_stays_at_mle(self):
        rng = np.random.default_rng(31)
        spec = sp.SaccadeSpec(variant="poisson")
        model = SaccadeModel(spec, PIXEL_OMEGA)
        units = saccade_units(rng, model, count=6)
        closed = poisson_mle_nu(units, PIXEL_OMEGA)
        config = TrainConfig(learning_rate=0.2, batch_size=64, max_epochs=5,
                             patience=5, split=(1.0, 0.0, 0.0), seed=0)
        result = train(model, units, config)
        assert result.params.nu == pytest.approx(closed, rel=1e-10)

    def test_sgd_reaches_optimum_from_cold_start(self):
        model = self.intercept_model()
        units = self.units()
        logs = np.concatenate([np.log(u.durations) for u in units])
        target = float(np.mean(logs))
        init = model.pack(sp.DurationParams.initial(model.spec, sigma2=1.0).replace(
            w=np.array([target + 1.0])))
        config = TrainConfig(learning_rate=0.1, momentum=0.9, batch_size=64,
                             max_epochs=400, patience=400, split=(1.0, 0.0, 0.0),
                             seed=0)
        result = train(model, units, config, init=init)
        assert result.params.w[0] == pytest.approx(target, abs=5e-3)

    def test_full_batch_descent_without_momentum(self):
        model = self.intercept_model()
        units = self.units(seed=32)
        init = model.pack(sp.DurationParams.initial(model.spec, sigma2=0.8).replace(
            w=np.array([-2.5])))
        config = TrainConfig(learning_rate=0.05, momentum=0.0, batch_size=64,
                             max_epochs=15, patience=15, split=(1.0, 0.0, 0.0), seed=0)
        result = train(model, units, config, init=init)
        diffs = np.diff(result.train_trace)
        assert np.all(diffs <= 1e-9)

    @pytest.mark.parametrize("kind", ["duration", "saccade"])
    def test_full_batch_trace_is_the_loss_at_each_epoch(self, kind):
        # Full-batch epochs take their loss from the next gradient pass; it
        # must equal a separate loss pass bit for bit.
        init = None
        if kind == "duration":
            model, units = self.intercept_model(), self.units(seed=33)
            init = model.pack(sp.DurationParams.initial(model.spec, sigma2=0.8).replace(
                w=np.array([-2.5])))
        else:
            model = SaccadeModel(sp.SaccadeSpec(variant="hawkes", mean_fn="full",
                                                columns=("intercept", "x1")), PIXEL_OMEGA)
            units = saccade_units(np.random.default_rng(34), model, count=3)
        parts = Split(train=tuple(units), val=(), test=())
        config = TrainConfig(learning_rate=0.002, batch_size=64, max_epochs=4, patience=4,
                             seed=5)
        full = train(model, parts, config, init=init)
        assert full.best_epoch == 4
        for k in range(1, 5):
            part = train(model, parts, config.replace(max_epochs=k, patience=k), init=init)
            assert part.train_trace == full.train_trace[:k]
            assert part.train_trace[-1] == objective(model, units, part.raw,
                                                     want_grad=False)[0]

    def test_sgd_reaches_lbfgs_optimum_on_collinear_design(self):
        # An intercept next to a full reader one-hot, screen-unit excitation
        # centers, and the soft amplitude/decay ridge: the rse fit's
        # conditioning in small. SGD at the acceptance chain's stage-3
        # settings must end where L-BFGS-B ends.
        omega = sp.Rect(0.0, 0.0, 1024.0, 768.0)
        cols = ("intercept", "reader:r0", "reader:r1")
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=cols)
        truth = sp.SaccadeParams.initial(spec, nu=1e-6, sigma2=900.0).replace(
            alpha=[0.0, softplus_inv(1.4), softplus_inv(1.9)],
            beta=[0.0, softplus_inv(2.5), softplus_inv(3.2)],
            b=[90.0, 0.0], C=[[0.0, -20.0, 20.0], [0.0, 8.0, -8.0]])
        dur_spec = sp.DurationSpec(columns=("intercept",))
        dur_params = sp.DurationParams.initial(dur_spec, sigma2=0.1).replace(
            w=np.array([math.log(0.2)]))
        sim = sp.SimConfig(horizon=1000.0, omega=omega, seed=5, max_events=60)
        rngs = sp.spawn_rngs(5, 8)
        units = []
        for k, rng in enumerate(rngs):
            x = np.array([1.0, k < 4, k >= 4], dtype=float)
            path = sp.sample_scanpath(spec, truth, dur_spec, dur_params, sim, x_row=x,
                                      x_dur_row=np.ones(1), reader_id=f"r{int(k >= 4)}",
                                      text_id=f"t{k}", rng=rng).scanpath
            units.append(sp.PathData.from_scanpath(path, np.tile(x, (len(path), 1))))
        model = SaccadeModel(spec, omega)
        init = model.pack(truth.replace(alpha=[softplus_inv(1.0), 0.0, 0.0],
                                        beta=[softplus_inv(1.0), 0.0, 0.0], C=np.zeros((2, 3))))
        config = TrainConfig(learning_rate=0.0005, momentum=0.9, batch_size=64,
                             max_epochs=300, patience=300, seed=1, split=(1.0, 0.0, 0.0))
        result = train(model, units, config, init=init)
        best = scipy.optimize.minimize(lambda r: objective(model, units, r), init, jac=True,
                                       method="L-BFGS-B",
                                       options={"maxiter": 2000, "gtol": 1e-9, "ftol": 1e-14})
        # the reference must be an optimum, not an early stop
        assert best.success, best.message
        assert np.linalg.norm(best.jac) <= 1e-4
        assert result.train_trace[-1] - best.fun <= 1e-4

    def test_patience_zero_stops_after_first_epoch(self):
        model = self.intercept_model()
        config = TrainConfig(max_epochs=10, patience=0, split=(1.0, 0.0, 0.0), seed=0)
        result = train(model, self.units(), config)
        assert len(result.train_trace) == 1
        assert result.best_epoch == 1

    def test_runs_all_epochs_when_improving(self):
        model = self.intercept_model()
        units = self.units()
        init = model.pack(sp.DurationParams.initial(model.spec, sigma2=1.0).replace(
            w=np.array([2.0])))
        config = TrainConfig(learning_rate=0.01, momentum=0.0, batch_size=64,
                             max_epochs=4, patience=4, split=(1.0, 0.0, 0.0), seed=0)
        result = train(model, units, config, init=init)
        assert len(result.train_trace) == 4

    def test_training_is_deterministic(self):
        model = self.intercept_model()
        units = self.units()
        config = TrainConfig(learning_rate=0.05, batch_size=2, max_epochs=6,
                             patience=6, seed=9, split=(0.75, 0.25, 0.0))
        a = train(model, units, config)
        b = train(model, units, config)
        assert np.array_equal(a.raw, b.raw)
        assert a.train_trace == b.train_trace
        assert a.val_trace == b.val_trace
        assert dumps_fit(model, a) == dumps_fit(model, b)

    def test_accepts_prepared_split(self):
        model = self.intercept_model()
        units = self.units()
        parts = Split(train=tuple(units[:6]), val=tuple(units[6:7]),
                      test=tuple(units[7:]))
        config = TrainConfig(max_epochs=3, patience=3, seed=0)
        result = train(model, parts, config)
        assert result.test_events == units[7].n
        assert result.test_loglik == pytest.approx(loglik(model, result.raw, units[7]),
                                                   rel=1e-12)

    def test_empty_training_split_rejected(self):
        model = self.intercept_model()
        with pytest.raises(sp.ValidationError):
            train(model, Split(train=(), val=(), test=()), TrainConfig())

    def test_divergence_reported(self):
        pd = sp.PathData(onsets=[0.5, 0.55], durations=[0.2, 0.1],
                         locations=[(100.0, 100.0), (200.0, 100.0)],
                         design=np.zeros((2, 0)))
        spec = sp.SaccadeSpec(variant="poisson")
        model = SaccadeModel(spec, PIXEL_OMEGA)
        with pytest.raises(sp.DivergenceError):
            objective(model, [pd], np.array([0.0]))
        with pytest.raises(sp.DivergenceError):
            train(model, Split(train=(pd,), val=(), test=()),
                  TrainConfig(max_epochs=2, patience=2))

    def diverging_model(self, fail_at):
        """The intercept model, whose total reads NaN at its fail_at-th batch
        evaluation; also the event count of each batch it evaluated."""
        model = self.intercept_model()
        evaluate = model.grad_unit
        batches = []

        def grad_unit(raw, unit, want_grad=True):
            batches.append(unit.n)
            ll, grad = evaluate(raw, unit, want_grad)
            return (math.nan if len(batches) == fail_at else ll), grad

        model.grad_unit = grad_unit
        return model, batches

    # 4 training paths of 8 events in batches of 2, and no validation split:
    # each epoch takes two steps over 16 events, then one loss pass over 32,
    # so evaluations 5 and 8 are steps of epochs 2 and 3, and 6 and 9 their
    # loss passes
    @pytest.mark.parametrize("fail_at,epochs_done,events", [(5, 1, 16), (6, 1, 32),
                                                             (8, 2, 16), (9, 2, 32)])
    def test_divergence_carries_the_trace_of_completed_epochs(self, fail_at, epochs_done,
                                                              events):
        units = self.units(count=4)
        config = TrainConfig(learning_rate=0.05, batch_size=2, max_epochs=3, patience=3,
                             split=(1.0, 0.0, 0.0), seed=0)
        clean = train(self.intercept_model(), units, config)
        assert len(clean.train_trace) == 3
        model, batches = self.diverging_model(fail_at)
        with pytest.raises(sp.DivergenceError, match="non-finite log-likelihood") as info:
            train(model, units, config)
        assert len(batches) == fail_at and batches[-1] == events
        assert info.value.trace == clean.train_trace[:epochs_done]

    def test_divergence_names_event_and_parameters(self):
        # event 3 starts 0.05 s before fixation 2 ends
        onsets = [0.1, 0.6, 1.1, 1.35, 1.9]
        pd = sp.PathData(onsets=onsets, durations=[0.3] * 5,
                         locations=[(100.0 * k, 200.0) for k in range(1, 6)],
                         design=np.ones((5, 1)), labels=("r/t",))
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn="affine", columns=("intercept",))
        model = SaccadeModel(spec, PIXEL_OMEGA)
        params = sp.SaccadeParams.initial(spec, nu=1e-6, sigma2=900.0).replace(
            alpha=np.array([0.5]), beta=np.array([1.0]))
        raw = model.pack(params)
        # the bad path is the second of three, so its events sit at 4..8 of the batch
        good = [sp.PathData(onsets=[0.2, 0.9, 1.5, 2.4][:n], durations=[0.3] * n,
                            locations=[(150.0 * k, 300.0) for k in range(1, n + 1)],
                            design=np.ones((n, 1)), labels=(label,))
                for n, label in ((4, "a/x"), (3, "b/y"))]
        units = [good[0], pd, good[1]]
        lam, comp, _ = sp.saccade.event_intensities(pd, spec, params, PIXEL_OMEGA)
        for want_grad in (True, False):
            with pytest.raises(sp.DivergenceError) as info:
                objective(model, units, raw, want_grad=want_grad)
            msg = str(info.value)
            found = re.search(r"scanpath 'r/t': event 3 has intensity (\S+) per s per "
                              r"px\^2 and compensator increment (\S+), and starts before "
                              r"the previous fixation ends", msg)
            assert found, msg
            assert float(found[1]) == pytest.approx(lam[3], rel=1e-5)
            assert float(found[2]) == pytest.approx(comp[3], rel=1e-5)
            assert "sigma2=900" in msg and "nu=1e-06" in msg and "alpha[intercept]=" in msg

    def test_duration_divergence_names_scanpath(self):
        model = DurationModel(sp.DurationSpec(columns=("intercept",)))
        units = duration_units(np.random.default_rng(41), 1, count=3, events=5)
        raw = model.default_init(units)
        bad = units[2]
        durations = bad.durations.copy()
        durations[2] = np.inf
        units[2] = sp.PathData(bad.onsets, durations, bad.locations, bad.design,
                               labels=("r/t",))
        for want_grad in (True, False):
            with pytest.raises(sp.DivergenceError,
                               match=r"scanpath 'r/t': event 2 has log-density -inf at "
                                     r"duration inf s"):
                objective(model, units, raw, want_grad=want_grad)


class TestBatchObjective:
    @pytest.mark.parametrize("kind", ["hawkes", "last_fixation", "convolution", "markov"])
    def test_one_batch_call_equals_per_unit_sums(self, kind):
        rng = np.random.default_rng(42)
        if kind in ("hawkes", "last_fixation"):
            columns = ("intercept", "z") if kind == "hawkes" else ()
            model = SaccadeModel(sp.SaccadeSpec(variant=kind, columns=columns), PIXEL_OMEGA)
            units = saccade_units(rng, model, count=5, events=7)
        else:
            spec = sp.DurationSpec(columns=("intercept", "z"), mean_variant=kind,
                                   spillover=("z",), lags=2 if kind == "markov" else 0)
            model = DurationModel(spec)
            units = duration_units(rng, 2, count=5, events=7)
        raw = model.default_init(units) + rng.normal(0.0, 0.05, model.dim)
        batch = sp.PathData.concat(units)
        ll, grad = model.grad_unit(raw, batch)
        n = batch.n
        parts = [model.grad_unit(raw, u) for u in units]
        assert n == 35 and ll == pytest.approx(sum(p[0] for p in parts), rel=1e-13)
        want = np.sum([p[1] for p in parts], axis=0)
        assert np.linalg.norm(grad - want) <= 1e-12 * np.linalg.norm(want)
        assert loglik(model, raw, batch) == pytest.approx(ll, rel=1e-13)
        assert np.allclose(model.per_event_loglik(raw, batch),
                           np.concatenate([model.per_event_loglik(raw, u) for u in units]),
                           rtol=1e-13, atol=0.0)
        loss, g = objective(model, units, raw)
        assert (loss, g.tolist()) == (-ll / n, (-grad / n).tolist())
        assert objective(model, batch, raw, want_grad=False)[0] == pytest.approx(loss, rel=1e-14)
        assert objective(model, [], raw) == (0.0, pytest.approx(np.zeros(model.dim)))
        empty = sp.PathData.concat([])
        assert (loglik(model, raw, empty), empty.n) == (0.0, 0)
        ll, grad = model.grad_unit(raw, empty)
        assert (ll, grad.tolist()) == (0.0, np.zeros(model.dim).tolist())
        assert model.per_event_loglik(raw, empty).shape == (0,)


class TestGridSearch:
    def setup_run(self, seed=40):
        rng = np.random.default_rng(seed)
        model = DurationModel(sp.DurationSpec(columns=("intercept",)))
        units = duration_units(rng, 1, count=6, events=6)
        grid = GridSpec(batch_sizes=(2, 4, 8), learning_rates=(0.1, 0.01, 0.001),
                        weight_decays=(0.0, 1e-4))
        config = TrainConfig(max_epochs=2, patience=2, seed=1,
                             split=(0.7, 0.3, 0.0))
        return model, units, grid, config

    def test_enumerates_full_product(self):
        model, units, grid, config = self.setup_run()
        result = grid_search(model, units, grid, config)
        assert len(result.grid_trace) == 18
        hps = [hp for hp, _ in result.grid_trace]
        assert hps[0] == {"batch_size": 2, "learning_rate": 0.1,
                          "weight_decay": 0.0, "kernel_init": (2.0, 3.0, 0.5)}
        # weight decay cycles fastest, then learning rate, then batch size
        assert hps[1]["weight_decay"] == 1e-4
        assert hps[2]["learning_rate"] == 0.01
        assert hps[6]["batch_size"] == 4
        assert sorted(result.selected) == [
            "batch_size", "kernel_init", "learning_rate", "weight_decay"]

    def test_selects_strict_minimum(self):
        model, units, grid, config = self.setup_run()
        result = grid_search(model, units, grid, config)
        losses = [loss for _, loss in result.grid_trace]
        best_idx = losses.index(min(losses))
        assert result.grid_trace[best_idx][0] == result.selected
        assert result.best_val_loss == pytest.approx(min(losses))

    def test_kernel_axis_only_where_the_start_reads_it(self):
        kernels = ((2.0, 3.0, 0.5), (1.5, 2.0, 0.2), (3.0, 1.0, 0.0))
        grid = GridSpec(batch_sizes=(8,), learning_rates=(0.01,), weight_decays=(0.0,),
                        kernel_inits=kernels)
        config = TrainConfig(max_epochs=2, patience=2, seed=1, split=(0.7, 0.3, 0.0))
        rng = np.random.default_rng(47)
        units = duration_units(rng, 2, count=6, events=6)
        conv = DurationModel(sp.DurationSpec(mean_variant="convolution", spillover=("x1",),
                                             columns=("intercept", "x1")))
        result = grid_search(conv, units, grid, config)
        assert [hp["kernel_init"] for hp, _ in result.grid_trace] == list(kernels)
        # a given start, or a model without kernels, reads no kernel init:
        # one run, under the first entry
        plain = DurationModel(sp.DurationSpec(columns=("intercept", "x1")))
        last = SaccadeModel(sp.SaccadeSpec(variant="last_fixation"), PIXEL_OMEGA)
        for model, data, init in ((conv, units, conv.default_init(units)),
                                  (plain, units, None),
                                  (last, saccade_units(rng, last, count=6), None)):
            result = grid_search(model, data, grid, config, init=init)
            assert [hp["kernel_init"] for hp, _ in result.grid_trace] == [kernels[0]]
            assert result.selected["kernel_init"] == kernels[0]

    def test_deterministic_across_runs(self):
        model, units, grid, config = self.setup_run()
        a = grid_search(model, units, grid, config)
        b = grid_search(model, units, grid, config)
        assert a.selected == b.selected
        assert np.array_equal(a.raw, b.raw)
        assert dumps_fit(model, a) == dumps_fit(model, b)


class TestWarmStart:
    def test_copies_shared_parameters(self):
        rng = np.random.default_rng(44)
        pois = SaccadeModel(sp.SaccadeSpec(variant="poisson"), PIXEL_OMEGA)
        units = saccade_units(rng, pois, count=3)
        config = TrainConfig(max_epochs=2, patience=2, split=(1.0, 0.0, 0.0))
        source = train(pois, units, config)
        target = SaccadeModel(
            sp.SaccadeSpec(variant="hawkes", columns=("intercept",)), PIXEL_OMEGA)
        init = warm_start(source.names, source.raw, target, units)
        assert init[target.names.index("nu")] == source.raw[0]
        default = target.default_init(units)
        for name in ("alpha[intercept]", "beta[intercept]", "sigma2"):
            j = target.names.index(name)
            assert init[j] == default[j]

    def test_rejects_names_missing_from_target(self):
        hawkes = SaccadeModel(
            sp.SaccadeSpec(variant="hawkes", columns=("intercept",)), PIXEL_OMEGA)
        pois = SaccadeModel(sp.SaccadeSpec(variant="poisson"), PIXEL_OMEGA)
        with pytest.raises(sp.ValidationError):
            warm_start(hawkes.names, np.zeros(hawkes.dim), pois)

    def test_nested_chain_preserves_likelihood_at_init(self):
        rng = np.random.default_rng(45)
        base = SaccadeModel(
            sp.SaccadeSpec(variant="hawkes", mean_fn="affine",
                           columns=("intercept",)), PIXEL_OMEGA)
        units = saccade_units(rng, base, count=3)
        raw = rng.uniform(-0.3, 0.3, size=base.dim)
        target = SaccadeModel(
            sp.SaccadeSpec(variant="hawkes", mean_fn="full",
                           columns=("intercept",)), PIXEL_OMEGA)
        init = warm_start(base.names, raw, target, units)
        # the full map adds only predictor offsets; defaults leave them at zero
        ll_base = sum(loglik(base, raw, u) for u in units)
        ll_full = sum(loglik(target, init, u) for u in units)
        assert ll_full == pytest.approx(ll_base, rel=1e-12)


class TestFitSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(46)
        model = SaccadeModel(
            sp.SaccadeSpec(variant="hawkes", mean_fn="full",
                           columns=("intercept",)), PIXEL_OMEGA)
        units = saccade_units(rng, model, count=5)
        config = TrainConfig(learning_rate=0.01, batch_size=2, max_epochs=3,
                             patience=3, seed=2, split=(0.6, 0.2, 0.2))
        result = train(model, units, config)
        text = dumps_fit(model, result)
        loaded = loads_fit(text)
        assert loaded.model.names == model.names
        assert np.allclose(loaded.result.raw, result.raw, rtol=0, atol=0)
        assert loaded.result.best_epoch == result.best_epoch
        assert loaded.result.seed == result.seed
        assert loaded.result.test_events == result.test_events
        assert loaded.result.test_loglik == result.test_loglik
        assert loaded.result.train_trace == result.train_trace
        assert loaded.result.val_trace == result.val_trace
        assert dumps_fit(loaded.model, loaded.result) == text

    def test_grid_round_trip(self):
        rng = np.random.default_rng(47)
        model = DurationModel(sp.DurationSpec(columns=("intercept",)))
        units = duration_units(rng, 1, count=5, events=5)
        # a numpy integer batch size is an integer, and is written as one
        grid = GridSpec(batch_sizes=(np.int64(2),), learning_rates=(0.1, 0.01),
                        weight_decays=(0.0,))
        config = TrainConfig(max_epochs=2, patience=2, seed=3, split=(0.6, 0.4, 0.0))
        result = grid_search(model, units, grid, config)
        text = dumps_fit(model, result)
        loaded = loads_fit(text)
        assert loaded.result.selected == result.selected
        assert loaded.result.grid_trace == result.grid_trace
        assert dumps_fit(loaded.model, loaded.result) == text
