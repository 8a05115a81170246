import math
import re

import numpy as np
import pytest
from scipy import stats

import scanpp as sp
from scanpp import simulate
from scanpp.saccade import _screen_mass
from scanpp.simulate import (
    SimConfig,
    _Counts,
    _draw_gaussian_location,
    _draw_location,
    _excitation,
    _sample_next,
    sample_duration,
    sample_scanpath,
    spawn_rngs,
)

from conftest import make_fixations, small_instance

UNIT = sp.Rect(0.0, 0.0, 1.0, 1.0)


def plain_durations(mean=0.05, sigma2=0.01):
    spec = sp.DurationSpec(columns=("intercept",))
    params = sp.DurationParams.initial(spec, sigma2=sigma2).replace(
        w=np.array([math.log(mean)]))
    return spec, params


def hawkes_setup():
    """Self-exciting model with exactly known excitation and decay."""
    spec = sp.SaccadeSpec(variant="hawkes", link="relu", columns=("intercept",))
    params = sp.SaccadeParams.initial(spec, nu=0.5, sigma2=0.02).replace(
        alpha=np.array([1.5]), beta=np.array([3.0]))
    return spec, params


def next_fixation(history, spec, params, horizon, rng, X=None):
    """The sampler's next (onset, location) after an observed history, or None."""
    state = sp.HistoryState.build(history, X, spec, params, UNIT)
    return _sample_next(rng, state, horizon, _Counts())


def bound_at(state, t):
    """The thinning bound a candidate at time t reads."""
    return state.params.nu * state.omega.area + float(_excitation(state, t)[0].sum())


def truncated_normal_cdf(mu, sigma, lo, hi):
    a = stats.norm.cdf(lo, mu, sigma)
    b = stats.norm.cdf(hi, mu, sigma)

    def cdf(x):
        return (stats.norm.cdf(x, mu, sigma) - a) / (b - a)

    return cdf


class TestUpperBound:
    def test_dominates_marginal_intensity(self):
        rng = np.random.default_rng(70)
        checked = 0
        for _ in range(8):
            path, design, spec, params, omega = small_instance(
                rng, n=int(rng.integers(3, 7)))
            a = np.log1p(np.exp(design @ params.alpha))
            b = np.log1p(np.exp(design @ params.beta))
            mu = (path.locations @ params.A.T + params.b + design @ params.C.T)
            mass = _screen_mass(mu, params.sigma2, omega, grad=False)[0]
            t0 = path.fixations[-1].end + float(rng.uniform(0.0, 0.5))
            state = sp.HistoryState.build(path, design, spec, params, omega)
            bound = bound_at(state, t0)
            total_dur = float(np.sum(path.durations))
            clock = sp.PathData.from_scanpath(path).clock
            for u in t0 + np.linspace(0.0, 4.0, 25):
                age = (u - total_dur) - clock
                marginal_rates = a * np.exp(-b * age) * mass
                marg = params.nu * omega.area + float(np.sum(marginal_rates))
                assert marg <= bound + 1e-12
                caps, weights, _ = _excitation(state, u)
                assert np.all((weights >= 0.0) & (weights <= 1.0))
                np.testing.assert_allclose(caps * weights, marginal_rates, rtol=1e-13, atol=0)
                checked += 1
        assert checked >= 1000 / 5

    @pytest.mark.parametrize("variant", ["last_fixation", "hawkes"])
    def test_dominates_after_appends_that_grow_the_buffers(self, variant):
        rng = np.random.default_rng(71)
        path, design, spec, params, omega = small_instance(rng, variant=variant, n=40)
        base = params.nu * omega.area
        state = sp.HistoryState.empty(spec, params, omega)
        for i, fix in enumerate(path):
            state.append(fix.onset, fix.duration, (fix.x, fix.y), design[i])
            if i + 1 not in (16, 17, 32, 33, 40):
                continue
            # The buffers hold 16 rows, then 32, then 64.
            history = sp.Scanpath("r", "t", path.fixations[:i + 1])
            oracle = sp.HistoryState.build(history, design[:i + 1], spec, params, omega)
            times = fix.end + np.linspace(0.0, 3.0, 16)
            if variant == "hawkes":
                marginal = [base + float(np.sum(oracle.kernels(u) * oracle.mass))
                            for u in times]
            else:
                marginal = [base + oracle.mass[-1]] * times.size
            for k, u in enumerate(times):
                bound = bound_at(state, u)
                assert bound == pytest.approx(bound_at(oracle, u), rel=1e-13)
                assert max(marginal[k:]) <= bound * (1.0 + 1e-12)

    def test_poisson_bound_is_base_rate(self):
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=2.0)
        bound = bound_at(sp.HistoryState.empty(spec, params, UNIT), 0.0)
        assert bound == pytest.approx(2.0 * UNIT.area)

    @pytest.mark.parametrize("variant", ["last_fixation", "hawkes"])
    def test_weights_lie_in_the_unit_interval(self, variant):
        # centers on, near and far off the screen, and the screen's size from
        # a fraction of sigma to many sigmas
        rng = np.random.default_rng(73)
        for _ in range(6):
            path, design, spec, params, omega = small_instance(rng, variant=variant, n=30)
            for sigma2 in (1e-4, float(params.sigma2), 50.0):
                params = params.replace(sigma2=sigma2)
                far = [sp.Fixation(f.onset, f.x + float(rng.normal(0.0, 2.0)),
                                   f.y + float(rng.normal(0.0, 2.0)), f.duration)
                       for f in path]
                history = sp.Scanpath("r", "t", tuple(far))
                state = sp.HistoryState.build(history, design, spec, params, omega)
                caps, weights, _ = _excitation(state, far[-1].onset + far[-1].duration)
                assert weights.shape == caps.shape
                assert np.all((weights >= 0.0) & (weights <= 1.0))

    def test_last_fixation_bound_is_the_intensity(self):
        rng = np.random.default_rng(72)
        path, design, spec, params, omega = small_instance(rng, variant="last_fixation", n=5)
        state = sp.HistoryState.build(path, design, spec, params, omega)
        for t in path.fixations[-1].end + np.array([0.0, 0.3, 7.0]):
            caps, weights, centers = _excitation(state, t)
            assert caps.tolist() == [state.mass[-1]]
            assert weights.tolist() == [1.0]
            assert np.array_equal(centers, state.mu[-1:])

    def test_columns_require_history_design(self):
        path = sp.Scanpath("r", "t", make_fixations([(0.5, 0.4)], [(0.5, 0.5)]))
        spec, params = hawkes_setup()
        state = sp.HistoryState.build(path, np.ones((1, 1)), spec, params, UNIT)
        assert bound_at(state, 1.0) > 0
        with pytest.raises(sp.UsageError, match="design rows"):
            sp.HistoryState.build(path, None, spec, params, UNIT)


class TestPoissonSampling:
    def run(self, seed=0):
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=6.0)
        dspec, dparams = plain_durations()
        config = SimConfig(horizon=300.0, omega=UNIT, seed=seed)
        result = sample_scanpath(spec, params, dspec, dparams, config,
                                 x_dur_row=np.ones(1))
        return result, params

    def test_gaps_are_exponential(self):
        result, params = self.run()
        path = result.scanpath
        assert not result.truncated
        assert len(path) > 800
        ends = np.concatenate(([0.0], path.onsets[:-1] + path.durations[:-1]))
        gaps = path.onsets - ends
        rate = params.nu * UNIT.area
        stat, p = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate))
        assert p > 0.01

    def test_locations_are_uniform(self):
        result, _ = self.run(seed=1)
        locs = result.scanpath.locations
        counts, _, _ = np.histogram2d(locs[:, 0], locs[:, 1],
                                      bins=4, range=[[0, 1], [0, 1]])
        _, p = stats.chisquare(counts.ravel())
        assert p > 0.01

    def test_respects_horizon_and_ordering(self):
        result, _ = self.run(seed=2)
        path = result.scanpath
        assert np.all(path.onsets <= 300.0)
        assert np.all(path.durations > 0)
        ends = path.onsets + path.durations
        assert np.all(path.onsets[1:] >= ends[:-1])


class TestDurationSampling:
    def test_lognormal_statistics(self):
        dspec, dparams = plain_durations(mean=0.2, sigma2=0.09)
        rng = np.random.default_rng(5)
        draws = np.array([
            sample_duration(np.array([0.1]), np.ones((1, 1)), dspec, dparams, rng)
            for _ in range(4000)])
        logs = np.log(draws)
        se = math.sqrt(0.09 / 4000)
        assert abs(float(np.mean(logs)) - math.log(0.2)) < 4 * se
        assert float(np.var(logs)) == pytest.approx(0.09, rel=0.15)

    def test_gamma_statistics(self):
        spec = sp.DurationSpec(columns=("intercept",), distribution="gamma")
        params = sp.DurationParams.initial(spec).replace(
            w=np.array([math.log(0.25)]), shape=4.0)
        rng = np.random.default_rng(6)
        draws = np.array([
            sample_duration(np.array([0.1]), np.ones((1, 1)), spec, params, rng)
            for _ in range(4000)])
        se = 0.25 / math.sqrt(4.0 * 4000)
        assert abs(float(np.mean(draws)) - 0.25) < 4 * se

    def test_spillover_shifts_the_mean(self):
        spec = sp.DurationSpec(mean_variant="markov", spillover=("e",),
                               columns=("intercept", "e"), lags=1)
        params = sp.DurationParams.initial(spec, sigma2=1e-8).replace(
            w=np.array([math.log(0.2), 0.0]), w_prime=np.array([[0.5]]))
        rng = np.random.default_rng(7)
        design = np.array([[1.0, 2.0], [1.0, 2.0]])
        d = sample_duration(np.array([0.1, 0.6]), design, spec, params, rng)
        # second event inherits 0.5 * 2.0 on the log scale, variance is negligible
        assert d == pytest.approx(0.2 * math.exp(1.0), rel=1e-2)


class StubRng:
    """Returns the given values from ``uniform`` and zeros from
    ``standard_normal``, so a Gaussian draw lands on its center; records
    each ``uniform`` call's bounds."""

    def __init__(self, *values):
        self.values = list(values)
        self.bounds = []

    def uniform(self, lo=0.0, hi=1.0):
        self.bounds.append((lo, hi))
        return self.values.pop(0)

    def standard_normal(self, size):
        return np.zeros(size)


class RecordingNumpy:
    """numpy, recording the size of each array its functions return."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.sizes.append(out.size)
            return out

        return call


class TestLocationSampling:
    # running sums C = 0.5, 0.5, 1.75, 2.0: source 1 has no rate
    RATES = np.array([0.5, 0.0, 1.25, 0.25])
    CENTERS = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    BASE = 1.0

    def draw(self, value):
        """The location drawn when the uniform on [0, intensity) reads ``value``."""
        spec, params = hawkes_setup()
        state = sp.HistoryState.empty(spec, params, UNIT)
        intensity = self.BASE + float(self.RATES.sum())
        rng = StubRng(value, 0.25, 0.75)
        loc = _draw_location(rng, state, self.BASE, intensity, self.RATES, self.CENTERS,
                             _Counts())
        assert rng.bounds[0] == (0.0, intensity)
        return loc

    # the pick is the value less the base rate, exact in these cases
    @pytest.mark.parametrize("value,source", [
        (1.0, 0), (np.nextafter(1.5, 0.0), 0), (1.5, 2), (2.0, 2),
        (np.nextafter(2.75, 0.0), 2), (2.75, 3), (2.875, 3),
        # rounding can put the pick at or past the last running sum
        (3.0, 3), (3.5, 3)])
    def test_pick_in_the_running_sums_picks_its_source(self, value, source):
        pick = value - self.BASE
        sums = np.cumsum(self.RATES)
        assert (sums[source - 1] if source else 0.0) <= pick
        assert pick < sums[source] or source == self.RATES.size - 1
        assert self.draw(value).tolist() == self.CENTERS[source].tolist()

    @pytest.mark.parametrize("value", [0.0, np.nextafter(1.0, 0.0)])
    def test_pick_below_the_rates_is_uniform(self, value):
        assert self.draw(value).tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("rates,base", [(np.empty(0), 1.0), (np.zeros(3), 0.0)])
    def test_no_pick_without_sources_or_intensity(self, rates, base):
        spec, params = hawkes_setup()
        state = sp.HistoryState.empty(spec, params, UNIT)
        rng = StubRng(0.25, 0.75)
        loc = _draw_location(rng, state, base, base + float(rates.sum()), rates,
                             np.zeros((rates.size, 2)), _Counts())
        assert loc.tolist() == [0.25, 0.75]
        assert rng.bounds == [(UNIT.x0, UNIT.x1), (UNIT.y0, UNIT.y1)]

    def test_accepted_event_builds_no_array_past_the_sources(self, monkeypatch):
        rng = np.random.default_rng(74)
        spec, params = hawkes_setup()
        path = sp.Scanpath("r", "t", tuple(
            sp.Fixation(0.3 * k, float(x), float(y), 0.2)
            for k, (x, y) in enumerate(rng.uniform(0.0, 1.0, (300, 2)))))
        state = sp.HistoryState.build(path, np.ones((300, 1)), spec, params, UNIT)
        recording = RecordingNumpy()
        monkeypatch.setattr(simulate, "np", recording)
        counts = _Counts()
        for seed in range(20):
            assert _sample_next(np.random.default_rng(seed), state, 1e3, counts) is not None
        assert counts.accepted == 20
        # the running sums over the sources, and nothing longer
        assert max(recording.sizes) == state.n

    def test_rejection_path_matches_truncated_normal(self):
        fixes = make_fixations([(0.1, 0.1)], [(0.7, 0.8)])
        path = sp.Scanpath("r", "t", fixes)
        spec = sp.SaccadeSpec(variant="hawkes", link="relu", columns=("c",))
        params = sp.SaccadeParams.initial(spec, nu=1e-9, sigma2=0.09).replace(
            alpha=np.array([10.0]), beta=np.array([0.5]))
        X = np.ones((1, 1))
        xs, ys = [], []
        for rng in spawn_rngs(11, 1200):
            nxt = next_fixation(path, spec, params, horizon=50.0, rng=rng, X=X)
            assert nxt is not None
            t, loc = nxt
            assert t > 0.2
            assert UNIT.contains(loc[0], loc[1])
            xs.append(loc[0])
            ys.append(loc[1])
        _, px = stats.kstest(xs, truncated_normal_cdf(0.7, 0.3, 0.0, 1.0))
        _, py = stats.kstest(ys, truncated_normal_cdf(0.8, 0.3, 0.0, 1.0))
        assert px > 0.01
        assert py > 0.01

    def test_fallback_path_matches_truncated_normal(self):
        # a huge sigma defeats rejection sampling (1000 tries land with
        # probability about 0.04), forcing the exact inverse-CDF fallback;
        # per-axis truncation stays the right law
        rng = np.random.default_rng(12)
        mu = np.array([0.7, 0.8])
        results = [_draw_gaussian_location(rng, mu, 60.0, UNIT) for _ in range(400)]
        assert sum(fell_back for _, fell_back in results) > 350
        draws = np.array([loc for loc, _ in results])
        assert np.all((draws >= 0.0) & (draws < 1.0))
        _, px = stats.kstest(draws[:, 0], truncated_normal_cdf(0.7, 60.0, 0.0, 1.0))
        _, py = stats.kstest(draws[:, 1], truncated_normal_cdf(0.8, 60.0, 0.0, 1.0))
        assert px > 0.01
        assert py > 0.01


class TestHawkesSampling:
    def simulate_paths(self, count=12, horizon=50.0, seed=100):
        spec, params = hawkes_setup()
        dspec, dparams = plain_durations(mean=0.15, sigma2=0.02)
        paths = []
        for i, rng in enumerate(spawn_rngs(seed, count)):
            config = SimConfig(horizon=horizon, omega=UNIT, seed=0)
            result = sample_scanpath(spec, params, dspec, dparams, config,
                                     x_row=np.ones(1), x_dur_row=np.ones(1),
                                     text_id=f"sim{i}", rng=rng)
            assert not result.truncated
            paths.append(result.scanpath)
        return paths, spec, params

    def pooled_increments(self, paths, spec, params):
        out = []
        for path in paths:
            pd = sp.PathData.from_scanpath(path, np.ones((len(path), 1)))
            out.append(sp.compensator_increments(pd, spec, params, UNIT))
        return np.concatenate(out)

    def test_time_rescaling_under_generator(self):
        paths, spec, params = self.simulate_paths()
        increments = self.pooled_increments(paths, spec, params)
        assert increments.size > 400
        _, p = stats.kstest(increments, "expon", args=(0.0, 1.0))
        assert p > 0.01

    def test_time_rescaling_rejects_perturbed_model(self):
        paths, spec, params = self.simulate_paths()
        inflated = params.replace(nu=3.0 * params.nu)
        _, p_nu = stats.kstest(self.pooled_increments(paths, spec, inflated),
                               "expon", args=(0.0, 1.0))
        assert p_nu < 0.01
        faster = params.replace(beta=2.0 * params.beta)
        _, p_decay = stats.kstest(self.pooled_increments(paths, spec, faster),
                                  "expon", args=(0.0, 1.0))
        assert p_decay < 0.01

    def test_deterministic_given_seed(self):
        spec, params = hawkes_setup()
        dspec, dparams = plain_durations()
        config = SimConfig(horizon=10.0, omega=UNIT, seed=21)
        a = sample_scanpath(spec, params, dspec, dparams, config,
                            x_row=np.ones(1), x_dur_row=np.ones(1))
        b = sample_scanpath(spec, params, dspec, dparams, config,
                            x_row=np.ones(1), x_dur_row=np.ones(1))
        assert len(a.scanpath) == len(b.scanpath)
        assert np.array_equal(a.scanpath.onsets, b.scanpath.onsets)
        assert np.array_equal(a.scanpath.locations, b.scanpath.locations)
        assert np.array_equal(a.scanpath.durations, b.scanpath.durations)

    def test_thinning_counts(self):
        spec, params = hawkes_setup()
        dspec, dparams = plain_durations()
        config = SimConfig(horizon=100.0, omega=UNIT, seed=4)
        result = sample_scanpath(spec, params, dspec, dparams, config,
                                 x_row=np.ones(1), x_dur_row=np.ones(1))
        assert result.accepted == len(result.scanpath) > 10
        # the bound leaves out the screen mass and the decay since the
        # last candidate, so some candidates are rejected
        assert result.accepted < result.candidates
        assert result.location_fallbacks == 0

    @pytest.mark.parametrize("rows", [dict(x_dur_row=np.ones(1)), dict(x_row=np.ones(1)),
                                      dict(x_row=np.ones(1), x_dur_row=None)])
    def test_columns_require_design_rows(self, rows):
        spec, params = hawkes_setup()
        dspec, dparams = plain_durations()
        config = SimConfig(horizon=10.0, omega=UNIT, seed=21)
        with pytest.raises(sp.UsageError, match="design rows"):
            sample_scanpath(spec, params, dspec, dparams, config, **rows)

    def test_design_row_width_checked(self):
        spec, params = hawkes_setup()
        dspec, dparams = plain_durations()
        config = SimConfig(horizon=10.0, omega=UNIT, seed=21)
        with pytest.raises(sp.ValidationError, match="design rows"):
            sample_scanpath(spec, params, dspec, dparams, config,
                            x_row=np.ones(2), x_dur_row=np.ones(1))

    @pytest.mark.parametrize("rows", [dict(x_row=np.array([np.nan]), x_dur_row=np.ones(1)),
                                      dict(x_row=np.ones(1), x_dur_row=np.array([np.nan]))])
    def test_non_finite_design_row_rejected(self, rows):
        spec, params = hawkes_setup()
        dspec, dparams = plain_durations()
        config = SimConfig(horizon=10.0, omega=UNIT, seed=21)
        with pytest.raises(sp.ValidationError,
                           match="^column 0 of the design row must be finite, got nan$"):
            sample_scanpath(spec, params, dspec, dparams, config, **rows)

    def test_truncation_flag(self):
        spec, params = hawkes_setup()
        dspec, dparams = plain_durations()
        config = SimConfig(horizon=50.0, omega=UNIT, seed=3, max_events=5)
        result = sample_scanpath(spec, params, dspec, dparams, config,
                                 x_row=np.ones(1), x_dur_row=np.ones(1))
        assert result.truncated
        assert len(result.scanpath) == 5

    def test_next_fixation_past_horizon_is_none(self):
        fixes = make_fixations([(0.2, 0.2)], [(0.5, 0.5)])
        path = sp.Scanpath("r", "t", fixes)
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=1e-9)
        nxt = next_fixation(path, spec, params, horizon=0.5, rng=np.random.default_rng(0))
        assert nxt is None

    def test_next_fixation_with_columns_requires_history_design(self):
        path = sp.Scanpath("r", "t", make_fixations([(0.2, 0.2)], [(0.5, 0.5)]))
        spec, params = hawkes_setup()
        assert next_fixation(path, spec, params, horizon=50.0, rng=np.random.default_rng(0),
                             X=np.ones((1, 1))) is not None
        with pytest.raises(sp.UsageError, match="design rows"):
            next_fixation(path, spec, params, horizon=50.0, rng=np.random.default_rng(0))


class TestRngs:
    def test_spawn_rngs_reproducible_and_distinct(self):
        a = spawn_rngs(9, 3)
        b = spawn_rngs(9, 3)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.uniform(size=4), rb.uniform(size=4))
        fresh = spawn_rngs(9, 3)
        assert not np.array_equal(fresh[0].uniform(size=4),
                                  fresh[1].uniform(size=4))

    def test_sim_config_validation(self):
        with pytest.raises(sp.ValidationError):
            SimConfig(horizon=0.0, omega=UNIT)
        with pytest.raises(sp.ValidationError):
            SimConfig(horizon=1.0, omega=UNIT, max_events=0)

    @pytest.mark.parametrize("omega", [None, (0.0, 0.0, 1.0, 1.0)])
    def test_omega_must_be_a_rect(self, omega):
        with pytest.raises(sp.ValidationError, match=rf"^omega must be a Rect, got "
                                                     rf"{re.escape(repr(omega))}$"):
            SimConfig(horizon=1.0, omega=omega)

    @pytest.mark.parametrize("horizon", [math.nan, -math.inf])
    def test_horizon_must_be_a_number_above_zero(self, horizon):
        with pytest.raises(sp.ValidationError, match=f"^horizon must be > 0, got {horizon}$"):
            SimConfig(horizon=horizon, omega=UNIT)

    def test_infinite_horizon_runs_to_the_event_cap(self):
        spec, params = hawkes_setup()
        dspec, dparams = plain_durations()
        config = SimConfig(horizon=math.inf, omega=UNIT, seed=3, max_events=7)
        result = sample_scanpath(spec, params, dspec, dparams, config,
                                 x_row=np.ones(1), x_dur_row=np.ones(1))
        assert result.truncated and len(result.scanpath) == 7
