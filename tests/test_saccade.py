import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import dense_saccade as dense
import scanpp as sp
from scanpp import mathutil, saccade
from scanpp.plotting import split_at_time
from scanpp.saccade import (
    compensator_increments,
    loglik_grad,
    loglik_terms,
)

from conftest import assert_shrunk, make_fixations, shrink_blocks, small_instance
from test_golden import OMEGA as RSE_OMEGA, rse_model


def softplus_ref(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def link_ref(name, x):
    if name == "relu":
        return np.maximum(x, 0.0)
    return softplus_ref(x)


def oracle_masses(path, design, spec, params, omega):
    """Spatial integral of each source's density over the screen, by 2-D quadrature."""
    masses = []
    for j in range(len(path)):
        mu = oracle_mean(path.locations[j], design[j], spec, params)
        s2 = params.sigma2

        def density(y, x):
            return math.exp(-((x - mu[0]) ** 2 + (y - mu[1]) ** 2) / (2 * s2)) / (2 * math.pi * s2)

        val, err = integrate.dblquad(density, omega.x0, omega.x1,
                                     omega.y0, omega.y1,
                                     epsabs=1e-13, epsrel=1e-11)
        masses.append(val)
    return np.array(masses)


def oracle_mean(s, x, spec, params):
    if spec.mean_fn == "baseline":
        return np.asarray(s, dtype=float)
    mu = params.A @ np.asarray(s, dtype=float) + params.b
    if spec.mean_fn == "full":
        mu = mu + params.C @ np.asarray(x, dtype=float)
    return mu


def oracle_increments(path, design, spec, params, omega, masses=None):
    """Per-event integrated intensity by adaptive quadrature in time.

    Uses the raw definition directly: the time argument of source m for
    event n at wall time u is u - t_m - sum of the intervening durations.
    """
    t = path.onsets
    d = path.durations
    n = len(path)
    if spec.variant == "hawkes":
        a = link_ref(spec.link, design @ params.alpha)
        b = link_ref(spec.link, design @ params.beta)
    if spec.variant != "poisson" and masses is None:
        masses = oracle_masses(path, design, spec, params, omega)
    out = []
    for i in range(n):
        lo = t[i - 1] + d[i - 1] if i else 0.0
        hi = t[i]
        if spec.variant == "poisson":
            out.append(params.nu * omega.area * (hi - lo))
            continue
        if spec.variant == "last_fixation":
            if i == 0:
                out.append(params.nu * omega.area * hi)
            else:
                out.append((params.nu * omega.area + masses[i - 1]) * (hi - lo))
            continue

        def marg(u, i=i):
            total = params.nu * omega.area
            for j in range(i):
                arg = u - t[j] - float(np.sum(d[j:i]))
                total += a[j] * math.exp(-b[j] * arg) * masses[j]
            return total

        val, err = integrate.quad(marg, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        out.append(val)
    return np.array(out)


class TestKernels:
    def test_spatial_density_peak(self):
        val = dense.spatial_density(np.array([3.0, 4.0]), np.array([3.0, 4.0]), 1.0)
        assert val == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    def test_spatial_density_offset(self):
        val = dense.spatial_density(np.array([2.0, 0.0]), np.array([0.0, 0.0]), 4.0)
        assert val == pytest.approx(math.exp(-0.5) / (8 * math.pi), rel=1e-12)

    def test_spatial_mean_variants(self):
        s = np.array([2.0, 3.0])
        x = np.array([1.0, -1.0])

        def center(spec, params):
            return saccade._sources(s[None], x[None], spec, params)["mu"][0]

        base = sp.SaccadeSpec(variant="hawkes", mean_fn="baseline", columns=("a", "b"))
        params = sp.SaccadeParams.initial(base)
        assert np.allclose(center(base, params), s)
        aff = sp.SaccadeSpec(variant="hawkes", mean_fn="affine", columns=("a", "b"))
        A = np.array([[0.9, 0.1], [-0.2, 1.1]])
        b = np.array([5.0, -2.0])
        params = sp.SaccadeParams.initial(aff).replace(A=A, b=b)
        assert np.allclose(center(aff, params), A @ s + b)
        full = sp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=("a", "b"))
        C = np.array([[1.0, 2.0], [0.5, -0.5]])
        params = sp.SaccadeParams.initial(full).replace(A=A, b=b, C=C)
        assert np.allclose(center(full, params), A @ s + b + C @ x)

    def test_spatial_mass_matches_quadrature_and_is_subunit(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            omega = sp.Rect(0.0, 0.0, float(rng.uniform(1, 3)), float(rng.uniform(1, 3)))
            mu = np.array([rng.uniform(-0.5, 3.5), rng.uniform(-0.5, 3.5)])
            s2 = float(rng.uniform(0.05, 1.0))
            mass = float(saccade._screen_mass(mu[None], s2, omega, grad=False)[0][0])
            assert 0.0 < mass <= 1.0

            def density(y, x):
                return math.exp(-((x - mu[0]) ** 2 + (y - mu[1]) ** 2) / (2 * s2)) / (2 * math.pi * s2)

            ref, _ = integrate.dblquad(density, omega.x0, omega.x1, omega.y0,
                                       omega.y1, epsabs=1e-13, epsrel=1e-11)
            assert mass == pytest.approx(ref, rel=1e-9, abs=1e-12)


class TestPointwise:
    def test_poisson_constant_intensity(self, simple_scanpath, omega):
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=2.0)
        state = sp.HistoryState.build(simple_scanpath, None, spec, params)
        assert state.intensity_at(5.0, [(10.0, 10.0)])[0] == 2.0

    def test_poisson_compensator_hand_value(self):
        fixes = make_fixations([(1.0, 0.5)], [(0.5, 0.5)])
        path = sp.Scanpath("r", "t", fixes)
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=2.0)
        omega = sp.Rect(0.0, 0.0, 1.0, 1.0)
        state = sp.HistoryState.build(path, None, spec, params, omega)
        assert dense.compensator(state, 2.0) == pytest.approx(1.0)

    def test_poisson_unit_square_log_density(self):
        path = sp.Scanpath("r", "t", make_fixations([(1.0, 0.5)], [(0.5, 0.5)]))
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=1.0)
        omega = sp.Rect(0.0, 0.0, 1.0, 1.0)
        val = loglik_terms(sp.PathData.from_scanpath(path), spec, params, omega).per_event[0]
        assert val == pytest.approx(-1.0, rel=1e-12)

    def test_intensity_refuses_past(self, simple_scanpath):
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=1.0)
        state = sp.HistoryState.build(simple_scanpath, None, spec, params)
        with pytest.raises(sp.DomainError):
            state.intensity_at(1.0, [(1.0, 1.0)])

    @pytest.mark.parametrize("op", ["intensity", "compensator", "log_density"])
    def test_columns_require_history_design(self, op):
        rng = np.random.default_rng(4)
        path, design, spec, params, omega = small_instance(rng, n=3)
        t = path.fixations[-1].end + 0.1
        s = (omega.x0 + 0.5, omega.y0 + 0.5)
        calls = {
            "intensity": lambda X: sp.HistoryState.build(
                path, X, spec, params).intensity_at(t, [s])[0],
            "compensator": lambda X: dense.compensator(
                sp.HistoryState.build(path, X, spec, params, omega), t),
            "log_density": lambda X: dense.log_density(t, s, path, spec, params, omega, X=X),
        }
        assert math.isfinite(calls[op](design))
        with pytest.raises(sp.UsageError, match="design rows"):
            calls[op](None)

    def test_intensity_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        path, design, spec, params, omega = small_instance(rng, n=5)
        t = path.fixations[-1].end + 0.2
        s = np.array([omega.x0 + 0.6, omega.y0 + 0.8])
        a = link_ref(spec.link, design @ params.alpha)
        b = link_ref(spec.link, design @ params.beta)
        total = params.nu
        for j in range(5):
            arg = t - path.onsets[j] - float(np.sum(path.durations[j:]))
            mu = oracle_mean(path.locations[j], design[j], spec, params)
            dens = math.exp(-float(np.sum((s - mu) ** 2)) / (2 * params.sigma2)) \
                / (2 * math.pi * params.sigma2)
            total += a[j] * math.exp(-b[j] * arg) * dens
        got = sp.HistoryState.build(path, design, spec, params).intensity_at(t, [s])[0]
        assert got == pytest.approx(total, rel=1e-12)


def history_case(variant, mean_fn, link, columns, n, seed=31):
    """A history of n fixations; X is None unless the spec has columns."""
    rng = np.random.default_rng(seed)
    path, design, spec, params, omega = small_instance(
        rng, variant=variant, mean_fn=mean_fn, p=2, n=max(n, 1), link=link)
    path = sp.Scanpath("r", "t", path.fixations[:n])
    if variant != "hawkes":
        return path, None, spec, params, omega
    if not columns:
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn=mean_fn, link=link)
        params = params.replace(alpha=np.zeros(0), beta=np.zeros(0), C=np.zeros((2, 0)))
        return path, None, spec, params, omega
    return path, design[:n], spec, params, omega


def reference_intensity(t, s, path, X, spec, params):
    """The scalar intensity as written term by term before HistoryState."""
    s = np.asarray(s, dtype=float).reshape(2)
    if spec.variant == "poisson" or len(path) == 0:
        return float(params.nu)
    if spec.variant == "last_fixation":
        return float(params.nu) + dense.spatial_density(s, path.locations[-1], params.sigma2)
    X = np.zeros((len(path), 0)) if X is None else X
    a = sp.mathutil.apply_link(spec.link, X @ params.alpha)
    b = sp.mathutil.apply_link(spec.link, X @ params.beta)
    mu = path.locations
    if spec.mean_fn != "baseline":
        mu = path.locations @ params.A.T + params.b
        if spec.mean_fn == "full":
            mu = mu + X @ params.C.T
    age = (t - float(np.sum(path.durations))) - sp.PathData.from_scanpath(path).clock
    phi = a * np.exp(-b * age)
    psi = np.exp(-np.sum((s - mu) ** 2, axis=1) / (2.0 * params.sigma2)) \
        / (2.0 * np.pi * params.sigma2)
    return float(params.nu + np.sum(phi * psi))


HISTORY_CASES = ([("poisson", "baseline", "softplus", False),
                  ("last_fixation", "baseline", "softplus", False)]
                 + [("hawkes", mean_fn, link, columns)
                    for mean_fn in ("baseline", "affine", "full")
                    for link in ("softplus", "relu") for columns in (False, True)])


class TestHistoryState:
    @pytest.mark.parametrize("n", [0, 1, 7, 150])
    @pytest.mark.parametrize("variant,mean_fn,link,columns", HISTORY_CASES)
    def test_intensity_at_equals_scalar(self, monkeypatch, variant, mean_fn, link,
                                        columns, n):
        path, X, spec, params, omega = history_case(variant, mean_fn, link, columns, n)
        t = (path.fixations[-1].end if n else 0.0) + 0.13
        gx, gy = np.meshgrid(np.linspace(omega.x0 - 0.2, omega.x1 + 0.2, 37),
                             np.linspace(omega.y0, omega.y1, 3))
        points = np.stack([gx.ravel(), gy.ravel()], axis=1)[:37]
        state = sp.HistoryState.build(path, X, spec, params)
        alone = np.array([state.intensity_at(t, [s])[0] for s in points])
        reference = np.array([reference_intensity(t, s, path, X, spec, params)
                              for s in points])
        assert np.array_equal(alone, reference)
        assert np.array_equal(state.intensity_at(t, points), alone)
        # 37 points in blocks of max(1, 20 // n) rows: a ragged last block
        monkeypatch.setattr(mathutil, "_BLOCK_PAIRS", 20)
        rows = []
        density = saccade._density
        monkeypatch.setattr(saccade, "_density",
                            lambda p, c, s2: rows.append(len(p)) or density(p, c, s2))
        assert np.array_equal(state.intensity_at(t, points), alone)
        if variant == "hawkes" and n:
            assert sum(rows) == 37 and max(rows) == max(1, 20 // n)

    def test_columns_require_history_design(self):
        path, X, spec, params, _ = history_case("hawkes", "full", "softplus", True, 3)
        with pytest.raises(sp.UsageError, match="design rows"):
            sp.HistoryState.build(path, None, spec, params)
        empty = sp.Scanpath("r", "t", ())
        state = sp.HistoryState.build(empty, None, spec, params)
        assert np.array_equal(state.intensity_at(0.5, np.zeros((4, 2))),
                              np.full(4, params.nu))
        fix = path.fixations[0]
        with pytest.raises(sp.UsageError, match="design rows"):
            state.append(fix.onset, fix.duration, (fix.x, fix.y))
        for wrong in (X[:, :1], X[:2]):
            with pytest.raises(sp.ValidationError, match="design rows"):
                sp.HistoryState.build(path, wrong, spec, params)
        with pytest.raises(sp.ValidationError, match="design rows"):
            state.append(fix.onset, fix.duration, (fix.x, fix.y), X[0, :1])

    def test_refuses_time_inside_history(self):
        path, X, spec, params, omega = history_case("hawkes", "affine", "softplus", True, 3)
        state = sp.HistoryState.build(path, X, spec, params)
        with pytest.raises(sp.DomainError):
            state.intensity_at(path.fixations[-1].end - 0.05, np.zeros((1, 2)))

    def test_intensity_grid_equals_cell_loop(self):
        path, X, spec, params, omega = history_case("hawkes", "full", "softplus", True, 7)
        t = (path.fixations[3].end + path.fixations[4].onset) / 2.0
        xs, ys, values = sp.intensity_grid(t, path, spec, params, omega, 7, 5, X=X)
        state = sp.HistoryState.build(sp.Scanpath("r", "t", path.fixations[:4]), X[:4], spec,
                                      params)
        loop = np.array([[state.intensity_at(t, [(x, y)])[0] for x in xs] for y in ys])
        assert values.shape == (5, 7)
        assert np.array_equal(values, loop)

    def test_split_at_time_matches_record_loop(self):
        def reference(path, t):
            """The split as a loop over records: the fixations ended by t, or the one holding t."""
            fixes = path.fixations
            if not fixes[0].onset <= t <= fixes[-1].end:
                return "outside"
            k = 0
            for i, fix in enumerate(fixes):
                if fix.onset <= t < fix.end:
                    return f"[{fix.onset}, {fix.end})"
                if fix.end <= t:
                    k = i + 1
            return k

        # back to back, then a tolerated overlap of 5e-13 s, then a gap
        path = sp.Scanpath("r", "t", make_fixations(
            [(0.1, 0.2), (0.30000000000000004, 0.1), (0.3999999999995, 0.1), (0.8, 0.3)],
            [(1.0, 1.0)] * 4))
        points = sorted({v for f in path.fixations for v in (f.onset, f.end)}
                        | {0.0, 0.05, 0.2, 0.35, 0.3999999999997, 0.6, 0.9, 1.1, 1.2})
        for t in points:
            want = reference(path, t)
            if want == "outside":
                with pytest.raises(sp.ValidationError, match="outside the scanpath's span"):
                    split_at_time(path, t)
            elif isinstance(want, str):
                with pytest.raises(sp.DomainError, match=re.escape(want)):
                    split_at_time(path, t)
            else:
                history, nxt = split_at_time(path, t)
                assert history == sp.Scanpath("r", "t", path.fixations[:want])
                assert nxt == (want if want < 4 else None)

    def test_append_matches_build_on_a_simulated_path(self):
        # The benchmark's generating model: an intercept plus reader one-hot
        # design and identity center map, where the one-event and the
        # whole-history formulas round alike.
        columns = ("intercept", "reader:r0", "reader:r1", "reader:r2")
        spec = sp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=columns)
        C = np.array([[0.0, -25.0, 0.0, 25.0], [0.0, 10.0, -12.0, 5.0]])
        params = sp.SaccadeParams.initial(spec, nu=4.82e-7, sigma2=1600.0).replace(
            alpha=np.array([0.0, 1.04, 1.51, 1.85]), beta=np.array([0.0, 2.31, 2.95, 3.37]),
            b=np.array([127.3, 0.0]), C=C)
        omega = sp.Rect(0.0, 0.0, 1920.0, 1080.0)
        dur_spec = sp.DurationSpec(columns=("intercept",))
        dur_params = sp.DurationParams.initial(dur_spec, sigma2=0.1).replace(
            w=np.array([np.log(0.2)]))
        row = np.array([1.0, 0.0, 1.0, 0.0])
        config = sp.SimConfig(horizon=1e4, omega=omega, seed=8, max_events=300)
        path = sp.sample_scanpath(spec, params, dur_spec, dur_params, config, x_row=row,
                                  x_dur_row=np.ones(1)).scanpath
        assert len(path) == 300
        built = sp.HistoryState.build(path, np.tile(row, (300, 1)), spec, params, omega)
        grown = sp.HistoryState.empty(spec, params, omega)
        for fix in path:
            grown.append(fix.onset, fix.duration, (fix.x, fix.y), row)
        assert grown.n == built.n == 300
        for field in ("onsets", "durations", "locations", "clock", "a", "b", "mu", "mass"):
            assert np.array_equal(getattr(grown, field), getattr(built, field)), field
        assert grown.last_end == built.last_end

    @pytest.mark.parametrize("variant,mean_fn,link,columns", HISTORY_CASES)
    def test_append_matches_build_to_rounding(self, variant, mean_fn, link, columns):
        # 40 events cross two capacity doublings. With general design rows
        # and center maps, a row's matrix product can round differently from
        # the whole history's, and the total duration is a running sum
        # rather than a pairwise one.
        path, X, spec, params, omega = history_case(variant, mean_fn, link, columns, 40)
        built = sp.HistoryState.build(path, X, spec, params, omega)
        grown = sp.HistoryState.empty(spec, params, omega)
        for i, fix in enumerate(path):
            grown.append(fix.onset, fix.duration, (fix.x, fix.y), None if X is None else X[i])
        assert np.array_equal(grown.clock, built.clock)
        for field in ("a", "b", "mu", "mass"):
            np.testing.assert_allclose(getattr(grown, field), getattr(built, field),
                                       rtol=1e-14, atol=1e-15, err_msg=field)
        t = built.last_end + 0.3
        points = np.array([[omega.x0 + 0.3, omega.y0 + 0.4], [omega.x1 - 0.2, omega.y1 - 0.7]])
        np.testing.assert_allclose(grown.intensity_at(t, points), built.intensity_at(t, points),
                                   rtol=1e-13)
        assert dense.compensator(grown, t) == pytest.approx(dense.compensator(built, t),
                                                            rel=1e-13)

    def test_screen_operations_need_a_screen(self):
        path, X, spec, params, omega = history_case("hawkes", "full", "softplus", True, 3)
        state = sp.HistoryState.build(path, X, spec, params)
        assert state.mass is None
        with pytest.raises(sp.UsageError, match="screen"):
            state.intensity_upper_bound(path.fixations[-1].end + 0.1)


class TestCompensatorOracle:
    @pytest.mark.parametrize("variant,mean_fn,seed", [
        ("poisson", "baseline", 41), ("last_fixation", "baseline", 42),
        ("hawkes", "baseline", 43), ("hawkes", "affine", 44),
        ("hawkes", "full", 45)])
    def test_increments_match_quadrature(self, variant, mean_fn, seed):
        rng = np.random.default_rng(seed)
        for trial in range(3):
            path, design, spec, params, omega = small_instance(
                rng, variant=variant, mean_fn=mean_fn, n=int(rng.integers(2, 8)))
            pd = sp.PathData.from_scanpath(path, design)
            got = sp.compensator_increments(pd, spec, params, omega)
            want = oracle_increments(path, design, spec, params, omega)
            assert got.shape == want.shape
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
            assert np.max(rel) < 1e-6

    def test_relu_link_increments(self):
        rng = np.random.default_rng(99)
        path, design, spec, params, omega = small_instance(
            rng, variant="hawkes", mean_fn="full", n=6, link="relu")
        pd = sp.PathData.from_scanpath(path, design)
        got = sp.compensator_increments(pd, spec, params, omega)
        want = oracle_increments(path, design, spec, params, omega)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
        assert np.max(rel) < 1e-6

    def test_public_compensator_beyond_history(self):
        rng = np.random.default_rng(17)
        path, design, spec, params, omega = small_instance(rng, n=4)
        t = path.fixations[-1].end + 0.35
        got = dense.compensator(sp.HistoryState.build(path, design, spec, params, omega), t)
        a = link_ref(spec.link, design @ params.alpha)
        b = link_ref(spec.link, design @ params.beta)
        masses = oracle_masses(path, design, spec, params, omega)
        d = path.durations

        def marg(u):
            total = params.nu * omega.area
            for j in range(4):
                arg = u - path.onsets[j] - float(np.sum(d[j:]))
                total += a[j] * math.exp(-b[j] * arg) * masses[j]
            return total

        want, _ = integrate.quad(marg, path.fixations[-1].end, t,
                                 epsabs=1e-12, epsrel=1e-10)
        assert got == pytest.approx(want, rel=1e-7)

    def test_full_3d_quadrature_cross_check(self):
        rng = np.random.default_rng(5)
        path, design, spec, params, omega = small_instance(
            rng, variant="hawkes", mean_fn="full", n=3)
        pd = sp.PathData.from_scanpath(path, design)
        got = sp.compensator_increments(pd, spec, params, omega)
        a = link_ref(spec.link, design @ params.alpha)
        b = link_ref(spec.link, design @ params.beta)
        t = path.onsets
        d = path.durations
        mus = [oracle_mean(path.locations[j], design[j], spec, params)
               for j in range(3)]
        for i in range(3):
            lo = t[i - 1] + d[i - 1] if i else 0.0

            def lam(y, x, u, i=i):
                total = params.nu
                for j in range(i):
                    arg = u - t[j] - float(np.sum(d[j:i]))
                    dens = math.exp(-((x - mus[j][0]) ** 2 + (y - mus[j][1]) ** 2)
                                    / (2 * params.sigma2)) / (2 * math.pi * params.sigma2)
                    total += a[j] * math.exp(-b[j] * arg) * dens
                return total

            want, err = integrate.tplquad(lam, lo, t[i], omega.x0, omega.x1,
                                          omega.y0, omega.y1,
                                          epsabs=1e-10, epsrel=1e-8)
            assert got[i] == pytest.approx(want, rel=1e-6, abs=1e-10)

    def test_decay_zero_limit_continuous(self):
        # drive one decay through zero: closed form must approach the b=0 limit
        fixes = make_fixations([(0.2, 0.1), (0.6, 0.1)], [(0.5, 0.5), (0.7, 0.6)])
        path = sp.Scanpath("r", "t", fixes)
        spec = sp.SaccadeSpec(variant="hawkes", link="relu", columns=("c",))
        omega = sp.Rect(0.0, 0.0, 1.0, 1.0)
        design = np.ones((2, 1))
        vals = []
        for beta in (1e-3, 1e-6, 1e-9, 0.0):
            params = sp.SaccadeParams.initial(spec, nu=0.5, sigma2=0.2).replace(
                alpha=np.array([1.0]), beta=np.array([beta]))
            pd = sp.PathData.from_scanpath(path, design)
            vals.append(sp.compensator_increments(pd, spec, params, omega)[1])
        assert np.all(np.isfinite(vals))
        assert vals[-1] == pytest.approx(vals[-2], rel=1e-6)
        # b=0 means no decay: the kernel integral is mass * gap exactly
        mass = float(saccade._screen_mass(np.array([[0.5, 0.5]]), 0.2, omega, grad=False)[0][0])
        gap = 0.6 - 0.3
        expect = 0.5 * 1.0 * gap + 1.0 * mass * gap
        assert vals[-1] == pytest.approx(expect, rel=1e-12)


class TestLoglik:
    def test_total_matches_pointwise_chain(self):
        """Vectorized likelihood equals sequential intensity/compensator calls."""
        rng = np.random.default_rng(21)
        for variant, mean_fn in (("poisson", "baseline"), ("last_fixation", "baseline"),
                                 ("hawkes", "full")):
            path, design, spec, params, omega = small_instance(
                rng, variant=variant, mean_fn=mean_fn, n=6)
            result = loglik_terms(sp.PathData.from_scanpath(path, design), spec, params, omega)
            total = 0.0
            for i in range(len(path)):
                prefix = sp.Scanpath("r", "t", path.fixations[:i])
                fix = path.fixations[i]
                total += dense.log_density(fix.onset, (fix.x, fix.y), prefix, spec,
                                           params, omega, X=design[:i])
            assert float(result) == pytest.approx(total, rel=1e-9, abs=1e-9)

    def test_per_event_sums_to_total(self):
        rng = np.random.default_rng(2)
        path, design, spec, params, omega = small_instance(rng, n=7)
        result = loglik_terms(sp.PathData.from_scanpath(path, design), spec, params, omega)
        assert float(result) == pytest.approx(float(np.sum(result.per_event)), rel=1e-12)

    def test_affine_identity_equals_baseline(self):
        rng = np.random.default_rng(8)
        path, design, spec, params, omega = small_instance(rng, mean_fn="affine", n=5)
        params = params.replace(A=np.eye(2), b=np.zeros(2))
        base_spec = sp.SaccadeSpec(variant="hawkes", mean_fn="baseline",
                                   link=spec.link, columns=spec.columns)
        pd = sp.PathData.from_scanpath(path, design)
        ll_aff = loglik_terms(pd, spec, params, omega).total
        ll_base = loglik_terms(pd, base_spec, params, omega).total
        assert ll_aff == pytest.approx(ll_base, rel=1e-12)

    def test_full_with_zero_offsets_equals_affine(self):
        rng = np.random.default_rng(9)
        path, design, spec, params, omega = small_instance(rng, mean_fn="full", n=5)
        params = params.replace(C=np.zeros_like(params.C))
        aff_spec = sp.SaccadeSpec(variant="hawkes", mean_fn="affine",
                                  link=spec.link, columns=spec.columns)
        pd = sp.PathData.from_scanpath(path, design)
        ll_full = loglik_terms(pd, spec, params, omega).total
        ll_aff = loglik_terms(pd, aff_spec, params, omega).total
        assert ll_full == pytest.approx(ll_aff, rel=1e-12)

    def test_relu_dead_kernel_equals_poisson(self):
        rng = np.random.default_rng(10)
        path, design, spec, params, omega = small_instance(rng, n=5, link="relu")
        # col 0 is the intercept: alpha = (-5, 0) makes every excitation
        # preactivation -5, which the relu link clamps to exactly zero
        params = params.replace(alpha=np.array([-5.0, 0.0]))
        pois = sp.SaccadeSpec(variant="poisson")
        pois_params = sp.SaccadeParams.initial(pois, nu=params.nu)
        ll_hawkes = loglik_terms(sp.PathData.from_scanpath(path, design), spec, params,
                                 omega).total
        ll_pois = loglik_terms(sp.PathData.from_scanpath(path), pois, pois_params, omega).total
        assert ll_hawkes == pytest.approx(ll_pois, rel=1e-12)

    @pytest.mark.parametrize("op", [loglik_terms, loglik_grad, compensator_increments])
    def test_design_width_checked(self, op):
        path, design, spec, params, omega = small_instance(np.random.default_rng(8), n=4)
        assert op(sp.PathData.from_scanpath(path, design), spec, params, omega) is not None
        for wrong in (design[:, :1], np.hstack([design, design]), None):
            with pytest.raises(sp.ValidationError, match="design rows"):
                op(sp.PathData.from_scanpath(path, wrong), spec, params, omega)

    def test_overlapping_events_marked_invalid(self, omega):
        # PathData accepts raw arrays, so an event that starts inside the
        # previous fixation is representable; its term must be -inf
        pd = sp.PathData(onsets=[0.5, 0.55], durations=[0.2, 0.1],
                         locations=[(100.0, 100.0), (200.0, 100.0)],
                         design=np.zeros((2, 0)))
        spec = sp.SaccadeSpec(variant="poisson")
        params = sp.SaccadeParams.initial(spec, nu=1.0)
        result = loglik_terms(pd, spec, params, omega)
        assert result.invalid_count == 1
        assert result.per_event[1] == -np.inf
        assert np.isfinite(result.per_event[0])


# --- The band against the dense evaluation -----------------------------------

def assert_terms_match(got, want):
    """Same -inf positions and count; finite terms within 1e-12, relative or absolute."""
    assert got.invalid_count == want.invalid_count
    assert np.array_equal(np.isfinite(got.per_event), np.isfinite(want.per_event))
    fin = np.isfinite(want.per_event)
    assert np.array_equal(got.per_event[~fin], want.per_event[~fin])
    err = np.abs(got.per_event[fin] - want.per_event[fin])
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want.per_event[fin])))


def assert_matches_dense(pd, spec, params, omega):
    """Terms, increments and, where every term is finite, each gradient key."""
    terms, grads = saccade.loglik_grad(pd, spec, params, omega)
    with np.errstate(invalid="ignore"):  # 0 * inf where a term is -inf
        want, want_grads = dense.loglik_grad(pd, spec, params, omega)
    assert_terms_match(terms, want)
    assert_terms_match(loglik_terms(pd, spec, params, omega), want)
    comp = sp.compensator_increments(pd, spec, params, omega)
    want_comp = dense.lam_comp(pd, spec, params, omega)[1]
    assert np.all(np.abs(comp - want_comp) <= 1e-12 * np.maximum(1.0, np.abs(want_comp)))
    assert grads.keys() == want_grads.keys()
    if want.invalid_count:
        return terms, grads
    for key, value in want_grads.items():
        err = np.linalg.norm(np.asarray(grads[key]) - value)
        assert err <= 1e-10 * np.linalg.norm(value), key
    return terms, grads


def band(clock, w, starts=(0,)):
    """The band's blocks at cutoff w."""
    return mathutil._band(mathutil._first_kept(clock, w, starts))


def kept_pairs(pd, spec, params):
    src = saccade._sources(pd.locations, pd.design, spec, params)
    w = saccade._window(src["a"], src["b"], params.nu, params.sigma2, pd.n)
    return sum(cols.size for *_, cols in band(pd.clock, w)), w


@pytest.fixture(scope="module")
def rse_long():
    """A 4000-event path simulated from the full RSE model, as PathData."""
    spec, params = rse_model()
    dur_spec = sp.DurationSpec(columns=("intercept",))
    dur_params = sp.DurationParams.initial(dur_spec, sigma2=0.1).replace(
        w=np.array([math.log(0.2)]))
    config = sp.SimConfig(horizon=1e5, omega=RSE_OMEGA, seed=4242, max_events=4000)
    x = np.array([1.0, 0.0, 1.0, 0.0])
    sim = sp.sample_scanpath(spec, params, dur_spec, dur_params, config, x_row=x,
                             x_dur_row=np.ones(1), reader_id="r1", text_id="long")
    assert len(sim.scanpath) == 4000
    return sp.PathData.from_scanpath(sim.scanpath, np.tile(x, (4000, 1)))


def prefix(pd, n):
    return sp.PathData(pd.onsets[:n], pd.durations[:n], pd.locations[:n], pd.design[:n])


def long_case(link, alpha, beta):
    """A full-map path of 300 events on a 3x2 screen over columns (intercept, z), z = +-1."""
    n = 300
    rng = np.random.default_rng(57)
    gaps = rng.uniform(0.05, 0.4, n)
    durs = rng.uniform(0.1, 0.3, n)
    onsets = np.cumsum(gaps) + np.concatenate(([0.0], np.cumsum(durs[:-1])))
    locs = np.column_stack([rng.uniform(0.1, 2.9, n), rng.uniform(0.1, 1.9, n)])
    design = np.column_stack([np.ones(n), rng.choice([-1.0, 1.0], n)])
    spec = sp.SaccadeSpec(variant="hawkes", mean_fn="full", link=link,
                          columns=("intercept", "z"))
    params = sp.SaccadeParams.initial(spec, nu=0.5, sigma2=0.2).replace(
        alpha=np.asarray(alpha, dtype=float), beta=np.asarray(beta, dtype=float),
        A=np.array([[0.95, 0.03], [-0.02, 1.05]]), b=np.array([0.05, -0.03]),
        C=np.array([[0.02, -0.04], [0.03, 0.01]]))
    return (sp.PathData(onsets, durs, locs, design), spec, params,
            sp.Rect(0.0, 0.0, 3.0, 2.0))


class TestBandAgainstDense:
    @pytest.mark.parametrize("n", [0, 1, 2, 90])
    @pytest.mark.parametrize("variant,mean_fn,link,columns", HISTORY_CASES)
    def test_variants(self, monkeypatch, variant, mean_fn, link, columns, n):
        path, X, spec, params, omega = history_case(variant, mean_fn, link, columns, n)
        pd = sp.PathData.from_scanpath(path, X)
        assert_matches_dense(pd, spec, params, omega)
        # blocks of 20 pairs: most rows alone in a block, many longer than it
        blocks = shrink_blocks(monkeypatch)
        assert_matches_dense(pd, spec, params, omega)
        if variant == "hawkes":
            assert_shrunk(blocks, 10 if n == 90 else 0)

    def test_long_path_drops_most_pairs(self, rse_long):
        pd = prefix(rse_long, 1500)
        spec, params = rse_model()
        kept, w = kept_pairs(pd, spec, params)
        assert math.isfinite(w)
        assert kept <= 0.2 * pd.n * (pd.n - 1) / 2
        terms, _ = assert_matches_dense(pd, spec, params, RSE_OMEGA)
        assert terms.invalid_count == 0

    def test_relu_zero_decay_keeps_every_pair(self):
        pd, spec, params, omega = long_case("relu", alpha=[1.0, 0.3], beta=[0.0, 1.5])
        kept, w = kept_pairs(pd, spec, params)
        assert w == math.inf and kept == pd.n * (pd.n - 1) // 2
        assert_matches_dense(pd, spec, params, omega)

    def test_relu_zero_amplitude_sources(self):
        # a = relu(1 - 2z) is 0 where z = 1; the decay is 1.5 or 2.5 everywhere
        pd, spec, params, omega = long_case("relu", alpha=[-1.0, -2.0], beta=[2.0, 0.5])
        a = saccade._sources(pd.locations, pd.design, spec, params)["a"]
        assert np.any(a == 0.0) and np.any(a > 0.0)
        kept, w = kept_pairs(pd, spec, params)
        assert kept < 0.8 * pd.n * (pd.n - 1) / 2
        _, grads = assert_matches_dense(pd, spec, params, omega)
        assert np.all(grads["alpha"] != 0.0)

    def test_vanishing_amplitude_keeps_its_gradient(self):
        # a is about 1e-13, so lambda and the compensator hardly see the
        # sources, but d/da, which has no factor a, does
        pd, spec, params, omega = long_case("softplus", alpha=[-30.0, 0.0], beta=[2.5, 0.5])
        kept, w = kept_pairs(pd, spec, params)
        assert kept < 0.8 * pd.n * (pd.n - 1) / 2
        assert_matches_dense(pd, spec, params, omega)

    def test_zero_base_rate_keeps_every_pair(self):
        pd, spec, params, omega = long_case("softplus", alpha=[0.5, 0.2], beta=[1.0, 0.3])
        params = params.replace(nu=0.0)
        kept, w = kept_pairs(pd, spec, params)
        assert w == math.inf and kept == pd.n * (pd.n - 1) // 2
        terms, _ = assert_matches_dense(pd, spec, params, omega)
        assert terms.per_event[0] == -np.inf and np.all(np.isfinite(terms.per_event[1:]))

    @pytest.mark.parametrize("k,overlap", [(200, 0.5), (60, 20.0)])
    def test_overlapping_event_on_a_banded_path(self, k, overlap):
        pd, spec, params, omega = long_case("softplus", alpha=[0.5, 0.2], beta=[2.5, 0.5])
        onsets = pd.onsets.copy()
        # event k starts `overlap` seconds before the end of event k - 1, so
        # the clock runs backwards there; 20 s is more than the cutoff, and
        # sources before event 60 are then within it of later events
        onsets[k:] -= onsets[k] - (onsets[k - 1] + pd.durations[k - 1] - overlap)
        pd = sp.PathData(onsets, pd.durations, pd.locations, pd.design)
        assert np.any(np.diff(pd.clock) < 0)
        kept, w = kept_pairs(pd, spec, params)
        assert kept < 0.8 * pd.n * (pd.n - 1) / 2 and w < 20.0
        terms, _ = assert_matches_dense(pd, spec, params, omega)
        assert terms.invalid_count == 1 and terms.per_event[k] == -np.inf

    def test_pause_longer_than_the_cutoff(self):
        # sources just before a 30 s pause are older than the cutoff at its
        # end, but still count towards the compensator over the pause
        pd, spec, params, omega = long_case("softplus", alpha=[0.5, 0.2], beta=[2.5, 0.5])
        onsets = pd.onsets.copy()
        onsets[150:] += 30.0
        pd = sp.PathData(onsets, pd.durations, pd.locations, pd.design)
        kept, w = kept_pairs(pd, spec, params)
        assert w < 30.0 and kept < 0.8 * pd.n * (pd.n - 1) / 2
        assert_matches_dense(pd, spec, params, omega)

    def test_gradient_memory_is_bounded(self, rse_long):
        spec, params = rse_model()
        tracemalloc.start()
        try:
            terms, grads = saccade.loglik_grad(rse_long, spec, params, RSE_OMEGA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert terms.invalid_count == 0 and np.all(np.isfinite(grads["C"]))
        # dense n x n arrays at n = 4000 take 128 MB each
        assert peak < 64 * 2**20


# --- Batches of scanpaths ------------------------------------------------------

def random_segment(rng, m, omega, p, label, signed=False):
    """m fixations inside omega; design rows (intercept, z) when p, else none.

    z is uniform on [-1, 1], or +-1 when ``signed``.
    """
    gaps = rng.uniform(0.05, 0.4, m)
    durs = rng.uniform(0.1, 0.3, m)
    onsets = np.cumsum(gaps) + np.concatenate(([0.0], np.cumsum(durs[:-1])))[:m]
    locs = np.column_stack([rng.uniform(omega.x0 + 0.05, omega.x1 - 0.05, m),
                            rng.uniform(omega.y0 + 0.05, omega.y1 - 0.05, m)])
    if not p:
        return sp.PathData(onsets, durs, locs, np.zeros((m, 0)), labels=(label,))
    z = rng.choice([-1.0, 1.0], (m, p - 1)) if signed else rng.uniform(-1.0, 1.0, (m, p - 1))
    return sp.PathData(onsets, durs, locs, np.column_stack([np.ones(m), z]), labels=(label,))


def segment_ids(batch):
    return np.repeat(np.arange(len(batch.labels)), batch.lengths)


def assert_batch_matches(units, spec, params, omega):
    """A batch against per-path calls and the dense oracle, term by term.

    Per-event terms and increments within 1e-12, each gradient key within
    1e-10 of the per-path sum, relative.
    """
    batch = sp.PathData.concat(units)
    terms, grads = saccade.loglik_grad(batch, spec, params, omega)
    per_path = [saccade.loglik_grad(u, spec, params, omega) for u in units]
    with np.errstate(invalid="ignore"):
        dense_path = [dense.loglik_grad(u, spec, params, omega) for u in units]
    for results in (per_path, dense_path):
        want = saccade.ScanpathLoglik(np.concatenate([t.per_event for t, _ in results]),
                                      sum(t.invalid_count for t, _ in results))
        assert_terms_match(terms, want)
        assert_terms_match(loglik_terms(batch, spec, params, omega), want)
        assert grads.keys() == results[0][1].keys()
        if want.invalid_count:
            continue
        for key in grads:
            value = sum(np.asarray(g[key], dtype=float) for _, g in results)
            err = np.linalg.norm(np.asarray(grads[key]) - value)
            assert err <= 1e-10 * max(np.linalg.norm(value), 1e-300), key
    comp = compensator_increments(batch, spec, params, omega)
    for want_comp in (np.concatenate([compensator_increments(u, spec, params, omega)
                                      for u in units]),
                      np.concatenate([dense.lam_comp(u, spec, params, omega)[1]
                                      for u in units])):
        assert np.all(np.abs(comp - want_comp) <= 1e-12 * np.maximum(1.0, np.abs(want_comp)))
    return batch, terms


def batch_kept_pairs(batch, spec, params):
    """Kept pairs of the batch's band; every one lies within a segment."""
    src = saccade._sources(batch.locations, batch.design, spec, params)
    w = saccade._window(src["a"], src["b"], params.nu, params.sigma2, int(batch.lengths.max()))
    seg = segment_ids(batch)
    kept = 0
    for _, _, rows, cols in band(batch.clock, w, batch.starts):
        assert np.array_equal(seg[rows], seg[cols])
        kept += cols.size
    return kept, w


def within_pairs(batch):
    return int(sum(m * (m - 1) // 2 for m in batch.lengths))


LENGTHS = (90, 0, 2, 1, 300, 0)


def long_segments(link, alpha, beta, lengths=LENGTHS):
    """long_case's spec and parameters over segments of the given lengths."""
    _, spec, params, omega = long_case(link, alpha, beta)
    rng = np.random.default_rng(58)
    units = [random_segment(rng, m, omega, 2, f"r{k}/t{k}", signed=True)
             for k, m in enumerate(lengths)]
    return units, spec, params, omega


class TestPathDataBatch:
    def test_concat_restarts_clock_and_gaps(self):
        rng = np.random.default_rng(3)
        omega = sp.Rect(0.0, 0.0, 3.0, 2.0)
        units = [random_segment(rng, m, omega, 2, f"p{k}") for k, m in enumerate((4, 0, 1, 3))]
        batch = sp.PathData.concat(units)
        assert batch.n == 8 and batch.labels == ("p0", "p1", "p2", "p3")
        assert batch.starts.tolist() == [0, 4, 4, 5] and batch.lengths.tolist() == [4, 0, 1, 3]
        assert np.array_equal(batch.clock, np.concatenate([u.clock for u in units]))
        assert np.array_equal(batch.gaps, np.concatenate([u.gaps for u in units]))
        assert batch.after_first.tolist() == [1, 2, 3, 6, 7]
        assert [batch.locate(k) for k in (0, 3, 4, 5, 7)] == [
            ("p0", 0), ("p0", 3), ("p2", 0), ("p3", 0), ("p3", 2)]
        # the same batch built from its arrays computes the same clock
        direct = sp.PathData(batch.onsets, batch.durations, batch.locations, batch.design,
                             starts=batch.starts, labels=batch.labels)
        assert np.array_equal(direct.clock, batch.clock)
        assert np.array_equal(direct.gaps, batch.gaps)
        assert sp.PathData.concat(units[:1]) is units[0]
        empty = sp.PathData.concat([])
        assert empty.n == 0 and empty.labels == () and empty.clock.size == 0

    @pytest.mark.parametrize("variant,mean_fn,link,columns", HISTORY_CASES)
    def test_empty_batch_under_every_spec(self, variant, mean_fn, link, columns):
        path, X, spec, params, omega = history_case(variant, mean_fn, link, columns, 5)
        _, want = loglik_grad(sp.PathData.from_scanpath(path, X), spec, params, omega)
        empty = sp.PathData.concat([])
        terms, grads = loglik_grad(empty, spec, params, omega)
        assert terms.per_event.shape == (0,) and terms.total == 0.0
        assert list(grads) == list(want)
        for key, value in grads.items():
            assert np.shape(value) == np.shape(want[key]) and not np.any(value)
        assert loglik_terms(empty, spec, params, omega).per_event.shape == (0,)
        assert compensator_increments(empty, spec, params, omega).shape == (0,)

    def test_single_path_is_a_batch_of_one(self):
        pd = random_segment(np.random.default_rng(4), 5, sp.Rect(0, 0, 3, 2), 2, "r/t")
        assert pd.starts.tolist() == [0] and pd.labels == ("r/t",)
        assert pd.after_first.tolist() == [1, 2, 3, 4]
        assert pd.locate(3) == ("r/t", 3)

    @pytest.mark.parametrize("starts,labels", [([1, 3], ("a", "b")), ([0, 3, 2], "abc"),
                                               ([0, 9], ("a", "b")), ([0], ("a", "b"))])
    def test_bad_segments_rejected(self, starts, labels):
        with pytest.raises(sp.ValidationError):
            sp.PathData(np.arange(5.0), np.full(5, 0.1), np.zeros((5, 2)), np.zeros((5, 0)),
                        starts=starts, labels=tuple(labels))

    def test_concat_rejects_unequal_design_widths(self):
        rng = np.random.default_rng(5)
        omega = sp.Rect(0.0, 0.0, 3.0, 2.0)
        units = [random_segment(rng, 3, omega, p, f"p{p}") for p in (2, 3)]
        with pytest.raises(sp.ValidationError, match="design widths"):
            sp.PathData.concat(units)


class TestBatchAgainstPerPath:
    @pytest.mark.parametrize("variant,mean_fn,link,columns", HISTORY_CASES)
    def test_variants(self, monkeypatch, variant, mean_fn, link, columns):
        _, _, spec, params, omega = history_case(variant, mean_fn, link, columns, 2)
        rng = np.random.default_rng(59)
        units = [random_segment(rng, m, omega, spec.p, f"r{k}/t{k}")
                 for k, m in enumerate(LENGTHS)]
        assert_batch_matches(units, spec, params, omega)
        # blocks of 20 pairs, which straddle segment boundaries
        blocks = shrink_blocks(monkeypatch)
        assert_batch_matches(units, spec, params, omega)
        if variant == "hawkes":
            assert_shrunk(blocks, 10)

    def test_banded_segments(self, monkeypatch):
        units, spec, params, omega = long_segments("softplus", [0.5, 0.2], [2.5, 0.5])
        batch, terms = assert_batch_matches(units, spec, params, omega)
        kept, w = batch_kept_pairs(batch, spec, params)
        assert math.isfinite(w) and kept < 0.8 * within_pairs(batch)
        assert terms.invalid_count == 0
        # at one cutoff, the batch keeps exactly each segment's own band
        pairs = np.concatenate([np.stack([rows, cols]) for *_, rows, cols
                                in band(batch.clock, w, batch.starts)], axis=1)
        want = np.concatenate([np.stack([rows, cols]) + lo for u, lo in zip(units, batch.starts)
                               for *_, rows, cols in band(u.clock, w)], axis=1)
        assert np.array_equal(pairs, want)
        # and the cutoff is the batch's: its largest a, smallest b, longest segment
        calls = []
        saccade_window = saccade._window

        def window(a, b, nu, sigma2, n):
            calls.append((a.size, b.size, n))
            return saccade_window(a, b, nu, sigma2, n)

        monkeypatch.setattr(saccade, "_window", window)
        saccade.loglik_grad(batch, spec, params, omega)
        assert calls == [(batch.n, batch.n, 300)]

    @pytest.mark.parametrize("lengths", [LENGTHS, (300, 90), (1, 2, 300)])
    def test_relu_zero_decay_keeps_every_pair_within_segments(self, lengths):
        units, spec, params, omega = long_segments("relu", [1.0, 0.3], [0.0, 1.5], lengths)
        batch, _ = assert_batch_matches(units, spec, params, omega)
        kept, w = batch_kept_pairs(batch, spec, params)
        assert w == math.inf and kept == within_pairs(batch)

    def test_zero_base_rate(self):
        units, spec, params, omega = long_segments("softplus", [0.5, 0.2], [1.0, 0.3],
                                                   (40, 0, 60))
        params = params.replace(nu=0.0)
        batch, terms = assert_batch_matches(units, spec, params, omega)
        assert batch_kept_pairs(batch, spec, params) == (within_pairs(batch), math.inf)
        # the first event of each segment has no source, so zero intensity
        assert np.flatnonzero(~np.isfinite(terms.per_event)).tolist() == [0, 40]

    @pytest.mark.parametrize("k,overlap", [(60, 0.5), (60, 20.0)])
    def test_overlapping_event_stays_in_its_segment(self, k, overlap):
        units, spec, params, omega = long_segments("softplus", [0.5, 0.2], [2.5, 0.5],
                                                   (90, 300, 90))
        bad = units[1]
        onsets = bad.onsets.copy()
        onsets[k:] -= onsets[k] - (onsets[k - 1] + bad.durations[k - 1] - overlap)
        units[1] = sp.PathData(onsets, bad.durations, bad.locations, bad.design,
                               labels=bad.labels)
        batch, terms = assert_batch_matches(units, spec, params, omega)
        assert np.flatnonzero(~np.isfinite(terms.per_event)).tolist() == [90 + k]
        assert batch.locate(90 + k) == ("r1/t1", k)
        # the segment after it is evaluated as if alone
        alone = loglik_terms(units[2], spec, params, omega).per_event
        assert np.allclose(terms.per_event[390:], alone, rtol=1e-12, atol=0.0)

    def test_gradient_sums_over_segments_in_fitting_units(self):
        units, spec, params, omega = long_segments("softplus", [0.5, 0.2], [2.5, 0.5])
        model = sp.SaccadeModel(spec, omega)
        raw = model.pack(params)
        batch = sp.PathData.concat(units)
        ll, grad = model.grad_unit(raw, batch)
        parts = [model.grad_unit(raw, u) for u in units]
        assert batch.n == sum(u.n for u in units)
        assert ll == pytest.approx(sum(p[0] for p in parts), rel=1e-13)
        want = np.sum([p[1] for p in parts], axis=0)
        assert np.linalg.norm(grad - want) <= 1e-10 * np.linalg.norm(want)
        per_event = model.per_event_loglik(raw, batch)
        assert np.allclose(per_event,
                           np.concatenate([model.per_event_loglik(raw, u) for u in units]),
                           rtol=1e-12, atol=0.0)


# --- Closed-form compensator sums against per-pair sums -----------------------

def band_mask(batch, w):
    """(n, n) mask of the source-target pairs the band keeps at cutoff w."""
    keep = np.zeros((batch.n, batch.n), dtype=bool)
    for *_, rows, cols in band(batch.clock, w, batch.starts):
        keep[rows, cols] = True
    return keep


class TestClosedFormCompensatorSums:
    """The gradient pass integrates each source's compensator over the span its
    kept rows tile. The dense oracle, restricted to the same kept pairs, sums
    the per-pair integrals one by one; each gradient entry agrees within
    1e-13, and the per-event terms are the loss pass's bit for bit."""

    @pytest.mark.parametrize("link,alpha,beta,lengths", [
        ("softplus", [0.5, 0.2], [2.5, 0.5], (0, 1, 2, 90)),
        ("softplus", [0.5, 0.2], [2.5, 0.5], LENGTHS),
        ("relu", [1.0, 0.3], [0.0, 1.5], LENGTHS),
        ("softplus", [0.5, 0.2], [2.5, 0.5], ()),
    ], ids=["lengths-0-1-2-90", "cutoff-drops-sources", "relu-zero-decay", "empty"])
    def test_gradient_matches_per_pair_sums(self, monkeypatch, link, alpha, beta, lengths):
        units, spec, params, omega = long_segments(link, alpha, beta, lengths)
        batch = sp.PathData.concat(units)
        # an empty batch has no columns; the pass gives it the spec's width
        src = saccade._sources(batch.locations, batch.design.reshape(batch.n, spec.p), spec,
                               params)
        w = saccade._window(src["a"], src["b"], params.nu, params.sigma2,
                            int(batch.lengths.max(initial=0)))
        keep = band_mask(batch, w)
        # the softplus cases drop sources; relu with zero decay keeps every pair
        finite = link == "softplus" and batch.n > 0
        assert math.isfinite(w) == finite
        assert (int(keep.sum()) < within_pairs(batch)) == finite
        blocks = shrink_blocks(monkeypatch)
        terms, grads = saccade.loglik_grad(batch, spec, params, omega)
        assert_shrunk(blocks, 10 if batch.n else 0)
        assert np.array_equal(terms.per_event,
                              loglik_terms(batch, spec, params, omega).per_event)
        assert terms.invalid_count == 0
        want = {}
        offsets = np.cumsum([0] + [u.n for u in units])
        for u, lo in zip(units or [batch], offsets):
            _, g = dense.loglik_grad(u, spec, params, omega,
                                     keep=keep[lo:lo + u.n, lo:lo + u.n])
            for key, value in g.items():
                want[key] = want.get(key, 0.0) + np.asarray(value, dtype=float)
        assert grads.keys() == want.keys()
        for key, value in want.items():
            got = np.asarray(grads[key], dtype=float)
            assert got.shape == value.shape, key
            assert np.all(np.abs(got - value) <= 1e-13 * np.abs(value)), key
