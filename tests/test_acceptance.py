"""End-to-end acceptance checks, one numbered criterion per test.

Every test prints one live ``PASS criterion N`` / ``FAIL criterion N`` line
(bypassing capture) and enforces its own tolerance and, where stated, a
wall-clock budget. Numeric checks run against routes independent of the
library code: adaptive quadrature, finite differences, closed forms, and
hand-enumerated fixtures.
"""
import math
import time

import numpy as np
import pytest
import scipy.integrate as sint
import scipy.stats

import scanpp as sp
from scanpp.data import design_for_columns
from scanpp.fit import objective
from scanpp.mathutil import softplus_inv
from scanpp.saccade import PathData

from conftest import make_fixations, on_word, random_scanpath, small_instance


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# --- independent scalar helpers (no shared code with the package) -----------

def _softplus(v):
    return float(np.logaddexp(0.0, v))


def _link(name, v):
    return max(0.0, float(v)) if name == "relu" else _softplus(v)


def _axis_mass(mu, sigma2, lo, hi):
    def pdf(u):
        return math.exp(-(u - mu) ** 2 / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
    val, _ = sint.quad(pdf, lo, hi, epsabs=1e-13, epsrel=1e-11)
    return val


def _plane_mass(mu, sigma2, omega):
    def pdf(y, x):
        r2 = (x - mu[0]) ** 2 + (y - mu[1]) ** 2
        return math.exp(-r2 / (2.0 * sigma2)) / (2.0 * math.pi * sigma2)
    val, _ = sint.dblquad(pdf, omega.x0, omega.x1, omega.y0, omega.y1,
                          epsabs=1e-12, epsrel=1e-10)
    return val


def _kernel_pieces(design, locs, spec, params):
    """Per-source link outputs and excitation centers from raw definitions."""
    amps, decs, centers = [], [], []
    for m in range(design.shape[0]):
        x = design[m]
        amps.append(_link(spec.link, x @ params.alpha))
        decs.append(_link(spec.link, x @ params.beta))
        if spec.mean_fn == "baseline":
            mu = locs[m].copy()
        else:
            mu = params.A @ locs[m] + params.b
            if spec.mean_fn == "full":
                mu = mu + params.C @ x
        centers.append(mu)
    return amps, decs, centers


def _oracle_increments(path, design, spec, params, omega, full_2d=False):
    """Per-event compensator values by adaptive quadrature over time x space."""
    n = len(path)
    durs = path.durations
    clock = path.onsets - np.concatenate(([0.0], np.cumsum(durs[:-1])))
    starts = np.concatenate(([0.0], clock[:-1]))
    area = omega.width * omega.height
    out = params.nu * area * (clock - starts)
    if spec.variant == "poisson":
        return out
    if spec.variant == "last_fixation":
        for i in range(1, n):
            mass = (_plane_mass(path.locations[i - 1], params.sigma2, omega)
                    if full_2d else
                    _axis_mass(path.locations[i - 1][0], params.sigma2, omega.x0, omega.x1)
                    * _axis_mass(path.locations[i - 1][1], params.sigma2, omega.y0, omega.y1))
            out[i] += mass * (clock[i] - starts[i])
        return out
    amps, decs, centers = _kernel_pieces(design, path.locations, spec, params)
    masses = []
    for mu in centers:
        if full_2d:
            masses.append(_plane_mass(mu, params.sigma2, omega))
        else:
            masses.append(_axis_mass(mu[0], params.sigma2, omega.x0, omega.x1)
                          * _axis_mass(mu[1], params.sigma2, omega.y0, omega.y1))
    for i in range(1, n):
        for m in range(i):
            tint, _ = sint.quad(lambda s, m=m: math.exp(-decs[m] * (s - clock[m])),
                                starts[i], clock[i], epsabs=1e-13, epsrel=1e-11)
            out[i] += amps[m] * masses[m] * tint
    return out


def _oracle_window(path, design, spec, params, omega, gap):
    """Compensator of the open window after the last fixation, length gap."""
    durs = path.durations
    clock = path.onsets - np.concatenate(([0.0], np.cumsum(durs[:-1])))
    lo = clock[-1]
    area = omega.width * omega.height
    total = params.nu * area * gap
    if spec.variant == "poisson":
        return total
    if spec.variant == "last_fixation":
        mass = (_axis_mass(path.locations[-1][0], params.sigma2, omega.x0, omega.x1)
                * _axis_mass(path.locations[-1][1], params.sigma2, omega.y0, omega.y1))
        return total + mass * gap
    amps, decs, centers = _kernel_pieces(design, path.locations, spec, params)
    for m in range(len(path)):
        mass = (_axis_mass(centers[m][0], params.sigma2, omega.x0, omega.x1)
                * _axis_mass(centers[m][1], params.sigma2, omega.y0, omega.y1))
        tint, _ = sint.quad(lambda s, m=m: math.exp(-decs[m] * (s - clock[m])),
                            lo, lo + gap, epsabs=1e-13, epsrel=1e-11)
        total += amps[m] * mass * tint
    return total


# --- criterion 1: compensator vs adaptive quadrature ------------------------

def test_criterion_01_compensator_quadrature(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    variants = ["hawkes", "hawkes", "hawkes", "poisson", "last_fixation"]
    mean_fns = ["baseline", "affine", "full"]
    worst = 0.0
    for k in range(100):
        variant = variants[k % len(variants)]
        mean_fn = mean_fns[k % len(mean_fns)]
        link = "relu" if k % 4 == 3 else "softplus"
        n = int(rng.integers(2, 11))
        path, design, spec, params, omega = small_instance(
            rng, variant=variant, mean_fn=mean_fn, p=1 + k % 3, n=n, link=link)
        pd = PathData(path.onsets, path.durations, path.locations, design)
        got = sp.compensator_increments(pd, spec, params, omega)
        want = _oracle_increments(path, design, spec, params, omega,
                                  full_2d=(k < 5))
        err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12))
        worst = max(worst, err)
        gap = float(rng.uniform(0.05, 0.5))
        t = path.fixations[-1].end + gap
        x_arg = design if variant == "hawkes" else None
        got_w = sp.compensator(t, path, spec, params, omega, X=x_arg)
        want_w = _oracle_window(path, design, spec, params, omega, gap)
        worst = max(worst, abs(got_w - want_w) / max(abs(want_w), 1e-12))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(capsys, 1, ok,
            f"compensator vs quadrature, 100 instances, max rel err "
            f"{worst:.2e} (tol 1e-06), {elapsed:.1f}s (budget 60s)")


# --- criterion 2: analytic gradients vs finite differences ------------------

def _saccade_grad_instance(rng, variant, mean_fn, link):
    while True:
        path, design, spec, params, omega = small_instance(
            rng, variant=variant, mean_fn=mean_fn, p=2, n=6, link=link)
        model = sp.SaccadeModel(spec, omega)
        raw = model.pack(params) + rng.normal(0.0, 0.05, model.dim)
        if link == "relu" and variant == "hawkes":
            ps = model.unpack(raw)
            margin = min(float(np.min(np.abs(design @ ps.alpha))),
                         float(np.min(np.abs(design @ ps.beta))))
            if margin < 1e-2:
                continue
        pd = PathData(path.onsets, path.durations, path.locations, design)
        return model, [pd], raw


def _duration_grad_instance(rng, mean_variant, distribution):
    box = sp.Rect(0.0, 0.0, 100.0, 100.0)
    path = random_scanpath(rng, 8, box)
    cols = ("intercept", "c1")
    spill = ("c1",) if mean_variant != "plain" else ()
    spec = sp.DurationSpec(mean_variant=mean_variant, spillover=spill,
                           lags=2 if mean_variant == "markov" else 0,
                           distribution=distribution, columns=cols)
    design = rng.uniform(-1.0, 1.0, size=(8, 2))
    design[:, 0] = 1.0
    model = sp.DurationModel(spec)
    pd = PathData(path.onsets, path.durations, path.locations, design)
    raw = rng.normal(0.0, 0.3, model.dim)
    return model, [pd], raw


def test_criterion_02_gradients_finite_difference(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    sacc = [("poisson", "baseline", "softplus"), ("last_fixation", "baseline", "softplus"),
            ("hawkes", "baseline", "softplus"), ("hawkes", "affine", "softplus"),
            ("hawkes", "full", "softplus"), ("hawkes", "baseline", "relu"),
            ("hawkes", "affine", "relu"), ("hawkes", "full", "relu")]
    dur = [("plain", "lognormal"), ("convolution", "lognormal"), ("markov", "lognormal"),
           ("plain", "gamma"), ("convolution", "gamma"), ("markov", "gamma")]
    worst = 0.0
    for k in range(50):
        if k < 30:
            model, units, raw = _saccade_grad_instance(rng, *sacc[k % len(sacc)])
        else:
            model, units, raw = _duration_grad_instance(rng, *dur[k % len(dur)])
        _, grad = objective(model, units, raw, want_grad=True)
        fd = np.empty_like(raw)
        for i in range(raw.size):
            h = 1e-5 * max(1.0, abs(raw[i]))
            up, dn = raw.copy(), raw.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (objective(model, units, up, want_grad=False)[0]
                     - objective(model, units, dn, want_grad=False)[0]) / (2.0 * h)
        err = float(np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))))
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 120.0
    _report(capsys, 2, ok,
            f"analytic vs central-difference gradients, 50 instances over all "
            f"variants, max rel err {worst:.2e} (tol 1e-04), {elapsed:.1f}s "
            f"(budget 120s)")


# --- criterion 3: background-rate closed form -------------------------------

def test_criterion_03_poisson_rate_closed_form(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    omega = sp.Rect(0.0, 0.0, 1024.0, 768.0)
    paths = [random_scanpath(rng, 30, omega, reader=f"r{i % 2}", text=f"t{i}")
             for i in range(8)]
    units = [PathData.from_scanpath(p, design_for_columns(p, ())) for p in paths]
    model = sp.SaccadeModel(sp.SaccadeSpec(variant="poisson"), omega)
    config = sp.TrainConfig(learning_rate=0.05, batch_size=64, max_epochs=5,
                            patience=5, seed=0, split=(1.0, 0.0, 0.0))
    result = sp.train(model, units, config)
    n_events = sum(len(p) for p in paths)
    exposure = sum(float(p.onsets[-1] - np.sum(p.durations[:-1])) for p in paths)
    closed = n_events / (omega.width * omega.height * exposure)
    rel = abs(result.params.nu / closed - 1.0)
    elapsed = time.monotonic() - t0
    ok = rel <= 0.01 and elapsed < 10.0
    _report(capsys, 3, ok,
            f"fitted base rate {result.params.nu:.6e} vs closed form "
            f"{closed:.6e}, rel err {rel:.2e} (tol 1e-02), {elapsed:.2f}s")


# --- shared ground-truth dataset for criteria 4-6 ---------------------------

RSE_OMEGA = sp.Rect(0.0, 0.0, 1920.0, 1080.0)
RSE_READERS = ("r0", "r1", "r2")
RSE_COLUMNS = ("intercept", "reader:r0", "reader:r1", "reader:r2")
RSE_AMP = (1.3, 1.7, 2.0)
RSE_DECAY = (2.4, 3.0, 3.4)
RSE_SHIFT = np.array([127.3, 0.0])
RSE_CEFF = ((-25.0, 10.0), (0.0, -12.0), (25.0, 5.0))
RSE_NU = 4.82e-7
RSE_SIGMA2 = 1600.0
RSE_PATHS_PER_READER = 20
RSE_HORIZON = 60.0
RSE_SEED = 4242


def _rse_truth():
    spec = sp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=RSE_COLUMNS)
    alpha = np.array([0.0] + [softplus_inv(a) for a in RSE_AMP])
    beta = np.array([0.0] + [softplus_inv(d) for d in RSE_DECAY])
    C = np.zeros((2, 4))
    for r, eff in enumerate(RSE_CEFF):
        C[:, 1 + r] = eff
    params = sp.SaccadeParams.initial(spec, nu=RSE_NU, sigma2=RSE_SIGMA2).replace(
        alpha=alpha, beta=beta, A=np.eye(2), b=RSE_SHIFT.copy(), C=C)
    return spec, params


@pytest.fixture(scope="module")
def rse_dataset():
    t0 = time.monotonic()
    spec, params = _rse_truth()
    dur_spec = sp.DurationSpec(columns=("intercept",))
    dur_params = sp.DurationParams(w=np.array([math.log(0.2)]), w_prime=np.zeros(0),
                                   kernel_alpha=np.zeros(0), kernel_beta=np.zeros(0),
                                   kernel_theta=np.zeros(0), sigma2=0.1)
    config = sp.SimConfig(horizon=RSE_HORIZON, omega=RSE_OMEGA, seed=RSE_SEED,
                          max_events=3000)
    rngs = sp.spawn_rngs(RSE_SEED, len(RSE_READERS) * RSE_PATHS_PER_READER)
    paths = []
    k = 0
    for r, reader in enumerate(RSE_READERS):
        x_row = np.zeros(4)
        x_row[0] = 1.0
        x_row[1 + r] = 1.0
        for i in range(RSE_PATHS_PER_READER):
            sim = sp.sample_scanpath(spec, params, dur_spec, dur_params, config,
                                     x_row=x_row, x_dur_row=np.ones(1),
                                     reader_id=reader, text_id=f"sim{r}_{i}",
                                     rng=rngs[k])
            paths.append(sim.scanpath)
            k += 1
    return spec, params, paths, time.monotonic() - t0


def _rse_units(paths, columns):
    return [PathData.from_scanpath(p, design_for_columns(p, columns)) for p in paths]


def _fit_rse_chain(paths):
    """Warm-started fit along the model ladder, moment-initialized."""
    spec_hawkes = sp.SaccadeSpec(variant="hawkes", columns=RSE_COLUMNS)
    spec_affine = sp.SaccadeSpec(variant="hawkes", mean_fn="affine", columns=RSE_COLUMNS)
    spec_full = sp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=RSE_COLUMNS)
    units = _rse_units(paths, RSE_COLUMNS)
    m_hawkes = sp.SaccadeModel(spec_hawkes, RSE_OMEGA)
    m_affine = sp.SaccadeModel(spec_affine, RSE_OMEGA)
    m_full = sp.SaccadeModel(spec_full, RSE_OMEGA)
    disps = np.concatenate([np.diff(u.locations, axis=0) for u in units])
    b0 = np.median(disps, axis=0)
    s2_0 = float(np.quantile(((disps - b0) ** 2).sum(axis=1), 0.25) / 2.0)
    base = sp.TrainConfig(momentum=0.9, batch_size=64, seed=1, split=(1.0, 0.0, 0.0))
    r1 = sp.train(m_hawkes, units, base.replace(learning_rate=0.01, max_epochs=400,
                                                patience=400))
    raw = sp.warm_start(m_hawkes.names, r1.raw, m_affine, units=units)
    raw = m_affine.pack(m_affine.unpack(raw).replace(b=b0, sigma2=s2_0))
    r2 = sp.train(m_affine, units, base.replace(learning_rate=0.001, max_epochs=200,
                                                patience=200), init=raw)
    raw = sp.warm_start(m_affine.names, r2.raw, m_full, units=units)
    r3 = sp.train(m_full, units, base.replace(learning_rate=0.0005, max_epochs=1200,
                                              patience=1200), init=raw)
    r4 = sp.train(m_full, units, base.replace(learning_rate=0.0002, momentum=0.95,
                                              max_epochs=1000, patience=1000),
                  init=r3.raw)
    return m_full, r4


@pytest.mark.slow
def test_criterion_04_simulate_refit_recovery(capsys, rse_dataset):
    _, truth, paths, sim_seconds = rse_dataset
    n_fix = sum(len(p) for p in paths)
    t0 = time.monotonic()
    model, result = _fit_rse_chain(paths)
    fit_seconds = time.monotonic() - t0
    fitted = result.params
    errs = []
    for r in range(len(RSE_READERS)):
        x = np.zeros(4)
        x[0] = 1.0
        x[1 + r] = 1.0
        amp_true, dec_true = RSE_AMP[r], RSE_DECAY[r]
        amp_hat = _softplus(float(x @ fitted.alpha))
        dec_hat = _softplus(float(x @ fitted.beta))
        shift_true = RSE_SHIFT + np.asarray(RSE_CEFF[r])
        shift_hat = fitted.b + fitted.C @ x
        errs.append((abs(amp_hat - amp_true) / amp_true,
                     abs(dec_hat - dec_true) / dec_true,
                     float(np.linalg.norm(shift_hat - shift_true)
                           / np.linalg.norm(shift_true))))
    s2_err = abs(fitted.sigma2 - RSE_SIGMA2) / RSE_SIGMA2
    worst = max(max(e) for e in errs + [(s2_err,)])
    elapsed = sim_seconds + fit_seconds
    ok = worst <= 0.15 and n_fix >= 5000 and elapsed < 600.0
    _report(capsys, 4, ok,
            f"refit on {n_fix} simulated fixations recovers per-reader "
            f"amplitude/decay/shift and variance, worst rel err {worst:.3f} "
            f"(tol 0.15), {elapsed:.0f}s (budget 600s)")


def test_criterion_05_time_rescaling_ks(capsys, rse_dataset):
    spec, truth, paths, _ = rse_dataset
    t0 = time.monotonic()
    units = _rse_units(paths, RSE_COLUMNS)
    pooled = np.concatenate([sp.compensator_increments(u, spec, truth, RSE_OMEGA)
                             for u in units])
    p_true = scipy.stats.kstest(pooled, "expon").pvalue
    perturbed = truth.replace(
        beta=np.array([0.0] + [softplus_inv(2.0 * d) for d in RSE_DECAY]))
    pooled_bad = np.concatenate([sp.compensator_increments(u, spec, perturbed, RSE_OMEGA)
                                 for u in units])
    p_bad = scipy.stats.kstest(pooled_bad, "expon").pvalue
    elapsed = time.monotonic() - t0
    ok = (pooled.size >= 5000 and p_true > 0.01 and p_bad < 0.01
          and elapsed < 300.0)
    _report(capsys, 5, ok,
            f"time-rescaled gaps ({pooled.size} events): KS p={p_true:.3f} under "
            f"the generator (>0.01), p={p_bad:.2e} under doubled decay (<0.01), "
            f"{elapsed:.1f}s (budget 300s)")


@pytest.mark.slow
def test_criterion_06_model_ladder_ordering(capsys, rse_dataset):
    _, _, paths, _ = rse_dataset
    t0 = time.monotonic()
    specs = [sp.SaccadeSpec(variant="last_fixation"),
             sp.SaccadeSpec(variant="hawkes", columns=RSE_COLUMNS),
             sp.SaccadeSpec(variant="hawkes", mean_fn="affine", columns=RSE_COLUMNS),
             sp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=RSE_COLUMNS)]
    config = sp.TrainConfig(learning_rate=0.001, batch_size=64, momentum=0.9,
                            max_epochs=150, patience=150, seed=1,
                            split=(0.6, 0.2, 0.2))
    reports, _members = sp.compare_suite(paths, RSE_OMEGA, specs,
                                         sp.SaccadeSpec(variant="poisson"),
                                         config, replicates=1000,
                                         bootstrap_seed=0)
    means = [r.summary.mean for r in reports]
    names = [r.model for r in reports]
    chain = [0.0] + means
    monotone = all(chain[i] <= chain[i + 1] + 1e-12 for i in range(len(chain) - 1))
    last = reports[-1]
    elapsed = time.monotonic() - t0
    ok = (monotone and last.summary.mean > 0.0 and last.summary.low > 0.0
          and elapsed < 900.0)
    detail = ", ".join(f"{n}={m:.3f}" for n, m in zip(names, means))
    _report(capsys, 6, ok,
            f"mean test gain over poisson rises along the ladder ({detail}), "
            f"top CI [{last.summary.low:.3f}, {last.summary.high:.3f}] excludes "
            f"zero, {elapsed:.0f}s (budget 900s)")


# --- criterion 7: duration closed forms -------------------------------------

def test_criterion_07_duration_closed_form(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    box = sp.Rect(0.0, 0.0, 200.0, 200.0)
    path = random_scanpath(rng, 300, box)
    logd = np.log(path.durations)
    fit = sp.fit_linear_log(path.durations, np.ones((len(path), 1)), ("intercept",))
    mean_err = abs(fit.weights[0] - logd.mean())
    var_err = abs(fit.sigma2 - logd.var())
    cols = ("intercept", "c1")
    design = rng.uniform(-1.0, 1.0, size=(20, 2))
    design[:, 0] = 1.0
    path2 = random_scanpath(rng, 20, box)
    w = np.array([math.log(0.2), 0.3])
    plain = sp.DurationSpec(columns=cols)
    conv = sp.DurationSpec(mean_variant="convolution", spillover=("c1",), columns=cols)
    p_plain = sp.DurationParams(w=w, w_prime=np.zeros(0), kernel_alpha=np.zeros(0),
                                kernel_beta=np.zeros(0), kernel_theta=np.zeros(0),
                                sigma2=0.04)
    p_conv = sp.DurationParams(w=w, w_prime=np.zeros(1), kernel_alpha=np.array([2.0]),
                               kernel_beta=np.array([3.0]), kernel_theta=np.array([0.5]),
                               sigma2=0.04)
    ll_plain = sp.duration_loglik(path2, design, plain, p_plain).per_event
    ll_conv = sp.duration_loglik(path2, design, conv, p_conv).per_event
    identical = np.array_equal(ll_plain, ll_conv)
    elapsed = time.monotonic() - t0
    ok = mean_err <= 1e-9 and var_err <= 1e-9 and identical
    _report(capsys, 7, ok,
            f"intercept-only log-normal fit matches sample mean/variance of "
            f"log-durations (errs {mean_err:.1e}/{var_err:.1e}, tol 1e-09); "
            f"zero-weight spillover reproduces the plain likelihood exactly; "
            f"{elapsed:.2f}s")


# --- criterion 8: reading measures ------------------------------------------

def test_criterion_08_reading_measures(capsys, word_layout):
    t0 = time.monotonic()
    locs = [on_word(word_layout, 0), on_word(word_layout, 0, dx=20.0),
            on_word(word_layout, 1), on_word(word_layout, 0, dx=40.0)]
    durs = (0.21, 0.14, 0.33, 0.17)
    fixes = make_fixations(
        [(0.5, durs[0]), (1.0, durs[1]), (1.5, durs[2]), (2.2, durs[3])], locs)
    ann = sp.annotate(sp.Scanpath("r1", "t1", fixes), word_layout)

    def table(measure):
        return [(rec.word_index, rec.value) for rec in sp.aggregate([ann], measure)]

    hand_ok = (
        table("first_fixation") == [(0, durs[0]), (1, durs[2])]
        and table("gaze") == [(0, durs[0] + durs[1]), (1, durs[2])]
        and table("total") == [(0, durs[0] + durs[1] + durs[3]), (1, durs[2])]
        and table("scanpath") == [(0, durs[0] + durs[1]), (1, durs[2]), (0, durs[3])])

    rng = np.random.default_rng(808)
    violations = 0
    checked = 0
    for k in range(20):
        seq = rng.integers(0, 3, size=int(rng.integers(3, 9)))
        t, fl = 0.0, []
        for wi in seq:
            t += float(rng.uniform(0.05, 0.3))
            d = float(rng.uniform(0.1, 0.4))
            x, y = on_word(word_layout, int(wi), dx=float(rng.uniform(1.0, 95.0)),
                           dy=float(rng.uniform(1.0, 18.0)))
            fl.append(sp.Fixation(t, x, y, d))
            t += d
        a = sp.annotate(sp.Scanpath(f"r{k % 3}", "t1", tuple(fl)), word_layout)
        by_word = {}
        for measure in ("first_fixation", "gaze", "total"):
            for rec in sp.aggregate([a], measure):
                by_word.setdefault(rec.word_index, {})[measure] = rec.value
        for vals in by_word.values():
            checked += 1
            if not (vals["first_fixation"] <= vals["gaze"] <= vals["total"]):
                violations += 1
    elapsed = time.monotonic() - t0
    ok = hand_ok and violations == 0 and checked > 0
    _report(capsys, 8, ok,
            f"hand-enumerated first/gaze/total/scanpath values match exactly; "
            f"first<=gaze<=total on {checked} corpus word records "
            f"({violations} violations); {elapsed:.2f}s")


# --- criterion 9: grid search -----------------------------------------------

def test_criterion_09_grid_search(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    omega = sp.Rect(0.0, 0.0, 1024.0, 768.0)
    paths = [random_scanpath(rng, 12, omega, reader=f"r{i % 2}", text=f"t{i}")
             for i in range(12)]
    cols = ("intercept",)
    units = [PathData.from_scanpath(p, design_for_columns(p, cols)) for p in paths]
    model = sp.SaccadeModel(sp.SaccadeSpec(variant="hawkes", columns=cols), omega)
    config = sp.TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=3,
                            patience=3, seed=3, split=(0.6, 0.2, 0.2))
    grid = sp.GridSpec(batch_sizes=(8, 16, 32), learning_rates=(0.1, 0.01, 0.001),
                       weight_decays=(0.0, 1e-4), kernel_inits=((2.0, 3.0, 0.5),))
    parts = sp.split(units, config.split, config.seed)
    first = sp.grid_search(model, parts, grid, config)
    second = sp.grid_search(model, parts, grid, config)
    losses = [loss for _, loss in first.grid_trace]
    argmin_ok = first.best_val_loss == min(losses)
    same = sp.dumps_fit(model, first) == sp.dumps_fit(model, second)
    elapsed = time.monotonic() - t0
    ok = (len(first.grid_trace) == 18 and len(second.grid_trace) == 18
          and argmin_ok and same and first.selected == second.selected)
    _report(capsys, 9, ok,
            f"3x3x2x1 grid runs exactly {len(first.grid_trace)} cells, "
            f"selection is the validation argmin and repeat runs agree "
            f"byte for byte; {elapsed:.1f}s")


# --- criterion 10: bytewise reproducibility ---------------------------------

def test_criterion_10_reproducibility(capsys, tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(1010)
    omega = sp.Rect(0.0, 0.0, 1024.0, 768.0)
    paths = [random_scanpath(rng, 15, omega, reader=f"r{i % 2}", text=f"t{i}")
             for i in range(10)]
    cols = ("intercept",)
    units = [PathData.from_scanpath(p, design_for_columns(p, cols)) for p in paths]
    spec = sp.SaccadeSpec(variant="hawkes", columns=cols)
    model = sp.SaccadeModel(spec, omega)
    config = sp.TrainConfig(learning_rate=0.01, batch_size=4, max_epochs=4,
                            patience=4, seed=11, split=(0.6, 0.2, 0.2))
    fit_docs = [sp.dumps_fit(model, sp.train(model, units, config))
                for _ in range(2)]
    fit_same = fit_docs[0] == fit_docs[1]

    params = model.unpack(sp.train(model, units, config).raw)
    dur_spec = sp.DurationSpec(columns=("intercept",))
    dur_params = sp.DurationParams(w=np.array([math.log(0.2)]), w_prime=np.zeros(0),
                                   kernel_alpha=np.zeros(0), kernel_beta=np.zeros(0),
                                   kernel_theta=np.zeros(0), sigma2=0.05)
    sim_cfg = sp.SimConfig(horizon=20.0, omega=omega, seed=7, max_events=500)
    sim_files = []
    for name in ("a.csv", "b.csv"):
        sims = [sp.sample_scanpath(spec, params, dur_spec, dur_params, sim_cfg,
                                   x_row=np.ones(1), x_dur_row=np.ones(1),
                                   reader_id="sim", text_id=f"s{i}", rng=r)
                for i, r in enumerate(sp.spawn_rngs(7, 3))]
        target = tmp_path / name
        sp.write_scanpaths(str(target), [s.scanpath for s in sims])
        sim_files.append(target.read_bytes())
    sim_same = sim_files[0] == sim_files[1]
    other = [sp.sample_scanpath(spec, params, dur_spec, dur_params, sim_cfg,
                                x_row=np.ones(1), x_dur_row=np.ones(1),
                                reader_id="sim", text_id=f"s{i}", rng=r)
             for i, r in enumerate(sp.spawn_rngs(8, 3))]
    other_file = tmp_path / "c.csv"
    sp.write_scanpaths(str(other_file), [s.scanpath for s in other])
    seed_matters = other_file.read_bytes() != sim_files[0]

    report_docs, report_csvs = [], []
    for _ in range(2):
        reports, _ = sp.compare_suite(paths, omega, [spec],
                                      sp.SaccadeSpec(variant="poisson"), config,
                                      replicates=100, bootstrap_seed=3)
        report_docs.append(sp.dumps_reports(reports))
        report_csvs.append(sp.reports_csv(reports))
    reports_same = (report_docs[0] == report_docs[1]
                    and report_csvs[0] == report_csvs[1])
    elapsed = time.monotonic() - t0
    ok = fit_same and sim_same and seed_matters and reports_same
    _report(capsys, 10, ok,
            f"fit documents, simulations, and comparison reports are "
            f"byte-identical under identical seeds (and differ under a "
            f"changed seed); {elapsed:.1f}s")
