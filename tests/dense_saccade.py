"""Dense O(n^2) per-scanpath saccade evaluation: the reference for the band.

This is the evaluation ``scanpp.saccade`` used before it dropped sources
older than its cutoff: every source-target pair goes through an n x n array
whose upper triangle is masked. The dense evaluation shares no code with
the package but the numerical helpers in ``scanpp.mathutil``, and tests
compare ``loglik_terms``, ``compensator_increments`` and ``loglik_grad``
against it.
``loglik_grad`` may restrict the pairs to a mask, such as the pairs the band
keeps, and then sums every pair's compensator integrals one by one.
``spatial_density`` is the one-point Gaussian density that the package's
``_density`` reproduces bit for bit.

``compensator`` and ``log_density`` are the pointwise reference: the
compensator of one ``HistoryState`` over the window after its history, in
closed form source by source, and the log-density of one next fixation,
log lambda minus that compensator. The band has no such window, so tests
check the compensator against quadrature and sum ``log_density`` over a
scanpath's prefixes to check ``loglik_terms``.
"""
import numpy as np

from scanpp.mathutil import (
    apply_link,
    exp_integral_0,
    exp_integrals,
    link_deriv,
    norm_cdf,
    norm_pdf,
)
from scanpp.saccade import HistoryState, ScanpathLoglik

GAP_TOL = 1e-9


def spatial_density(s, mean, sigma2: float) -> float:
    """Spherical Gaussian density at s, per squared pixel."""
    s = np.asarray(s, dtype=float).reshape(2)
    mean = np.asarray(mean, dtype=float).reshape(2)
    r2 = float(np.sum((s - mean) ** 2))
    return float(np.exp(-r2 / (2.0 * sigma2)) / (2.0 * np.pi * sigma2))


def compensator(state, t: float) -> float:
    """Integrated intensity over (end of the last fixation, t] x screen of a
    ``HistoryState`` built with a screen."""
    params = state.params
    gap = max(t - state.last_end, 0.0)
    base = params.nu * state.omega.area * gap
    if state.spec.variant == "poisson" or state.n == 0:
        return float(base)
    if state.spec.variant == "last_fixation":
        return float(base + state.mass[-1] * gap)
    # The window start mapped onto the kernel clock coincides with the last
    # event's clock value, so each source's age runs from there.
    lo = (state.last_end - state.total_duration) - state.clock
    return float(base + np.sum(state.mass * state.a * exp_integral_0(state.b, lo, gap)))


def log_density(t: float, s, history, spec, params, omega, X=None) -> float:
    """Log joint density of the next fixation at (t, s) after ``history``."""
    state = HistoryState.build(history, X, spec, params, omega)
    if t < state.last_end - GAP_TOL:
        return float("-inf")
    lam = float(state.intensity_at(t, [s])[0])
    if lam <= 0.0:
        return float("-inf")
    return float(np.log(lam) - compensator(state, t))


def _gap_terms(pd, nu, area):
    gaps = pd.gaps
    invalid = gaps < -GAP_TOL
    gaps = np.maximum(gaps, 0.0)
    lam = np.full(pd.n, float(nu))
    comp = nu * area * gaps
    return gaps, invalid, lam, comp


def _finish(lam, comp, invalid):
    with np.errstate(divide="ignore", invalid="ignore"):
        per = np.where(lam > 0.0, np.log(np.maximum(lam, 1e-300)), -np.inf) - comp
    per = np.where(invalid, -np.inf, per)
    return ScanpathLoglik(per, int(np.sum(~np.isfinite(per))))


def _centers(locations, X, spec, params):
    if spec.mean_fn == "baseline":
        return locations
    mu = locations @ params.A.T + params.b
    if spec.mean_fn == "full":
        mu = mu + X @ params.C.T
    return mu


def _last_fixation_pieces(pd, params, omega):
    s2 = params.sigma2
    prev = pd.locations[:-1]
    cur = pd.locations[1:]
    r2 = np.sum((cur - prev) ** 2, axis=1)
    psi = np.exp(-r2 / (2.0 * s2)) / (2.0 * np.pi * s2)
    sigma = np.sqrt(s2)
    zx0 = (omega.x0 - prev[:, 0]) / sigma
    zx1 = (omega.x1 - prev[:, 0]) / sigma
    zy0 = (omega.y0 - prev[:, 1]) / sigma
    zy1 = (omega.y1 - prev[:, 1]) / sigma
    gx = norm_cdf(zx1) - norm_cdf(zx0)
    gy = norm_cdf(zy1) - norm_cdf(zy0)
    return r2, psi, gx, gy, (zx0, zx1, zy0, zy1)


def _hawkes_pieces(pd, spec, params, omega, gaps, keep=None):
    n = pd.n
    X = pd.design
    a = np.atleast_1d(apply_link(spec.link, X @ params.alpha))
    b = np.atleast_1d(apply_link(spec.link, X @ params.beta))
    clock = pd.clock
    clock_prev = np.concatenate(([0.0], clock[:-1]))
    tri = np.tril(np.ones((n, n), dtype=bool), k=-1)
    if keep is not None:
        tri &= keep
    dhi = np.where(tri, clock[:, None] - clock[None, :], 0.0)
    dlo = np.where(tri, clock_prev[:, None] - clock[None, :], 0.0)
    E = np.where(tri, np.exp(-b[None, :] * dhi), 0.0)
    mu = _centers(pd.locations, X, spec, params)
    diff = pd.locations[:, None, :] - mu[None, :, :]
    r2 = np.sum(diff * diff, axis=2)
    s2 = params.sigma2
    psi = np.exp(-r2 / (2.0 * s2)) / (2.0 * np.pi * s2)
    sigma = np.sqrt(s2)
    zx0 = (omega.x0 - mu[:, 0]) / sigma
    zx1 = (omega.x1 - mu[:, 0]) / sigma
    zy0 = (omega.y0 - mu[:, 1]) / sigma
    zy1 = (omega.y1 - mu[:, 1]) / sigma
    gx = norm_cdf(zx1) - norm_cdf(zx0)
    gy = norm_cdf(zy1) - norm_cdf(zy0)
    mass = gx * gy
    I0 = np.where(tri, exp_integral_0(b[None, :], dlo, gaps[:, None]), 0.0)
    return dict(X=X, a=a, b=b, tri=tri, dhi=dhi, dlo=dlo, E=E, mu=mu, diff=diff,
                r2=r2, psi=psi, gx=gx, gy=gy, mass=mass, I0=I0,
                z=(zx0, zx1, zy0, zy1))


def lam_comp(pd, spec, params, omega):
    """Event intensities, compensator increments, and the invalid-gap mask."""
    gaps, invalid, lam, comp = _gap_terms(pd, params.nu, omega.area)
    if spec.variant == "last_fixation" and pd.n > 1:
        _, psi, gx, gy, _ = _last_fixation_pieces(pd, params, omega)
        lam[1:] += psi
        comp[1:] += gx * gy * gaps[1:]
    elif spec.variant == "hawkes" and pd.n > 1:
        pieces = _hawkes_pieces(pd, spec, params, omega, gaps)
        lam = lam + (pieces["E"] * pieces["psi"]) @ pieces["a"]
        comp = comp + pieces["I0"] @ (pieces["mass"] * pieces["a"])
    return lam, comp, invalid


def loglik_terms(pd, spec, params, omega):
    if pd.n == 0:
        return ScanpathLoglik(np.empty(0), 0)
    lam, comp, invalid = lam_comp(pd, spec, params, omega)
    return _finish(lam, comp, invalid)


def loglik_grad(pd, spec, params, omega, keep=None):
    """Terms and gradient over the source-target pairs (i, j), j < i, where the
    (n, n) mask ``keep`` holds, or over every such pair."""
    n = pd.n
    area = omega.area
    if n == 0:
        grads = {"nu": 0.0}
        if spec.variant != "poisson":
            grads["sigma2"] = 0.0
        if spec.variant == "hawkes":
            grads["alpha"] = np.zeros(spec.p)
            grads["beta"] = np.zeros(spec.p)
            if spec.mean_fn in ("affine", "full"):
                grads["A"] = np.zeros((2, 2))
                grads["b"] = np.zeros(2)
            if spec.mean_fn == "full":
                grads["C"] = np.zeros((2, spec.p))
        return ScanpathLoglik(np.empty(0), 0), grads

    gaps, invalid, lam, comp = _gap_terms(pd, params.nu, area)
    s2 = params.sigma2

    if spec.variant == "poisson":
        terms = _finish(lam, comp, invalid)
        with np.errstate(divide="ignore"):
            d_nu = float(np.sum(1.0 / lam) - area * np.sum(gaps))
        return terms, {"nu": d_nu}

    if spec.variant == "last_fixation":
        d_sigma2 = 0.0
        if n > 1:
            r2, psi, gx, gy, (zx0, zx1, zy0, zy1) = _last_fixation_pieces(pd, params, omega)
            lam[1:] += psi
            comp[1:] += gx * gy * gaps[1:]
            sigma = np.sqrt(s2)
            with np.errstate(divide="ignore", invalid="ignore"):
                P = 1.0 / lam[1:]
            dpsi = psi * (r2 / (2.0 * s2 * s2) - 1.0 / s2)
            dgx_dsig = (zx0 * norm_pdf(zx0) - zx1 * norm_pdf(zx1)) / sigma
            dgy_dsig = (zy0 * norm_pdf(zy0) - zy1 * norm_pdf(zy1)) / sigma
            dmass_ds2 = (dgx_dsig * gy + gx * dgy_dsig) / (2.0 * sigma)
            d_sigma2 = float(np.sum(P * dpsi) - np.sum(gaps[1:] * dmass_ds2))
        terms = _finish(lam, comp, invalid)
        with np.errstate(divide="ignore"):
            d_nu = float(np.sum(1.0 / lam) - area * np.sum(gaps))
        return terms, {"nu": d_nu, "sigma2": d_sigma2}

    pieces = _hawkes_pieces(pd, spec, params, omega, gaps, keep)
    grads = {}
    X, a, b = pieces["X"], pieces["a"], pieces["b"]
    E, psi, mass, I0 = pieces["E"], pieces["psi"], pieces["mass"], pieces["I0"]
    tri, dhi, dlo = pieces["tri"], pieces["dhi"], pieces["dlo"]
    EP = E * psi
    lam = lam + EP @ a
    comp = comp + I0 @ (mass * a)
    terms = _finish(lam, comp, invalid)

    with np.errstate(divide="ignore", invalid="ignore"):
        P = 1.0 / lam
    W = a[None, :] * EP
    I0_sum = np.sum(I0, axis=0)
    sigma = np.sqrt(s2)

    grads["nu"] = float(np.sum(P) - area * np.sum(gaps))

    d_a = P @ EP - mass * I0_sum
    grads["alpha"] = X.T @ (d_a * link_deriv(spec.link, X @ params.alpha))

    I1 = np.where(tri, exp_integrals(b[None, :], dlo, gaps[:, None])[1], 0.0)
    d_b = -(P @ (W * dhi)) + mass * a * np.sum(I1, axis=0)
    grads["beta"] = X.T @ (d_b * link_deriv(spec.link, X @ params.beta))

    r2 = pieces["r2"]
    dpsi_ds2 = psi * (r2 / (2.0 * s2 * s2) - 1.0 / s2)
    zx0, zx1, zy0, zy1 = pieces["z"]
    gx, gy = pieces["gx"], pieces["gy"]
    dgx_dsig = (zx0 * norm_pdf(zx0) - zx1 * norm_pdf(zx1)) / sigma
    dgy_dsig = (zy0 * norm_pdf(zy0) - zy1 * norm_pdf(zy1)) / sigma
    dmass_ds2 = (dgx_dsig * gy + gx * dgy_dsig) / (2.0 * sigma)
    grads["sigma2"] = float(np.einsum("i,ij,ij->", P, a[None, :] * E, dpsi_ds2)
                            - np.sum(a * I0_sum * dmass_ds2))

    if spec.mean_fn in ("affine", "full"):
        diff = pieces["diff"]
        grad_mu = np.einsum("i,ij,ijk->jk", P, W, diff) / s2
        dmass_dmux = gy * (norm_pdf(zx0) - norm_pdf(zx1)) / sigma
        dmass_dmuy = gx * (norm_pdf(zy0) - norm_pdf(zy1)) / sigma
        grad_mu[:, 0] -= a * I0_sum * dmass_dmux
        grad_mu[:, 1] -= a * I0_sum * dmass_dmuy
        grads["A"] = grad_mu.T @ pd.locations
        grads["b"] = np.sum(grad_mu, axis=0)
        if spec.mean_fn == "full":
            grads["C"] = grad_mu.T @ X

    return terms, grads
