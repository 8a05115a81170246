"""Saccade model: where and when the next fixation lands.

The full model is a marked spatio-temporal self-exciting process. Each past
fixation m contributes an exponentially decaying temporal kernel times a
spherical Gaussian around a (possibly transformed) copy of its location; the
kernel clock only advances between fixations, so the kernel argument for a
pair of events is the cumulative non-fixation time separating them. Two
reference models nest inside: a homogeneous Poisson baseline and a
last-fixation model whose intensity depends only on the most recent landing
site.

Evaluation code comes in two layers: pointwise operations on one observed
history, and a vectorized per-scanpath layer (``loglik_terms``,
``loglik_grad``) used by the fitting loop. The pointwise layer builds a
``HistoryState`` once per history: the kernel clock, the link outputs, the
excitation centers and their screen mass. ``HistoryState.intensity_at``
evaluates the intensity at many points in blocks of bounded size, with each
value bit-identical to the one-point reference ``intensity``;
``compensator`` and ``log_density`` read the same state. Both layers share
one convention: event times are seconds, locations are pixels, and the
screen region bounds all spatial mass integrals.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .data import DesignMatrix, Rect, Scanpath
from .errors import DomainError, UsageError, ValidationError
from .mathutil import (
    apply_link,
    exp_integral_0,
    exp_integral_1,
    link_deriv,
    norm_cdf,
    norm_pdf,
)

VARIANTS = ("poisson", "last_fixation", "hawkes")
MEAN_FNS = ("baseline", "affine", "full")
LINK_NAMES = ("softplus", "relu")

# Gap more negative than this means the event starts inside the previous
# fixation; the log-density there is -inf by the support indicator.
_GAP_TOL = 1e-9


@dataclass(frozen=True)
class SaccadeSpec:
    """Model family selector.

    ``variant`` picks the intensity form, ``mean_fn`` how a past location is
    mapped to its excitation center (identity, affine, or affine plus a
    predictor offset), ``link`` the non-negativity link for excitation and
    decay weights, and ``columns`` the design-matrix schema the predictor
    weights index into.
    """

    variant: str = "hawkes"
    mean_fn: str = "baseline"
    link: str = "softplus"
    columns: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.mean_fn not in MEAN_FNS:
            raise ValidationError(f"unknown mean_fn {self.mean_fn!r}; expected one of {MEAN_FNS}")
        if self.link not in LINK_NAMES:
            raise ValidationError(f"unknown link {self.link!r}; expected one of {LINK_NAMES}")
        if self.variant != "hawkes":
            if self.mean_fn != "baseline":
                raise ValidationError(f"mean_fn {self.mean_fn!r} only applies to the hawkes variant")
            if self.columns:
                raise ValidationError("predictor columns only apply to the hawkes variant")

    @property
    def p(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, eq=False)
class SaccadeParams:
    """Parameter bundle shared by all variants; each variant reads a subset.

    nu is the base intensity per second per squared pixel, alpha and beta the
    pre-link excitation and decay weights, (A, b, C) the excitation-center
    map, sigma2 the shared spatial variance in squared pixels.
    """

    nu: float
    alpha: np.ndarray
    beta: np.ndarray
    A: np.ndarray
    b: np.ndarray
    C: np.ndarray
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float).reshape(-1))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).reshape(-1))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float).reshape(2, 2))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(2))
        p = self.alpha.shape[0]
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float).reshape(2, p if self.C is not None else 0))
        if self.beta.shape[0] != p:
            raise ValidationError(f"alpha has {p} components but beta has {self.beta.shape[0]}")
        if self.C.shape != (2, p):
            raise ValidationError(f"C must be 2x{p}, got {self.C.shape}")
        if not np.isfinite(self.nu) or self.nu < 0:
            raise ValidationError(f"base intensity must be >= 0, got {self.nu}")
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0:
            raise ValidationError(f"spatial variance must be > 0, got {self.sigma2}")

    @property
    def p(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def initial(cls, spec: SaccadeSpec, nu: float = 1e-6, sigma2: float = 1.0) -> "SaccadeParams":
        """Neutral starting point: zero weights, identity center map."""
        p = spec.p
        return cls(nu=nu, alpha=np.zeros(p), beta=np.zeros(p), A=np.eye(2),
                   b=np.zeros(2), C=np.zeros((2, p)), sigma2=sigma2)

    def replace(self, **changes) -> "SaccadeParams":
        return dataclasses.replace(self, **changes)


def check_compatible(spec: SaccadeSpec, params: SaccadeParams) -> None:
    if params.p != spec.p:
        raise ValidationError(
            f"params carry {params.p} predictor weights but the spec declares {spec.p} columns"
        )


@dataclass(frozen=True, eq=False)
class PathData:
    """Array view of one scanpath plus its design matrix, ready for evaluation."""

    onsets: np.ndarray
    durations: np.ndarray
    locations: np.ndarray
    design: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.onsets, dtype=float).reshape(-1)
        d = np.asarray(self.durations, dtype=float).reshape(-1)
        n = t.shape[0]
        s = np.asarray(self.locations, dtype=float).reshape(n, 2)
        x = np.asarray(self.design, dtype=float)
        if x.ndim == 1:
            x = x.reshape(n, -1) if n else x.reshape(0, 0)
        if d.shape[0] != n or x.shape[0] != n:
            raise ValidationError("onsets, durations, locations, design must agree in length")
        object.__setattr__(self, "onsets", t)
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "locations", s)
        object.__setattr__(self, "design", x)

    @classmethod
    def from_scanpath(cls, scanpath: Scanpath,
                      design: DesignMatrix | np.ndarray | None = None) -> "PathData":
        n = len(scanpath)
        if design is None:
            x = np.zeros((n, 0))
        elif isinstance(design, DesignMatrix):
            x = design.matrix
        else:
            x = np.asarray(design, dtype=float)
        label = f"{scanpath.reader_id}/{scanpath.text_id}"
        return cls(scanpath.onsets, scanpath.durations, scanpath.locations, x, label)

    @property
    def n(self) -> int:
        return self.onsets.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]

    @cached_property
    def clock(self) -> np.ndarray:
        """Onset times with preceding fixation durations removed.

        Kernel arguments and compensator windows depend on event times only
        through differences of these values.
        """
        if self.n == 0:
            return np.empty(0)
        return self.onsets - np.concatenate(([0.0], np.cumsum(self.durations[:-1])))

    @cached_property
    def gaps(self) -> np.ndarray:
        """Inter-event exposure window lengths; the first runs from time zero."""
        if self.n == 0:
            return np.empty(0)
        return np.diff(np.concatenate(([0.0], self.clock)))


# --- Scalar reference operations -------------------------------------------

def cumulative_gap(history: Scanpath, n: int, m: int) -> float:
    """Total fixation time separating events m and n (1-based indices, m < n).

    n may be one past the end of the history, addressing the upcoming event.
    """
    if not 1 <= m < n:
        raise UsageError(f"need 1 <= m < n, got n={n}, m={m}")
    if n > len(history) + 1:
        raise UsageError(f"n={n} exceeds history length {len(history)} + 1")
    return float(np.sum(history.durations[m - 1:n - 1]))


def temporal_kernel(delta, x, params: SaccadeParams, link: str = "softplus"):
    """Excitation h(x'alpha) * exp(-h(x'beta) * delta) at kernel age delta >= 0."""
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0):
        raise UsageError("kernel age must be >= 0")
    x = np.asarray(x, dtype=float)
    a = apply_link(link, float(x @ params.alpha))
    b = apply_link(link, float(x @ params.beta))
    out = a * np.exp(-b * delta)
    return out if out.ndim else float(out)


def spatial_mean(s, x, spec: SaccadeSpec, params: SaccadeParams) -> np.ndarray:
    """Excitation center for a source fixation at s with predictors x."""
    s = np.asarray(s, dtype=float).reshape(2)
    if spec.mean_fn == "baseline":
        return s.copy()
    mu = params.A @ s + params.b
    if spec.mean_fn == "full":
        mu = mu + params.C @ np.asarray(x, dtype=float).reshape(-1)
    return mu


def spatial_density(s, mean, sigma2: float) -> float:
    """Spherical Gaussian density at s, per squared pixel."""
    if sigma2 <= 0:
        raise ValidationError(f"spatial variance must be > 0, got {sigma2}")
    s = np.asarray(s, dtype=float).reshape(2)
    mean = np.asarray(mean, dtype=float).reshape(2)
    r2 = float(np.sum((s - mean) ** 2))
    return float(np.exp(-r2 / (2.0 * sigma2)) / (2.0 * np.pi * sigma2))


def spatial_mass(mean, sigma2: float, omega: Rect):
    """Gaussian probability mass inside the screen; separable per axis."""
    mean = np.asarray(mean, dtype=float)
    mu = mean.reshape(-1, 2)
    sigma = np.sqrt(sigma2)
    gx = norm_cdf((omega.x1 - mu[:, 0]) / sigma) - norm_cdf((omega.x0 - mu[:, 0]) / sigma)
    gy = norm_cdf((omega.y1 - mu[:, 1]) / sigma) - norm_cdf((omega.y0 - mu[:, 1]) / sigma)
    mass = gx * gy
    return float(mass[0]) if mean.ndim == 1 else mass


def history_design(X: Optional[np.ndarray], n: int, spec: SaccadeSpec) -> np.ndarray:
    """The n design rows of a history as an (n, p) array.

    ``X`` may be omitted only when the spec has no predictor columns.
    """
    if X is None:
        if spec.p:
            raise UsageError(f"the spec has {spec.p} predictor columns, so the "
                             "history's design rows X are required")
        return np.zeros((n, 0))
    return np.asarray(X, dtype=float).reshape(n, spec.p)


def _centers(locations: np.ndarray, X: np.ndarray, spec: SaccadeSpec,
             params: SaccadeParams) -> np.ndarray:
    if spec.mean_fn == "baseline":
        return locations
    mu = locations @ params.A.T + params.b
    if spec.mean_fn == "full":
        mu = mu + X @ params.C.T
    return mu


# Point-source pairs HistoryState.intensity_at evaluates at once; each of
# the two temporary arrays of a block then takes 128 KB.
_BLOCK_PAIRS = 1 << 14


def _density(points: np.ndarray, centers: np.ndarray, sigma2: float) -> np.ndarray:
    """Spherical Gaussian density of each point (row) around each center (column).

    Computed in place, in the order of ``spatial_density``: the x then the y
    term of the squared distance, as ``np.sum`` over the two axes adds them,
    then exp(-r2 / (2 sigma2)) / (2 pi sigma2). So each entry is
    bit-identical to ``spatial_density``.
    """
    r2 = np.subtract.outer(points[:, 0], centers[:, 0])
    dy = np.subtract.outer(points[:, 1], centers[:, 1])
    r2 *= r2
    dy *= dy
    r2 += dy
    np.negative(r2, out=r2)
    r2 /= 2.0 * sigma2
    np.exp(r2, out=r2)
    r2 /= 2.0 * np.pi * sigma2
    return r2


@dataclass(frozen=True, eq=False)
class HistoryState:
    """One observed history, prepared once for evaluation at many (t, s).

    ``path.clock`` is the kernel clock; ``a`` and ``b`` are each source's link
    outputs (empty unless the variant is self-exciting) and ``mu`` its
    excitation center, whose screen mass ``mass`` gives.
    """

    spec: SaccadeSpec
    params: SaccadeParams
    path: PathData
    a: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    last_end: float
    total_duration: float

    @classmethod
    def build(cls, history: Scanpath, X: Optional[np.ndarray], spec: SaccadeSpec,
              params: SaccadeParams) -> "HistoryState":
        """``X`` may be omitted when the spec has no columns or the history is empty."""
        check_compatible(spec, params)
        n = len(history)
        if spec.variant == "hawkes" and n:
            X = history_design(X, n, spec)
        else:
            X = np.zeros((n, spec.p))
        pd = PathData(history.onsets, history.durations, history.locations, X)
        if spec.variant == "hawkes":
            a = np.atleast_1d(apply_link(spec.link, X @ params.alpha))
            b = np.atleast_1d(apply_link(spec.link, X @ params.beta))
        else:
            a = b = np.empty(0)
        return cls(spec, params, pd, a, b, _centers(pd.locations, X, spec, params),
                   history.fixations[-1].end if n else 0.0, float(np.sum(pd.durations)))

    def _require_after_history(self, t: float) -> None:
        if t < self.last_end - _GAP_TOL:
            raise DomainError(f"time {t} falls before the end of the previous "
                              f"fixation at {self.last_end}")

    def ages(self, t: float) -> np.ndarray:
        """Kernel age of each source at time t, on the kernel clock."""
        return (t - self.total_duration) - self.path.clock

    def mass(self, omega: Rect) -> np.ndarray:
        """Gaussian mass of each excitation center inside the screen."""
        return spatial_mass(self.mu, self.params.sigma2, omega)

    def intensity_at(self, t: float, points) -> np.ndarray:
        """Conditional intensity at time t at each row of an (m, 2) array of points.

        Points go in blocks of at most ``_BLOCK_PAIRS`` point-source pairs,
        so memory stays bounded on fine grids and long histories. Each value
        is bit-identical to the one-point case, ``intensity``.
        """
        self._require_after_history(t)
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        nu = float(self.params.nu)
        n = self.path.n
        if self.spec.variant == "poisson" or n == 0:
            return np.full(points.shape[0], nu)
        s2 = self.params.sigma2
        if self.spec.variant == "last_fixation":
            return nu + _density(points, self.path.locations[-1:], s2)[:, 0]
        phi = self.a * np.exp(-self.b * self.ages(t))
        out = np.empty(points.shape[0])
        step = max(1, _BLOCK_PAIRS // n)
        for lo in range(0, points.shape[0], step):
            psi = _density(points[lo:lo + step], self.mu, s2)
            psi *= phi
            out[lo:lo + step] = nu + np.sum(psi, axis=1)
        return out

    def compensator(self, t: float, omega: Rect) -> float:
        """Integrated intensity over (end of last fixation, t] x screen."""
        self._require_after_history(t)
        params = self.params
        gap = max(t - self.last_end, 0.0)
        base = params.nu * omega.area * gap
        if self.spec.variant == "poisson" or self.path.n == 0:
            return float(base)
        mass = self.mass(omega)
        if self.spec.variant == "last_fixation":
            return float(base + mass[-1] * gap)
        # The window start mapped onto the kernel clock coincides with the
        # last event's clock value, so each source's age runs from there.
        lo = self.ages(self.last_end)
        return float(base + np.sum(mass * self.a * exp_integral_0(self.b, lo, gap)))


def intensity(t: float, s, history: Scanpath, spec: SaccadeSpec, params: SaccadeParams,
              X: Optional[np.ndarray] = None) -> float:
    """Conditional intensity at (t, s), per second per squared pixel."""
    s = np.asarray(s, dtype=float).reshape(1, 2)
    return float(HistoryState.build(history, X, spec, params).intensity_at(t, s)[0])


def compensator(t: float, history: Scanpath, spec: SaccadeSpec, params: SaccadeParams,
                omega: Rect, X: Optional[np.ndarray] = None) -> float:
    """Integrated intensity over (end of last fixation, t] x screen."""
    return HistoryState.build(history, X, spec, params).compensator(t, omega)


def log_density(t: float, s, history: Scanpath, spec: SaccadeSpec, params: SaccadeParams,
                omega: Rect, X: Optional[np.ndarray] = None) -> float:
    """Log joint density of the next fixation occurring at (t, s)."""
    s = np.asarray(s, dtype=float).reshape(1, 2)
    if not omega.contains(s[0, 0], s[0, 1]):
        raise ValidationError(f"location {tuple(s[0])} lies outside the screen region")
    state = HistoryState.build(history, X, spec, params)
    if t < state.last_end - _GAP_TOL:
        return float("-inf")
    lam = float(state.intensity_at(t, s)[0])
    if lam <= 0.0:
        return float("-inf")
    return float(np.log(lam) - state.compensator(t, omega))


# --- Vectorized per-scanpath evaluation -------------------------------------

@dataclass(frozen=True, eq=False)
class ScanpathLoglik:
    """Per-event log-densities plus their sum and the count of -inf terms."""

    per_event: np.ndarray
    invalid_count: int

    @property
    def total(self) -> float:
        return float(np.sum(self.per_event))

    def __float__(self) -> float:
        return self.total


def _gap_terms(pd: PathData, nu: float, area: float):
    gaps = pd.gaps
    invalid = gaps < -_GAP_TOL
    gaps = np.maximum(gaps, 0.0)
    lam = np.full(pd.n, float(nu))
    comp = nu * area * gaps
    return gaps, invalid, lam, comp


def _finish(lam: np.ndarray, comp: np.ndarray, invalid: np.ndarray) -> ScanpathLoglik:
    with np.errstate(divide="ignore", invalid="ignore"):
        per = np.where(lam > 0.0, np.log(np.maximum(lam, 1e-300)), -np.inf) - comp
    per = np.where(invalid, -np.inf, per)
    return ScanpathLoglik(per, int(np.sum(~np.isfinite(per))))


def _last_fixation_pieces(pd: PathData, params: SaccadeParams, omega: Rect):
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


def _hawkes_pieces(pd: PathData, spec: SaccadeSpec, params: SaccadeParams, omega: Rect,
                   gaps: np.ndarray):
    n = pd.n
    X = pd.design
    a = np.atleast_1d(apply_link(spec.link, X @ params.alpha))
    b = np.atleast_1d(apply_link(spec.link, X @ params.beta))
    clock = pd.clock
    clock_prev = np.concatenate(([0.0], clock[:-1]))
    tri = np.tril(np.ones((n, n), dtype=bool), k=-1)
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


def _lam_comp(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
              omega: Rect) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def loglik_terms(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
                 omega: Rect) -> ScanpathLoglik:
    """Per-event log-densities of a whole scanpath, first event included."""
    check_compatible(spec, params)
    if pd.n == 0:
        return ScanpathLoglik(np.empty(0), 0)
    lam, comp, invalid = _lam_comp(pd, spec, params, omega)
    return _finish(lam, comp, invalid)


def compensator_increments(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
                           omega: Rect) -> np.ndarray:
    """Integrated intensity over each inter-event window, one value per event.

    Under the generating model these increments are unit-exponential by the
    time-rescaling property.
    """
    check_compatible(spec, params)
    if pd.n == 0:
        return np.empty(0)
    _, comp, _ = _lam_comp(pd, spec, params, omega)
    return comp


def loglik_grad(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
                omega: Rect) -> tuple[ScanpathLoglik, dict[str, np.ndarray | float]]:
    """Log-likelihood terms plus its gradient in constrained parameter space.

    Gradient keys depend on the variant: nu always; sigma2 for the
    last-fixation and self-exciting variants; alpha and beta for the
    self-exciting variant; A and b under the affine center map; C under the
    full map. Values are only meaningful when every term is finite.
    """
    check_compatible(spec, params)
    n = pd.n
    area = omega.area
    if n == 0:
        grads: dict[str, np.ndarray | float] = {"nu": 0.0}
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

    # Self-exciting variant; one fixation has no sources, so its source
    # gradients come out zero.
    pieces = _hawkes_pieces(pd, spec, params, omega, gaps)
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

    I1 = np.where(tri, exp_integral_1(b[None, :], dlo, gaps[:, None]), 0.0)
    d_b = -(P @ (W * dhi)) + mass * a * np.sum(I1, axis=0)
    grads["beta"] = X.T @ (d_b * link_deriv(spec.link, X @ params.beta))

    # Shared spatial-variance gradient.
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


def scanpath_loglik(scanpath: Scanpath, design: DesignMatrix | np.ndarray | None,
                    spec: SaccadeSpec, params: SaccadeParams, omega: Rect) -> ScanpathLoglik:
    """Joint log-likelihood of one scanpath under the model."""
    pd = PathData.from_scanpath(scanpath, design)
    if spec.variant == "hawkes" and pd.p != spec.p:
        raise ValidationError(f"design has {pd.p} columns but the spec declares {spec.p}")
    return loglik_terms(pd, spec, params, omega)
