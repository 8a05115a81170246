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

The per-scanpath layer evaluates the self-exciting variant on a band, in
O(n·w) time and memory, and forms no n x n array. A source's kernel
a_j·exp(-b_j·age) decays exponentially in its age on the kernel clock c, so
event i keeps only the sources j < i at most w old at the start of its
window, min(c_{i-1}, c_i); a source is dropped only once the running
maximum of the clock up to it is that old, so the rule holds on a clock
that runs backwards at an overlapping event. Rows go in blocks of at most
``_BLOCK_PAIRS`` kept pairs; each row's intensity is complete within its
block, and the per-source sums of the gradient are scatter-adds over the
block's pairs.

The cutoff w is derived on each call from (a, b, nu, sigma2, n), so that
the dropped pairs change each event's log-density by at most
``_TAIL_EPS`` = 1e-13 nats, and each event's contribution to the gradient
in every a_j, b_j, sigma2 and excitation-center coordinate by at most the
same. With q = 1/(2π·sigma2·nu), the largest psi/lambda since
lambda >= nu and psi <= 1/(2π·sigma2); c = 1/b_min; and A = max a, a pair
whose age and window start both exceed w contributes at most
exp(-b_min·w) times

- log-density: A·(q + c), since the compensator term is at most
  a_j·exp(-b_j·w)/b_j;
- d/da_j, which has no factor a_j: q + c;
- d/db_j, which has a factor of age: A·(q·w + c·w + c²), as
  age·exp(-b·age) falls for age >= 1/b and the tail integral of
  u·exp(-b·u) from w is exp(-b·w)·(w/b + 1/b²); so w >= c always;
- d/dsigma2: A·(q + c/2)/sigma2, as |dpsi/dsigma2| <= psi_max/sigma2 and
  |dmass/dsigma2| <= 1/(2·sigma2);
- d/dmu_j, per axis: A·(q/sqrt(e) + c/sqrt(2π))/sigma, as
  psi·|s - mu|/sigma2 <= psi_max/(sqrt(e)·sigma) and
  |dmass/dmu| <= 1/(sqrt(2π)·sigma).

An event has at most n dropped sources, so w is any value with
n·exp(-b_min·w)·(k0 + k1·w) <= eps, where k0 and k1 are the largest
constant and linear coefficients above. Iterating
w <- c·log(n·(k0 + k1·w)/eps) from a start above the least such w keeps
every iterate valid. The gradients in alpha, beta, A, b and C carry the
chain-rule factors x_jk·h'(x_j·theta) and s_j on top; the kept terms are
weighted by 1/lambda_i, which the tail moves by a relative amount below
eps. When b_min = 0 (relu) or nu = 0 there is no such w, and no pair is
dropped.
"""

from __future__ import annotations

import dataclasses
import math
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


# Point-source pairs HistoryState.intensity_at evaluates at once, and
# source-target pairs per row block of the band; each temporary array of a
# block then takes 128 KB.
_BLOCK_PAIRS = 1 << 14

# Most that dropping the sources beyond the band's cutoff may change an
# event's log-density, or its contribution to a gradient entry, in nats.
_TAIL_EPS = 1e-13


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
    excitation center, whose screen mass ``mass`` gives. The per-scanpath
    layer reads the same fields, built by ``from_path``.
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
        return cls.from_path(PathData(history.onsets, history.durations,
                                      history.locations, X), spec, params)

    @classmethod
    def from_path(cls, pd: PathData, spec: SaccadeSpec,
                  params: SaccadeParams) -> "HistoryState":
        """The state of a history whose design rows ``pd`` already holds."""
        X = pd.design
        if spec.variant == "hawkes":
            a = np.atleast_1d(apply_link(spec.link, X @ params.alpha))
            b = np.atleast_1d(apply_link(spec.link, X @ params.beta))
        else:
            a = b = np.empty(0)
        last_end = float(pd.onsets[-1] + pd.durations[-1]) if pd.n else 0.0
        return cls(spec, params, pd, a, b, _centers(pd.locations, X, spec, params),
                   last_end, float(np.sum(pd.durations)))

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


def _window(a: np.ndarray, b: np.ndarray, nu: float, sigma2: float, n: int) -> float:
    """Kernel age beyond which a source is dropped; see the module docstring."""
    b_min = float(np.min(b)) if n > 1 else 0.0
    if not (b_min > 0.0 and nu > 0.0):
        return math.inf
    a_max = float(np.max(a))
    q = 1.0 / (2.0 * math.pi * sigma2 * nu)
    c = 1.0 / b_min
    sigma = math.sqrt(sigma2)
    # Largest constant and linear coefficient of the per-pair bounds; np.max
    # lets a nan through to the finiteness test below.
    k0 = np.max([a_max * (q + c), q + c, a_max * c * c,
                 a_max * (q + c / 2.0) / sigma2,
                 a_max * (q / math.sqrt(math.e) + c / math.sqrt(2.0 * math.pi)) / sigma])
    k1 = a_max * (q + c)

    def cutoff(w):
        return max(math.log(n * (k0 + k1 * w) / _TAIL_EPS) * c, c)

    # From above: every iterate meets the bound, and they fall towards the
    # smallest w that does.
    w = 2.0 * cutoff(c)
    for _ in range(3):
        w = cutoff(w)
    return w if math.isfinite(w) else math.inf


def _band(clock: np.ndarray, w: float):
    """Row blocks of the band: (first row, end row, rows, sources) of its pairs.

    Row i keeps the sources lo_i <= j < i, where lo_i is the first source at
    which the running maximum of the clock reaches min(c_{i-1}, c_i) - w. So
    every dropped source is older than w at both ends of event i's window,
    also where the clock is not monotone. A block holds at most
    ``_BLOCK_PAIRS`` pairs, or one row.
    """
    n = clock.shape[0]
    idx = np.arange(n)
    start = np.minimum(clock, np.concatenate(([0.0], clock[:-1])))
    lo = np.minimum(np.searchsorted(np.maximum.accumulate(clock), start - w), idx)
    ends = np.cumsum(idx - lo)
    r0 = 0
    while r0 < n:
        before = int(ends[r0 - 1]) if r0 else 0
        r1 = max(int(np.searchsorted(ends, before + _BLOCK_PAIRS, side="right")), r0 + 1)
        counts = idx[r0:r1] - lo[r0:r1]
        rows = np.repeat(idx[r0:r1], counts)
        shift = lo[r0:r1] - (ends[r0:r1] - counts - before)
        yield r0, r1, rows, np.arange(int(ends[r1 - 1]) - before) + np.repeat(shift, counts)
        r0 = r1


@dataclass
class _SourceSums:
    """Per-source sums over the kept pairs that the gradient needs."""

    d_a: np.ndarray      # sum_i P_i E_ij psi_ij
    d_b: np.ndarray      # sum_i P_i W_ij dhi_ij
    I0: np.ndarray
    I1: np.ndarray
    mu: np.ndarray       # sum_i P_i W_ij (s_i - mu_j), (n, 2)
    sigma2: float = 0.0  # sum_ij P_i W_ij (r2_ij / (2 s2^2) - 1 / s2)


def _hawkes_band(state: HistoryState, mass: np.ndarray, gaps: np.ndarray, lam: np.ndarray,
                 comp: np.ndarray, grad: bool) -> Optional[_SourceSums]:
    """Add the excitation to lam and comp in place, one block of the band at a time.

    ``mass`` is each source's screen mass. With ``grad`` the per-source
    gradient sums come back too; each row's lam is complete within its
    block, so they take the same pass.
    """
    pd, a, b, mu = state.path, state.a, state.b, state.mu
    n = pd.n
    clock = pd.clock
    clock_prev = np.concatenate(([0.0], clock[:-1]))
    s2 = state.params.sigma2
    am = mass * a
    sums = _SourceSums(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
                       np.zeros((n, 2))) if grad else None
    for r0, r1, rows, cols in _band(clock, _window(a, b, state.params.nu, s2, n)):
        if not cols.size:
            continue
        bj = b[cols]
        dhi = clock[rows] - clock[cols]
        E = np.exp(-bj * dhi)
        dx = pd.locations[rows, 0] - mu[cols, 0]
        dy = pd.locations[rows, 1] - mu[cols, 1]
        r2 = dx * dx + dy * dy
        EP = E * (np.exp(-r2 / (2.0 * s2)) / (2.0 * np.pi * s2))
        W = a[cols] * EP
        dlo = clock_prev[rows] - clock[cols]
        g = gaps[rows]
        I0 = exp_integral_0(bj, dlo, g)
        local = rows - r0
        lam[r0:r1] += np.bincount(local, W, minlength=r1 - r0)
        comp[r0:r1] += np.bincount(local, am[cols] * I0, minlength=r1 - r0)
        if not grad:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            P = (1.0 / lam[r0:r1])[local]
        j0 = int(cols.min())
        src = cols - j0

        def add(total, weights):
            total[j0:r1] += np.bincount(src, weights, minlength=r1 - j0)

        PW = P * W
        add(sums.d_a, P * EP)
        add(sums.d_b, PW * dhi)
        add(sums.I0, I0)
        add(sums.I1, exp_integral_1(bj, dlo, g))
        sums.sigma2 += float(np.sum(PW * (r2 / (2.0 * s2 * s2) - 1.0 / s2)))
        if state.spec.mean_fn != "baseline":
            add(sums.mu[:, 0], PW * dx)
            add(sums.mu[:, 1], PW * dy)
    return sums


def event_intensities(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
                      omega: Rect) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intensity at each event, compensator increments, and the invalid-gap mask."""
    check_compatible(spec, params)
    gaps, invalid, lam, comp = _gap_terms(pd, params.nu, omega.area)
    if spec.variant == "last_fixation" and pd.n > 1:
        _, psi, gx, gy, _ = _last_fixation_pieces(pd, params, omega)
        lam[1:] += psi
        comp[1:] += gx * gy * gaps[1:]
    elif spec.variant == "hawkes" and pd.n > 1:
        state = HistoryState.from_path(pd, spec, params)
        _hawkes_band(state, state.mass(omega), gaps, lam, comp, grad=False)
    return lam, comp, invalid


def loglik_terms(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
                 omega: Rect) -> ScanpathLoglik:
    """Per-event log-densities of a whole scanpath, first event included."""
    check_compatible(spec, params)
    if pd.n == 0:
        return ScanpathLoglik(np.empty(0), 0)
    lam, comp, invalid = event_intensities(pd, spec, params, omega)
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
    return event_intensities(pd, spec, params, omega)[1]


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
    X = pd.design
    state = HistoryState.from_path(pd, spec, params)
    a, mu = state.a, state.mu
    sigma = np.sqrt(s2)
    zx0 = (omega.x0 - mu[:, 0]) / sigma
    zx1 = (omega.x1 - mu[:, 0]) / sigma
    zy0 = (omega.y0 - mu[:, 1]) / sigma
    zy1 = (omega.y1 - mu[:, 1]) / sigma
    gx = norm_cdf(zx1) - norm_cdf(zx0)
    gy = norm_cdf(zy1) - norm_cdf(zy0)
    mass = gx * gy
    sums = _hawkes_band(state, mass, gaps, lam, comp, grad=True)
    terms = _finish(lam, comp, invalid)

    grads = {}
    with np.errstate(divide="ignore"):
        grads["nu"] = float(np.sum(1.0 / lam) - area * np.sum(gaps))

    d_a = sums.d_a - mass * sums.I0
    grads["alpha"] = X.T @ (d_a * link_deriv(spec.link, X @ params.alpha))
    d_b = mass * a * sums.I1 - sums.d_b
    grads["beta"] = X.T @ (d_b * link_deriv(spec.link, X @ params.beta))

    # Shared spatial-variance gradient.
    dgx_dsig = (zx0 * norm_pdf(zx0) - zx1 * norm_pdf(zx1)) / sigma
    dgy_dsig = (zy0 * norm_pdf(zy0) - zy1 * norm_pdf(zy1)) / sigma
    dmass_ds2 = (dgx_dsig * gy + gx * dgy_dsig) / (2.0 * sigma)
    grads["sigma2"] = sums.sigma2 - float(np.sum(a * sums.I0 * dmass_ds2))

    if spec.mean_fn in ("affine", "full"):
        grad_mu = sums.mu / s2
        grad_mu[:, 0] -= a * sums.I0 * gy * (norm_pdf(zx0) - norm_pdf(zx1)) / sigma
        grad_mu[:, 1] -= a * sums.I0 * gx * (norm_pdf(zy0) - norm_pdf(zy1)) / sigma
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
