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
history, and a vectorized per-scanpath layer used by the fitting loop. The
per-scanpath layer takes a ``PathData``: one scanpath, or a batch of them
held as the segments of one concatenation. The kernel clock and the exposure
windows restart at each segment, no source excites an event of another
segment, and the per-event terms come back in path order, so a batch costs
one pass; one scanpath is a batch of one segment. That pass, ``_evaluate``,
serves all four entry points. Scoring reads per-event terms:
``event_intensities`` and ``loglik_terms`` run it per event, without the
gradient. ``compensator_increments`` runs it per event without intensities
as well: its band pass forms each kept pair's compensator integral and no
kernel, Gaussian or intensity, on the same cutoff, so its increments are
``event_intensities``'s, bit for bit. Training reads the batch total:
``loglik_grad`` runs it for the total, with the gradient or without it. The
pass checks its inputs and forms the gap terms once, adds the last-fixation
or the self-exciting excitation, which returns that variant's gradient when
asked, and takes the base-rate gradient last, once every intensity is
complete. ``_screen_mass`` is the one definition of a center's
Gaussian mass inside the screen and, for the gradient, of its sigma2 and
center derivatives; the history state and both variants read it.
``_sources`` is the one formula for each source row's excitation center,
link outputs and screen mass, over any number of rows; the history state
and the self-exciting variant read it. It has two parts: ``_row_terms``,
what the design row alone gives (the link outputs a and b, and the center
offset C·x), and ``_centers``, the center at the row's location and its
screen mass.

The pointwise layer builds a ``HistoryState`` once per history: the kernel
clock, the link outputs, the excitation centers and their screen mass.
``build`` forms them for the whole history and ``append`` for one new row,
both through ``_sources``; ``append`` reuses a row's ``_row_terms`` while
the row's value is the one appended last. ``HistoryState.intensity_at`` evaluates the
intensity at many points in blocks of bounded size, and one point evaluated
alone gets the same value, bit for bit, as the same point in a block. The
plotting grid reads it, and the sampler grows a state by
``HistoryState.append``. Both layers share one convention: event times are
seconds, locations are pixels, and the screen region bounds all spatial
mass integrals.

The per-scanpath layer evaluates the self-exciting variant on the pair band
``mathutil._band``, in O(n·w) time and memory. A source's kernel
a_j·exp(-b_j·age) decays exponentially in its age on the kernel clock c, so
the band runs on c with cutoff w. Each row's intensity is complete within
its block. What weights a pair by its row stays per pair, as scatter-adds
over the block's pairs: lam, the per-event compensator increments when
scoring asks for them, and the gradient's sums weighted by
P_i = 1/lambda_i. The compensator's sums per source, of
I0_ij = ∫ exp(-b_j·age) and I1_ij = ∫ age·exp(-b_j·age) over row i's
window, need no pair. Source j's kept rows are j+1..hi_j, as each row's
first kept source (``mathutil._first_kept``) never falls, and their windows
tile (c_j, c_hi_j] on the kernel clock. So each sum is one integral over
ages [0, c_hi_j - c_j], in closed form for any b_j (Ozaki 1979). It
integrates over the kept rows only, so the tail bound below holds for it as
for the per-pair sums. The gradient reads both sums, and the training
total reads the first: it is

    sum_i log lambda_i - nu·|Omega|·sum_i gap_i - sum_j a_j·m_j·I0_j,

with m_j the screen mass of source j's center, under the self-exciting
variant; under the other two it is the sum of the per-event terms, bit for
bit. So the total equals the sum of ``loglik_terms``'s per-event terms up
to rounding, as it adds the same integrals in another order: the tests
allow 1e-13 of the sum of the terms' magnitudes, each taken at least 1,
and the golden cases differ by at most 2.4e-16 of it. Where the clock
steps back by less than the gap tolerance, the windows overlap by that
step, and the two sums, for the total as for the gradient, can differ
also by the integral over the overlap: at most sum_j a_j·m_j times the
step, per step.

The cutoff w is derived on each call from (a, b, nu, sigma2, n), one for the
whole batch: n is the length of its longest segment, and A and b_min below
are taken over every event of the batch. The dropped pairs change each
event's log-density by at most ``_TAIL_EPS`` = 1e-13 nats, and each event's
contribution to the gradient in every a_j, b_j, sigma2 and excitation-center
coordinate by at most the same. With q = 1/(2π·sigma2·nu), the largest
psi/lambda since lambda >= nu and psi <= 1/(2π·sigma2); c = 1/b_min; and
A = max a, a pair whose age and window start both exceed w contributes at
most exp(-b_min·w) times

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

An event has at most n dropped sources, all in its own segment, and the
batch-wide A, 1/b_min and n are at least those of any one segment, so the
bound holds per event of every segment. So w is any value with
n·exp(-b_min·w)·(k0 + k1·w) <= eps, where k0 and k1 are the largest
constant and linear coefficients above. Iterating
w <- c·log(n·(k0 + k1·w)/eps) from a start above the least such w keeps
every iterate valid. The gradients in alpha, beta, A, b and C carry the
chain-rule factors x_jk·h'(x_j·theta) and s_j on top; the kept terms are
weighted by 1/lambda_i, which the tail moves by a relative amount below
eps. When b_min = 0 (relu) or nu = 0 there is no such w, and no pair within
a segment is dropped.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import mathutil
from .data import _OVERLAP_TOL, Rect, Scanpath, check_design
from .errors import DomainError, ValidationError, check_names
from .mathutil import (
    apply_link,
    exp_integral_0,
    exp_integrals,
    link_deriv,
    norm_cdf,
    norm_pdf,
)

VARIANTS = ("poisson", "last_fixation", "hawkes")
MEAN_FNS = ("baseline", "affine", "full")
LINK_NAMES = ("softplus", "relu")

# Gap on the kernel clock more negative than this means the event starts
# inside the previous fixation; the log-density there is -inf by the support
# indicator. It is wider than data._OVERLAP_TOL, which compares an onset with
# the previous end directly: the clock subtracts a running sum of durations
# from each onset, so its gaps carry the rounding of the onsets' magnitude.
# Touching fixations with onsets near 1e4 s read gaps down to -1.8e-12 s.
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
        object.__setattr__(self, "columns", check_names("columns", self.columns))
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
    """Array view of one or more scanpaths plus their design rows, ready for evaluation.

    Several scanpaths are held as one concatenation of segments, one per
    scanpath: ``starts`` holds the index of each segment's first event and
    ``labels`` each segment's label. The kernel clock and the exposure
    windows restart at every segment start, so no event of one scanpath
    excites an event of another. One scanpath is a batch of one segment,
    ``starts=(0,)`` with its one label, checked like any batch; ``concat``
    builds a batch of several.
    """

    onsets: np.ndarray
    durations: np.ndarray
    locations: np.ndarray
    design: np.ndarray
    starts: np.ndarray = (0,)
    labels: tuple[str, ...] = ("",)

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
        starts = np.asarray(self.starts, dtype=np.intp).reshape(-1)
        labels = tuple(self.labels)
        if len(labels) != starts.shape[0]:
            raise ValidationError(f"{starts.shape[0]} segment starts but {len(labels)} labels")
        if not (starts[0] == 0 and starts[-1] <= n and np.all(starts[1:] >= starts[:-1])
                if starts.size else n == 0):
            raise ValidationError("segment starts must rise from 0 and stay within the events")
        self.__dict__.update(onsets=t, durations=d, locations=s, design=x, starts=starts,
                             labels=labels)

    @classmethod
    def from_scanpath(cls, scanpath: Scanpath, design: np.ndarray | None = None) -> "PathData":
        """``design`` defaults to no columns, for specs that declare none."""
        x = np.zeros((len(scanpath), 0)) if design is None else design
        return cls(scanpath.onsets, scanpath.durations, scanpath.locations, x,
                   labels=(f"{scanpath.reader_id}/{scanpath.text_id}",))

    @classmethod
    def concat(cls, units: Sequence["PathData"]) -> "PathData":
        """One batch holding the segments of ``units``, in order.

        No units give an empty batch of no segments. The batch reuses each
        unit's kernel clock, so building one per minibatch repeats no
        per-path work.
        """
        units = tuple(units)
        if len(units) == 1:
            return units[0]
        if not units:
            return cls(np.empty(0), np.empty(0), np.empty((0, 2)), np.empty((0, 0)),
                       starts=(), labels=())
        widths = {u.p for u in units}
        if len(widths) > 1:
            raise ValidationError(f"units with design widths {sorted(widths)} cannot share a batch")
        offsets = np.cumsum([0] + [u.n for u in units[:-1]])
        batch = cls(np.concatenate([u.onsets for u in units]),
                    np.concatenate([u.durations for u in units]),
                    np.concatenate([u.locations for u in units]),
                    np.concatenate([u.design for u in units]),
                    starts=np.concatenate([u.starts + k for u, k in zip(units, offsets)]),
                    labels=tuple(label for u in units for label in u.labels))
        batch.__dict__["clock"] = np.concatenate([u.clock for u in units])
        return batch

    @property
    def n(self) -> int:
        return self.onsets.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]

    @cached_property
    def lengths(self) -> np.ndarray:
        """Event count of each segment."""
        return np.concatenate((self.starts[1:], [self.n])) - self.starts

    @cached_property
    def after_first(self) -> np.ndarray:
        """Index of every event that follows another of its own scanpath."""
        follows = np.ones(self.n, dtype=bool)
        follows[self.starts[self.starts < self.n]] = False
        return np.flatnonzero(follows)

    def locate(self, k: int) -> tuple[str, int]:
        """Label of the scanpath that holds event k, and k's index within it."""
        seg = int(np.searchsorted(self.starts, k, side="right")) - 1
        return self.labels[seg], k - int(self.starts[seg])

    @cached_property
    def clock(self) -> np.ndarray:
        """Onset times with preceding fixation durations of the same scanpath removed.

        Kernel arguments and compensator windows depend on event times only
        through differences of these values within a scanpath.
        """
        spent = np.zeros(self.n)
        for lo, hi in zip(self.starts.tolist(), self.starts[1:].tolist() + [self.n]):
            if hi - lo > 1:
                np.cumsum(self.durations[lo:hi - 1], out=spent[lo + 1:hi])
        return self.onsets - spent

    @cached_property
    def clock_prev(self) -> np.ndarray:
        """Clock of the event before each one, 0 at the first event of a scanpath."""
        prev = np.concatenate(([0.0], self.clock[:-1]))
        prev[self.starts[self.starts < self.n]] = 0.0
        return prev

    @cached_property
    def gaps(self) -> np.ndarray:
        """Inter-event exposure window lengths; each scanpath's first runs from time zero."""
        return self.clock - self.clock_prev


# --- Spatial components -----------------------------------------------------

def _screen_mass(mu: np.ndarray, sigma2: float, omega: Rect, grad: bool):
    """Screen mass gx·gy of the Gaussian around each center (row of ``mu``).

    With ``grad`` also dmass/dsigma2 and ``dmass_dmu``, which maps per-center
    weights u to u·dmass/dmu, (n, 2), multiplying u in first; else None, None.
    """
    sigma = np.sqrt(sigma2)
    # the z of the four screen edges (x0, x1, y0, y1) as one array, so that
    # norm_cdf and norm_pdf take one call each
    z = np.array([[omega.x0], [omega.x1], [omega.y0], [omega.y1]]) - mu.T[[0, 0, 1, 1]]
    z /= sigma
    zx0, zx1, zy0, zy1 = z
    cdf = norm_cdf(z)
    gx = cdf[1] - cdf[0]
    gy = cdf[3] - cdf[2]
    mass = gx * gy
    if not grad:
        return mass, None, None
    px0, px1, py0, py1 = norm_pdf(z)
    dgx_dsig = (zx0 * px0 - zx1 * px1) / sigma
    dgy_dsig = (zy0 * py0 - zy1 * py1) / sigma
    dmass_ds2 = (dgx_dsig * gy + gx * dgy_dsig) / (2.0 * sigma)

    def dmass_dmu(u: np.ndarray) -> np.ndarray:
        return np.column_stack((u * gy * (px0 - px1) / sigma, u * gx * (py0 - py1) / sigma))

    return mass, dmass_ds2, dmass_dmu


def _row_terms(X: np.ndarray, spec: SaccadeSpec, params: SaccadeParams) -> dict[str, np.ndarray]:
    """The location-free fields of the source rows with design rows ``X`` (m, p).

    Under the self-exciting variant ``a`` and ``b``, the link outputs; under
    the full center map ``shift``, each row's center offset C·x.
    """
    terms = {}
    if spec.variant == "hawkes":
        # one link call for both: on a one-row append it costs more than the products
        terms["a"], terms["b"] = apply_link(spec.link, np.array([X @ params.alpha,
                                                                 X @ params.beta]))
    if spec.mean_fn == "full":
        terms["shift"] = X @ params.C.T
    return terms


def _centers(locations: np.ndarray, terms: dict[str, np.ndarray], spec: SaccadeSpec,
             params: SaccadeParams, omega: Optional[Rect]) -> dict[str, np.ndarray]:
    """``mu``, the excitation center of each source row at ``locations`` (m, 2),
    from its ``_row_terms``; given a screen ``omega``, also ``mass``, each
    center's screen mass."""
    mu = locations
    if spec.mean_fn != "baseline":
        mu = locations @ params.A.T + params.b
        if spec.mean_fn == "full":
            mu = mu + terms["shift"]
    fields = {"mu": mu}
    if omega is not None:
        fields["mass"] = _screen_mass(mu, params.sigma2, omega, grad=False)[0]
    return fields


def _sources(locations: np.ndarray, X: Optional[np.ndarray], spec: SaccadeSpec,
             params: SaccadeParams, omega: Optional[Rect] = None,
             terms: Optional[dict[str, np.ndarray]] = None) -> dict[str, np.ndarray]:
    """Per-source fields of the source rows at ``locations`` (m, 2) with design rows ``X``.

    ``mu``, each excitation center; under the self-exciting variant ``a``
    and ``b``, the link outputs; given a screen ``omega``, ``mass``, each
    center's screen mass: the ``_row_terms`` of ``X``, then the
    ``_centers`` at ``locations``. The products are matrix products over
    all m rows, so a row formed alone, as ``HistoryState.append`` forms it,
    may differ in its last bits from the same row formed among many.
    ``terms`` may pass the ``_row_terms`` of ``X`` when the caller has them
    already.
    """
    if terms is None:
        terms = _row_terms(X, spec, params)
    fields = _centers(locations, terms, spec, params, omega)
    if spec.variant == "hawkes":
        fields["a"], fields["b"] = terms["a"], terms["b"]
    return fields


# Most that dropping the sources beyond the band's cutoff may change an
# event's log-density, or its contribution to a gradient entry, in nats.
_TAIL_EPS = 1e-13


def _density(points: np.ndarray, centers: np.ndarray, sigma2: float) -> np.ndarray:
    """Spherical Gaussian density of each point (row) around each center (column).

    Computed in place: the x then the y term of the squared distance, as
    ``np.sum`` over the two axes adds them, then exp(-r2 / (2 sigma2)) /
    (2 pi sigma2). So each entry is bit-identical to the one-point formula
    written that way, the ``spatial_density`` the tests keep as a reference.
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


class HistoryState:
    """One history, prepared for evaluation at many (t, s) and grown event by event.

    ``clock`` is the kernel clock; ``a`` and ``b`` are each source's link
    outputs (empty unless the variant is self-exciting), ``mu`` its
    excitation center and ``mass`` that center's Gaussian mass inside the
    screen ``omega`` (None for a state built without one). ``build``
    prepares a whole history at once and ``append`` adds one event; both
    form the per-source fields through the one formula ``_sources``, on the
    whole history or on the new row. Every field is a view of the first
    ``n`` rows of a buffer whose capacity doubles when full, so n appends
    cost O(n) array work in all, and a view taken before an append does not
    see the new row.

    ``kernels`` and ``intensity_at`` evaluate the state at a time t; the
    sampler's thinning rule, ``simulate._excitation``, reads ``kernels``,
    ``mass`` and ``mu``.
    """

    spec: SaccadeSpec
    params: SaccadeParams
    omega: Optional[Rect]
    n: int
    onsets: np.ndarray
    durations: np.ndarray
    locations: np.ndarray
    clock: np.ndarray
    a: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    mass: Optional[np.ndarray]
    last_end: float
    total_duration: float

    def __init__(self, spec: SaccadeSpec, params: SaccadeParams, omega: Optional[Rect],
                 n: int, buffers: dict[str, np.ndarray], last_end: float,
                 total_duration: float):
        self.spec = spec
        self.params = params
        self.omega = omega
        self.a = self.b = np.empty(0)
        self.mass = None
        # the bytes of the design row last appended, and its _row_terms
        self._row = (None, None)
        self.last_end = last_end
        self.total_duration = total_duration
        self._adopt(n, buffers)

    def _adopt(self, n: int, buffers: dict[str, np.ndarray]) -> None:
        self.n = n
        self._buffers = buffers
        for name, buf in buffers.items():
            setattr(self, name, buf[:n])

    @classmethod
    def empty(cls, spec: SaccadeSpec, params: SaccadeParams,
              omega: Optional[Rect] = None) -> "HistoryState":
        """A history of no events, to grow by ``append``."""
        return cls.build(Scanpath("", "", ()), None, spec, params, omega)

    @classmethod
    def build(cls, history: Scanpath, X: Optional[np.ndarray], spec: SaccadeSpec,
              params: SaccadeParams, omega: Optional[Rect] = None) -> "HistoryState":
        """``X`` holds the history's design rows, under ``data.check_design``.

        The buffers are the history's own arrays, full to capacity, so the
        first ``append`` copies them before it writes.
        """
        check_compatible(spec, params)
        pd = PathData.from_scanpath(history, check_design(X, spec.p, len(history)))
        buffers = dict(onsets=pd.onsets, durations=pd.durations, locations=pd.locations,
                       clock=pd.clock, **_sources(pd.locations, pd.design, spec, params, omega))
        last_end = float(pd.onsets[-1] + pd.durations[-1]) if pd.n else 0.0
        return cls(spec, params, omega, pd.n, buffers, last_end, float(np.sum(pd.durations)))

    def append(self, onset: float, duration: float, location,
               x: Optional[np.ndarray] = None) -> None:
        """Add an event after the history; ``x`` is its design row, under ``data.check_design``.

        The event obeys the rule a built history's fixations obey: a finite
        onset >= 0, duration > 0 and location (else a ``ValidationError``),
        and an onset not before the end of the last fixation (else a
        ``DomainError``). The row's location-free terms are reused while its
        value stays that of the row appended last, as it does over a sampled
        path; only the center and its screen mass are formed per event.
        """
        location = np.asarray(location, dtype=float).reshape(1, 2)
        # scalar checks, as the sampler appends once per event
        sx, sy = location[0].tolist()
        if not (math.isfinite(onset) and onset >= 0):
            raise ValidationError(f"appended fixation onset must be >= 0, got {onset}")
        if not (math.isfinite(duration) and duration > 0):
            raise ValidationError(f"appended fixation duration must be > 0, got {duration}")
        if not (math.isfinite(sx) and math.isfinite(sy)):
            raise ValidationError(f"appended fixation location must be finite, got ({sx}, {sy})")
        self._require_after_history(onset)
        x = check_design(x, self.spec.p)
        key = x.tobytes()
        if key != self._row[0]:
            self._row = (key, _row_terms(x[None], self.spec, self.params))
        fields = _sources(location, None, self.spec, self.params, self.omega, self._row[1])
        row = dict(onsets=onset, durations=duration, locations=location[0],
                   clock=onset - self.total_duration,
                   **{name: value[0] for name, value in fields.items()})
        n = self.n
        if n == self._buffers["onsets"].shape[0]:
            # full: double the capacity
            for name, buf in self._buffers.items():
                self._buffers[name] = np.empty((max(2 * n, 16),) + buf.shape[1:])
                self._buffers[name][:n] = buf[:n]
        for name, value in row.items():
            self._buffers[name][n] = value
        # A running sum, so the clock of each appended event is exact
        # against the durations before it.
        self.total_duration += duration
        self.last_end = onset + duration
        self._adopt(n + 1, self._buffers)

    def _require_after_history(self, t: float) -> None:
        if t < self.last_end - _OVERLAP_TOL:
            raise DomainError(f"time {t} falls before the end of the previous "
                              f"fixation at {self.last_end}")

    def kernels(self, t: float) -> np.ndarray:
        """Temporal kernel a_j·exp(-b_j·age_j) of each source at time t."""
        # b·(c - (t - T)) is -b·age bit for bit, as IEEE subtraction is exact
        # under a change of sign
        k = np.subtract(self.clock, t - self.total_duration)
        k *= self.b
        np.exp(k, out=k)
        k *= self.a
        return k

    def intensity_at(self, t: float, points) -> np.ndarray:
        """Conditional intensity at time t at each row of an (m, 2) array of points.

        Points go in blocks of at most ``mathutil._BLOCK_PAIRS`` point-source pairs,
        so memory stays bounded on fine grids and long histories. A point
        evaluated alone gets the same value, bit for bit, as in a block.
        """
        self._require_after_history(t)
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        nu = float(self.params.nu)
        n = self.n
        if self.spec.variant == "poisson" or n == 0:
            return np.full(points.shape[0], nu)
        s2 = self.params.sigma2
        if self.spec.variant == "last_fixation":
            return nu + _density(points, self.locations[-1:], s2)[:, 0]
        phi = self.kernels(t)
        out = np.empty(points.shape[0])
        step = max(1, mathutil._BLOCK_PAIRS // n)
        for lo in range(0, points.shape[0], step):
            psi = _density(points[lo:lo + step], self.mu, s2)
            psi *= phi
            out[lo:lo + step] = nu + np.sum(psi, axis=1)
        return out


# --- Vectorized per-scanpath evaluation -------------------------------------

@dataclass(frozen=True, eq=False)
class ScanpathLoglik:
    """Per-event log-densities plus their sum and the count of -inf terms."""

    per_event: np.ndarray
    invalid_count: int

    @property
    def total(self) -> float:
        return float(np.sum(self.per_event))


def _finish(lam: np.ndarray, comp: np.ndarray, invalid: np.ndarray) -> ScanpathLoglik:
    with np.errstate(divide="ignore", invalid="ignore"):
        per = np.where(lam > 0.0, np.log(np.maximum(lam, 1e-300)), -np.inf) - comp
    per = np.where(invalid, -np.inf, per)
    return ScanpathLoglik(per, int(np.sum(~np.isfinite(per))))


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


def _last_fixation_terms(pd: PathData, params: SaccadeParams, omega: Rect, gaps: np.ndarray,
                         lam: Optional[np.ndarray], comp: np.ndarray, grad: bool) -> dict:
    """Add the excitation of each event ``pd.after_first`` by the fixation before it.

    lam, unless None, and comp change in place; with ``grad`` the sigma2
    gradient comes back.
    """
    s2 = params.sigma2
    k = pd.after_first
    prev = pd.locations[k - 1]
    mass, dmass_ds2, _ = _screen_mass(prev, s2, omega, grad)
    comp[k] += mass * gaps[k]
    if lam is None:
        return {}
    r2 = np.sum((pd.locations[k] - prev) ** 2, axis=1)
    psi = np.exp(-r2 / (2.0 * s2)) / (2.0 * np.pi * s2)
    lam[k] += psi
    if not grad:
        return {}
    with np.errstate(divide="ignore", invalid="ignore"):
        P = 1.0 / lam[k]
    dpsi = psi * (r2 / (2.0 * s2 * s2) - 1.0 / s2)
    return {"sigma2": float(np.sum(P * dpsi) - np.sum(gaps[k] * dmass_ds2))}


def _hawkes_terms(pd: PathData, spec: SaccadeSpec, params: SaccadeParams, omega: Rect,
                  gaps: np.ndarray, lam: Optional[np.ndarray], comp: Optional[np.ndarray],
                  grad: bool) -> tuple[float, dict]:
    """Add the excitation to lam in place, one block of the band at a time.

    One cutoff serves every segment of ``pd``, from the batch's largest a,
    its smallest b and its longest segment. Given ``comp``, each event's
    compensator increment takes its pairs' integrals in place, and the
    excited total that comes back is 0.0; with lam None as well, a pair forms
    only its integral, and no kernel, Gaussian or intensity. With comp None,
    no pair forms an integral: the excited compensator total comes back,
    from each source's integral in closed form after the pass. ``grad``
    takes lam and comp None. Each
    row's lam is complete within its block, so the P-weighted per-source
    sums of the gradient take the same pass, and the compensator's
    per-source sums come in closed form after it. With no sources they are
    zeros of the right shapes.
    """
    fields = _sources(pd.locations, pd.design, spec, params)
    a, b, mu = fields["a"], fields["b"], fields["mu"]
    clock = pd.clock
    # gathers from contiguous columns
    sx, sy = np.ascontiguousarray(pd.locations.T)
    mx, my = np.ascontiguousarray(mu.T)
    s2 = params.sigma2
    mass, dmass_ds2, dmass_dmu = _screen_mass(mu, s2, omega, grad)
    am = mass * a
    # Per-source sums over the kept pairs: sum_i P_i E_ij psi_ij, sum_i P_i
    # W_ij dhi_ij and sum_i P_i W_ij (s_i - mu_j); and the total of
    # P_i W_ij (r2_ij / (2 s2^2) - 1 / s2).
    sum_a, sum_b = np.zeros(pd.n), np.zeros(pd.n)
    sum_mu = np.zeros((pd.n, 2))
    sum_s2 = 0.0
    w = _window(a, b, params.nu, s2, int(pd.lengths.max(initial=0)))
    lo = mathutil._first_kept(clock, w, pd.starts)
    for r0, r1, rows, cols in mathutil._band(lo):
        if not cols.size:
            continue
        bj = b[cols]
        local = rows - r0
        if comp is not None:
            I0 = exp_integral_0(bj, pd.clock_prev[rows] - clock[cols], gaps[rows])
            comp[r0:r1] += np.bincount(local, am[cols] * I0, minlength=r1 - r0)
        if lam is None:
            continue
        dhi = clock[rows] - clock[cols]
        E = np.exp(-bj * dhi)
        dx = sx[rows] - mx[cols]
        dy = sy[rows] - my[cols]
        r2 = dx * dx + dy * dy
        EP = E * (np.exp(-r2 / (2.0 * s2)) / (2.0 * np.pi * s2))
        W = a[cols] * EP
        lam[r0:r1] += np.bincount(local, W, minlength=r1 - r0)
        if not grad:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            P = (1.0 / lam[r0:r1])[local]
        j0 = int(cols.min())
        src = cols - j0

        def add(total, weights):
            total[j0:r1] += np.bincount(src, weights, minlength=r1 - j0)

        PW = P * W
        add(sum_a, P * EP)
        add(sum_b, PW * dhi)
        sum_s2 += float(np.sum(PW * (r2 / (2.0 * s2 * s2) - 1.0 / s2)))
        if spec.mean_fn != "baseline":
            add(sum_mu[:, 0], PW * dx)
            add(sum_mu[:, 1], PW * dy)
    if comp is not None:
        return 0.0, {}
    # Source j's kept rows are j+1..hi_j, whose exposure windows tile
    # (c_j, c_hi_j] on the kernel clock, so its sums of the pair integrals
    # are the integrals over that span.
    hi = np.searchsorted(lo, np.arange(pd.n), side="right") - 1
    span = clock[hi] - clock
    if not grad:
        return float(np.sum(am * exp_integral_0(b, 0.0, span))), {}
    sum_I0, sum_I1 = exp_integrals(b, 0.0, span)
    X = pd.design
    d_a = sum_a - mass * sum_I0
    grads = {"alpha": X.T @ (d_a * link_deriv(spec.link, X @ params.alpha))}
    d_b = mass * a * sum_I1 - sum_b
    grads["beta"] = X.T @ (d_b * link_deriv(spec.link, X @ params.beta))
    grads["sigma2"] = sum_s2 - float(np.sum(a * sum_I0 * dmass_ds2))
    if spec.mean_fn != "baseline":
        grad_mu = sum_mu / s2
        grad_mu -= dmass_dmu(a * sum_I0)
        grads["A"] = grad_mu.T @ pd.locations
        grads["b"] = np.sum(grad_mu, axis=0)
        if spec.mean_fn == "full":
            grads["C"] = grad_mu.T @ X
    return float(np.sum(am * sum_I0)), grads


def _evaluate(pd: PathData, spec: SaccadeSpec, params: SaccadeParams, omega: Rect,
              total: bool, grad: bool = False, intensities: bool = True
              ) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray, float, Optional[dict]]:
    """Each event's intensity, compensator increment and invalid-gap flag,
    and the excited compensator total.

    With ``total`` the self-exciting excitation's compensator is not split
    by event: the increments leave it out, and its batch total comes back,
    else 0.0. With ``grad``, which takes ``total``, also the gradient that
    ``loglik_grad`` documents, else None. Without ``intensities``, which
    takes neither, no intensity is formed and None comes in its place: the
    increments, flags and cutoff are the same, bit for bit.
    """
    check_compatible(spec, params)
    X = check_design(pd.design, spec.p, pd.n)
    if pd.n == 0:
        pd = dataclasses.replace(pd, design=X)  # an empty batch takes the spec's width
    area = omega.area
    invalid = pd.gaps < -_GAP_TOL
    gaps = np.maximum(pd.gaps, 0.0)
    lam = np.full(pd.n, float(params.nu)) if intensities else None
    comp = params.nu * area * gaps
    excited, grads = 0.0, {}
    if spec.variant == "last_fixation":
        grads = _last_fixation_terms(pd, params, omega, gaps, lam, comp, grad)
    elif spec.variant == "hawkes":
        excited, grads = _hawkes_terms(pd, spec, params, omega, gaps, lam,
                                       None if total else comp, grad)
    if not grad:
        return lam, comp, invalid, excited, None
    with np.errstate(divide="ignore"):
        d_nu = float(np.sum(1.0 / lam) - area * np.sum(gaps))
    return lam, comp, invalid, excited, {"nu": d_nu, **grads}


def event_intensities(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
                      omega: Rect) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intensity at each event, compensator increments, and the invalid-gap mask."""
    return _evaluate(pd, spec, params, omega, total=False)[:3]


def loglik_terms(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
                 omega: Rect) -> ScanpathLoglik:
    """Per-event log-densities of a whole scanpath, first event included."""
    return _finish(*event_intensities(pd, spec, params, omega))


def compensator_increments(pd: PathData, spec: SaccadeSpec, params: SaccadeParams,
                           omega: Rect) -> np.ndarray:
    """Integrated intensity over each inter-event window, one value per event.

    Under the generating model these increments are unit-exponential by the
    time-rescaling property. They are ``event_intensities``'s, bit for bit,
    from a pass that forms no intensity.
    """
    return _evaluate(pd, spec, params, omega, total=False, intensities=False)[1]


def loglik_grad(pd: PathData, spec: SaccadeSpec, params: SaccadeParams, omega: Rect,
                grad: bool = True) -> tuple[float, Optional[dict[str, np.ndarray | float]]]:
    """The batch's log-likelihood total and, with ``grad``, its gradient in
    constrained parameter space; without ``grad`` the gradient is None.

    The total is -inf where an event's gap is invalid or its intensity is
    not > 0, as ``loglik_terms`` has it, and wherever the sum is not finite.
    Else it equals the sum of ``loglik_terms``'s terms within the bound the
    module docstring states, and it is the same, bit for bit, with the
    gradient or without it. Gradient keys depend on the variant: nu always; sigma2 for the
    last-fixation and self-exciting variants; alpha and beta for the
    self-exciting variant; A and b under the affine center map; C under the
    full map. Values are only meaningful when the total is finite.
    """
    lam, comp, invalid, excited, grads = _evaluate(pd, spec, params, omega, total=True,
                                                   grad=grad)
    total = _finish(lam, comp, invalid).total - excited
    return (total if math.isfinite(total) else -math.inf), grads
