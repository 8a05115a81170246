"""Generative sampling of scanpaths from fitted models.

Onsets and locations come from the saccade model by Ogata (1981) thinning.
The sampler keeps the realized history in one ``saccade.HistoryState`` and
appends each event to it, so a candidate costs O(n) array work over the n
events so far and nothing is rebuilt per candidate. The dominating rate is
``HistoryState.intensity_upper_bound``: the base rate plus the kernels at
the current time, valid because kernels only decay and each spatial
component carries at most unit mass inside the screen. It proposes candidate
times, each accepted with probability equal to the true ratio; the kernels
evaluated for that ratio also give the bound for the next candidate. At an
accepted time the location is drawn from the exact mixture over base rate
and per-source Gaussians, restricted to the screen. Durations come from the
duration model given the realized history, and the clock advances past each
fixation before the next saccade is sampled.

``SimResult`` reports how thinning went: candidates tested, candidates
accepted, and Gaussian location draws that fell back from rejection to the
exact truncated normal.

Every source stays in the bound, the intensity and the location mixture.
Dropping sources older than a cutoff, as the likelihood's band does, would
make a candidate O(w) rather than O(n). Measured with a 20 s cutoff, it
was no faster on paths of up to 2000 events: the search for the first kept
source and the dropped tail's bound cost as much as the kernels they save.
It also reorders sums, which moves sampled values in their last bits; so
it waits for workloads that sample longer paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Rect, Scanpath, check_design
from .duration import DurationParams, DurationSpec, event_mean
from .errors import DomainError, check_integer, check_number
from .mathutil import norm_cdf, norm_ppf
from .saccade import HistoryState, SaccadeParams, SaccadeSpec

_MAX_CANDIDATES = 1_000_000
_REJECTION_CAP = 1000


@dataclass(frozen=True)
class SimConfig:
    """Where and how long to sample: a path ends at the first event past
    ``horizon`` seconds or at ``max_events`` events. An infinite horizon is
    allowed, and samples ``max_events`` events; NaN is not."""

    horizon: float
    omega: Rect
    seed: int = 0
    max_events: int = 100_000

    def __post_init__(self):
        check_number("horizon", self.horizon, 0.0, finite=False)
        check_integer("max_events", self.max_events, 1)
        check_integer("seed", self.seed, 0)


@dataclass(frozen=True, eq=False)
class SimResult:
    """A sampled scanpath and how thinning went.

    ``candidates`` counts the candidate times tested against the intensity,
    ``accepted`` those that became events, and ``location_fallbacks`` the
    Gaussian location draws that exhausted rejection sampling and took the
    exact per-axis truncated normal instead.
    """

    scanpath: Scanpath
    truncated: bool
    candidates: int
    accepted: int
    location_fallbacks: int


@dataclass
class _Counts:
    candidates: int = 0
    accepted: int = 0
    location_fallbacks: int = 0


def _truncated_normal_axis(rng: np.random.Generator, mu: float, sigma: float,
                           lo: float, hi: float) -> float:
    """Exact inverse-CDF draw of a normal restricted to [lo, hi)."""
    u0 = float(norm_cdf((lo - mu) / sigma))
    u1 = float(norm_cdf((hi - mu) / sigma))
    if u1 <= u0:
        return min(max(mu, lo), np.nextafter(hi, lo))
    u = rng.uniform(u0, u1)
    x = mu + sigma * float(norm_ppf(u))
    return min(max(x, lo), np.nextafter(hi, lo))


def _draw_gaussian_location(rng: np.random.Generator, mu: np.ndarray, sigma: float,
                            omega: Rect) -> tuple[np.ndarray, bool]:
    """Gaussian component conditioned on the screen, and whether rejection gave out.

    Rejection sampling first; after ``_REJECTION_CAP`` misses, the exact
    inverse-CDF draw per axis.
    """
    for _ in range(_REJECTION_CAP):
        s = mu + sigma * rng.standard_normal(2)
        if omega.contains(s[0], s[1]):
            return s, False
    x = _truncated_normal_axis(rng, float(mu[0]), sigma, omega.x0, omega.x1)
    y = _truncated_normal_axis(rng, float(mu[1]), sigma, omega.y0, omega.y1)
    return np.array([x, y]), True


def _uniform_location(rng: np.random.Generator, omega: Rect) -> np.ndarray:
    return np.array([rng.uniform(omega.x0, omega.x1), rng.uniform(omega.y0, omega.y1)])


def _draw_location(rng: np.random.Generator, state: HistoryState,
                   weighted: Optional[np.ndarray], counts: _Counts) -> np.ndarray:
    """Location at an accepted event time, from the exact spatial mixture.

    ``weighted`` holds each source's kernel times its screen mass at that
    time; it is None unless the model is self-exciting with a history.
    """
    omega = state.omega
    base = state.params.nu * omega.area
    if state.spec.variant == "poisson" or state.n == 0:
        return _uniform_location(rng, omega)
    if weighted is None:
        weights = np.array([base, state.mass[-1]])
        centers = state.mu[-1:]
    else:
        weights = np.concatenate(([base], weighted))
        centers = state.mu
    total = float(np.sum(weights))
    if total <= 0:
        return _uniform_location(rng, omega)
    pick = rng.uniform(0.0, total)
    if pick < weights[0]:
        return _uniform_location(rng, omega)
    idx = int(np.searchsorted(np.cumsum(weights), pick, side="right")) - 1
    idx = min(max(idx, 0), len(centers) - 1)
    loc, fell_back = _draw_gaussian_location(rng, centers[idx],
                                             math.sqrt(state.params.sigma2), omega)
    counts.location_fallbacks += fell_back
    return loc


def _sample_next(rng: np.random.Generator, state: HistoryState, horizon: float,
                 counts: _Counts) -> Optional[tuple[float, np.ndarray]]:
    """One thinning pass: next (onset, location), or None past the horizon.

    Each candidate evaluates the kernels once: they give the intensity at
    the candidate and, on rejection, the bound for the next one.
    """
    base = state.params.nu * state.omega.area
    excites = state.spec.variant == "hawkes" and state.n > 0
    t = state.last_end
    bound = state.intensity_upper_bound(t)
    for _ in range(_MAX_CANDIDATES):
        if bound <= 0.0:
            return None
        t = t + rng.exponential(1.0 / bound)
        if t > horizon:
            return None
        counts.candidates += 1
        # Without excitation the intensity is constant between events, so
        # the bound is the intensity itself.
        lam, kern, weighted = bound, None, None
        if excites:
            kern = state.kernels(t)
            weighted = kern * state.mass
            lam = base + float(np.sum(weighted))
        if rng.uniform() * bound <= lam:
            counts.accepted += 1
            return t, _draw_location(rng, state, weighted, counts)
        bound = state.intensity_upper_bound(t, kern)
    raise DomainError("thinning failed to accept a candidate within the safety cap")


def sample_duration(onsets: np.ndarray, design: np.ndarray, dur_spec: DurationSpec,
                    dur_params: DurationParams, rng: np.random.Generator) -> float:
    """Duration of the newest fixation, whose onset is the last entry of onsets."""
    xi = event_mean(len(onsets) - 1, onsets, design, dur_spec, dur_params)
    if dur_spec.distribution == "gamma":
        return float(rng.gamma(dur_params.shape, math.exp(xi) / dur_params.shape))
    return float(math.exp(xi + math.sqrt(dur_params.sigma2) * rng.standard_normal()))


def sample_scanpath(spec: SaccadeSpec, params: SaccadeParams, dur_spec: DurationSpec,
                    dur_params: DurationParams, config: SimConfig,
                    x_row: Optional[np.ndarray] = None,
                    x_dur_row: Optional[np.ndarray] = None,
                    reader_id: str = "sim", text_id: str = "sim",
                    rng: Optional[np.random.Generator] = None) -> SimResult:
    """Alternate onset/location and duration sampling until the horizon.

    Predictor rows are constant within one simulated scanpath: ``x_row`` for
    the saccade design and ``x_dur_row`` for the duration design, each under
    ``data.check_design``.
    """
    state = HistoryState.empty(spec, params, config.omega)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    x_row = check_design(x_row, spec.p)
    dur_row = check_design(x_dur_row, dur_spec.p)
    # The duration design as contiguous rows, regrown by doubling: a matrix
    # product over broadcast rows can round differently.
    dur_design = np.empty((0, dur_spec.p))
    counts = _Counts()
    for n in range(config.max_events):
        nxt = _sample_next(rng, state, config.horizon, counts)
        if nxt is None:
            break
        t, loc = nxt
        if dur_design.shape[0] <= n:
            dur_design = np.tile(dur_row, (2 * n + 16, 1))
        d = sample_duration(state.onsets_with(t), dur_design[:n + 1], dur_spec, dur_params, rng)
        state.append(t, max(d, 1e-9), loc, x_row)
    path = Scanpath.from_arrays(reader_id, text_id, state.onsets, state.durations,
                                state.locations)
    return SimResult(path, len(path) == config.max_events, **vars(counts))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent, reproducible streams for replicate simulations."""
    return [np.random.default_rng((seed, i)) for i in range(n)]
