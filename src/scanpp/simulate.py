"""Generative sampling of scanpaths from fitted models.

Onsets and locations come from the saccade model by Ogata (1981) thinning.
The sampler keeps the realized history in one ``saccade.HistoryState`` and
appends each event to it, so a candidate costs O(n) array work over the n
events so far and nothing is rebuilt per candidate. ``_excitation`` is the
one rule, per variant, for what a candidate reads: each source's term of
the bound, its rate and its center. Each candidate reads it once, so it
evaluates the kernels once, and an accepted one draws its location from
the exact mixture of the base rate and those rates, restricted to the
screen. Durations come from the duration model given the realized history,
and the clock advances past each fixation before the next saccade is
sampled.

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
from .errors import DomainError, ValidationError, check_integer, check_number
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
        if not isinstance(self.omega, Rect):
            raise ValidationError(f"omega must be a Rect, got {self.omega!r}")
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


def _draw_location(rng: np.random.Generator, state: HistoryState, rates: np.ndarray,
                   centers: np.ndarray, counts: _Counts) -> np.ndarray:
    """Location at an accepted event time, from the exact spatial mixture.

    The base rate spreads uniformly over the screen, and each source's rate,
    as ``_excitation`` gives it, on the Gaussian around its center.
    """
    omega = state.omega
    if rates.size == 0:
        return _uniform_location(rng, omega)
    weights = np.concatenate(([state.params.nu * omega.area], rates))
    total = float(weights.sum())
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


_NO_RATES = np.empty(0)
_NO_CENTERS = np.empty((0, 2))


def _excitation(state: HistoryState, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a thinning candidate at time t reads from each source: (caps, rates, centers).

    The intensity at t is the base rate plus the sum of ``rates``, each
    source's screen-integrated rate. The bound, the base rate plus the sum
    of ``caps``, dominates the intensity from t on.

    - Poisson, or an empty history: no sources; the bound is the base rate.
    - last_fixation: the last center at its screen mass, a constant rate,
      so the bound is the intensity and the first candidate is accepted.
    - hawkes: every source at its kernel times its screen mass. Its cap is
      its kernel, as kernels only decay and a component has at most unit
      mass on the screen (the cap with the mass would be tighter, and would
      change the random stream).
    """
    if state.spec.variant == "poisson" or state.n == 0:
        return _NO_RATES, _NO_RATES, _NO_CENTERS
    if state.spec.variant == "last_fixation":
        rates = state.mass[-1:]
        return rates, rates, state.mu[-1:]
    kern = state.kernels(t)
    return kern, kern * state.mass, state.mu


def _sample_next(rng: np.random.Generator, state: HistoryState, horizon: float,
                 counts: _Counts) -> Optional[tuple[float, np.ndarray]]:
    """One thinning pass: next (onset, location), or None past the horizon.

    Each candidate reads ``_excitation`` once: its rates decide the
    candidate and give the location on acceptance, and its caps give the
    bound for the next candidate on rejection.
    """
    base = state.params.nu * state.omega.area
    t = state.last_end
    bound = base + float(_excitation(state, t)[0].sum())
    for _ in range(_MAX_CANDIDATES):
        if bound <= 0.0:
            return None
        t = t + rng.exponential(1.0 / bound)
        if t > horizon:
            return None
        counts.candidates += 1
        caps, rates, centers = _excitation(state, t)
        if rng.uniform() * bound <= base + float(rates.sum()):
            counts.accepted += 1
            return t, _draw_location(rng, state, rates, centers, counts)
        bound = base + float(caps.sum())
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
        d = sample_duration(np.concatenate((state.onsets, [t])), dur_design[:n + 1], dur_spec,
                            dur_params, rng)
        state.append(t, max(d, 1e-9), loc, x_row)
    path = Scanpath.from_arrays(reader_id, text_id, state.onsets, state.durations,
                                state.locations)
    return SimResult(path, len(path) == config.max_events, **vars(counts))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent, reproducible streams for replicate simulations."""
    return [np.random.default_rng((seed, i)) for i in range(n)]
