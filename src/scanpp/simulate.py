"""Generative sampling of scanpaths from fitted models.

Onsets and locations come from the saccade model by thinning: a dominating
rate built from the kernel values at the current time (valid because kernels
only decay and each spatial component carries at most unit mass inside the
screen) proposes candidate times, accepted with probability equal to the true
ratio. At an accepted time the location is drawn from the exact mixture over
base rate and per-source Gaussians, restricted to the screen. Durations come
from the duration model given the realized history, and the clock advances
past each fixation before the next saccade is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Fixation, Rect, Scanpath
from .duration import DurationParams, DurationSpec, event_mean
from .errors import DomainError, ValidationError
from .mathutil import apply_link, norm_cdf, norm_ppf
from .saccade import (
    HistoryState,
    SaccadeParams,
    SaccadeSpec,
    check_compatible,
    history_design,
    spatial_mass,
)

_MAX_CANDIDATES = 1_000_000
_REJECTION_CAP = 1000


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    omega: Rect
    seed: int = 0
    max_events: int = 100_000

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if self.max_events < 1:
            raise ValidationError(f"max_events must be >= 1, got {self.max_events}")


@dataclass(frozen=True, eq=False)
class SimResult:
    scanpath: Scanpath
    truncated: bool


class _State:
    """Mutable per-simulation history in the arrays the sampler needs."""

    def __init__(self, spec: SaccadeSpec, params: SaccadeParams, omega: Rect,
                 x_row: Optional[np.ndarray]):
        self.spec = spec
        self.params = params
        self.omega = omega
        self.x_row = (np.zeros(spec.p) if x_row is None
                      else np.asarray(x_row, dtype=float).reshape(spec.p))
        self.onsets: list[float] = []
        self.durations: list[float] = []
        self.locations: list[np.ndarray] = []
        self.clock: list[float] = []
        self.total_dur = 0.0
        self.a: list[float] = []
        self.decay: list[float] = []
        self.mu: list[np.ndarray] = []
        self.mass: list[float] = []

    @property
    def n(self) -> int:
        return len(self.onsets)

    @property
    def last_end(self) -> float:
        return self.onsets[-1] + self.durations[-1] if self.onsets else 0.0

    def push(self, onset: float, loc: np.ndarray, duration: float,
             x: Optional[np.ndarray] = None) -> None:
        if x is None:
            x = self.x_row
        self.onsets.append(onset)
        self.durations.append(duration)
        self.locations.append(loc)
        self.clock.append(onset - self.total_dur)
        self.total_dur += duration
        if self.spec.variant == "hawkes":
            if self.spec.mean_fn == "baseline":
                mu = loc
            else:
                mu = self.params.A @ loc + self.params.b
                if self.spec.mean_fn == "full":
                    mu = mu + self.params.C @ x
            self.a.append(float(apply_link(self.spec.link, float(x @ self.params.alpha))))
            self.decay.append(float(apply_link(self.spec.link, float(x @ self.params.beta))))
            self.mu.append(mu)
            self.mass.append(spatial_mass(mu, self.params.sigma2, self.omega))

    def kernel_values(self, t: float) -> np.ndarray:
        """Per-source kernel value at absolute time t (after the last fixation)."""
        age = (t - self.total_dur) - np.asarray(self.clock)
        return np.asarray(self.a) * np.exp(-np.asarray(self.decay) * age)


def intensity_upper_bound(t: float, history: Scanpath, spec: SaccadeSpec,
                          params: SaccadeParams, omega: Rect,
                          X: Optional[np.ndarray] = None) -> float:
    """Dominating rate for all times >= t: base rate plus undecayed kernels.

    Each spatial component is bounded by mass one, and kernels only decay, so
    this bounds the spatially integrated intensity on [t, infinity).
    """
    state = HistoryState.build(history, X, spec, params)
    base = params.nu * omega.area
    if state.path.n == 0 or spec.variant == "poisson":
        return float(base)
    if spec.variant == "last_fixation":
        return float(base + state.mass(omega)[-1])
    age = state.ages(t)
    if np.any(age < -1e-9):
        raise DomainError(f"time {t} precedes the end of the history")
    return float(base + np.sum(state.a * np.exp(-state.b * np.maximum(age, 0.0))))


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
                            omega: Rect) -> np.ndarray:
    """Gaussian component conditioned on the screen: rejection, then exact fallback."""
    for _ in range(_REJECTION_CAP):
        s = mu + sigma * rng.standard_normal(2)
        if omega.contains(s[0], s[1]):
            return s
    x = _truncated_normal_axis(rng, float(mu[0]), sigma, omega.x0, omega.x1)
    y = _truncated_normal_axis(rng, float(mu[1]), sigma, omega.y0, omega.y1)
    return np.array([x, y])


def _uniform_location(rng: np.random.Generator, omega: Rect) -> np.ndarray:
    return np.array([rng.uniform(omega.x0, omega.x1), rng.uniform(omega.y0, omega.y1)])


def _draw_location(rng: np.random.Generator, state: _State, t: float) -> np.ndarray:
    """Location at an accepted event time, from the exact spatial mixture."""
    params = state.params
    omega = state.omega
    base = params.nu * omega.area
    sigma = math.sqrt(params.sigma2)
    if state.spec.variant == "poisson" or state.n == 0:
        return _uniform_location(rng, omega)
    if state.spec.variant == "last_fixation":
        weights = np.array([base, spatial_mass(state.locations[-1], params.sigma2, omega)])
        means = [state.locations[-1]]
    else:
        kern = state.kernel_values(t)
        weights = np.concatenate(([base], kern * np.asarray(state.mass)))
        means = state.mu
    total = float(np.sum(weights))
    if total <= 0:
        return _uniform_location(rng, omega)
    pick = rng.uniform(0.0, total)
    if pick < weights[0]:
        return _uniform_location(rng, omega)
    idx = int(np.searchsorted(np.cumsum(weights), pick, side="right")) - 1
    idx = min(max(idx, 0), len(means) - 1)
    return _draw_gaussian_location(rng, np.asarray(means[idx]), sigma, omega)


def _margin_intensity(state: _State, t: float) -> float:
    base = state.params.nu * state.omega.area
    if state.spec.variant == "poisson" or state.n == 0:
        return base
    if state.spec.variant == "last_fixation":
        return base + spatial_mass(state.locations[-1], state.params.sigma2, state.omega)
    return base + float(np.sum(state.kernel_values(t) * np.asarray(state.mass)))


def _margin_bound(state: _State, t: float) -> float:
    base = state.params.nu * state.omega.area
    if state.spec.variant == "poisson" or state.n == 0:
        return base
    if state.spec.variant == "last_fixation":
        return base + spatial_mass(state.locations[-1], state.params.sigma2, state.omega)
    return base + float(np.sum(state.kernel_values(t)))


def _sample_next(rng: np.random.Generator, state: _State, horizon: float
                 ) -> Optional[tuple[float, np.ndarray]]:
    """One thinning pass: next (onset, location), or None past the horizon."""
    t = state.last_end
    for _ in range(_MAX_CANDIDATES):
        bound = _margin_bound(state, t)
        if bound <= 0.0:
            return None
        t = t + rng.exponential(1.0 / bound)
        if t > horizon:
            return None
        lam = _margin_intensity(state, t)
        if rng.uniform() * bound <= lam:
            return t, _draw_location(rng, state, t)
    raise DomainError("thinning failed to accept a candidate within the safety cap")


def sample_next_fixation(history: Scanpath, spec: SaccadeSpec, params: SaccadeParams,
                         omega: Rect, horizon: float, rng: np.random.Generator,
                         X: Optional[np.ndarray] = None,
                         x_row: Optional[np.ndarray] = None
                         ) -> Optional[tuple[float, np.ndarray]]:
    """Sample the next (onset, location) after an observed history, or None.

    ``X`` carries the predictor rows of the history; ``x_row`` is reused for
    bound bookkeeping of the candidate event.
    """
    check_compatible(spec, params)
    state = _State(spec, params, omega, x_row)
    if len(history):
        X = history_design(X, len(history), spec)
        for i, fix in enumerate(history):
            state.push(fix.onset, np.array([fix.x, fix.y]), fix.duration, x=X[i])
    return _sample_next(rng, state, horizon)


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
    the saccade design and ``x_dur_row`` for the duration design.
    """
    check_compatible(spec, params)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = _State(spec, params, config.omega, x_row)
    dur_row = (np.zeros(dur_spec.p) if x_dur_row is None
               else np.asarray(x_dur_row, dtype=float).reshape(dur_spec.p))
    fixations: list[Fixation] = []
    truncated = False
    while True:
        if len(fixations) >= config.max_events:
            truncated = True
            break
        nxt = _sample_next(rng, state, config.horizon)
        if nxt is None:
            break
        t, loc = nxt
        onsets = np.array(state.onsets + [t])
        design = np.tile(dur_row, (len(fixations) + 1, 1))
        d = sample_duration(onsets, design, dur_spec, dur_params, rng)
        d = max(d, 1e-9)
        fixations.append(Fixation(t, float(loc[0]), float(loc[1]), d))
        state.push(t, loc, d)
    return SimResult(Scanpath(reader_id, text_id, tuple(fixations)), truncated)


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent, reproducible streams for replicate simulations."""
    return [np.random.default_rng((seed, i)) for i in range(n)]
