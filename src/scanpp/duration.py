"""How long fixations last: log-normal durations with spillover means.

The mean of log-duration is a linear predictor plus optional spillover from
earlier fixations, either as a convolution of past predictor values with a
shifted-gamma kernel over elapsed time, or as a fixed-lag sum with one weight
per (lag, predictor). A gamma output distribution is available as an
alternative to the log-normal.

The likelihood and its gradient share two helpers. ``_means`` checks its
inputs and returns the means with the spillover features they used and,
for the gradient, the convolution's kernel sums, which the gradient reads
rather than rebuilds. ``_log_density`` is the one place the output
distribution is chosen, for the likelihood, its gradient and the fitting
adapter alike.

``duration_loglik_grad`` and the fitting adapter evaluate a ``PathData``,
one scanpath or a batch, in one pass; no spillover reaches from one
scanpath into another. The convolution sums over the pair band of
``mathutil._band`` on the onsets with no cutoff, so it drops no pair and
forms no n x n array: ``_pair_sums`` accumulates each row's feature
c_ik = sum_j K(t_i - t_j)·x_jk and, for the gradient, the same sum weighted
by each of the kernel's log-derivatives. ``event_mean`` forms its row
through ``_pair_sums`` too, so it equals the band's row bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import digamma, gammaln

from . import mathutil
from .data import check_design
from .errors import UsageError, ValidationError, check_integer, check_names, check_number
from .saccade import PathData

MEAN_VARIANTS = ("plain", "convolution", "markov")
DISTRIBUTIONS = ("lognormal", "gamma")


@dataclass(frozen=True)
class DurationSpec:
    """Mean-structure and output-distribution selector for fixation durations.

    ``columns`` is the design schema; ``spillover`` names the columns whose
    past values feed the spillover term; ``lags`` is the fixed-lag count of
    the markov variant.
    """

    mean_variant: str = "plain"
    spillover: tuple[str, ...] = ()
    lags: int = 0
    distribution: str = "lognormal"
    columns: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "spillover", check_names("spillover", self.spillover))
        object.__setattr__(self, "columns", check_names("columns", self.columns))
        if self.mean_variant not in MEAN_VARIANTS:
            raise ValidationError(
                f"unknown mean variant {self.mean_variant!r}; expected one of {MEAN_VARIANTS}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValidationError(
                f"unknown distribution {self.distribution!r}; expected one of {DISTRIBUTIONS}")
        check_integer("lags", self.lags, 0)
        missing = [k for k in self.spillover if k not in self.columns]
        if missing:
            raise ValidationError(f"spillover columns {missing} not in the design schema")
        if self.mean_variant == "plain" and self.spillover:
            raise ValidationError("the plain mean has no spillover columns")
        if self.mean_variant != "markov" and self.lags:
            raise ValidationError(f"the {self.mean_variant} mean has no lags; only markov does")
        if self.mean_variant == "markov" and self.spillover and self.lags == 0:
            raise ValidationError("markov spillover requires lags >= 1")

    @property
    def p(self) -> int:
        return len(self.columns)

    @property
    def n_spill(self) -> int:
        return len(self.spillover)

    @property
    def spill_indices(self) -> tuple[int, ...]:
        return tuple(self.columns.index(k) for k in self.spillover)


@dataclass(frozen=True, eq=False)
class DurationParams:
    """Weights and kernel parameters; shapes follow the spec's variant.

    ``w_prime`` is one weight per spillover column (convolution) or a
    (lags, spillover) matrix (markov). ``shape`` is only read by the gamma
    output distribution.
    """

    w: np.ndarray
    w_prime: np.ndarray
    kernel_alpha: np.ndarray
    kernel_beta: np.ndarray
    kernel_theta: np.ndarray
    sigma2: float
    shape: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float).reshape(-1))
        object.__setattr__(self, "w_prime", np.asarray(self.w_prime, dtype=float))
        for name in ("kernel_alpha", "kernel_beta", "kernel_theta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(-1))
        k = self.kernel_alpha.shape[0]
        if self.kernel_beta.shape[0] != k or self.kernel_theta.shape[0] != k:
            raise ValidationError("kernel parameter arrays must share one length")
        check_kernel(self.kernel_alpha, self.kernel_beta, self.kernel_theta)
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise ValidationError(f"log-scale variance must be > 0, got {self.sigma2}")
        if not np.isfinite(self.shape) or self.shape <= 0.0:
            raise ValidationError(f"gamma shape must be > 0, got {self.shape}")

    @classmethod
    def initial(cls, spec: DurationSpec, kernel: tuple[float, float, float] = (2.0, 3.0, 0.5),
                sigma2: float = 1.0) -> "DurationParams":
        k = spec.n_spill
        if spec.mean_variant == "markov":
            w_prime = np.zeros((spec.lags, k))
        elif spec.mean_variant == "convolution":
            w_prime = np.zeros(k)
        else:
            w_prime = np.zeros(0)
        a0, b0, t0 = kernel
        return cls(w=np.zeros(spec.p), w_prime=w_prime,
                   kernel_alpha=np.full(k, a0), kernel_beta=np.full(k, b0),
                   kernel_theta=np.full(k, t0), sigma2=sigma2)

    def replace(self, **changes) -> "DurationParams":
        return dataclasses.replace(self, **changes)


def check_compatible(spec: DurationSpec, params: DurationParams) -> None:
    if params.w.shape[0] != spec.p:
        raise ValidationError(f"w has {params.w.shape[0]} weights for {spec.p} columns")
    k = spec.n_spill
    if spec.mean_variant == "convolution":
        if params.w_prime.shape != (k,) or params.kernel_alpha.shape[0] != k:
            raise ValidationError("convolution params need one weight and kernel per spillover column")
    elif spec.mean_variant == "markov":
        if params.w_prime.shape != (spec.lags, k):
            raise ValidationError(
                f"markov spillover weights must be {(spec.lags, k)}, got {params.w_prime.shape}")


# --- Kernels and densities --------------------------------------------------

def check_kernel(alpha, beta, theta) -> None:
    """The kernel rule: shape alpha > 1, rate beta > 0 and shift theta >= 0, all finite.

    Each argument is a number or an array of one value per spillover column.
    """
    for name, values, low, closed in (("kernel shape", alpha, 1.0, False),
                                      ("kernel rate", beta, 0.0, False),
                                      ("kernel shift", theta, 0.0, True)):
        for value in np.ravel(values).tolist():
            check_number(name, value, low, closed=closed)


def gamma_kernel(tau, alpha: float, beta: float, theta: float):
    """Shifted-gamma kernel value at elapsed time tau >= 0."""
    check_kernel(alpha, beta, theta)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise UsageError("kernel argument must be >= 0")
    z = tau + theta
    with np.errstate(divide="ignore"):
        logz = np.where(z > 0, np.log(np.maximum(z, 1e-300)), -np.inf)
    logk = alpha * np.log(beta) - gammaln(alpha) + (alpha - 1.0) * logz - beta * z
    out = np.where(z > 0, np.exp(logk), 0.0)
    return out if out.ndim else float(out)


def lognormal_logpdf(d, xi, sigma2: float):
    """Log-density of a log-normal duration with log-scale mean xi."""
    if sigma2 <= 0:
        raise ValidationError(f"log-scale variance must be > 0, got {sigma2}")
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValidationError("durations must be > 0")
    logd = np.log(d)
    out = -logd - 0.5 * np.log(2.0 * np.pi * sigma2) - (logd - xi) ** 2 / (2.0 * sigma2)
    return out if out.ndim else float(out)


def gamma_logpdf(d, xi, shape: float):
    """Log-density of a gamma duration with mean exp(xi) and the given shape."""
    if shape <= 0:
        raise ValidationError(f"gamma shape must be > 0, got {shape}")
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValidationError("durations must be > 0")
    out = (shape * np.log(shape) - shape * np.asarray(xi, dtype=float) - gammaln(shape)
           + (shape - 1.0) * np.log(d) - shape * np.exp(-np.asarray(xi, dtype=float)) * d)
    return out if out.ndim else float(out)


# --- Mean structures ---------------------------------------------------------

def _pair_sums(onsets: np.ndarray, design: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               r0: int, m: int, spec: DurationSpec, params: DurationParams,
               grad: bool) -> np.ndarray:
    """Sums over the pairs (rows, cols) into rows r0 .. r0 + m - 1, per spillover column.

    Entry [0, i - r0, k] is sum_j K(t_i - t_j)·x[j, k] over row i's pairs;
    with ``grad`` entries [1..3] weight each term by one of the kernel
    gradient's factors, log(beta) - psi(alpha) + log(z), alpha/beta - z and
    (alpha - 1)/z - beta, at z = t_i - t_j + theta; each factor is read as 0
    where z = 0, as the kernel is. Shape (4 if grad else 1, m, spillover).
    """
    tau = onsets[rows] - onsets[cols]
    local = rows - r0
    out = np.empty((4 if grad else 1, m, spec.n_spill))
    for kk, col in enumerate(spec.spill_indices):
        al, be, th = (float(p[kk]) for p in (params.kernel_alpha, params.kernel_beta,
                                              params.kernel_theta))
        kx = gamma_kernel(tau, al, be, th) * design[cols, col]
        terms = [kx]
        if grad:
            z = tau + th
            logz = np.where(z > 0, np.log(np.maximum(z, 1e-300)), 0.0)
            invz = np.where(z > 0, 1.0 / np.maximum(z, 1e-300), 0.0)
            terms += [kx * (np.log(be) - digamma(al) + logz), kx * (al / be - z),
                      kx * ((al - 1.0) * invz - be)]
        for f, weights in enumerate(terms):
            out[f, :, kk] = np.bincount(local, weights, minlength=m)
    return out


def _add_spillover(xi, feats: np.ndarray, w_prime: np.ndarray):
    """xi plus the convolution spillover; a row's value does not depend on the others."""
    for kk in range(w_prime.shape[0]):
        xi = xi + feats[..., kk] * w_prime[kk]
    return xi


def _markov_features(design: np.ndarray, starts, spec: DurationSpec) -> np.ndarray:
    """Lagged predictor values, shape (n, lags, spillover); zeros before a segment's start."""
    n = design.shape[0]
    feats = np.zeros((n, spec.lags, spec.n_spill))
    cols = list(spec.spill_indices)
    # each event's index within its segment
    pos = np.arange(n) - np.repeat(starts, np.diff(starts, append=n))
    for j in range(1, spec.lags + 1):
        if j < n:
            feats[j:, j - 1, :] = design[:n - j, cols]
            feats[pos < j, j - 1, :] = 0.0
    return feats


def _means(onsets, design: Optional[np.ndarray], starts, spec: DurationSpec,
           params: DurationParams, grad: bool = False):
    """Checked design rows, mean log-durations xi, spillover features and kernel sums.

    ``starts`` holds the first event of each segment. Features: the
    convolution's (n, k) or markov's (n, lags, k), else None. Kernel sums:
    with ``grad``, the convolution's three gradient sums of ``_pair_sums``
    over every earlier event of the segment, (3, n, k), else None.
    """
    check_compatible(spec, params)
    onsets = np.asarray(onsets, dtype=float)
    design = check_design(design, spec.p, onsets.shape[0])
    xi = design @ params.w
    feats, sums = None, None
    if spec.mean_variant == "convolution":
        conv = np.zeros((4 if grad else 1, onsets.shape[0], spec.n_spill))
        lo = mathutil._first_kept(onsets, math.inf, starts)
        for r0, r1, rows, cols in mathutil._band(lo) if spec.n_spill else ():
            conv[:, r0:r1] = _pair_sums(onsets, design, rows, cols, r0, r1 - r0, spec, params,
                                        grad)
        feats, sums = conv[0], (conv[1:] if grad else None)
        xi = _add_spillover(xi, feats, params.w_prime)
    elif spec.mean_variant == "markov" and spec.n_spill:
        feats = _markov_features(design, starts, spec)
        xi = xi + np.einsum("njk,jk->n", feats, params.w_prime)
    return design, xi, feats, sums


def event_mean(n: int, onsets: np.ndarray, design: np.ndarray, spec: DurationSpec,
               params: DurationParams) -> float:
    """Mean log-duration of event n (0-based) given the events before it, in O(n).

    Reads ``onsets[:n + 1]`` and ``design[:n + 1]`` and equals the means
    ``_means`` gives those prefixes at n, bit for bit: the plain and markov
    means are that very computation, and the convolution forms row n through
    the same ``_pair_sums`` as the band does.
    """
    onsets = np.asarray(onsets, dtype=float)
    check_integer("event index", n, 0)
    if not n < onsets.shape[0]:
        raise ValidationError(f"event index must be in [0, {onsets.shape[0]}), got {n}")
    onsets = onsets[: n + 1]
    design = np.asarray(design, dtype=float)[: n + 1]
    if spec.mean_variant != "convolution" or not spec.n_spill:
        return float(_means(onsets, design, (0,), spec, params)[1][n])
    check_compatible(spec, params)
    feats = _pair_sums(onsets, design, np.full(n, n), np.arange(n), n, 1, spec, params,
                       grad=False)[0, 0]
    # Row n of the full product, as _means forms it.
    return float(_add_spillover((design @ params.w)[n], feats, params.w_prime))


def _log_density(durations: np.ndarray, xi: np.ndarray, spec: DurationSpec,
                 params: DurationParams, grad: bool):
    """Log-density of each duration under the spec's distribution, log-scale mean xi.

    With ``grad`` also d/dxi of each term and the dispersion's gradient
    (``shape`` or ``sigma2``) as a dict; else None, None.
    """
    if spec.distribution == "gamma":
        per = gamma_logpdf(durations, xi, params.shape)
        if not grad:
            return per, None, None
        kap = params.shape
        dxi = kap * (np.exp(-xi) * durations - 1.0)
        return per, dxi, {"shape": float(np.sum(np.log(kap) + 1.0 - xi - digamma(kap)
                                                + np.log(durations) - np.exp(-xi) * durations))}
    per = lognormal_logpdf(durations, xi, params.sigma2)
    if not grad:
        return per, None, None
    resid = np.log(durations) - xi
    s2 = params.sigma2
    return per, resid / s2, {"sigma2": float(np.sum(-0.5 / s2 + resid ** 2 / (2.0 * s2 * s2)))}


def duration_loglik_grad(pd: PathData, spec: DurationSpec, params: DurationParams
                         ) -> tuple[np.ndarray, dict[str, np.ndarray | float]]:
    """Log-density of every event of a batch, in path order, and the gradient of their sum.

    The gradient is in constrained parameter space. Keys: w always;
    w_prime plus kernel_alpha/kernel_beta/kernel_theta for the convolution
    variant; w_prime for markov; sigma2 (log-normal) or shape (gamma).
    ``pd.design`` holds the events' rows, under ``data.check_design``.
    """
    design, xi, feats, sums = _means(pd.onsets, pd.design, pd.starts, spec, params, grad=True)
    per, dxi, grads = _log_density(pd.durations, xi, spec, params, grad=True)
    grads["w"] = design.T @ dxi
    if spec.mean_variant == "convolution":
        grads["w_prime"] = feats.T @ dxi
        grads["kernel_alpha"], grads["kernel_beta"], grads["kernel_theta"] = (
            params.w_prime * (dxi @ sums))
    elif feats is not None:
        grads["w_prime"] = np.einsum("n,njk->jk", dxi, feats)
    else:
        grads["w_prime"] = np.zeros_like(params.w_prime)
    return np.atleast_1d(per), grads


# --- Closed-form linear fits -------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearDurationFit:
    """Least-squares fit of log durations on a design.

    ``per_record`` is each record's log-density under the fit. Dropped
    (collinear) columns keep a zero weight.
    """

    columns: tuple[str, ...]
    weights: np.ndarray
    sigma2: float
    per_record: np.ndarray
    dropped: tuple[str, ...]


def _independent_columns(X: np.ndarray, names: Sequence[str], tol: float = 1e-10):
    """Greedy left-to-right selection of linearly independent columns."""
    kept: list[int] = []
    dropped: list[str] = []
    basis = np.empty((X.shape[0], 0))
    for j in range(X.shape[1]):
        col = X[:, j]
        norm = np.linalg.norm(col)
        resid = col - basis @ (basis.T @ col)
        if norm == 0.0 or np.linalg.norm(resid) <= tol * max(norm, 1.0):
            dropped.append(names[j])
            warnings.warn(f"dropping collinear column {names[j]!r}", stacklevel=3)
            continue
        kept.append(j)
        basis = np.concatenate([basis, (resid / np.linalg.norm(resid))[:, None]], axis=1)
    return kept, dropped


def fit_linear_log(values: np.ndarray, design: np.ndarray,
                   columns: Sequence[str]) -> LinearDurationFit:
    """Ordinary least squares of log(values) on the design; variance by MLE."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise ValidationError("all response values must be > 0")
    design = np.asarray(design, dtype=float)
    n = values.shape[0]
    if n == 0:
        raise ValidationError("cannot fit on zero records")
    y = np.log(values)
    kept, dropped = _independent_columns(design, list(columns))
    coef = np.zeros(design.shape[1])
    sub = design[:, kept]
    sol, _, _, _ = np.linalg.lstsq(sub, y, rcond=None)
    coef[kept] = sol
    fitted = design @ coef
    rss = float(np.sum((y - fitted) ** 2))
    sigma2 = max(rss / n, 1e-12)
    per = lognormal_logpdf(values, fitted, sigma2)
    return LinearDurationFit(tuple(columns), coef, sigma2, np.atleast_1d(per), tuple(dropped))
