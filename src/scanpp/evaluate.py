"""Model comparison and goodness-of-fit diagnostics.

Comparison currency is the per-fixation log-likelihood difference against a
baseline on a shared test set, summarized by a percentile bootstrap. The
time-rescaling property supplies an absolute check: under the generating
model, integrated intensity between events is unit exponential, testable by
Kolmogorov-Smirnov.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expm1, kolmogorov

from .data import Rect, Scanpath, design_for_columns
from .errors import ScanppError, ValidationError
from .fit import (
    DivergenceError,
    FitResult,
    GridSpec,
    SaccadeModel,
    Split,
    TrainConfig,
    grid_search,
    split,
    train,
    warm_start,
)
from .saccade import PathData, SaccadeParams, SaccadeSpec, compensator_increments


def delta_loglik(model_values: np.ndarray, baseline_values: np.ndarray) -> np.ndarray:
    """Per-fixation log-likelihood gain of the model over the baseline."""
    model_values = np.asarray(model_values, dtype=float)
    baseline_values = np.asarray(baseline_values, dtype=float)
    if model_values.shape != baseline_values.shape:
        raise ValidationError(
            f"value arrays are misaligned: {model_values.shape} vs {baseline_values.shape}")
    return model_values - baseline_values


@dataclass(frozen=True, eq=False)
class Bootstrap:
    """Percentile-bootstrap summary of a sample mean."""

    mean: float
    low: float
    high: float
    replicates: int
    seed: int

    def __post_init__(self):
        if not (self.low <= self.mean <= self.high):
            raise ValidationError(
                f"bootstrap summary out of order: {self.low}, {self.mean}, {self.high}")


def bootstrap(values: np.ndarray, replicates: int = 1000, seed: int = 0,
              blocks: Optional[np.ndarray] = None) -> Bootstrap:
    """Resample means; the interval is the 2.5/97.5 percentile of the means.

    With ``blocks``, whole groups sharing a label are resampled together,
    respecting within-scanpath dependence.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValidationError("cannot bootstrap an empty sample")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(
            f"cannot bootstrap non-finite values: the value at index {bad[0]} is {values[bad[0]]}")
    if replicates < 1:
        raise ValidationError(f"need at least one replicate, got {replicates}")
    rng = np.random.default_rng(seed)
    if blocks is None:
        idx = rng.integers(0, values.size, size=(replicates, values.size))
        means = values[idx].mean(axis=1)
    else:
        blocks = np.asarray(blocks).reshape(-1)
        if blocks.shape != values.shape:
            raise ValidationError("block labels must align with values")
        groups = [values[blocks == u] for u in np.unique(blocks)]
        means = np.empty(replicates)
        for r in range(replicates):
            chosen = rng.integers(0, len(groups), size=len(groups))
            means[r] = float(np.mean(np.concatenate([groups[c] for c in chosen])))
    low, high = np.percentile(means, [2.5, 97.5])
    center = float(np.mean(means))
    return Bootstrap(mean=center, low=min(float(low), center),
                     high=max(float(high), center), replicates=replicates, seed=seed)


def ks_exponential(gaps: np.ndarray) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against the unit exponential."""
    gaps = np.asarray(gaps, dtype=float).reshape(-1)
    if gaps.size == 0:
        raise ValidationError("cannot test an empty sample")
    if not np.all(gaps > 0):
        raise ValidationError("rescaled gaps must be > 0")
    # The asymptotic two-sided test, as scipy.stats.kstest(..., mode="asymp")
    # computes it, without importing scipy.stats.
    n = gaps.size
    cdf = -expm1(-np.sort(gaps))
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), float(np.clip(kolmogorov(d * math.sqrt(n)), 0.0, 1.0))


def time_rescaling_gaps(paths: Sequence[PathData], spec: SaccadeSpec,
                        params: SaccadeParams, omega: Rect) -> np.ndarray:
    """Compensator increments of every event, in path order, from one batched pass."""
    return compensator_increments(PathData.concat(paths), spec, params, omega)


def _units(scanpaths: Sequence[Scanpath], columns: Sequence[str],
           effects_by_path=None) -> list[PathData]:
    """Each scanpath with its design rows over ``columns``; effects as ``compare_suite``'s."""
    return [PathData.from_scanpath(sp, design_for_columns(
        sp, columns, effects_by_path(sp) if effects_by_path else None)) for sp in scanpaths]


def _block_labels(scanpaths: Sequence[Scanpath], indices: Sequence[int]) -> np.ndarray:
    """Block-bootstrap label of each fixation of the scanpaths at ``indices``: its position there."""
    return np.repeat(np.arange(len(indices)), [len(scanpaths[i]) for i in indices])


def model_name(spec: SaccadeSpec) -> str:
    """Conventional name of a point on the nesting chain."""
    if spec.variant == "poisson":
        return "poisson"
    if spec.variant == "last_fixation":
        return "last_fixation"
    if spec.mean_fn == "baseline":
        return "hawkes"
    if spec.mean_fn == "affine":
        return "css"
    extra = [c for c in spec.columns
             if c != "intercept" and not c.startswith("reader:")]
    return "rse+predictors" if extra else "rse"


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """One model-vs-baseline comparison on a shared test set."""

    model: str
    baseline: str
    values: np.ndarray
    summary: Bootstrap
    dataset_variant: str
    test_events: int

    def __post_init__(self):
        # summary-only reports (loaded from disk) carry no raw values
        size = np.asarray(self.values).size
        if size and size != self.test_events:
            raise ValidationError("value count must equal the test-set size")

    @property
    def mean(self) -> float:
        return self.summary.mean

    @property
    def ci(self) -> tuple[float, float]:
        return (self.summary.low, self.summary.high)

    @property
    def excludes_zero(self) -> bool:
        return self.summary.low > 0.0 or self.summary.high < 0.0


def _compare(model: str, baseline: str, model_values: np.ndarray,
             baseline_values: np.ndarray, replicates: int, seed: int,
             blocks: Optional[np.ndarray], dataset_variant: str) -> ComparisonReport:
    """The report of a model against a baseline from their per-event test values.

    ``compare_suite`` and ``scanpp eval`` both build their reports here.
    """
    values = delta_loglik(model_values, baseline_values)
    summary = bootstrap(values, replicates=replicates, seed=seed, blocks=blocks)
    return ComparisonReport(model=model, baseline=baseline, values=values, summary=summary,
                            dataset_variant=dataset_variant, test_events=int(values.size))


@dataclass(frozen=True, eq=False)
class SuiteMember:
    """One fitted model of a comparison suite."""

    name: str
    spec: SaccadeSpec
    result: FitResult
    test_per_event: np.ndarray


def compare_suite(scanpaths: Sequence[Scanpath], omega: Rect,
                  specs: Sequence[SaccadeSpec], baseline_spec: SaccadeSpec,
                  config: TrainConfig, effects_by_path=None,
                  replicates: int = 1000, bootstrap_seed: int = 0,
                  dataset_variant: str = "full",
                  grid: Optional[GridSpec] = None,
                  block_bootstrap: bool = False
                  ) -> tuple[list[ComparisonReport], list[SuiteMember]]:
    """Train a nesting chain and compare every member to the baseline.

    The baseline trains first and seeds a warm-start chain through ``specs``
    in order. All models share one scanpath-level split, so per-event test
    values align fixation for fixation. A member whose fit diverges is
    reported as a warning and skipped; a failed baseline aborts.

    ``effects_by_path`` maps a scanpath to {effect: {fixation index: value}}
    for specs whose columns reference effect values. ``block_bootstrap``
    resamples whole test scanpaths instead of single fixations.
    """
    idx_split = split(list(range(len(scanpaths))), config.split, config.seed)

    def fit_one(spec: SaccadeSpec, prev: Optional[FitResult]):
        units = _units(scanpaths, spec.columns, effects_by_path)
        parts = Split(tuple(units[i] for i in idx_split.train),
                      tuple(units[i] for i in idx_split.val),
                      tuple(units[i] for i in idx_split.test))
        model = SaccadeModel(spec, omega)
        init = None
        if prev is not None:
            try:
                init = warm_start(prev.names, prev.raw, model, units=list(parts.train))
            except ValidationError:
                init = None
        if grid is not None:
            result = grid_search(model, parts, grid, config, init=init)
        else:
            result = train(model, parts, config, init=init)
        per_event = model.per_event_loglik(result.raw, PathData.concat(parts.test))
        return SuiteMember(model_name(spec), spec, result, per_event)

    try:
        baseline = fit_one(baseline_spec, None)
    except (DivergenceError, ScanppError) as exc:
        raise ValidationError(f"baseline fit failed: {exc}") from exc

    blocks = _block_labels(scanpaths, idx_split.test) if block_bootstrap else None

    members = [baseline]
    reports: list[ComparisonReport] = []
    prev = baseline.result
    for spec in specs:
        try:
            member = fit_one(spec, prev)
        except (DivergenceError, ScanppError) as exc:
            warnings.warn(f"fit failed for {model_name(spec)}: {exc}")
            continue
        members.append(member)
        prev = member.result
        reports.append(_compare(member.name, baseline.name, member.test_per_event,
                                baseline.test_per_event, replicates, bootstrap_seed, blocks,
                                dataset_variant))
    return reports, members
