"""The public surface of ``import scanpp``, pinned.

A name added to or removed from the package namespace changes this list,
so every change to the public surface shows as a deliberate diff here.
Submodules are left out: which of them are bound depends on what else the
process has imported. The model modules ``scanpp.saccade`` and
``scanpp.duration`` are pinned too, by the public names each defines, so a
name re-added there and not exported still shows. So are the public methods
of the two fitting adapters, the surface the trainer and the benchmark read.
"""
import types

import scanpp
from scanpp import duration, saccade
from scanpp.fit import DurationModel, SaccadeModel

PUBLIC = [
    "AggregatedRecord", "AnnotatedFixation", "AnnotatedScanpath", "Bootstrap",
    "ComparisonReport", "DivergenceError", "DomainError", "DurationModel",
    "DurationParams", "DurationSpec", "EffectsTable", "FitResult", "Fixation",
    "GridSpec", "HistoryState", "MEASURES", "ParseError", "PathData", "PlotPage",
    "Rect", "SaccadeModel", "SaccadeParams", "SaccadeSpec", "Scanpath", "ScanppError",
    "SimConfig", "SimResult", "Split", "TextLayout", "TrainConfig", "UsageError",
    "ValidationError", "aggregate", "annotate", "assign_fixations", "bootstrap",
    "compare_suite", "compensator_increments", "delta_loglik", "design_columns",
    "design_for_columns", "dumps_fit", "dumps_params", "dumps_reports", "event_mean",
    "filter_scanpath", "fit_linear_aggregated", "fit_linear_log", "gamma_kernel",
    "gamma_kernel_mass", "grid_search", "intensity_grid", "ks_exponential",
    "load_effects", "load_layouts", "load_scanpaths", "loads_fit", "loads_params",
    "model_name", "plot_intensity", "poisson_mle_nu", "pool_across_readers",
    "reports_csv", "sample_scanpath", "spawn_rngs", "split", "time_rescaling_gaps",
    "train", "warm_start", "write_effects", "write_layouts", "write_scanpaths",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(scanpp).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


SACCADE = [
    "HistoryState", "LINK_NAMES", "MEAN_FNS", "PathData", "SaccadeParams", "SaccadeSpec",
    "ScanpathLoglik", "VARIANTS", "check_compatible", "compensator_increments",
    "event_intensities", "loglik_grad", "loglik_terms",
]

DURATION = [
    "DISTRIBUTIONS", "DurationParams", "DurationSpec", "LinearDurationFit", "MEAN_VARIANTS",
    "check_compatible", "check_kernel", "duration_loglik_grad", "event_mean",
    "extend_with_lags", "fit_linear_aggregated", "fit_linear_log", "gamma_kernel",
    "gamma_kernel_mass", "gamma_logpdf", "lag_column", "lag_presence_column",
    "lognormal_logpdf",
]


def defined_names(module):
    """Public names a module defines: its functions and classes, and its constants."""
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_")
                  and (getattr(value, "__module__", None) == module.__name__
                       or isinstance(value, (tuple, str, int, float))))


def test_model_module_names_are_pinned():
    assert defined_names(saccade) == SACCADE
    assert defined_names(duration) == DURATION


SACCADE_MODEL = [
    "constrained", "default_init", "fitting_basis", "grad_unit", "nonfinite_event", "pack",
    "per_event_loglik", "prepare_unit", "unpack",
]

DURATION_MODEL = [
    "constrained", "default_init", "fitting_basis", "grad_unit", "nonfinite_event", "pack",
    "per_event_loglik", "unpack",
]


def public_methods(cls):
    """Public callables of a class, inherited ones included."""
    return sorted(name for name in dir(cls)
                  if not name.startswith("_") and callable(getattr(cls, name)))


def test_adapter_methods_are_pinned():
    assert public_methods(SaccadeModel) == SACCADE_MODEL
    assert public_methods(DurationModel) == DURATION_MODEL
