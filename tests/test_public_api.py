"""The public surface of ``import scanpp``, pinned.

A name added to or removed from the package namespace changes this list,
so every change to the public surface shows as a deliberate diff here.
Submodules are left out: which of them are bound depends on what else the
process has imported.
"""
import types

import scanpp

PUBLIC = [
    "AggregatedRecord", "AnnotatedFixation", "AnnotatedScanpath", "Bootstrap",
    "ComparisonReport", "DivergenceError", "DomainError", "DurationModel",
    "DurationParams", "DurationSpec", "EffectsTable", "FitResult", "Fixation",
    "GridSpec", "HistoryState", "MEASURES", "ParseError", "PathData", "PlotPage",
    "Rect", "SaccadeModel", "SaccadeParams", "SaccadeSpec", "Scanpath", "ScanppError",
    "SimConfig", "SimResult", "Split", "TextLayout", "TrainConfig", "UsageError",
    "ValidationError", "aggregate", "annotate", "assign_fixations", "bootstrap",
    "compare_suite", "compensator", "compensator_increments", "delta_loglik",
    "design_columns", "design_for_columns", "dumps_fit", "dumps_params",
    "dumps_reports", "duration_loglik", "duration_means", "event_mean",
    "filter_scanpath", "fit_linear_aggregated", "fit_linear_log", "gamma_kernel",
    "gamma_kernel_mass", "grid_search", "intensity", "intensity_grid", "ks_exponential",
    "load_effects", "load_layouts", "load_scanpaths", "loads_fit", "loads_params",
    "log_density", "model_name", "plot_intensity", "poisson_mle_nu",
    "pool_across_readers", "reports_csv", "sample_scanpath", "scanpath_loglik",
    "spawn_rngs", "split", "time_rescaling_gaps", "train", "warm_start",
    "write_effects", "write_layouts", "write_scanpaths",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(scanpp).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
