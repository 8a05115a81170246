"""Marked spatio-temporal point-process models of reading.

Scanpaths are modeled in two coupled parts: a self-exciting point process
for when and where fixations occur, and a log-normal (or gamma) model with
optional spillover for how long each fixation lasts. The package covers
data handling, fitting, simulation, evaluation, and a CLI.
"""

from .data import (
    AggregatedRecord,
    AnnotatedFixation,
    AnnotatedScanpath,
    Fixation,
    MEASURES,
    Rect,
    Scanpath,
    TextLayout,
    aggregate,
    annotate,
    assign_fixations,
    design_columns,
    design_for_columns,
    filter_scanpath,
    pool_across_readers,
)
from .duration import (
    DurationParams,
    DurationSpec,
    event_mean,
    fit_linear_log,
    gamma_kernel,
)
from .errors import (
    DomainError,
    ParseError,
    ScanppError,
    UsageError,
    ValidationError,
)
from .evaluate import (
    Bootstrap,
    ComparisonReport,
    bootstrap,
    compare_suite,
    delta_loglik,
    ks_exponential,
    model_name,
)
from .fileio import (
    EffectsTable,
    load_effects,
    load_layouts,
    load_scanpaths,
    write_effects,
    write_layouts,
    write_scanpaths,
)
from .fit import (
    DivergenceError,
    DurationModel,
    FitResult,
    GridSpec,
    SaccadeModel,
    Split,
    TrainConfig,
    grid_search,
    poisson_mle_nu,
    split,
    train,
    warm_start,
)
from .plotting import PlotPage, intensity_grid, plot_intensity
from .saccade import (
    HistoryState,
    PathData,
    SaccadeParams,
    SaccadeSpec,
    compensator_increments,
)
from .serialize import (
    dumps_fit,
    dumps_params,
    dumps_reports,
    loads_fit,
    loads_params,
    reports_csv,
)
from .simulate import SimConfig, SimResult, sample_scanpath, spawn_rngs

__version__ = "0.1.0"
