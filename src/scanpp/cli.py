"""Command-line surface: ingest, aggregate, fit, eval, simulate, plot.

Exit codes: 0 success, 1 invalid data or model state, 2 usage errors.
Every run logs the resolved configuration and seed to stderr so outputs can
be reproduced; identical inputs and seeds yield byte-identical output files.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import logging
import math
import os
import sys
from typing import Optional

import numpy as np

from . import fileio, serialize
from .data import (
    MEASURES,
    Rect,
    aggregate,
    annotate,
    design_columns,
    filter_scanpath,
    pool_across_readers,
)
from .duration import DISTRIBUTIONS, MEAN_VARIANTS, DurationParams, DurationSpec
from .errors import ParseError, ScanppError, UsageError, ValidationError
from .evaluate import _block_labels, _compare, _units, model_name
from .fit import DurationModel, GridSpec, SaccadeModel, TrainConfig, grid_search, split, train
from .plotting import plot_intensity
from .saccade import LINK_NAMES, MEAN_FNS, VARIANTS, PathData, SaccadeSpec
from .simulate import SimConfig, sample_scanpath, spawn_rngs

log = logging.getLogger("scanpp")

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(TrainConfig))


def _blas_threads(n: Optional[int] = None) -> dict[str, int]:
    """Thread count of each OpenBLAS loaded into this process, by file name.

    Sets it to n first when n is given. numpy and scipy each load their own
    OpenBLAS, whose functions carry a ``scipy_`` prefix and, with 64-bit
    integers, a ``64_`` suffix. The libraries are found through
    /proc/self/maps, so off Linux none is found.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for stem in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, stem.format(op), None) for op in ("get", "set"))
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            if n is not None:
                put(n)
            counts[os.path.basename(path)] = get()
            break
    return counts


def _counts_text(counts: dict[str, int]) -> str:
    return ", ".join(f"{c} in {name}" for name, c in counts.items()) or "no loaded OpenBLAS"


def _setup_threads() -> None:
    value = os.environ.get("SCANPP_THREADS")
    if value is None or value == "":
        if log.isEnabledFor(logging.DEBUG):
            log.debug("BLAS thread count %s (read back from OpenBLAS)",
                      _counts_text(_blas_threads()))
        return
    try:
        n = int(value)
    except ValueError:
        raise UsageError(f"SCANPP_THREADS must be an integer, got {value!r}") from None
    if n < 1:
        raise UsageError(f"SCANPP_THREADS must be >= 1, got {n}")
    # The loaded BLAS has read these already; they reach child processes.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(n))
    counts = _blas_threads(n)
    if not counts:
        log.warning("SCANPP_THREADS=%d: no loaded OpenBLAS found; BLAS threads unchanged", n)
        return
    log.info("thread count %s (SCANPP_THREADS=%d, read back from OpenBLAS)",
             _counts_text(counts), n)


def _resolve_config(args) -> tuple[TrainConfig, Optional[GridSpec]]:
    """CLI flags > config file > built-in defaults, with sources logged."""
    sources = {f: "default" for f in _CONFIG_FIELDS}
    config = TrainConfig()
    grid = None
    path = getattr(args, "config", None)
    if path:
        doc = serialize.config_doc(serialize.read_text(path))
        config, grid = serialize.config_from_doc(doc)
        for f in doc.get("train", {}):
            sources[f] = "file"
    overrides = {}
    for f in ("seed", "learning_rate", "batch_size", "max_epochs", "patience"):
        value = getattr(args, f, None)
        if value is not None:
            overrides[f] = value
            sources[f] = "cli"
    if overrides:
        config = config.replace(**overrides)
    log.info("resolved config: %s", " ".join(
        f"{f}={getattr(config, f)}[{sources[f]}]" for f in _CONFIG_FIELDS))
    if grid is not None:
        log.info("grid: batch_sizes=%s learning_rates=%s weight_decays=%s "
                 "kernel_inits=%s (%d configurations)", list(grid.batch_sizes),
                 list(grid.learning_rates), list(grid.weight_decays),
                 [list(k) for k in grid.kernel_inits], grid.size)
    return config, grid


def _parse_screen(text: str) -> Rect:
    try:
        w, h = (float(v) for v in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"screen must be WxH, got {text!r}") from None
    return Rect(0.0, 0.0, w, h)


def _omega_from(args) -> Rect:
    if getattr(args, "screen", None):
        return _parse_screen(args.screen)
    if getattr(args, "layout", None):
        layouts = fileio.load_layouts(args.layout)
        return next(iter(layouts.values())).screen
    raise UsageError("need --screen WxH or --layout to define the screen region")


def _csv_list(text: str) -> list[str]:
    return [tok for tok in (text or "").split(",") if tok]


def _effects_table(args):
    path = getattr(args, "effects", None)
    return fileio.load_effects(path) if path else None


def _by_path(table):
    """The scanpath -> effects lookup of an effects table, or None without a table."""
    if table is None:
        return None
    return lambda sp: table.for_scanpath(sp.reader_id, sp.text_id)


def _spec_columns(args, scanpaths, table) -> tuple[str, ...]:
    effect_names = _csv_list(getattr(args, "use_effects", ""))
    if effect_names and table is None:
        raise UsageError("--use-effects requires an --effects file")
    if table is not None:
        missing = [e for e in effect_names if e not in table.names]
        if missing:
            raise ValidationError(f"effects not present in the table: {missing}")
    readers = sorted({sp.reader_id for sp in scanpaths})
    return design_columns(readers, effect_names,
                          reader_encoding=args.reader_encoding,
                          interactions=args.interactions)


def _model_label(model) -> str:
    if model.kind == "saccade":
        return model_name(model.spec)
    return f"duration-{model.spec.mean_variant}"


# --- subcommands -------------------------------------------------------------

def _annotate(scanpaths, layouts):
    """Each scanpath annotated on the layout of its text."""
    out = []
    for sp in scanpaths:
        if sp.text_id not in layouts:
            raise ValidationError(f"no layout for text {sp.text_id!r}")
        out.append(annotate(sp, layouts[sp.text_id]))
    return out


def cmd_ingest(args) -> int:
    scanpaths = fileio.load_scanpaths(args.data)
    n_fix = sum(len(sp) for sp in scanpaths)
    log.info("read %d scanpaths, %d fixations", len(scanpaths), n_fix)
    if args.layout:
        annotated = _annotate(scanpaths, fileio.load_layouts(args.layout))
        out = [filter_scanpath(ann) for ann in annotated] if args.words_only else scanpaths
        kept = sum(len(sp) for sp in out)
        if kept != n_fix:
            log.info("dropped %d fixations not on words", n_fix - kept)
        scanpaths = out
    fileio.write_scanpaths(args.out, scanpaths)
    log.info("wrote %s", args.out)
    return 0


def cmd_aggregate(args) -> int:
    annotated = _annotate(fileio.load_scanpaths(args.data), fileio.load_layouts(args.layout))
    records = aggregate(annotated, args.measure)
    if args.pool:
        records = pool_across_readers(records)
    lines = ["reader_id,text_id,word_index,measure,value"]
    for r in records:
        lines.append(f"{r.reader_id},{r.text_id},{r.word_index},{r.measure},"
                     f"{fileio.format_float(r.value)}")
    serialize.write_text(args.out, "\n".join(lines) + "\n")
    log.info("wrote %d records to %s", len(records), args.out)
    return 0


def cmd_fit(args) -> int:
    config, grid_cfg = _resolve_config(args)
    scanpaths = fileio.load_scanpaths(args.data)
    if not scanpaths:
        raise ValidationError(f"no scanpaths in {args.data}")
    table = _effects_table(args)
    if args.kind == "saccade":
        variant = args.variant
        if variant != "hawkes":
            spec = SaccadeSpec(variant=variant)
        else:
            spec = SaccadeSpec(variant="hawkes", mean_fn=args.mean_fn, link=args.link,
                               columns=_spec_columns(args, scanpaths, table))
        model = SaccadeModel(spec, _omega_from(args))
    else:
        spill = tuple(_csv_list(args.spillover))
        columns = _spec_columns(args, scanpaths, table)
        spec = DurationSpec(mean_variant=args.duration_variant, spillover=spill,
                            lags=args.lags, distribution=args.distribution,
                            columns=columns)
        model = DurationModel(spec)
    units = _units(scanpaths, model.spec.columns, _by_path(table))
    parts = split(units, config.split, config.seed)
    log.info("split: train=%d val=%d test=%d scanpaths",
             len(parts.train), len(parts.val), len(parts.test))
    if args.grid:
        grid = grid_cfg if grid_cfg is not None else GridSpec()
        result = grid_search(model, parts, grid, config)
    else:
        result = train(model, parts, config)
    serialize.write_text(args.out, serialize.dumps_fit(model, result))
    log.info("%s fit: best epoch %d, val loss %s, test loglik/fixation %s",
             _model_label(model), result.best_epoch,
             fileio.format_float(result.best_val_loss) if result.val_trace else "n/a",
             fileio.format_float(result.test_loglik_per_fixation))
    log.info("wrote %s", args.out)
    return 0


def _test_per_event(loaded, scanpaths, idx_test, effects_by_path) -> np.ndarray:
    model = loaded.model
    units = _units([scanpaths[i] for i in idx_test], model.spec.columns, effects_by_path)
    return model.per_event_loglik(loaded.result.raw, PathData.concat(units))


def cmd_eval(args) -> int:
    config, _ = _resolve_config(args)
    scanpaths = fileio.load_scanpaths(args.data)
    effects = _by_path(_effects_table(args))
    base = serialize.loads_fit(serialize.read_text(args.baseline))
    others = [serialize.loads_fit(serialize.read_text(p)) for p in args.fit]
    for loaded in others:
        if loaded.model.kind != base.model.kind:
            raise ValidationError("cannot compare saccade and duration fits")
    idx_split = split(list(range(len(scanpaths))), config.split, config.seed)
    base_vals = _test_per_event(base, scanpaths, idx_split.test, effects)
    blocks = _block_labels(scanpaths, idx_split.test) if args.block_bootstrap else None
    reports = _compare([(_model_label(loaded.model),
                         _test_per_event(loaded, scanpaths, idx_split.test, effects))
                        for loaded in others], _model_label(base.model), base_vals,
                       args.replicates, args.bootstrap_seed, blocks, args.variant_tag)
    for report in reports:
        log.info("%s vs %s: mean %s, CI [%s, %s] over %d fixations",
                 report.model, report.baseline, fileio.format_float(report.mean),
                 fileio.format_float(report.summary.low),
                 fileio.format_float(report.summary.high), report.test_events)
    serialize.write_text(args.out_report, serialize.dumps_reports(reports))
    serialize.write_text(args.out_csv, serialize.reports_csv(reports))
    log.info("wrote %s and %s", args.out_report, args.out_csv)
    return 0


def _load_params_docs(path: str) -> list[serialize.LoadedParams]:
    docs = serialize.loads_params_docs(serialize.read_text(path))
    if not docs:
        raise ParseError(f"no parameter document found in {path}")
    return docs


def _pick_params(docs, kind: str):
    found = [d for d in docs if d.model.kind == kind]
    if len(found) > 1:
        raise ValidationError(f"more than one {kind} parameter document given")
    return found[0] if found else None


def _default_row(columns) -> np.ndarray:
    return np.array([1.0 if c == "intercept" else 0.0 for c in columns])


def _parse_row(text: Optional[str], columns, what: str) -> np.ndarray:
    if not text:
        return _default_row(columns)
    try:
        row = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise UsageError(f"{what} must be comma-separated numbers, got {text!r}") from None
    if row.shape != (len(columns),):
        raise UsageError(f"{what} needs {len(columns)} values, got {row.size}")
    return row


def cmd_simulate(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    docs = _load_params_docs(args.params)
    if args.duration_params:
        docs += _load_params_docs(args.duration_params)
    sacc = _pick_params(docs, "saccade")
    if sacc is None:
        raise ValidationError("simulation needs a saccade parameter document")
    dur = _pick_params(docs, "duration")
    if dur is None:
        dur_spec = DurationSpec(columns=("intercept",))
        dur_params = DurationParams.initial(dur_spec, sigma2=0.05).replace(
            w=np.array([math.log(0.2)]))
        log.info("no duration parameters given; using log-normal durations "
                 "around 200 ms")
    else:
        dur_spec = dur.model.spec
        dur_params = dur.params
    spec = sacc.model.spec
    params = sacc.params
    omega = sacc.model.omega
    x_row = _parse_row(args.x_row, spec.columns, "--x-row")
    x_dur_row = _parse_row(args.x_dur_row, dur_spec.columns, "--x-dur-row")
    config = SimConfig(horizon=args.horizon, omega=omega, seed=args.seed,
                       max_events=args.max_events)
    log.info("simulating %d scanpaths to horizon %s with seed %d",
             args.count, args.horizon, args.seed)
    rngs = spawn_rngs(args.seed, args.count)
    out = []
    truncated = candidates = accepted = fallbacks = 0
    for i in range(args.count):
        result = sample_scanpath(spec, params, dur_spec, dur_params, config,
                                 x_row=x_row, x_dur_row=x_dur_row,
                                 reader_id=args.reader, text_id=f"sim{i}",
                                 rng=rngs[i])
        truncated += int(result.truncated)
        candidates += result.candidates
        accepted += result.accepted
        fallbacks += result.location_fallbacks
        out.append(result.scanpath)
    if truncated:
        log.warning("%d of %d scanpaths hit the event cap before the horizon",
                    truncated, args.count)
    log.info("thinning accepted %d of %d candidates (rate %s); %d location draws "
             "fell back to the truncated normal", accepted, candidates,
             f"{accepted / candidates:.4f}" if candidates else "n/a", fallbacks)
    fileio.write_scanpaths(args.out, out)
    log.info("wrote %d scanpaths (%d fixations) to %s",
             len(out), sum(len(sp) for sp in out), args.out)
    return 0


def cmd_plot(args) -> int:
    docs = _load_params_docs(args.params)
    sacc = _pick_params(docs, "saccade")
    if sacc is None:
        raise ValidationError("plotting needs a saccade parameter document")
    scanpaths = fileio.load_scanpaths(args.history)
    if args.reader is not None:
        scanpaths = [sp for sp in scanpaths if sp.reader_id == args.reader]
    if args.text is not None:
        scanpaths = [sp for sp in scanpaths if sp.text_id == args.text]
    if not scanpaths:
        raise ValidationError("no scanpath matches the requested reader/text")
    sp = scanpaths[0]
    try:
        times = [float(tok) for tok in args.times.split(",") if tok]
    except ValueError:
        raise UsageError(f"--times must be comma-separated numbers, got {args.times!r}") from None
    if not times:
        raise UsageError("--times must name at least one timestamp")
    X = _units([sp], sacc.model.spec.columns, _by_path(_effects_table(args)))[0].design
    pages = plot_intensity(sp, sacc.model.spec, sacc.params, sacc.model.omega,
                           times, nx=args.grid, ny=args.grid, X=X)
    for i, page in enumerate(pages):
        base = f"{args.out_prefix}_t{i}"
        serialize.write_text(base + ".svg", page.svg)
        serialize.write_text(base + ".csv", page.csv)
        log.info("t=%s -> %s.svg, %s.csv", page.time, base, base)
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanpp",
        description="Point-process models of reading: fit, simulate, and "
                    "compare saccade and fixation-duration models.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize scanpath files")
    p.add_argument("--data", required=True, help="scanpath CSV")
    p.add_argument("--layout", help="layout CSV for word assignment checks")
    p.add_argument("--words-only", action="store_true",
                   help="drop fixations not on words (needs --layout)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("aggregate", help="word-level reading-time measures")
    p.add_argument("--data", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument("--pool", action="store_true", help="average across readers")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("fit", help="train one model, write a fit document")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with train/grid sections")
    p.add_argument("--kind", choices=("saccade", "duration"), default="saccade")
    p.add_argument("--variant", choices=VARIANTS, default="hawkes")
    p.add_argument("--mean-fn", choices=MEAN_FNS, default="baseline")
    p.add_argument("--link", choices=LINK_NAMES, default="softplus")
    p.add_argument("--screen", help="screen extent WxH in pixels")
    p.add_argument("--layout", help="layout CSV supplying the screen extent")
    p.add_argument("--effects", help="per-fixation effects CSV")
    p.add_argument("--use-effects", default="",
                   help="comma-separated effect names to include as predictors")
    p.add_argument("--no-readers", dest="reader_encoding", action="store_false",
                   help="omit per-reader columns")
    p.add_argument("--no-interactions", dest="interactions", action="store_false",
                   help="omit effect-by-reader interaction columns")
    p.add_argument("--duration-variant", choices=MEAN_VARIANTS, default="plain")
    p.add_argument("--distribution", choices=DISTRIBUTIONS, default="lognormal")
    p.add_argument("--spillover", default="",
                   help="comma-separated spillover column names")
    p.add_argument("--lags", type=int, default=0)
    p.add_argument("--grid", action="store_true",
                   help="grid-search hyperparameters (grid section or defaults)")
    p.add_argument("--seed", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="compare fitted models on the shared test set")
    p.add_argument("--data", required=True)
    p.add_argument("--baseline", required=True, help="baseline fit document")
    p.add_argument("--fit", action="append", required=True,
                   help="fit document to compare (repeatable)")
    p.add_argument("--config", help="JSON config fixing the split")
    p.add_argument("--seed", type=int)
    p.add_argument("--effects")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--bootstrap-seed", type=int, default=0)
    p.add_argument("--block-bootstrap", action="store_true",
                   help="resample whole scanpaths")
    p.add_argument("--variant-tag", default="full",
                   help="dataset variant label recorded in reports")
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="sample scanpaths from fitted parameters")
    p.add_argument("--params", required=True,
                   help="parameter document (may hold saccade and duration)")
    p.add_argument("--duration-params", help="separate duration parameter document")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-events", type=int, default=100_000)
    p.add_argument("--x-row", help="comma-separated saccade predictor row")
    p.add_argument("--x-dur-row", help="comma-separated duration predictor row")
    p.add_argument("--reader", default="sim")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot", help="intensity heatmaps at chosen timestamps")
    p.add_argument("--params", required=True)
    p.add_argument("--history", required=True, help="scanpath CSV")
    p.add_argument("--times", required=True,
                   help="comma-separated timestamps in seconds")
    p.add_argument("--grid", type=int, default=50, help="cells per axis")
    p.add_argument("--effects")
    p.add_argument("--reader")
    p.add_argument("--text")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(message)s", stream=sys.stderr,
                        force=True)
    try:
        _setup_threads()
        return args.func(args)
    except UsageError as exc:
        log.error("%s", exc)
        return 2
    except ScanppError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
