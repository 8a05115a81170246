"""Plain-text documents for fitted parameters, training results, and reports.

Every document is line-oriented, newline-terminated, and versioned by its
first line. Floats are written with ``repr`` so round-trips are exact;
loading a document and dumping it again reproduces the bytes. Constrained
``param`` lines are derived output: loaders trust only the ``raw`` vector,
whose entries must be finite, and recompute the rest.

A file may hold several documents, each starting at a line that equals its
header: a fit document is its head followed by one parameter document, a
``--params`` file one or more parameter documents written back to back,
and a report file one report per compared fit. ``_parts`` is the one place
that cuts a file at its headers. A ``ParseError`` from any part names the
line of the whole file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Rect
from .duration import DurationSpec
from .errors import ParseError, ValidationError
from .evaluate import Bootstrap, ComparisonReport
from .fileio import format_float
from .fit import DurationModel, FitResult, GridSpec, Model, SaccadeModel, TrainConfig
from .saccade import SaccadeSpec

PARAMS_MAGIC = "scanpp-params 1"
FIT_MAGIC = "scanpp-fit 1"
REPORT_MAGIC = "scanpp-report 1"

# Each kind's setting lines in document order, and how each is read; the spec holds defaults.
_SPEC_KEYS = {"saccade": {"variant": str, "mean_fn": str, "link": str},
              "duration": {"mean_variant": str, "distribution": str, "lags": int}}


def _param_lines(model: Model, raw: np.ndarray) -> list[str]:
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (model.dim,):
        raise ValidationError(
            f"raw vector has shape {raw.shape}, model needs ({model.dim},)")
    lines = [f"raw {name} {format_float(v)}" for name, v in zip(model.names, raw)]
    lines += [f"param {name} {format_float(v)}"
              for name, v in zip(model.names, model.constrained(raw))]
    return lines


def dumps_params(model: Model, raw: np.ndarray) -> str:
    """Versioned key-value document holding one model's fitted parameters."""
    lines = [PARAMS_MAGIC, f"kind {model.kind}"]
    lines += [f"{key} {getattr(model.spec, key)}" for key in _SPEC_KEYS[model.kind]]
    if model.kind == "saccade":
        om = model.omega
        lines.append("omega " + " ".join(format_float(v) for v in
                                         (om.x0, om.y0, om.width, om.height)))
    lines += [f"column {c}" for c in model.spec.columns]
    if model.kind == "duration":
        lines += [f"spill {s}" for s in model.spec.spillover]
    lines += _param_lines(model, raw)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class LoadedParams:
    """A parameter document rebound to a live model adapter."""

    model: Model
    raw: np.ndarray

    @property
    def params(self):
        return self.model.unpack(self.raw)


def _collect(text: str, magic: str) -> list[tuple[int, str, str]]:
    """(line number, key, rest) of each non-blank line after the header ``magic``."""
    lines = text.split("\n")
    if lines[0] != magic:
        raise ParseError(f"expected header {magic!r}", line=1)
    return [(i, *line.partition(" ")[::2]) for i, line in enumerate(lines[1:], start=2) if line]


def _parts(text: str, header: str) -> list[tuple[int, str]]:
    """``text`` cut before each line equal to ``header``, as (file line number of the
    part's first line, part); first the text before the first header, maybe ""."""
    lines = text.split("\n")
    cuts = [0] + [i for i, line in enumerate(lines) if line == header]
    return [(a + 1, "\n".join(lines[a:b]))
            for a, b in zip(cuts, cuts[1:] + [len(lines)])]


def _load_part(load, first: int, part: str):
    """``load(part)`` for a part from line ``first`` of its file, whose line a ParseError names."""
    try:
        return load(part)
    except ParseError as exc:
        message = str(exc).removeprefix(f"line {exc.line}: ")
        raise ParseError(message, line=first - 1 + exc.line) from None


def _number(token: str, lineno: int, kind=float):
    """``kind(token)``, or a ParseError naming the line."""
    try:
        return kind(token)
    except ValueError:
        what = "integer" if kind is int else "float"
        raise ParseError(f"bad {what} {token!r}", line=lineno) from None


def _named_value(rest: str, lineno: int) -> tuple[str, float]:
    if " " not in rest:
        raise ParseError(f"expected '<name> <value>', got {rest!r}", line=lineno)
    name, value = rest.rsplit(" ", 1)
    return name, _number(value, lineno)


def loads_params(text: str) -> LoadedParams:
    entries = _collect(text, PARAMS_MAGIC)
    settings = {"kind", "omega"}.union(*_SPEC_KEYS.values())
    fields: dict[str, tuple[int, str]] = {}
    lists: dict[str, list[str]] = {"column": [], "spill": []}
    raw_entries: list[tuple[str, float]] = []
    for lineno, key, rest in entries:
        if key in lists:
            lists[key].append(rest)
        elif key == "raw":
            name, value = _named_value(rest, lineno)
            if not math.isfinite(value):
                raise ParseError(f"raw {name} must be finite, got {value!r}", line=lineno)
            raw_entries.append((name, value))
        elif key == "param":
            _named_value(rest, lineno)
        elif key in settings:
            fields[key] = (lineno, rest)
        else:
            raise ParseError(f"unknown key {key!r}", line=lineno)
    at, kind = fields.get("kind", (1, None))
    if kind not in _SPEC_KEYS:
        raise ParseError(f"unknown model kind {kind!r}", line=at)
    spec_fields = {key: _number(fields[key][1], fields[key][0], read)
                   for key, read in _SPEC_KEYS[kind].items() if key in fields}
    if kind == "saccade":
        at, omega = fields.get("omega", (1, ""))
        try:
            x0, y0, w, h = (float(v) for v in omega.split(" "))
        except ValueError:
            raise ParseError("saccade document needs 'omega x0 y0 width height'",
                             line=at) from None
        model: Model = SaccadeModel(SaccadeSpec(**spec_fields, columns=tuple(lists["column"])),
                                    Rect(x0, y0, w, h))
    else:
        model = DurationModel(DurationSpec(**spec_fields, spillover=tuple(lists["spill"]),
                                           columns=tuple(lists["column"])))
    names = tuple(name for name, _ in raw_entries)
    if names != model.names:
        raise ValidationError(
            f"parameter names {names} do not match the model's {model.names}")
    raw = np.array([v for _, v in raw_entries], dtype=float)
    return LoadedParams(model=model, raw=raw)


def loads_params_docs(text: str) -> list[LoadedParams]:
    """The parameter documents of ``text`` in file order, written back to back or as
    a fit document's section; the text before the first header is not read."""
    return [_load_part(loads_params, first, part)
            for first, part in _parts(text, PARAMS_MAGIC)[1:]]


def _kernel_str(kern) -> str:
    if kern is None:
        return "-"
    return ",".join(format_float(v) for v in kern)


def _parse_kernel(text: str, lineno: int):
    if text == "-":
        return None
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ParseError(f"bad kernel triple {text!r}", line=lineno) from None


def dumps_fit(model: Model, result: FitResult) -> str:
    """FitResult as a structured document; wall-clock time is not canonical."""
    lines = [FIT_MAGIC,
             f"seed {result.seed}",
             f"best_epoch {result.best_epoch}",
             f"test_events {result.test_events}",
             f"test_loglik {format_float(result.test_loglik)}"]
    for key in sorted(result.selected):
        value = result.selected[key]
        if key == "kernel_init":
            lines.append(f"selected {key} {_kernel_str(value)}")
        elif key == "batch_size":
            lines.append(f"selected {key} {value}")
        else:
            lines.append(f"selected {key} {format_float(value)}")
    for tag, trace in (("train_trace", result.train_trace),
                       ("val_trace", result.val_trace)):
        lines.append(" ".join([tag, *map(format_float, trace)]))
    for hp, loss in result.grid_trace:
        lines.append("grid {} {} {} {} {}".format(
            hp["batch_size"], format_float(hp["learning_rate"]),
            format_float(hp["weight_decay"]), _kernel_str(hp["kernel_init"]),
            format_float(loss)))
    return "\n".join(lines) + "\n" + dumps_params(model, result.raw)


@dataclass(frozen=True, eq=False)
class LoadedFit:
    model: Model
    result: FitResult


def loads_fit(text: str) -> LoadedFit:
    (_, head), *sections = _parts(text, PARAMS_MAGIC)
    if len(sections) != 1:
        raise ParseError(f"fit document needs one parameter section, has {len(sections)}",
                         line=sections[1][0] if sections else 1)
    entries = _collect(head, FIT_MAGIC)
    ints = {"seed": 0, "best_epoch": 0, "test_events": 0}
    test_loglik = float("nan")
    selected: dict = {}
    traces: dict[str, tuple[float, ...]] = {"train_trace": (), "val_trace": ()}
    grid_trace: list[tuple[dict, float]] = []
    for lineno, key, rest in entries:
        if key in ints:
            ints[key] = _number(rest, lineno, int)
        elif key == "test_loglik":
            test_loglik = _number(rest, lineno)
        elif key == "selected":
            name, _, value = rest.partition(" ")
            if name == "kernel_init":
                selected[name] = _parse_kernel(value, lineno)
            else:
                selected[name] = _number(value, lineno, int if name == "batch_size" else float)
        elif key in traces:
            traces[key] = tuple(_number(v, lineno) for v in rest.split(" ")) if rest else ()
        elif key == "grid":
            parts = rest.split(" ")
            if len(parts) != 5:
                raise ParseError("grid line needs 5 fields", line=lineno)
            hp = {"batch_size": _number(parts[0], lineno, int),
                  "learning_rate": _number(parts[1], lineno),
                  "weight_decay": _number(parts[2], lineno),
                  "kernel_init": _parse_kernel(parts[3], lineno)}
            grid_trace.append((hp, _number(parts[4], lineno)))
        else:
            raise ParseError(f"unknown key {key!r}", line=lineno)
    loaded = _load_part(loads_params, *sections[0])
    model = loaded.model
    result = FitResult(names=model.names, raw=loaded.raw,
                       params=model.unpack(loaded.raw),
                       train_trace=traces["train_trace"],
                       val_trace=traces["val_trace"],
                       best_epoch=ints["best_epoch"], selected=selected,
                       grid_trace=tuple(grid_trace), test_loglik=test_loglik,
                       test_events=ints["test_events"], seed=ints["seed"])
    return LoadedFit(model=model, result=result)


_REPORT_FIELDS = {"model": str, "baseline": str, "dataset_variant": str, "replicates": int,
                  "seed": int, "test_events": int, "mean": float, "ci_low": float,
                  "ci_high": float}


def dumps_report(report: ComparisonReport) -> str:
    lines = [REPORT_MAGIC,
             f"model {report.model}",
             f"baseline {report.baseline}",
             f"dataset_variant {report.dataset_variant}",
             f"replicates {report.summary.replicates}",
             f"seed {report.summary.seed}",
             f"test_events {report.test_events}",
             f"mean {format_float(report.summary.mean)}",
             f"ci_low {format_float(report.summary.low)}",
             f"ci_high {format_float(report.summary.high)}"]
    return "\n".join(lines) + "\n"


def dumps_reports(reports: Sequence[ComparisonReport]) -> str:
    return "\n".join(dumps_report(r) for r in reports)


def loads_report(text: str) -> ComparisonReport:
    fields = {}
    for lineno, key, rest in _collect(text, REPORT_MAGIC):
        if key not in _REPORT_FIELDS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        fields[key] = _number(rest, lineno, _REPORT_FIELDS[key])
    try:
        summary = Bootstrap(mean=fields["mean"], low=fields["ci_low"], high=fields["ci_high"],
                            replicates=fields["replicates"], seed=fields["seed"])
        return ComparisonReport(model=fields["model"], baseline=fields["baseline"],
                                values=np.empty(0), summary=summary,
                                dataset_variant=fields["dataset_variant"],
                                test_events=fields["test_events"])
    except KeyError as exc:
        raise ParseError(f"report document is missing {exc.args[0]!r}", line=1) from None


def loads_reports(text: str) -> list[ComparisonReport]:
    """The reports ``dumps_reports`` wrote, in order. Text before the first
    header is read as a report too, so it fails for want of one."""
    return [_load_part(loads_report, first, part)
            for first, part in _parts(text, REPORT_MAGIC) if part]


def reports_csv(reports: Sequence[ComparisonReport]) -> str:
    """Combined per-fixation delta values across all comparisons."""
    lines = ["model,baseline,dataset_variant,index,delta"]
    for r in reports:
        for i, v in enumerate(np.asarray(r.values, dtype=float)):
            lines.append(f"{r.model},{r.baseline},{r.dataset_variant},{i},{format_float(v)}")
    return "\n".join(lines) + "\n"


def config_doc(text: str) -> dict:
    """The parsed JSON of a config: an object with optional "train" and "grid" sections."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(doc) - {"train", "grid"}
    if unknown:
        raise ParseError(f"unknown config sections {sorted(unknown)}")
    return doc


def config_from_doc(doc: dict) -> tuple[TrainConfig, Optional[GridSpec]]:
    """Training config and optional grid from a parsed config document."""
    train_doc = doc.get("train", {})
    grid_doc = doc.get("grid")
    try:
        if "split" in train_doc:
            train_doc = dict(train_doc, split=tuple(train_doc["split"]))
        config = TrainConfig(**train_doc)
        grid = None
        if grid_doc is not None:
            grid_doc = {k: tuple(tuple(x) if isinstance(x, list) else x for x in v)
                        for k, v in grid_doc.items()}
            grid = GridSpec(**grid_doc)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad config field: {exc}") from None
    return config, grid


def dumps_config(config: TrainConfig, grid: Optional[GridSpec] = None) -> str:
    doc = {"train": dataclasses.asdict(config)}
    if grid is not None:
        doc["grid"] = dataclasses.asdict(grid)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()
