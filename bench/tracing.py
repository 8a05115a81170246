"""Spans at the scanpp module boundaries, recorded from outside the package.

Each traced function is rebound at every place a caller looks it up: every
``scanpp`` module namespace that holds a reference to it, or the class for a
method. The package itself is not changed. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np


def _fixations(args, kwargs, out):
    n = getattr(args[0], "n", None)
    return len(args[0]) if n is None else n


def _grid_cells(args, kwargs, out):
    return out[2].size


def _events(args, kwargs, out):
    return len(out.scanpath)


def _rows_read(args, kwargs, out):
    return sum(len(sp) for sp in out)


def _rows_written(args, kwargs, out):
    paths = args[1] if len(args) > 1 else kwargs["scanpaths"]
    return sum(len(sp) for sp in paths) if isinstance(paths, (list, tuple)) else 0


def _effect_rows(args, kwargs, out):
    return sum(len(v) for per_path in out.values.values() for v in per_path.values())


def _epochs(args, kwargs, out):
    return len(out.train_trace)


def _grad_pass(args, kwargs, out):
    want = args[3] if len(args) > 3 else kwargs.get("want_grad", True)
    return int(bool(want))


def _one(args, kwargs, out):
    return 1


# (span name, module, attribute, base, unit of the per-call rate)
# The base is the work one call carries; a rate is inclusive span time per
# unit of base.
TARGETS = (
    ("saccade.loglik_grad", "scanpp.saccade", "loglik_grad", _fixations, "fix"),
    ("saccade.loglik_terms", "scanpp.saccade", "loglik_terms", _fixations, "fix"),
    ("saccade.compensator_increments", "scanpp.saccade", "compensator_increments",
     _fixations, "fix"),
    ("saccade.intensity", "scanpp.saccade", "intensity", _one, "call"),
    ("mathutil.exp_integral_0", "scanpp.mathutil", "exp_integral_0", None, None),
    ("mathutil.exp_integral_1", "scanpp.mathutil", "exp_integral_1", None, None),
    ("mathutil.norm_cdf", "scanpp.mathutil", "norm_cdf", None, None),
    ("fit.train", "scanpp.fit", "train", _epochs, None),
    ("fit.objective", "scanpp.fit", "objective", _grad_pass, None),
    ("fit.SaccadeModel.grad_unit", "scanpp.fit", "SaccadeModel.grad_unit", None, None),
    ("fit.DurationModel.grad_unit", "scanpp.fit", "DurationModel.grad_unit", None, None),
    ("duration.loglik_grad", "scanpp.duration", "duration_loglik_grad", _fixations, "fix"),
    ("duration.means", "scanpp.duration", "duration_means", None, None),
    ("simulate.sample_duration", "scanpp.simulate", "sample_duration", None, None),
    ("simulate.sample_scanpath", "scanpp.simulate", "sample_scanpath", _events, "event"),
    ("plotting.intensity_grid", "scanpp.plotting", "intensity_grid", _grid_cells, "cell"),
    ("plotting.svg_heatmap", "scanpp.plotting", "svg_heatmap", None, None),
    ("plotting.grid_csv", "scanpp.plotting", "grid_csv", None, None),
    ("evaluate.compare_suite", "scanpp.evaluate", "compare_suite", None, None),
    ("evaluate.bootstrap", "scanpp.evaluate", "bootstrap", None, None),
    ("evaluate.ks_exponential", "scanpp.evaluate", "ks_exponential", None, None),
    ("data.design_for_columns", "scanpp.data", "design_for_columns", None, None),
    ("fileio.load_scanpaths", "scanpp.fileio", "load_scanpaths", _rows_read, "row"),
    ("fileio.write_scanpaths", "scanpp.fileio", "write_scanpaths", _rows_written, "row"),
    ("fileio.load_effects", "scanpp.fileio", "load_effects", _effect_rows, "row"),
    ("serialize.dumps_fit", "scanpp.serialize", "dumps_fit", None, None),
    ("serialize.loads_fit", "scanpp.serialize", "loads_fit", None, None),
    ("serialize.loads_params", "scanpp.serialize", "loads_params", None, None),
    ("cli.fit", "scanpp.cli", "cmd_fit", None, None),
    ("cli.eval", "scanpp.cli", "cmd_eval", None, None),
    ("cli.simulate", "scanpp.cli", "cmd_simulate", None, None),
    ("cli.plot", "scanpp.cli", "cmd_plot", None, None),
)

_BASE_NAME = {"fix": "fix", "event": "events", "cell": "cells", "row": "rows"}
_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    out = []
    for name, _, _, _, rate in TARGETS:
        if name.startswith("cli."):
            out.append((f"{name}.wall_s", "s"))
            continue
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if rate is None:
            continue
        if rate != "call":
            out.append((f"{name}.{_BASE_NAME[rate]}", "count"))
        stem = f"{name}.us_per_{rate}"
        out += [(stem, "us"), (f"{stem}.p50", "us"), (f"{stem}.ptail", "us"),
                (f"{stem}.ptail_pct", "%")]
        if name == "saccade.loglik_grad":
            out += [(f"{name}.pairs", "count"), (f"{name}.ns_per_pair", "ns")]
    out += [("fit.epochs", "count"), ("fit.grad_passes", "count"),
            ("fit.loss_passes", "count"), ("fit.loss_passes_per_epoch", "ratio"),
            ("cli.self_s", "s"), ("trace.overhead_s", "s"),
            ("input.paths", "count"), ("input.fixations", "count"),
            ("input.pairs", "count"), ("input.grid_cells", "count"),
            ("input.sim_events", "count")]
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """Highest standard percentile with at least ten samples beyond it.

    Returns (value, level); (0, 0) when fewer than twenty samples exist.
    """
    n = len(values)
    for level in _TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10.0:
            return float(np.percentile(values, level)), level
    return 0.0, 0.0


class Tracer:
    """Installs span-recording wrappers and turns spans into per-layer numbers."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for index, (_, module, attr, base, _) in enumerate(TARGETS):
            # A target the package no longer has is skipped and reports zero calls.
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is not None:
                    setattr(cls, meth, self._wrap(index, orig, base))
                    self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(index, orig, base)
            for name, holder in list(sys.modules.items()):
                if name != "scanpp" and not name.startswith("scanpp."):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def _wrap(self, index, fn, base):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = [index, start, end, parent, 0]
            if base is not None:
                try:
                    spans[sid][4] = base(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass    # a changed call signature leaves the base at zero
            return out
        return traced

    def write(self, path, ranges) -> None:
        names = [t[0] for t in TARGETS]
        with open(path, "w", encoding="utf-8") as fh:
            for it, (lo, hi) in enumerate(ranges):
                for sid in range(lo, hi):
                    index, start, end, parent, base = self.spans[sid]
                    fh.write(json.dumps({"iteration": it, "id": sid, "name": names[index],
                                         "start": start, "end": end, "parent": parent,
                                         "base": base}) + "\n")

    def summarize(self, ranges) -> dict[str, float]:
        """Per-layer metrics over the traced iterations given as span ranges.

        Counts and self times are medians over iterations; per-call rates
        pool every traced call.
        """
        k = len(TARGETS)
        per_iter = []          # per iteration: calls, self, inclusive, base per target
        rates = [[] for _ in range(k)]
        pairs = 0.0
        for lo, hi in ranges:
            child = {}
            for sid in range(lo, hi):
                _, start, end, parent, _ = self.spans[sid]
                if parent >= 0:
                    child[parent] = child.get(parent, 0.0) + (end - start)
            calls = np.zeros(k)
            self_s = np.zeros(k)
            incl = np.zeros(k)
            base = np.zeros(k)
            for sid in range(lo, hi):
                index, start, end, _, b = self.spans[sid]
                dur = end - start
                calls[index] += 1
                self_s[index] += dur - child.get(sid, 0.0)
                incl[index] += dur
                base[index] += b
                if TARGETS[index][4] is not None and b > 0:
                    rates[index].append(dur / b)
                if TARGETS[index][0] == "saccade.loglik_grad":
                    pairs += b * (b - 1) / 2.0
            per_iter.append((calls, self_s, incl, base))

        def med(field, index):
            return float(statistics.median(it[field][index] for it in per_iter))

        incl_total = np.sum([it[2] for it in per_iter], axis=0)
        base_total = np.sum([it[3] for it in per_iter], axis=0)
        out: dict[str, float] = {}
        for index, (name, _, _, _, rate) in enumerate(TARGETS):
            if name.startswith("cli."):
                out[f"{name}.wall_s"] = med(2, index)
                continue
            out[f"{name}.calls"] = med(0, index)
            out[f"{name}.self_s"] = med(1, index)
            if rate is None:
                continue
            if rate != "call":
                out[f"{name}.{_BASE_NAME[rate]}"] = med(3, index)
            stem = f"{name}.us_per_{rate}"
            total = base_total[index]
            out[stem] = float(incl_total[index] / total * 1e6) if total else 0.0
            values = rates[index]
            out[f"{stem}.p50"] = float(np.median(values) * 1e6) if values else 0.0
            value, level = tail(values)
            out[f"{stem}.ptail"] = value * 1e6
            out[f"{stem}.ptail_pct"] = level
            if name == "saccade.loglik_grad":
                out[f"{name}.pairs"] = pairs / len(ranges)
                out[f"{name}.ns_per_pair"] = (float(incl_total[index] / pairs * 1e9)
                                              if pairs else 0.0)
        at = {t[0]: i for i, t in enumerate(TARGETS)}
        epochs = med(3, at["fit.train"])
        grad = med(3, at["fit.objective"])
        loss = med(0, at["fit.objective"]) - grad
        out["fit.epochs"] = epochs
        out["fit.grad_passes"] = grad
        out["fit.loss_passes"] = loss
        out["fit.loss_passes_per_epoch"] = loss / epochs if epochs else 0.0
        cli = [i for i, t in enumerate(TARGETS) if t[0].startswith("cli.")]
        out["cli.self_s"] = float(statistics.median(
            sum(it[1][i] for i in cli) for it in per_iter))
        return out
