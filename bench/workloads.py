"""The benchmark's workloads: inputs from a seed, one closed-loop iteration, checks.

Every input is simulated with ``sample_scanpath`` from one fixed generating
model, the criterion-4/5 truth of the acceptance tests: three readers, an
intercept plus reader one-hot design, and the full RSE saccade model. Each
path is cut at a fixed fixation count, so input sizes do not depend on the
seed. Calls into scanpp go through module attributes (``fit.train``, not a
name imported once) so a traced run sees them.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

import scanpp
from scanpp import cli, data, evaluate, fileio, fit, saccade, serialize

clock = time.perf_counter

OMEGA = scanpp.Rect(0.0, 0.0, 1920.0, 1080.0)
SCREEN = "1920x1080"
READERS = ("r0", "r1", "r2")
COLUMNS = ("intercept", "reader:r0", "reader:r1", "reader:r2")
AMP = (1.3, 1.7, 2.0)
DECAY = (2.4, 3.0, 3.4)
SHIFT = np.array([127.3, 0.0])
CEFF = ((-25.0, 10.0), (0.0, -12.0), (25.0, 5.0))
NU = 4.82e-7
SIGMA2 = 1600.0


def _softplus_inv(y: float) -> float:
    return y + math.log(-math.expm1(-y))


def truth(decay_factor: float = 1.0) -> tuple[scanpp.SaccadeSpec, scanpp.SaccadeParams]:
    spec = scanpp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=COLUMNS)
    alpha = np.array([0.0] + [_softplus_inv(a) for a in AMP])
    beta = np.array([0.0] + [_softplus_inv(decay_factor * d) for d in DECAY])
    C = np.zeros((2, len(COLUMNS)))
    for r, eff in enumerate(CEFF):
        C[:, 1 + r] = eff
    params = scanpp.SaccadeParams.initial(spec, nu=NU, sigma2=SIGMA2).replace(
        alpha=alpha, beta=beta, A=np.eye(2), b=SHIFT.copy(), C=C)
    return spec, params


def reader_row(columns, reader: str) -> np.ndarray:
    return np.array([1.0 if c in ("intercept", f"reader:{reader}") else 0.0 for c in columns])


def generate(seed: int, readers, n: int, horizon: float) -> list[scanpp.Scanpath]:
    """One path of exactly n fixations per entry of readers; same seed, same paths."""
    spec, params = truth()
    dur_spec = scanpp.DurationSpec(columns=("intercept",))
    dur_params = scanpp.DurationParams.initial(dur_spec, sigma2=0.1).replace(
        w=np.array([math.log(0.2)]))
    config = scanpp.SimConfig(horizon=horizon, omega=OMEGA, seed=seed, max_events=n)
    rngs = scanpp.spawn_rngs(seed, len(readers))
    paths = []
    for i, reader in enumerate(readers):
        sim = scanpp.sample_scanpath(spec, params, dur_spec, dur_params, config,
                                     x_row=reader_row(COLUMNS, reader), x_dur_row=np.ones(1),
                                     reader_id=reader, text_id=f"t{i}", rng=rngs[i])
        if len(sim.scanpath) != n:
            raise RuntimeError(f"path {i} reached the horizon after {len(sim.scanpath)} "
                               f"of {n} fixations")
        paths.append(sim.scanpath)
    return paths


# --- operation ledger ---------------------------------------------------------

class OperationFailed(Exception):
    """An operation of an iteration failed; the rest of the iteration is skipped."""


class Ledger:
    """Counts operations and output checks, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            raise OperationFailed(name) from None

    def cli(self, *argv: str) -> None:
        code = self.op(f"scanpp {argv[0]}", cli.main, list(argv))
        if code != 0:
            self.failed += 1
            print(f"operation scanpp {argv[0]} exited with code {code}", file=sys.stderr)
            raise OperationFailed(argv[0])

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)


# --- fit-quality guards ---------------------------------------------------------

def recovery_err(params: scanpp.SaccadeParams, columns) -> float:
    """Worst relative error of per-reader amplitude, decay and shift, and of sigma2.

    Computed as acceptance criterion 4 computes it; a model without a
    covariate shift (C = 0) is compared on b alone.
    """
    errs = [abs(params.sigma2 - SIGMA2) / SIGMA2]
    for r, reader in enumerate(READERS):
        x = reader_row(columns, reader)
        amp = float(np.logaddexp(0.0, x @ params.alpha))
        dec = float(np.logaddexp(0.0, x @ params.beta))
        shift_true = SHIFT + np.asarray(CEFF[r])
        shift = params.b + params.C @ x
        errs += [abs(amp - AMP[r]) / AMP[r], abs(dec - DECAY[r]) / DECAY[r],
                 float(np.linalg.norm(shift - shift_true) / np.linalg.norm(shift_true))]
    return max(errs)


def grad_norm(model, units, raw) -> float:
    """Norm of the training-objective gradient at raw, over prepared units."""
    _, grad = fit.objective(model, [model.prepare_unit(u) for u in units], raw)
    return float(np.linalg.norm(grad))


def path_units(paths, columns) -> list[saccade.PathData]:
    return [saccade.PathData.from_scanpath(p, data.design_for_columns(p, columns))
            for p in paths]


def pair_count(paths) -> int:
    return sum(len(p) * (len(p) - 1) // 2 for p in paths)


def reference_loglik(path: scanpp.Scanpath, params: scanpp.SaccadeParams) -> float:
    """Full-RSE log-likelihood of one path, from the model's definition alone.

    Dense O(n^2) evaluation with no scanpp code: the oracle that the
    program's value at the truth is checked against.
    """
    n = len(path)
    X = np.array([reader_row(COLUMNS, path.reader_id)] * n)
    locs = path.locations
    clock_ = path.onsets - np.concatenate(([0.0], np.cumsum(path.durations[:-1])))
    prev = np.concatenate(([0.0], clock_[:-1]))
    a = np.logaddexp(0.0, X @ params.alpha)
    b = np.logaddexp(0.0, X @ params.beta)
    mu = locs @ params.A.T + params.b + X @ params.C.T
    sd = math.sqrt(params.sigma2)
    mass = ((ndtr((OMEGA.x1 - mu[:, 0]) / sd) - ndtr((OMEGA.x0 - mu[:, 0]) / sd))
            * (ndtr((OMEGA.y1 - mu[:, 1]) / sd) - ndtr((OMEGA.y0 - mu[:, 1]) / sd)))
    below = np.tril(np.ones((n, n), dtype=bool), k=-1)
    age_hi = np.where(below, clock_[:, None] - clock_[None, :], 0.0)
    age_lo = np.where(below, prev[:, None] - clock_[None, :], 0.0)
    r2 = np.sum((locs[:, None, :] - mu[None, :, :]) ** 2, axis=2)
    density = np.exp(-r2 / (2.0 * params.sigma2)) / (2.0 * math.pi * params.sigma2)
    lam = params.nu + np.sum(np.where(below, a * np.exp(-b * age_hi) * density, 0.0), axis=1)
    window = (np.exp(-b * age_lo) - np.exp(-b * age_hi)) / b
    comp = (params.nu * OMEGA.area * (clock_ - prev)
            + np.sum(np.where(below, a * mass * window, 0.0), axis=1))
    return float(np.sum(np.log(lam) - comp))


# --- workloads ------------------------------------------------------------------

class Workload:
    """One workload at one seed; subclasses name it and say why it exists."""

    name = ""
    why = ""
    # Scoring runs this many times per iteration. A phase of a few tens of
    # milliseconds, timed once per iteration, gives too few samples for a
    # steady median; each repeat is one sample of eval_s.
    EVAL_REPEATS = 1

    def __init__(self, seed: int):
        self.seed = seed

    def sizes(self, paths) -> dict:
        return {"paths": len(paths), "fixations": sum(len(p) for p in paths),
                "pairs": pair_count(paths), "grid_cells": 0, "sim_events": 0}


@dataclass
class Iteration:
    """Timed phases of one iteration plus what the checks and guards need.

    Each phase maps to the list of its samples in seconds.
    """

    phases: dict
    outcome: dict


class Ladder(Workload):
    name = "ladder"
    why = ("60 paths x 90 fixations: ~60 small loglik_grad calls per pass whose arrays fit "
           "in L2, so adapter overhead, design rebuilds and the optimizer's pass count dominate")
    PER_READER = 20
    FIXATIONS = 90
    EPOCHS = 5
    EVAL_REPEATS = 10
    CONFIG = fit.TrainConfig(learning_rate=0.001, batch_size=64, momentum=0.9,
                             max_epochs=EPOCHS, patience=EPOCHS, seed=1,
                             split=(0.6, 0.2, 0.2))
    BASELINE = scanpp.SaccadeSpec(variant="poisson")
    SPECS = (scanpp.SaccadeSpec(variant="last_fixation"),
             scanpp.SaccadeSpec(variant="hawkes", columns=COLUMNS),
             scanpp.SaccadeSpec(variant="hawkes", mean_fn="affine", columns=COLUMNS),
             scanpp.SaccadeSpec(variant="hawkes", mean_fn="full", columns=COLUMNS))

    def setup(self, workdir: Path):
        readers = [r for r in READERS for _ in range(self.PER_READER)]
        return generate(self.seed, readers, self.FIXATIONS, 1000.0)

    def _split(self, paths):
        return fit.split(list(range(len(paths))), self.CONFIG.split, self.CONFIG.seed)

    def iterate(self, paths, ledger: Ledger) -> Iteration:
        t0 = clock()
        reports, members = ledger.op(
            "compare_suite", evaluate.compare_suite, paths, OMEGA, self.SPECS,
            self.BASELINE, self.CONFIG, replicates=1000, bootstrap_seed=0)
        t1 = clock()
        top = members[-1]
        test_paths = [paths[i] for i in self._split(paths).test]

        def score():
            model = fit.SaccadeModel(top.spec, OMEGA)
            units = path_units(test_paths, top.spec.columns)
            gaps = np.concatenate([saccade.compensator_increments(
                u, top.spec, top.result.params, OMEGA) for u in units])
            evaluate.ks_exponential(gaps)
            return np.concatenate([model.per_event_loglik(
                top.result.raw, model.prepare_unit(u)) for u in units])

        evals, per_event = [], None
        for r in range(self.EVAL_REPEATS):
            t = clock()
            scored = ledger.op("score", score)
            evals.append(clock() - t)
            if per_event is None:
                per_event = scored
            else:
                ledger.check(f"score repeat {r} equals repeat 0",
                             np.array_equal(scored, per_event))
        return Iteration({"fit_s": [t1 - t0], "eval_s": evals},
                         {"reports": reports, "members": members, "per_event": per_event,
                          "test_fixations": sum(len(p) for p in test_paths)})

    def check(self, paths, its, ledger: Ledger) -> dict:
        first = its[0].outcome
        for k, it in enumerate(its):
            out = it.outcome
            ledger.check(f"iteration {k}: all {1 + len(self.SPECS)} rungs fitted",
                         len(out["members"]) == 1 + len(self.SPECS))
            for r in out["reports"]:
                ledger.check(
                    f"iteration {k}: report {r.model} finite, test_events matches",
                    bool(np.all(np.isfinite(r.values)))
                    and all(math.isfinite(v) for v in (r.mean, *r.ci))
                    and r.test_events == out["test_fixations"])
            if k:
                ledger.check(f"iteration {k}: top fit equals iteration 0",
                             np.array_equal(out["members"][-1].result.raw,
                                            first["members"][-1].result.raw))
        top = first["members"][-1]
        model = fit.SaccadeModel(top.spec, OMEGA)
        train = path_units([paths[i] for i in self._split(paths).train], top.spec.columns)
        return {"test_nll_per_fix": -float(np.mean(first["per_event"])),
                "recovery_err": recovery_err(top.result.params, top.spec.columns),
                "grad_norm": grad_norm(model, train, top.result.raw)}


class Longpath(Workload):
    name = "longpath"
    why = ("4 paths x 1100 fixations: n^2 cost and memory with n x n arrays past L2, so "
           "windowed evaluation, Ozaki's recursion and mathutil kernels show, fit-loop "
           "overhead does not")
    READERS = ("r0", "r1", "r2", "r1")    # the first three train, the last is held out
    FIXATIONS = 1100
    EPOCHS = 2
    CONFIG = fit.TrainConfig(learning_rate=0.0005, batch_size=64, momentum=0.9,
                             max_epochs=EPOCHS, patience=EPOCHS, seed=1,
                             split=(1.0, 0.0, 0.0))
    KS_LEVEL = 1e-4
    # Total log-likelihood at the truth over all four paths, recorded at the
    # commit that introduced the benchmark.
    RECORDED_LOGLIK = {4242: -58718.777325880204, 7: -58832.927859273914}

    def setup(self, workdir: Path):
        return generate(self.seed, self.READERS, self.FIXATIONS, 3000.0)

    def iterate(self, paths, ledger: Ledger) -> Iteration:
        spec, params = truth()
        _, doubled = truth(decay_factor=2.0)
        t0 = clock()
        units = path_units(paths, COLUMNS)
        model = fit.SaccadeModel(spec, OMEGA)
        result = ledger.op("train", fit.train, model, fit.Split(tuple(units[:3]), (), ()),
                           self.CONFIG)
        t1 = clock()

        def score():
            ks = [evaluate.ks_exponential(np.concatenate(
                [saccade.compensator_increments(u, spec, p, OMEGA) for u in units]))
                for p in (params, doubled)]
            per_event = model.per_event_loglik(result.raw, model.prepare_unit(units[3]))
            return ks, per_event

        ks, per_event = ledger.op("score", score)
        t2 = clock()
        return Iteration({"fit_s": [t1 - t0], "eval_s": [t2 - t1]},
                         {"result": result, "ks": ks, "per_event": per_event})

    def check(self, paths, its, ledger: Ledger) -> dict:
        first = its[0].outcome
        for k, it in enumerate(its[1:], start=1):
            ledger.check(f"iteration {k}: fit equals iteration 0",
                         np.array_equal(it.outcome["result"].raw, first["result"].raw))
        (_, p_true), (_, p_doubled) = first["ks"]
        ledger.check(f"KS p={p_true:.3g} at the truth > {self.KS_LEVEL}", p_true > self.KS_LEVEL)
        ledger.check(f"KS p={p_doubled:.3g} at doubled decay < {self.KS_LEVEL}",
                     p_doubled < self.KS_LEVEL)
        spec, params = truth()
        total = sum(saccade.loglik_terms(u, spec, params, OMEGA).total
                    for u in path_units(paths, COLUMNS))
        want = sum(reference_loglik(p, params) for p in paths)
        ledger.check(f"loglik at truth {total!r} vs dense reference {want!r}",
                     abs(total - want) <= 1e-9 * abs(want))
        if self.seed in self.RECORDED_LOGLIK:
            rec = self.RECORDED_LOGLIK[self.seed]
            ledger.check(f"loglik at truth {total!r} vs recorded {rec!r}",
                         abs(total - rec) <= 1e-9 * abs(rec))
        print(f"longpath seed {self.seed}: loglik at truth {total!r}", file=sys.stderr)
        result = first["result"]
        model = fit.SaccadeModel(spec, OMEGA)
        return {"test_nll_per_fix": -float(np.mean(first["per_event"])),
                "recovery_err": recovery_err(result.params, COLUMNS),
                "grad_norm": grad_norm(model, path_units(paths[:3], COLUMNS), result.raw)}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline(Workload):
    name = "pipeline"
    why = ("the CLI in-process: fit, eval, simulate, plot --grid 64; the only workload "
           "with file writes, the thinning sampler, duration spillover and scalar "
           "intensity per grid cell")
    PER_READER = 10
    FIXATIONS = 90
    EPOCHS = 10
    EVAL_REPEATS = 8
    SIM_EVENTS = 400
    PLOT_AFTER = (100, 200, 300, 399)    # history sizes of the plotted timestamps
    GRID = 64

    def setup(self, workdir: Path):
        readers = [r for r in READERS for _ in range(self.PER_READER)]
        paths = generate(self.seed, readers, self.FIXATIONS, 1000.0)
        rng = np.random.default_rng((self.seed, 1 << 20))
        values = {(p.reader_id, p.text_id):
                  {"freq": dict(enumerate(rng.normal(0.0, 1.0, len(p)).tolist()))}
                  for p in paths}
        workdir.mkdir(parents=True, exist_ok=True)
        fileio.write_scanpaths(str(workdir / "data.csv"), paths)
        fileio.write_effects(str(workdir / "effects.csv"), fileio.EffectsTable(("freq",), values))
        config = fit.TrainConfig(max_epochs=self.EPOCHS, patience=self.EPOCHS, seed=1,
                                 split=(0.6, 0.2, 0.2))
        serialize.write_text(str(workdir / "config.json"), serialize.dumps_config(config))
        return {"dir": workdir, "paths": paths, "config": config}

    def sizes(self, inp) -> dict:
        paths = inp["paths"]
        return {"paths": len(paths), "fixations": sum(len(p) for p in paths),
                "pairs": pair_count(paths),
                "grid_cells": len(self.PLOT_AFTER) * self.GRID * self.GRID,
                "sim_events": self.SIM_EVENTS}

    def iterate(self, inp, ledger: Ledger) -> Iteration:
        d = inp["dir"]
        out = d / "out"
        out.mkdir(exist_ok=True)
        data_csv, config = str(d / "data.csv"), str(d / "config.json")
        common = ("--data", data_csv, "--config", config)
        fits = {k: str(out / f"{k}.fit") for k in ("poisson", "hawkes", "duration")}
        t0 = clock()
        ledger.cli("fit", *common, "--variant", "poisson", "--screen", SCREEN,
                   "--out", fits["poisson"])
        ledger.cli("fit", *common, "--variant", "hawkes", "--mean-fn", "affine",
                   "--screen", SCREEN, "--out", fits["hawkes"])
        ledger.cli("fit", *common, "--kind", "duration", "--effects", str(d / "effects.csv"),
                   "--use-effects", "freq", "--duration-variant", "convolution",
                   "--spillover", "freq", "--out", fits["duration"])
        t1 = clock()
        evals, reports = [], []
        for r in range(self.EVAL_REPEATS):
            t = clock()
            ledger.cli("eval", *common, "--baseline", fits["poisson"], "--fit", fits["hawkes"],
                       "--out-report", str(out / "report.txt"),
                       "--out-csv", str(out / "report.csv"))
            evals.append(clock() - t)
            reports.append((_sha(out / "report.txt"), _sha(out / "report.csv")))
            ledger.check(f"eval repeat {r} writes the bytes of repeat 0",
                         reports[-1] == reports[0])
        t2 = clock()
        sim_csv = str(out / "sim.csv")
        ledger.cli("simulate", "--params", fits["hawkes"], "--duration-params", fits["duration"],
                   "--horizon", "100000", "--max-events", str(self.SIM_EVENTS),
                   "--seed", str(self.seed), "--out", sim_csv)
        t3 = clock()
        sim = fileio.load_scanpaths(sim_csv)[0].fixations
        times = ",".join(repr((sim[k - 1].end + sim[k].onset) / 2.0) for k in self.PLOT_AFTER)
        ledger.cli("plot", "--params", fits["hawkes"], "--history", sim_csv, "--times", times,
                   "--grid", str(self.GRID), "--out-prefix", str(out / "plot"))
        t4 = clock()
        texts = {k: serialize.read_text(v) for k, v in fits.items()}
        texts["report"] = serialize.read_text(str(out / "report.txt"))
        loaded = {k: serialize.loads_fit(texts[k]) for k in fits}
        report = serialize.loads_report(texts["report"])
        hashes = {f.name: _sha(f) for f in sorted(out.iterdir())}
        return Iteration({"fit_s": [t1 - t0], "eval_s": evals, "simulate_s": [t3 - t2],
                          "plot_s": [t4 - t3]},
                         {"texts": texts, "loaded": loaded, "report": report,
                          "hashes": hashes})

    def check(self, inp, its, ledger: Ledger) -> dict:
        first = its[0].outcome
        expected = len(self.PLOT_AFTER) * 2 + 6
        ledger.check(f"{len(first['hashes'])} output files, {expected} expected",
                     len(first["hashes"]) == expected)
        for k, it in enumerate(its[1:], start=1):
            for name, digest in first["hashes"].items():
                ledger.check(f"iteration {k}: {name} byte-identical to iteration 0",
                             it.outcome["hashes"].get(name) == digest)
        texts = first["texts"]
        for key, doc in first["loaded"].items():
            ledger.check(f"{key}.fit loads and dumps back to the same bytes",
                         serialize.dumps_fit(doc.model, doc.result) == texts[key])
        ledger.check("report loads and dumps back to the same bytes",
                     serialize.dumps_reports([first["report"]]) == texts["report"])
        hawkes = first["loaded"]["hawkes"]
        model, result = hawkes.model, hawkes.result
        config = inp["config"]
        units = path_units(inp["paths"], model.spec.columns)
        train = fit.split(units, config.split, config.seed).train
        return {"test_nll_per_fix": -result.test_loglik / result.test_events,
                "recovery_err": recovery_err(result.params, model.spec.columns),
                "grad_norm": grad_norm(model, train, result.raw)}


WORKLOADS = {w.name: w for w in (Ladder, Longpath, Pipeline)}
