"""scanpp benchmark: one workload, one seed, a closed loop with a single caller.

    python3 bench/run.py --workload {ladder,longpath,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` of the
checkout that holds this file, never from an installed copy. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics). The line before it is the run record: machine, versions, effective
BLAS threads, seed and input sizes. See bench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are fixed before numpy loads: the single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("ladder", "longpath", "pipeline")


def blas_threads() -> dict:
    """Thread count read back from every OpenBLAS the process has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(lib_path)] = fn()
                break
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "scanpp" / "__init__.py").is_file():
        print(f"error: no scanpp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scanpp
    if Path(scanpp.__file__).resolve().parent != SRC / "scanpp":
        print(f"error: scanpp imported from {scanpp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - _START

    wl = workloads.WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t = time.perf_counter()
            inputs = wl.setup(workdir)
            setups.append(time.perf_counter() - t)
        return measure(args, wl, inputs, import_s, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, inputs, import_s: float, setups: list[float]) -> int:
    import numpy
    import scipy
    import tracing
    import workloads
    ledger = workloads.Ledger()
    tracer = tracing.Tracer() if args.trace else None
    done = []          # (kind, run_s, Iteration) of every completed iteration
    ranges = []        # span range of each completed traced iteration
    start = time.perf_counter()
    k = 0
    while True:
        # Iteration 0 warms caches and lazy set-up and is not timed; with
        # tracing, later iterations alternate traced and untraced.
        kind = "warmup" if k == 0 else "traced" if tracer and k % 2 else "plain"
        if kind == "traced":
            tracer.install()
        lo = len(tracer.spans) if tracer else 0
        gc.collect()
        t = time.perf_counter()
        try:
            it = wl.iterate(inputs, ledger)
        except workloads.OperationFailed:
            it = None
        finally:
            if kind == "traced":
                tracer.uninstall()
        run_s = time.perf_counter() - t
        if it is not None:
            done.append((kind, run_s, it))
            if kind == "traced":
                ranges.append((lo, len(tracer.spans)))
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + run_s > args.seconds and k >= (3 if tracer else 2):
            break
    plain = [(run_s, it) for kind, run_s, it in done if kind == "plain"]
    if not plain or (tracer and not ranges):
        print("error: no timed iteration completed", file=sys.stderr)
        return 1

    its = [it for _, _, it in done]
    guards = wl.check(inputs, its, ledger)
    sizes = wl.sizes(inputs)
    record = {
        "workload": wl.name, "why": wl.why, "seed": wl.seed, "seconds": args.seconds,
        "iterations": len(done), "traced_iterations": len(ranges),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "inputs": sizes, "import_s": import_s, "inputs_s": setups,
        "iteration_run_s": [r for r, _ in plain],
        "phases_median_s": {name: median(x for _, it in plain for x in it.phases[name])
                            for name in plain[0][1].phases},
        "phase_samples": {name: sum(len(it.phases[name]) for _, it in plain)
                          for name in plain[0][1].phases},
    }
    if tracer is None:
        metrics = {
            "setup_s": (import_s + median(setups), "s"),
            "run_s": (median(r for r, _ in plain), "s"),
            "fit_s": (record["phases_median_s"]["fit_s"], "s"),
            "eval_s": (record["phases_median_s"]["eval_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "test_nll_per_fix": (guards["test_nll_per_fix"], "nats/fixation"),
            "recovery_err": (guards["recovery_err"], "ratio"),
            "grad_norm": (guards["grad_norm"], "nats/fixation"),
        }
    else:
        values = tracer.summarize(ranges)
        traced_run = median(r for kind, r, _ in done if kind == "traced")
        values["trace.overhead_s"] = traced_run - median(r for r, _ in plain)
        values.update({f"input.{key}": float(v) for key, v in sizes.items()})
        metrics = {name: (values[name], unit) for name, unit in tracing.per_layer_names()}
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{wl.name}.jsonl", ranges)

    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
