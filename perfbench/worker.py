"""The workload process: set up one workload, run checked passes, report.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/worker.py --workload flow-3d --seed 1 --seconds 35 \
        --trace 0 --outdir perfbench/out

With ``--setup-only`` it exits right after set-up, which is how ``run.py``
samples set-up time.  The last line of standard output is one JSON object;
``t_ready`` is ``time.monotonic()`` when set-up finished, comparable with the
parent's clock because CLOCK_MONOTONIC is system-wide.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import workloads
from spans import NullTracer, Tracer, check_tree, combine, layer_values, self_times

MIN_PASSES = 2   # trace mode needs one untraced and one traced pass


def machine() -> dict:
    """The machine and library settings the figures were measured with."""
    import scipy
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }
    info.update(_openblas())
    return info


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.machine()


def _openblas() -> dict:
    """Runtime version and thread count of every OpenBLAS loaded."""
    found = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            try:
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            found[Path(path).name] = {"config": get_config().decode(),
                                      "threads": get_threads()}
            break
    return {"openblas": found}


def run(args) -> dict:
    runner = workloads.Runner(args.workload, args.seed)
    tracer = None
    if args.trace:
        import logflow.cli  # noqa: F401  (imports every module the tracer wraps)
        tracer = Tracer()
        tracer.install()
    runner.setup()
    t_ready = time.monotonic()
    if args.setup_only:
        return {"t_ready": t_ready}

    setup_spans = list(tracer.spans) if tracer else []
    if tracer:
        tracer.spans.clear()
    workroot = Path(args.outdir) / f"work-{os.getpid()}"
    walls, traced_walls, traced_spans, layers, coverage, ops = [], [], [], [], [], []
    begin = time.perf_counter()
    while True:
        # trace mode alternates untraced and traced passes, untraced first
        traced = bool(tracer) and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
        elif tracer:
            tracer.uninstall()
        workdir = workroot / f"pass-{len(walls) + len(traced_walls)}"
        wall, pass_ops = runner.run_pass(workdir, tracer if traced else NullTracer())
        ops += pass_ops
        if traced:
            spans = list(tracer.spans)
            tracer.spans.clear()
            check_tree(spans)
            traced_walls.append(wall)
            traced_spans.append(spans)
            layers.append(layer_values(spans))
            coverage.append(sum(self_times(spans)) / wall)
        else:
            walls.append(wall)
        done = len(walls) + len(traced_walls)
        elapsed = time.perf_counter() - begin
        if done >= MIN_PASSES and (
                elapsed + median(walls + traced_walls) > args.seconds):
            break
    shutil.rmtree(workroot, ignore_errors=True)
    if tracer:
        tracer.uninstall()
        check_tree(setup_spans)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "entries": runner.entries,
        "t_ready": t_ready,
        "walls": walls,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op[1]),
        "failures": [op for op in ops if not op[1]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer:
        per_layer = combine(layer_values(setup_spans), layers)
        per_layer["bench.trace_overhead_s"] = median(traced_walls) - median(walls)
        per_layer["bench.span_coverage"] = median(coverage)
        out.update(traced_walls=traced_walls, layers=per_layer)
        # one file per workload, replaced by each traced run, keeps the disk use bounded
        spans_file = Path(args.outdir) / f"spans-{args.workload}.json"
        spans_file.write_text(json.dumps({"setup": setup_spans,
                                          "passes": traced_spans}))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measuring time; at least two passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", default="perfbench/out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
