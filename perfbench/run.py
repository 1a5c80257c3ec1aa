"""The logflow benchmark: time to verdict of three workloads, and a traced run.

Run from the root of a logflow checkout::

    python3 perfbench/run.py --workload flow-3d --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

``--trace 0`` reports the end-to-end metrics of ``metrics.END_TO_END``;
``--trace 1`` alternates untraced and traced passes and reports the
per-module metrics of ``metrics.PER_LAYER``.  Each workload runs in one
worker process with one BLAS/OpenMP thread; set-up time is sampled in
separate processes from interpreter start.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full records, and
the spans of a traced run, are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from metrics import END_TO_END, PER_LAYER
from spans import SPAN_TOLERANCE
from workloads import NAMES

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5      # set-up samples besides the one of the workload process
BUDGET_S = 170.0      # one workload's run, set-up probes included
# one thread: on a small shared machine BLAS threading adds more spread than speed
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q = quantiles(values, n=4)
    return q[2] - q[0]


def _worker(root: Path, args: list, timeout: float) -> tuple[float, dict]:
    env = dict(os.environ, **BLAS_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--outdir", str(HERE / "out")]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            spawned, res = _worker(root, common + ["--setup-only"],
                                   min(60.0, deadline - time.monotonic()))
            setup.append(res["t_ready"] - spawned)
    spawned, res = _worker(root, common + ["--seconds", str(seconds), "--trace", str(trace)],
                           deadline - time.monotonic())
    setup.append(res["t_ready"] - spawned)
    res["setup_samples"] = setup
    if trace:
        res["metrics"] = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                          for m in PER_LAYER}
    else:
        values = {"wall_s": median(res["walls"]), "setup_s": median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        res["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in END_TO_END}
    out = HERE / "out" / f"result-{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(res, indent=1))
    return res


def describe(res: dict, trace: int) -> list:
    """Human-readable lines for one workload's result."""
    w = res["workload"]
    mach = res["machine"]
    blas = "; ".join(f"{v['config']} threads={v['threads']}"
                     for v in mach["openblas"].values()) or "not loaded"
    lines = [f"machine: {mach['cpu']} nproc={mach['nproc']} affinity={mach['affinity']} "
             f"python={mach['python']} numpy={mach['numpy']} scipy={mach['scipy']} "
             f"blas={blas} env={mach['blas_threads_env']}"]
    for label, data in res["entries"]:
        inputs = {k: data[k] for k in ("grid", "initial") if k in data}
        lines.append(f"{w}: {label} {json.dumps(inputs) if inputs else ''}".rstrip())
    walls = res["walls"]
    wall = median(walls)
    lines.append(f"{w}: wall_s = {wall:.4f} s (median of {len(walls)} untraced passes, "
                 f"IQR {_iqr(walls):.4f} s = {100 * _iqr(walls) / wall:.2f} %)")
    if trace:
        tw = res["traced_walls"]
        layers = res["layers"]
        lines.append(f"{w}: traced wall_s = {median(tw):.4f} s (median of {len(tw)} "
                     f"traced passes); tracing overhead "
                     f"{layers['bench.trace_overhead_s']:+.4f} s "
                     f"({100 * layers['bench.trace_overhead_s'] / wall:+.1f} %)")
        cov = layers["bench.span_coverage"]
        verdict = "ok" if abs(1.0 - cov) <= SPAN_TOLERANCE else "OUTSIDE TOLERANCE"
        lines.append(f"{w}: self times of all spans cover {100 * cov:.2f} % of the "
                     f"traced wall time (tolerance {100 * SPAN_TOLERANCE:.0f} %): {verdict}")
        timed = sorted((k for k in layers if k.endswith(".self_s")),
                       key=lambda k: -layers[k])
        for k in timed[:8]:
            lines.append(f"{w}:   {k:40s} {layers[k]:10.4f} s")
    else:
        s = res["setup_samples"]
        lines.append(f"{w}: setup_s = {median(s):.4f} s (median of {len(s)} processes, "
                     f"IQR {_iqr(s):.4f} s)")
        lines.append(f"{w}: peak_rss_mb = {res['peak_rss_mb']:.1f} MB")
    lines.append(f"{w}: failed_ops_frac = {res['failed']}/{res['attempted']} = "
                 f"{res['failed'] / res['attempted']:.4g} (fraction)")
    for label, _, detail in res["failures"]:
        lines.append(f"{w}: FAILED {label}: {detail}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of one workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "logflow" / "__init__.py").is_file():
        print(f"error: {root} has no src/logflow; run from the root of a logflow "
              "checkout", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(root, name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(res, args.trace)), flush=True)
        results.append(res)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
