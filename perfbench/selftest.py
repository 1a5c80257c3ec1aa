"""Self-test of the benchmark harness, on reduced sizes (about ten seconds).

Run from the root of a logflow checkout::

    python3 perfbench/selftest.py

It runs two traced passes of every workload at reduced size and fails when a
verdict, the determinism check, the on-disk re-check or the span tree is
broken.  Negative controls then show that each check catches a planted
fault, that ``BENCHMARK.json`` matches the metric catalogue, and that the
benchmark refuses to run outside a checkout.  Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import (NullTracer, SPAN_TOLERANCE, Tracer, check_tree,  # noqa: E402
                   layer_values, self_times)
import workloads  # noqa: E402

# layer metrics each reduced workload must show as nonzero (or zero)
EXPECT_NONZERO = {
    "flow-3d": ["grid.hessian.calls", "grid.eigen_fields.self_s",
                "flow.accepted_steps", "flow.step_explicit.calls"],
    "duality-2d": ["legendre.legendre_transform.calls", "legendre.pairs",
                   "legendre.dual_flow_check.self_s", "flow.accepted_steps"],
    "preset-suite": ["snapshots.write_snapshot.calls", "snapshots.write_snapshot.bytes",
                     "snapshots.read_snapshot.calls", "cli.persist_run.self_s",
                     "cli.load_trajectory_dir.self_s", "heat.heat_solve.self_s",
                     "expander.newton_solve.iterations", "analysis.fit_decay.self_s",
                     "analysis.plane_convergence.self_s", "grid.sample.calls",
                     "mcf.integrate_particles.self_s"],
}
EXPECT_ZERO = {
    "flow-3d": ["legendre.legendre_transform.calls", "snapshots.write_snapshot.calls",
                "expander.newton_solve.iterations"],
    "duality-2d": ["snapshots.write_snapshot.calls", "heat.heat_solve.self_s"],
}

failures: list = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def workdir(tag: str) -> Path:
    return HERE / "out" / f"selftest-{os.getpid()}-{tag}"


def reduced_passes() -> None:
    tracer = Tracer()
    for name in workloads.NAMES:
        runner = workloads.Runner(name, seed=7, reduced=True)
        runner.setup()
        ops, layers = [], None
        tracer.install()
        try:
            for k in range(2):
                wall, pass_ops = runner.run_pass(workdir(f"{name}-{k}"), tracer)
                ops += pass_ops
                spans = list(tracer.spans)
                tracer.spans.clear()
                try:
                    check_tree(spans)
                    tree_ok = True
                except ValueError as exc:
                    print(exc)
                    tree_ok = False
                check(tree_ok, f"{name}: span tree is well nested")
                cover = sum(self_times(spans)) / wall
                check(abs(1.0 - cover) <= SPAN_TOLERANCE,
                      f"{name}: spans cover {100 * cover:.2f} % of the traced pass")
                layers = layer_values(spans)
        finally:
            tracer.uninstall()
        bad = [op for op in ops if not op[1]]
        check(ops and not bad, f"{name}: {len(ops)} operations over two passes, "
                               f"verdicts and digests all hold {bad or ''}")
        for key in EXPECT_NONZERO[name]:
            check(layers[key] > 0, f"{name}: {key} = {layers[key]:.6g} > 0")
        for key in EXPECT_ZERO.get(name, []):
            check(layers[key] == 0, f"{name}: {key} = 0")
    from logflow import flow, grid
    check(flow.hessian is grid.hessian and not hasattr(grid.hessian, "__wrapped__"),
          "uninstall restores the original functions")


def planted_faults() -> None:
    runner = workloads.Runner("flow-3d", seed=7, reduced=True)
    runner.setup()
    label, cfg = runner.cfgs[0]
    runner.first[label] = "0" * 64
    _, ops = runner.run_pass(workdir("digest"), NullTracer())
    check(ops == [(label, False, "differs from the first pass")],
          "a digest unlike the first pass fails the operation")
    runner.first.clear()
    cfg.check = {"drift": -1.0}
    _, ops = runner.run_pass(workdir("verdict"), NullTracer())
    check(ops == [(label, False, "verdict failed")],
          "a report with passed = false fails the operation")

    from logflow import cli, experiments
    from logflow.config import load_config
    cfg = load_config({"preset": "legendre-duality"})
    report, artifacts = experiments.run_pipeline(cfg)
    outdir = workdir("disk")
    cli.persist_run(outdir, cfg, report, artifacts)
    before = workloads.files_digest(outdir)
    snap = sorted(outdir.glob("snapshot_*.snap"))[-1]
    data = bytearray(snap.read_bytes())
    data[-1] ^= 1
    snap.write_bytes(bytes(data))
    loaded, _ = cli.load_trajectory_dir(outdir)
    check(workloads.files_digest(outdir) != before,
          "a flipped bit in a snapshot file changes the files digest")
    check(not workloads.same_trajectory(loaded, artifacts["trajectory"]),
          "the on-disk re-check catches a flipped bit")
    shutil.rmtree(outdir)

    good = [("a", 0.0, 4.0, -1, None), ("b", 1.0, 2.0, 0, None), ("c", 2.5, 3.0, 0, None)]
    for what, spans in [
        ("child outside its parent", good[:2] + [("c", 2.5, 4.5, 0, None)]),
        ("overlapping siblings", good[:2] + [("c", 1.5, 3.0, 0, None)]),
        ("parent after child", [("a", 0.0, 4.0, 1, None), ("b", 1.0, 2.0, -1, None)]),
    ]:
        try:
            check_tree(spans)
            caught = False
        except ValueError:
            caught = True
        check(caught, f"check_tree rejects {what}")
    check(abs(sum(self_times(good)) - 4.0) < 1e-12, "self times sum to the top-level span")


def catalogue() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    strip = lambda ms, keys: [{k: m[k] for k in keys} for m in ms]  # noqa: E731
    check(strip(bench["end_to_end"], ("name", "unit", "better"))
          == strip(END_TO_END, ("name", "unit", "better")),
          "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    check(bench["per_layer"] == strip(PER_LAYER, ("name", "unit", "better")),
          "BENCHMARK.json per_layer matches metrics.PER_LAYER")
    check([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
          "BENCHMARK.json workloads match workloads.NAMES")


def refuses_outside_checkout() -> None:
    bare = workdir("bare")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "flow-3d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"outside a checkout the benchmark exits {proc.returncode} without a result")


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    catalogue()
    reduced_passes()
    planted_faults()
    refuses_outside_checkout()
    for leftover in (HERE / "out").glob(f"selftest-{os.getpid()}-*"):
        shutil.rmtree(leftover)
    print(f"{len(failures)} check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
