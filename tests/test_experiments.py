"""Pipeline-level wiring: reports, artifacts, multi-config runs, 3-D smoke runs."""

import ast
import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logflow import experiments
from logflow.cli import persist_run
from logflow.config import load_config
from logflow.experiments import (PIPELINES, Refinement, judge, refinement_check,
                                 run_pipeline)
from logflow.presets import experiment_preset
from logflow.flow import QuadraticFarField, run
from logflow.grid import BoxDomain, GridFunction
from logflow.heat import heat_solve


def test_flow_pipeline_report_fields():
    cfg = load_config({
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": 1.0, "t_end": 0.05},
    })
    report, artifacts = run_pipeline(cfg)
    assert report["checks"] == [] and report["passed"] is True
    assert report["steps"] > 0
    assert artifacts["trajectory"].state.t == pytest.approx(0.05)


def test_heat_pipeline_produces_snapshot():
    cfg = load_config({
        "pipeline": "heat",
        "grid": {"n": 2, "L": 3.0, "m": 17},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": 0.0, "t_end": 0.05},
    })
    report, artifacts = run_pipeline(cfg)
    assert report["checks"] == [] and report["passed"] is True
    t, out = artifacts["snapshots"][0]
    assert t == 0.05
    assert out.values.shape == (17, 17)


def test_stationarity_certifies_non_quadratic():
    report, _ = run_pipeline(load_config({"preset": "expander-stationarity"}))
    assert not report["certification"]["is_quadratic"]
    assert report["certification"]["lambda_min"] > 0


def test_judge_reads_scalar_pair_and_boolean_bounds():
    check = {"a": 1.0, "b": [-2.0, -1.0], "c": 1.0}
    measured = {"a": 1.0, "b": -2.5, "c": {"1.0": 0.5, "2.0": 1.5}, "d": True,
                "e": False}
    assert judge(check, measured) == [
        {"key": "a", "bound": 1.0, "measured": 1.0, "ok": True},
        {"key": "b", "bound": [-2.0, -1.0], "measured": -2.5, "ok": False},
        {"key": "c", "bound": 1.0, "measured": {"1.0": 0.5, "2.0": 1.5}, "ok": False},
        {"key": "d", "bound": True, "measured": True, "ok": True},
        {"key": "e", "bound": True, "measured": False, "ok": False},
    ]
    # a fit that found nothing to fit fails its bound
    assert judge({"b": [-2.0, -1.0]}, {"b": None})[0]["ok"] is False


def test_refinement_clause():
    ref = Refinement("drift", 3.0, 1e-6)
    assert not refinement_check(ref, 1e-2, 1e-2 / 2, "m = 129")["ok"]
    assert refinement_check(ref, 0.0, 0.0, "m = 129")["ok"]
    # elementwise over per-time values: one time refining too slowly fails
    coarse, fine = {"1.0": 4e-3, "2.0": 4e-3}, {"1.0": 1e-3, "2.0": 2e-3}
    assert not refinement_check(ref._replace(floor=0.0), coarse, fine, "m = 129")["ok"]


def test_runners_read_no_fallback_defaults():
    # every default of a pipeline's sections is in PIPELINES, which loading
    # fills in; a `.get(key, default)` in a runner would be a second copy
    tree = ast.parse(Path(experiments.__file__).read_text(encoding="utf-8"))
    gets = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"]
    assert gets == []


# each preset whose pipeline reads a parameter section, shortened
_SECTION_PRESETS = {
    "expander-stationarity": ("expander", {}),
    "expander-cross-validation": ("expander", {"grid": {"m": 65}}),
    "mcf-correspondence": ("mcf", {"grid": {"m": 33}, "flow": {"t_end": 0.2}}),
    "blowdown-convergence": ("analysis", {"grid": {"m": 65}, "flow": {
        "t_end": 4.0, "snapshot_times": [0.5, 1.0, 2.0, 4.0]}}),
    "plane-convergence": ("analysis", {"grid": {"m": 65}, "flow": {
        "t_end": 4.0, "snapshot_times": [0.5, 1.0, 2.0, 4.0]}}),
}


@pytest.mark.parametrize("preset", sorted(_SECTION_PRESETS))
def test_omitted_section_keys_take_the_table_defaults(tmp_path, preset):
    section, short = _SECTION_PRESETS[preset]
    data = experiment_preset(preset)
    for key, val in short.items():
        data[key].update(val)
    table = getattr(PIPELINES[data["pipeline"]], section)
    assert table
    out = {}
    for tag, given in (("omitted", {}), ("spelled", copy.deepcopy(table))):
        cfg = load_config({**data, section: given})
        persist_run(tmp_path / tag, cfg, *run_pipeline(cfg))
        recorded = json.loads((tmp_path / tag / "config.json").read_text())
        assert recorded[section] == table
        out[tag] = (tmp_path / tag / "report.json").read_bytes()
    assert out["omitted"] == out["spelled"]


def test_worker_pool_runs_multiple_configs(tmp_path, src_env):
    cfgs = []
    for k in (1, 2):
        p = tmp_path / f"c{k}.json"
        p.write_text(json.dumps({
            "pipeline": "flow",
            "grid": {"n": 1, "L": 3.0, "m": 17},
            "initial": {"kind": "quadratic", "A": 1.0},
            "flow": {"tau": 1.0, "t_end": 0.02},
            "outdir": str(tmp_path / f"run{k}"),
        }))
        cfgs.append(str(p))
    proc = subprocess.run([sys.executable, "-m", "logflow.cli", "flow", "run",
                           "--config", *cfgs], env=src_env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    for k in (1, 2):
        assert (tmp_path / f"run{k}" / "report.json").exists()


# ---------------------------------------------------------------------------
# 3-D smoke coverage through the full stack
# ---------------------------------------------------------------------------

def test_three_dimensional_quadratic_flow():
    dom = BoxDomain(n=3, half_width=1.0, m=9)
    grids = dom.meshgrid()
    r2 = sum(g ** 2 for g in grids)
    u0 = GridFunction(dom, 0.5 * 2.0 * r2)  # D2u = 2I, det = 8
    traj = run(u0, tau=1.0, t_end=0.01,
               boundary=QuadraticFarField(2.0 * np.eye(3), np.zeros(3)))
    rate = np.log(8.0) / 3.0
    expected = u0.values + 0.01 * rate
    assert np.max(np.abs(traj.state.u.values - expected)) < 1e-10
    rec = traj.monitors[-1]
    assert rec.lambda_min == pytest.approx(2.0, abs=1e-8)
    assert rec.lambda_max == pytest.approx(2.0, abs=1e-8)


def test_three_dimensional_heat_quadratic():
    dom = BoxDomain(n=3, half_width=1.5, m=9)
    grids = dom.meshgrid()
    r2 = sum(g ** 2 for g in grids)
    u0 = GridFunction(dom, 0.5 * r2)
    out = heat_solve(u0, 0.03, QuadraticFarField(np.eye(3), np.zeros(3)))
    assert np.max(np.abs(out.values - (u0.values + 3 * 0.03))) < 1e-12


def test_three_dimensional_bump_flow_keeps_bounds():
    dom = BoxDomain(n=3, half_width=2.5, m=11)
    grids = dom.meshgrid()
    r2 = sum(g ** 2 for g in grids)
    u0 = GridFunction(dom, 0.5 * r2 + 0.05 * np.exp(-r2))
    traj = run(u0, tau=1.0, t_end=0.02,
               boundary=QuadraticFarField(np.eye(3), np.zeros(3)))
    lam0 = traj.monitors[0].lambda_min
    Lam0 = traj.monitors[0].lambda_max
    for rec in traj.monitors:
        assert rec.lambda_min >= lam0 - 2e-2
        assert rec.lambda_max <= Lam0 + 2e-2


def test_benchmark_tracer_records_flow_3d_layers(monkeypatch):
    # the benchmark's span tracer wraps functions by name; renaming one of the
    # layers it reports must fail here, not only in a traced benchmark run
    from pathlib import Path
    from logflow import experiments, flow, grid
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans
    import workloads
    (label, data), = workloads.entries("flow-3d", 1, reduced=True)
    cfg = load_config(data)
    tracer = spans.Tracer()
    tracer.install()
    try:
        report, _ = experiments.run_pipeline(cfg)
    finally:
        tracer.uninstall()
    assert report["passed"]
    names = {s[0] for s in tracer.spans}
    assert {"experiments.run_pipeline", "grid.hessian", "grid.eigen_fields"} <= names
    spans.check_tree(tracer.spans)
    assert flow.hessian is grid.hessian and not hasattr(grid.hessian, "__wrapped__")


def test_legendre_dual_pipeline_conjugates_each_field_once(monkeypatch):
    # six primal fields (three quadratic, three bump snapshots): one
    # transform each, and no field's Hessian or gradient taken twice
    from logflow import legendre

    def counting(fn, seen):
        def wrapper(v, *args):
            seen.append(v)
            return fn(v, *args)
        return wrapper

    calls = {"hessian": [], "gradient": [], "legendre_transform": []}
    for name, seen in calls.items():
        monkeypatch.setattr(legendre, name, counting(getattr(legendre, name), seen))
    report, _ = run_pipeline(load_config({"preset": "legendre-duality"}))
    assert report["passed"]
    assert len(calls["legendre_transform"]) == 6
    assert len(calls["gradient"]) == 6 and len(calls["hessian"]) == 12
    for seen in calls.values():
        assert len({id(v) for v in seen}) == len(seen)


def test_benchmark_tracer_counts_duality_2d_transforms(monkeypatch):
    # the reduced duality-2d entry of the benchmark: each pass conjugates its
    # six primal fields once
    from logflow import experiments
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans
    import workloads
    (label, data), = workloads.entries("duality-2d", 1, reduced=True)
    cfg = load_config(data)
    tracer = spans.Tracer()
    tracer.install()
    try:
        report, _ = experiments.run_pipeline(cfg)
    finally:
        tracer.uninstall()
    assert report["passed"]
    names = [s[0] for s in tracer.spans]
    assert names.count("legendre.legendre_transform") == 6
    assert names.count("legendre.dual_flow_check") == 2
    spans.check_tree(tracer.spans)
