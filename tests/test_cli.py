"""Configuration loading, the command-line surface, artifact round trips."""

import argparse
import ast
import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from logflow.cli import build_parser, emit_plotdata, load_trajectory_dir, main
from logflow.config import ExperimentConfig, load_config, parse_keyvalue
from logflow.errors import ConfigError, MissingArtifact
from logflow.experiments import PIPELINES, finer_level, run_pipeline
from logflow.flow import FLOW_KEYS
from logflow.presets import INITIAL_FAMILIES, experiment_preset, preset_names


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_round_trips_losslessly():
    cfg = load_config({"preset": "quadratic-exact"})
    assert "check" not in cfg.to_dict()
    clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert clone.to_dict() == cfg.to_dict() and clone.check == cfg.check


def test_config_json_names_no_location(tmp_path):
    # one preset run into two directories records the same config.json,
    # which loads back to the config it records
    cfg = _write_cfg(tmp_path, {"preset": "quadratic-exact", "grid": {"m": 17}})
    for tag in ("a", "b"):
        assert main(["flow", "run", "--config", str(cfg),
                     "--outdir", str(tmp_path / tag)]) == 0
    recorded = [(tmp_path / tag / "config.json").read_bytes() for tag in ("a", "b")]
    assert recorded[0] == recorded[1]
    data = json.loads(recorded[0])
    assert "outdir" not in data and "check" not in data
    reloaded = load_config(tmp_path / "a" / "config.json").to_dict()
    assert {k: v for k, v in reloaded.items() if k != "outdir"} == data


def test_keyvalue_format():
    text = """
    # comment
    pipeline = flow
    grid.n = 1
    grid.L = 4.0
    grid.m = 33
    flow.tau = 0.5          # inline comment
    flow.t_end = 0.1
    initial.kind = quadratic
    """
    data = parse_keyvalue(text)
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.flow["tau"] == 0.5
    assert cfg.grid["m"] == 33


def test_keyvalue_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_keyvalue("pipeline = flow\nbroken line without equals\n")


def test_too_small_grid_rejected():
    with pytest.raises(ConfigError, match="m >= 5"):
        load_config({"pipeline": "flow", "grid": {"n": 1, "L": 1.0, "m": 3}})


def test_unknown_preset_lists_catalogue():
    with pytest.raises(ConfigError) as exc:
        experiment_preset("no-such-preset")
    for name in preset_names():
        assert name in str(exc.value)


# the check sections the presets carried before the thresholds moved into
# the pipeline table: loading a preset must resolve exactly these bounds
FROZEN_THRESHOLDS = {
    "quadratic-exact": {"sup_error": 1e-8, "runtime_s": 10.0},
    "condition-b-preservation": {"drift": 5e-3},
    "heat-oracle": {"sup_diff": 5e-4},
    "expander-stationarity": {"residual": 0.05},
    "expander-cross-validation": {"profile_gap": 1e-4, "newton_residual": 1e-10,
                                  "newton_iterations": 15},
    "legendre-duality": {"bump_residual": 1e-2},
    "mcf-correspondence": {"deviation": 5e-3, "tangential_ratio": 0.10},
    "decay-rates": {"exponent3": [-1.3, -0.7], "exponent4": [-2.4, -1.6],
                    "runtime_s": 120.0},
    "blowdown-convergence": {"final_error": 0.02},
    "plane-convergence": {"final_max_gradient": 0.02},
}


def test_every_preset_validates():
    assert set(FROZEN_THRESHOLDS) == set(preset_names())
    for name in preset_names():
        cfg = load_config({"preset": name})
        assert cfg.preset == name
        assert cfg.check == FROZEN_THRESHOLDS[name] == PIPELINES[cfg.pipeline].check
        assert cfg.check is not PIPELINES[cfg.pipeline].check
        assert "check" not in experiment_preset(name)


# each refined preset's refinement pair: (measured key, ratio, floor, finer m,
# whether the finer level halves the snapshot spacing)
REFINEMENTS = {
    "condition-b-preservation": ("drift", 3.0, 1e-6, 129, False),
    "heat-oracle": ("sup_diff", 3.0, 0.0, 129, False),
    "expander-stationarity": ("residuals", 3.0, 0.0, 129, False),
    "expander-cross-validation": ("profile_gap", 3.0, 0.0, 257, False),
    "legendre-duality": ("bump_residual", 3.0, 0.0, 129, True),
}


def test_refinement_pairs_are_pinned():
    for name in preset_names():
        cfg = load_config({"preset": name})
        ref = PIPELINES[cfg.pipeline].refinement
        if ref is None:
            assert name not in REFINEMENTS
        else:
            assert (ref.key, ref.ratio, ref.floor, finer_level(cfg).domain().m,
                    ref.halves_spacing) == REFINEMENTS[name]
    fine = finer_level(load_config({"preset": "legendre-duality"}))
    assert fine.flow["snapshot_times"] == [0.4975, 0.5, 0.5025]
    assert fine.flow["t_end"] == 0.5025


def _leaf_commands(parser, prefix=()):
    """The command lines ``build_parser()`` accepts, such as ``flow run``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, (*prefix, name))
            return
    yield " ".join(prefix)


def _choices(data: dict) -> list:
    """The keys a section takes, as the refusal of an unknown key lists them."""
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    _, _, listed = str(exc.value).partition("choose from ")
    return ast.literal_eval(listed) if listed else []


def _settable_surface() -> list:
    """Every dotted key a config may set; a key read by one pipeline or one
    initial family is tagged with it."""
    base = {"pipeline": "mcf_verify"}
    keys = _choices({**base, "?": 0})
    for section in ("grid", "flow"):
        keys += [f"{section}.{k}" for k in _choices({**base, section: {"?": 0}})]
    for kind in INITIAL_FAMILIES:
        keys += [f"initial.{k} ({kind})"
                 for k in _choices({**base, "initial": {"kind": kind, "?": 0}})]
    for name in PIPELINES:
        keys += [f"mcf.{k} ({name})" for k in _choices({"pipeline": name, "mcf": {"?": 0}})]
    return keys


def test_settable_surface_is_pinned():
    # adding or removing a config key, a pipeline or a command shows up here;
    # the thresholds and the snapshot format are no config keys
    assert _settable_surface() == [
        "flow", "grid", "initial", "mcf", "outdir", "pipeline", "preset", "seed",
        "grid.L", "grid.m", "grid.n",
        "flow.snapshot_times", "flow.t_end", "flow.tau",
        "initial.A (quadratic)", "initial.b (quadratic)", "initial.c (quadratic)",
        "initial.kind (quadratic)", "initial.noise (quadratic)",
        "initial.A (quadratic_plus_bump)", "initial.amplitude (quadratic_plus_bump)",
        "initial.kind (quadratic_plus_bump)", "initial.noise (quadratic_plus_bump)",
        "initial.width (quadratic_plus_bump)",
        "initial.amplitude (linear_plus_bump)", "initial.b (linear_plus_bump)",
        "initial.kind (linear_plus_bump)", "initial.noise (linear_plus_bump)",
        "initial.width (linear_plus_bump)",
        "initial.c_minus (two_slope)", "initial.c_plus (two_slope)",
        "initial.kind (two_slope)", "initial.noise (two_slope)",
        "mcf.seeds (mcf_verify)", "mcf.t_start (mcf_verify)"]
    assert list(FLOW_KEYS) == ["tau", "t_end", "snapshot_times"]
    assert list(PIPELINES) == [
        "flow", "quadratic_exact", "condition_b", "heat_oracle",
        "expander_stationarity", "expander_cross", "legendre_dual", "mcf_verify",
        "decay", "blowdown", "plane"]
    assert list(_leaf_commands(build_parser())) == [
        "flow run", "expander certify", "legendre transform",
        "legendre check-dual", "mcf reconstruct", "analyze decay", "analyze plane",
        "analyze condition", "emit"]


def test_range_table_bounds_declared_keys_and_admits_their_defaults():
    # a mistyped entry in the table of ranges would bound nothing
    from logflow.config import _RANGES
    declared = {"flow": [FLOW_KEYS], "initial": list(INITIAL_FAMILIES.values())}
    for section, ranges in _RANGES.items():
        for key, (test, _) in ranges.items():
            defaults = [table[key] for table in declared[section] if key in table]
            assert defaults, f"{section}.{key} is declared nowhere"
            for value in defaults:
                if isinstance(value, (int, float)):
                    assert test(value), f"{section}.{key} = {value}"
                elif isinstance(value, list):
                    assert value and all(map(test, value)), f"{section}.{key} = {value}"


def _arithmetic_literal(node) -> bool:
    """A number, or arithmetic or a call on one (``10 * x``, ``max(x / 3, y)``);
    an index such as ``a[0]`` is not one."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _arithmetic_literal(node.operand)
    if isinstance(node, ast.BinOp):
        return _arithmetic_literal(node.left) or _arithmetic_literal(node.right)
    if isinstance(node, ast.Call):
        return any(_arithmetic_literal(arg) for arg in node.args)
    return False


def test_the_gate_holds_no_threshold_literal():
    # every bound the gate applies comes from the pipeline table (pinned
    # above); a number inside a comparison, a float among a row's overrides
    # or a check override in a row or a planted fault would be a second copy
    path = Path(__file__).with_name("test_acceptance.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id in ("_row", "_fault")]
    rows = [n for n in calls if n.func.id == "_row"]
    floats = [c.lineno for row in rows for c in ast.walk(row)
              if isinstance(c, ast.Constant) and isinstance(c.value, float)]
    overrides = [k.arg for call in calls for k in call.keywords if k.arg == "check"]
    compared = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Compare)
                and any(map(_arithmetic_literal, (n.left, *n.comparators)))]
    assert rows and floats == [] and overrides == [] and compared == []


# ---------------------------------------------------------------------------
# CLI round trips
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, data) -> Path:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    return p


def test_flow_run_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": 1.0, "t_end": 0.05, "snapshot_times": [0.025, 0.05]},
        "outdir": str(tmp_path / "run"),
    })
    assert main(["flow", "run", "--config", str(cfg)]) == 0
    rundir = tmp_path / "run"
    assert (rundir / "config.json").exists()
    assert (rundir / "monitors.csv").exists()
    assert (rundir / "report.json").exists()
    assert (rundir / "manifest.json").exists()
    snaps = sorted(rundir.glob("snapshot_*.snap"))
    assert len(snaps) == 2
    manifest = json.loads((rundir / "manifest.json").read_text())
    names = {e["name"] for e in manifest["files"]}
    assert "monitors.csv" in names and "report.json" in names

    traj, tau = load_trajectory_dir(rundir)
    assert tau == 1.0
    assert [t for t, _ in traj.snapshots] == [0.025, 0.05]

    emit_plotdata(rundir)
    text = (rundir / "plotdata.csv").read_text().splitlines()
    assert text[0] == "quantity,t,value"
    assert len(text) > 5


def test_flow_run_deterministic_snapshots(tmp_path):
    base = {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": 1.0, "t_end": 0.05, "snapshot_times": [0.05]},
        "seed": 7,
    }
    out = []
    for tag in ("a", "b"):
        cfg = dict(base, outdir=str(tmp_path / tag))
        p = tmp_path / f"{tag}.json"
        p.write_text(json.dumps(cfg))
        assert main(["flow", "run", "--config", str(p)]) == 0
        snap = sorted((tmp_path / tag).glob("snapshot_*.snap"))[0]
        out.append(snap.read_bytes())
    assert out[0] == out[1]


def test_check_mode_exit_code(tmp_path, capsys, monkeypatch):
    # an impossible threshold fails the report; an impossible wall-time bound
    # fails only --check, and wall time never reaches report.json
    spec = PIPELINES["quadratic_exact"]
    cfg = _write_cfg(tmp_path, {"preset": "quadratic-exact", "grid": {"m": 17},
                                "outdir": str(tmp_path / "run")})
    for check, passed in (({"sup_error": 1e-30}, False), ({"runtime_s": 1e-9}, True)):
        monkeypatch.setitem(PIPELINES, "quadratic_exact",
                            spec._replace(check={**spec.check, **check}))
        assert main(["flow", "run", "--config", str(cfg)]) == 0
        assert main(["flow", "run", "--config", str(cfg), "--check"]) == 4
        assert f'"key": "{next(iter(check))}"' in capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["passed"] is passed and "runtime_s" not in json.dumps(report)


@pytest.mark.parametrize("preset, line, message", [
    # the expander and analysis parameters are constants, no config keys: an
    # unknown section is named by the dotted keys it sets
    ("expander-stationarity", "expander.slope0 = 0.0",
     "unknown config keys ['expander.slope0']"),
    ("quadratic-exact", "initial.A = [[1.0]]", "initial.A"),  # n = 2
    ("quadratic-exact", "initial.b = [1.0]", "initial.b"),
    ("quadratic-exact", "initial.b = [1.0, 0.0, 0.0]", "initial.b"),
    # a run snapshots at its snapshot times and t_end only, so too few for
    # the pipeline are refused: three for duality, five from t = 0.25 for decay
    ("legendre-duality", "flow.snapshot_times = [0.5]", "flow.snapshot_times"),
    ("decay-rates", "flow.snapshot_times = [1.0]", "flow.snapshot_times"),
    # flow takes no step-count sampling key
    ("condition-b-preservation", "flow.store_every = -3",
     "unknown flow keys ['store_every']"),
    ("condition-b-preservation", "flow.monitor_every = 2.5",
     "unknown flow keys ['monitor_every']"),
    # the stage fraction and the retry budget are no flow keys
    ("condition-b-preservation", "flow.safety = -1.0", "flow keys ['safety']"),
    ("condition-b-preservation", "flow.max_halvings = 2.5", "flow keys ['max_halvings']"),
    # a key whose default is a number takes only finite numbers
    ("expander-stationarity", "expander.slope0 = x", "expander.slope0"),
    ("condition-b-preservation", "initial.amplitude = big", "initial.amplitude"),
    ("condition-b-preservation", "flow.t_end = soon", "flow.t_end"),
    ("condition-b-preservation", "initial.amplitude = NaN", "initial.amplitude"),
    ("quadratic-exact", "initial.c = Infinity", "initial.c"),
    # matrices, vectors and seeds take finite entries
    ("quadratic-exact", "initial.A = [[NaN, 0], [0, 1]]", "initial.A"),
    ("quadratic-exact", "initial.b = [Infinity, 0]", "initial.b"),
    ("mcf-correspondence", "mcf.seeds = [[NaN]]", "mcf.seeds"),
    # a key whose default is None takes null or a finite number
    ("mcf-correspondence", "mcf.t_start = x", "mcf.t_start"),
    ("expander-cross-validation", "expander.r_max = x", "expander.r_max"),
    # a key whose default is a list takes a list of finite numbers
    ("condition-b-preservation", "flow.snapshot_times = x", "flow.snapshot_times"),
    ("condition-b-preservation", 'flow.snapshot_times = ["a"]', "flow.snapshot_times"),
    ("expander-stationarity", "expander.times = x", "expander.times"),
    ("expander-stationarity", 'expander.times = [1.0, "b"]', "expander.times"),
    # the residual times must exist and be positive
    ("expander-stationarity", "expander.times = []", "expander.times"),
    ("expander-stationarity", "expander.times = [-1.0]", "expander.times"),
    # the thresholds and the snapshot format are no config keys
    ("condition-b-preservation", "check = 3", "unknown config keys ['check']"),
    ("condition-b-preservation", "check.drift = NaN", "unknown config keys ['check.drift']"),
    ("decay-rates", "check.exponent3 = [1.0]", "unknown config keys ['check.exponent3']"),
    ("decay-rates", "check.exponent3 = [-0.7, -1.3]",
     "unknown config keys ['check.exponent3']"),
    ("quadratic-exact", "check.runtime_s = 1e9", "unknown config keys ['check.runtime_s']"),
    ("quadratic-exact", 'snapshot_format = "csv"', "unknown config keys ['snapshot_format']"),
    # particle transport starts inside the run
    ("mcf-correspondence", "mcf.t_start = 5.0", "mcf.t_start"),
    # snapshots lie inside the run, and the blow-down verdict has a pair to compare
    ("condition-b-preservation", "flow.snapshot_times = [-1.0, 99.0]",
     "flow.snapshot_times"),
    ("blowdown-convergence", "analysis.monotone_from = 40", "analysis.monotone_from"),
    ("blowdown-convergence", "flow.snapshot_times = [8.0]", "flow.snapshot_times gives 2"),
    # numbers out of their key's range: positive, nonnegative integer, [0, 1]
    ("blowdown-convergence", "analysis.window = -1.0", "analysis.window"),
    ("heat-oracle", "flow.t_end = 0.0", "flow.t_end"),
    ("condition-b-preservation", "flow.t_end = -1.0", "flow.t_end"),
    ("expander-stationarity", "expander.dt_probe = -1e-3", "expander.dt_probe"),
    ("condition-b-preservation", "flow.tau = 1.5", "flow.tau"),
    # a section is an object of keys, and seed builds a generator
    ("condition-b-preservation", "grid = 5", "grid must be an object"),
    ("condition-b-preservation", "seed = x", "seed must be a nonnegative integer"),
    ("condition-b-preservation", "seed = -1", "seed must be a nonnegative integer"),
    ("condition-b-preservation", "seed = 1.5", "seed must be a nonnegative integer"),
    # grid counts are integral numbers and L a number, never coerced
    ("condition-b-preservation", "grid.m = 65.5", "m must be an integer"),
    ("condition-b-preservation", "grid.n = 1.5", "n must be an integer"),
    ("condition-b-preservation", "grid.L = true", "L must be a number"),
    ("condition-b-preservation", 'grid.m = "65"', "m must be a number"),
    # the grid takes n, L and m; the box's margin is no key
    ("condition-b-preservation", "grid.margin = 1.7", "unknown grid keys ['margin']"),
])
def test_bad_input_exits_2_before_any_run(tmp_path, capsys, preset, line, message):
    # a good config listed first does not run either
    good = tmp_path / "good.txt"
    good.write_text(f"preset = quadratic-exact\noutdir = {tmp_path / 'good'}\n")
    p = tmp_path / "cfg.txt"
    p.write_text(f"preset = {preset}\n{line}\noutdir = {tmp_path / 'run'}\n")
    assert main(["flow", "run", "--config", str(good), str(p), "--check"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "good").exists()


def test_config_error_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, {"pipeline": "flow", "grid": {"n": 1, "L": 1.0, "m": 3}})
    assert main(["flow", "run", "--config", str(cfg)]) == 2


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["flow", "run", "--config", str(cfg)]) == 2
    assert "a config is an object of keys, got list" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ({"pipeline": ["flow"]}, "unknown pipeline"),
    ({"preset": ["heat-oracle"]}, "unknown preset"),
    ({"preset": "heat-oracle", "outdir": 5}, "outdir must be a string"),
])
def test_top_level_values_of_the_wrong_type_raise_config_error(data, message):
    with pytest.raises(ConfigError, match=message):
        load_config(data)


def _monitor_rows(rundir: Path) -> list[dict]:
    """A run directory's monitors.csv, one dict of floats per row."""
    with open(rundir / "monitors.csv", newline="") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def test_condition_b_drift_reads_every_monitored_state(tmp_path, monkeypatch):
    # criterion 2's planted fault (an unstable step fraction under a loose
    # error tolerance) fails, and its drift is the one the persisted monitors
    # give: a row for the initial data and for every accepted state
    monkeypatch.setattr("logflow.flow._ERROR_TOL", 1e3)
    monkeypatch.setattr("logflow.flow._SAFETY", 1.4)
    cfg = _write_cfg(tmp_path, {"preset": "condition-b-preservation",
                                "outdir": str(tmp_path / "run")})
    assert main(["flow", "run", "--check", "--config", str(cfg)]) == 4
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    rows = _monitor_rows(tmp_path / "run")
    assert len(rows) == report["counters"]["accepted_steps"] + 1
    lam0, Lam0 = rows[0]["lambda_min"], rows[0]["lambda_max"]
    assert (report["lambda_initial"], report["Lambda_initial"]) == (lam0, Lam0)
    assert report["undershoot"] == max(0.0, lam0 - min(r["lambda_min"] for r in rows))
    assert report["overshoot"] == max(0.0, max(r["lambda_max"] for r in rows) - Lam0)
    assert report["drift"] > PIPELINES["condition_b"].check["drift"]


def test_every_flow_preset_monitors_each_accepted_state(tmp_path):
    # one monitor row for the initial data and one for every accepted state,
    # in time order, the last at t_end
    names = [n for n in preset_names()
             if PIPELINES[experiment_preset(n)["pipeline"]].evolves]
    assert len(names) == 8
    configs = []
    for name in names:
        configs.append(tmp_path / f"{name}.json")
        configs[-1].write_text(json.dumps({"preset": name}))
    assert main(["flow", "run", "--outdir", str(tmp_path / "runs"), "--config",
                 *map(str, configs)]) == 0
    for name in names:
        rundir = tmp_path / "runs" / name
        report = json.loads((rundir / "report.json").read_text())
        t = [row["t"] for row in _monitor_rows(rundir)]
        assert len(t) == report["counters"]["accepted_steps"] + 1, name
        assert all(a < b for a, b in zip(t, t[1:])), name
        assert t[-1] == experiment_preset(name)["flow"]["t_end"], name


@pytest.mark.parametrize("preset, flow", [
    ("condition-b-preservation", {"stepper": "rk3"}),
    ("mcf-correspondence", {"stepper": "rkc"}),
    ("condition-b-preservation", {"max_dt": 0.125}),
], ids=["stepper-rk3", "stepper-rkc", "max_dt"])
def test_stepper_and_max_dt_are_no_flow_keys(tmp_path, capsys, preset, flow):
    # one error-controlled stepper: neither the stepper nor its step is set
    cfg = _write_cfg(tmp_path, {"preset": preset, "flow": flow,
                                "outdir": str(tmp_path / "run")})
    assert main(["flow", "run", "--config", str(cfg)]) == 2
    assert "unknown flow keys" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("preset, line", [
    ("condition-b-preservation", "flow.t_ned = 1"),
    ("condition-b-preservation", "check.drfit = 1e-30"),
    ("blowdown-convergence", "analysis.windw = 1.0"),
    ("mcf-correspondence", "mcf.seed = [[0.0]]"),
    ("expander-stationarity", "expander.rmax = 2.5"),
    ("condition-b-preservation", "initial.amplitde = 0.1"),
    ("condition-b-preservation", "grid.margn = 2"),
    ("expander-stationarity", "flow.t_end = 5.0"),
    ("expander-cross-validation", "initial.kind = quadratic"),
    ("mcf-correspondence", "flow.observe = 1"),
], ids=lambda v: v.split(" ")[0] if "=" in v else None)
def test_unknown_flow_key_exit_code(tmp_path, preset, line):
    # one mistyped key per section, a section the expander pipelines do not
    # read, and run's observer, which is no config key; each is a
    # configuration error
    p = tmp_path / "cfg.txt"
    p.write_text(f"preset = {preset}\n{line}\noutdir = {tmp_path / 'run'}\n")
    assert main(["flow", "run", "--config", str(p)]) == 2
    assert not (tmp_path / "run").exists()


def test_bad_boundary_rejected_before_any_run(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"preset": "heat-oracle"}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "heat-oracle", "boundary": "frozen"}))
    runs = tmp_path / "runs"
    assert main(["flow", "run", "--config", str(good), str(bad),
                 "--outdir", str(runs)]) == 2
    # the ring comes from the initial data: boundary is an unknown key
    assert "unknown config keys ['boundary']" in capsys.readouterr().err
    assert not runs.exists()


@pytest.mark.parametrize("pipeline, grid", [
    ("expander_cross", {"n": 2, "L": 1.5, "m": 17}),
    ("expander_stationarity", {"n": 1, "L": 2.5, "m": 17}),
], ids=["expander_cross", "expander_stationarity"])
def test_profile_short_of_the_box_corners_refused(tmp_path, capsys, pipeline, grid):
    # at n = 2, L = 1.5 the corners lie at radius 2.12, and the line of
    # half-width 2.5 reaches 2.5 at t = 1: an r_max of 2 would leave them past
    # the profile's end, but the radius is no key; the profile always
    # reaches them
    cfg = {"pipeline": pipeline, "grid": grid, "outdir": str(tmp_path / "run")}
    short = _write_cfg(tmp_path, {**cfg, "expander": {"r_max": 2.0}})
    assert main(["flow", "run", "--check", "--config", str(short)]) == 2
    assert "unknown config keys ['expander.r_max']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    default = _write_cfg(tmp_path, cfg)
    assert main(["flow", "run", "--check", "--config", str(default)]) == 0
    assert json.loads((tmp_path / "run" / "report.json").read_text())["passed"]


def test_cross_validation_preset_runs_at_n2(tmp_path):
    # the profile is integrated past the largest radius read, so at n = 2 it
    # reaches the corners, and the preset sets nothing but the grid; the
    # acceptance gate runs the refinement pair at n = 2, on m = 65 -> 129
    cfg = _write_cfg(tmp_path, {"preset": "expander-cross-validation", "grid": {"n": 2},
                                "outdir": str(tmp_path / "run")})
    assert main(["flow", "run", "--config", str(cfg)]) == 0
    written = json.loads((tmp_path / "run" / "config.json").read_text())
    assert "expander" not in written and written["grid"]["n"] == 2
    assert json.loads((tmp_path / "run" / "report.json").read_text())["passed"]


def test_missing_t_end_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "pipeline": "condition_b",
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0},
        "outdir": str(tmp_path / "run"),
    })
    assert main(["flow", "run", "--config", str(cfg)]) == 2
    assert "flow.t_end" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_t_end_rejected_before_any_run(tmp_path, capsys):
    # the oracle pipeline needs flow.t_end like every pipeline that evolves data
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"preset": "heat-oracle"}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pipeline": "heat_oracle",
                               "grid": {"n": 1, "L": 4.0, "m": 33},
                               "initial": {"kind": "quadratic_plus_bump", "A": 1.0},
                               "flow": {"tau": 0.0}}))
    runs = tmp_path / "runs"
    assert main(["flow", "run", "--config", str(good), str(bad),
                 "--outdir", str(runs)]) == 2
    assert "flow.t_end" in capsys.readouterr().err
    assert not runs.exists()


@pytest.mark.parametrize("seeds", [[], [[0.1, 0.2]], [[0.1], [0.2, 0.3]]],
                         ids=["empty", "wrong-length", "ragged"])
def test_bad_mcf_seeds_exit_config(tmp_path, capsys, seeds):
    cfg = _write_cfg(tmp_path, {"preset": "mcf-correspondence", "mcf": {"seeds": seeds},
                                "outdir": str(tmp_path / "run")})
    assert main(["flow", "run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mcf.seeds" in err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    """A short n = 1 run snapshot at six uniform times: enough for mcf
    reconstruct."""
    root = tmp_path_factory.mktemp("dense")
    cfg = _write_cfg(root, {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0},
        "flow": {"tau": 1.0, "t_end": 0.05,
                 "snapshot_times": np.linspace(0.0, 0.05, 6).tolist()},
        "outdir": str(root / "run"),
    })
    assert main(["flow", "run", "--config", str(cfg)]) == 0
    return root / "run"


@pytest.mark.parametrize("text", [None, "not json", '[["a"]]', "[[0.0, 1.0]]", "[]",
                                  "[[0.1], [0.2, 0.3]]"],
                         ids=["missing", "not-json", "not-numbers", "wrong-length",
                              "empty", "ragged"])
def test_bad_reconstruct_seeds_exit_config(tmp_path, capsys, dense_run, text):
    # the seeds file takes what loading takes for mcf.seeds: a non-empty list
    # of points with the run's n coordinates each
    seeds = tmp_path / "seeds.json"
    if text is not None:
        seeds.write_text(text)
    before = sorted(p.name for p in dense_run.iterdir())
    assert main(["mcf", "reconstruct", "--trajectory", str(dense_run),
                 "--seeds", str(seeds)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seeds" in err
    assert sorted(p.name for p in dense_run.iterdir()) == before


@pytest.mark.parametrize("argv, message", [
    (["analyze", "decay", "--trajectory", "run", "--order", "5"], "invalid choice: 5"),
    (["analyze", "plane", "--trajectory", "run", "--window", "-1"],
     "--window: must be positive, got -1"),
    (["analyze", "plane", "--trajectory", "run", "--window", "0"],
     "--window: must be positive, got 0"),
    # every comparison with NaN is false: it would pass an order check or
    # silently mean no window start
    (["analyze", "plane", "--trajectory", "run", "--window", "nan"],
     "--window: must be a finite number, got nan"),
    (["mcf", "reconstruct", "--trajectory", "run", "--seeds", "s.json",
      "--t-start", "nan"], "--t-start: must be a finite number, got nan"),
    (["analyze", "condition", "--input", "u.snap", "--lambda", "nan", "--Lambda", "2"],
     "--lambda: must be a finite number, got nan"),
    (["analyze", "condition", "--input", "u.snap", "--lambda", "1", "--Lambda", "inf"],
     "--Lambda: must be a finite number, got inf"),
], ids=["order-5", "window-negative", "window-0", "window-nan", "t-start-nan",
        "lambda-nan", "Lambda-inf"])
def test_bad_command_arguments_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    # refused while the command line is parsed, before any file is touched
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["expander", "certify"],
    ["legendre", "transform", "--output", "ustar.snap"],
    ["analyze", "condition", "--lambda", "1", "--Lambda", "2"],
], ids=["certify", "transform", "condition"])
def test_missing_input_snapshot_exits_with_missing_artifact(tmp_path, capsys,
                                                            monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--input", "missing.snap"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.snap: cannot read the snapshot" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("outdir", ["afile", "afile/x"])
def test_outdir_below_a_file_rejected_before_any_run(tmp_path, capsys, outdir):
    (tmp_path / "afile").write_text("a regular file")
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"preset": "heat-oracle", "outdir": str(tmp_path / "good")}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "heat-oracle", "outdir": str(tmp_path / outdir)}))
    before = sorted(p.name for p in tmp_path.iterdir())
    for argv in (["--config", str(good), str(bad)],
                 ["--config", str(good), "--outdir", str(tmp_path / outdir)]):
        assert main(["flow", "run", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is not a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (tmp_path / "afile").read_text() == "a regular file"


def test_integer_tau_and_t_end_match_floats(tmp_path):
    # JSON integers for flow.tau and flow.t_end run the same flow, bit for bit
    files = []
    for tag, flow in (("float", {"tau": 1.0, "t_end": 8.0}), ("int", {"tau": 1, "t_end": 8})):
        cfg = _write_cfg(tmp_path, {"preset": "decay-rates", "flow": flow,
                                    "outdir": str(tmp_path / tag)})
        assert main(["flow", "run", "--config", str(cfg)]) == 0
        rundir = tmp_path / tag
        files.append({p.name: p.read_bytes() for p in rundir.iterdir()
                      if p.name == "report.json" or p.suffix == ".snap"})
    assert len(files[0]) > 2
    assert files[0] == files[1]


def test_expander_certify_cross_validation_snapshot(tmp_path):
    # the Newton solution the cross-validation run writes certifies as the run
    # did: a non-quadratic expander with the same bounds and w range
    run = tmp_path / "run"
    preset = Path(__file__).resolve().parents[1] / "presets" / "expander-cross-validation.json"
    assert main(["flow", "run", "--config", str(preset), "--outdir", str(run)]) == 0
    snap, = run.glob("aux_*.snap")
    out = tmp_path / "certification.json"
    assert main(["expander", "certify", "--input", str(snap), "--output", str(out)]) == 0
    cert = json.loads(out.read_text())
    expected = json.loads((run / "report.json").read_text())["certification"]
    assert cert["is_quadratic"] is False
    for key in ("lambda_min", "lambda_max", "w_range"):
        assert cert[key] == expected[key]


def test_legendre_transform_cli(tmp_path):
    from logflow.grid import BoxDomain, GridFunction
    from logflow.snapshots import write_snapshot
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    u = GridFunction(dom, 0.5 * dom.axis ** 2, label="u")
    src = tmp_path / "u.snap"
    dst = tmp_path / "ustar.snap"
    write_snapshot(src, u, t=0.0, tau=1.0)
    assert main(["legendre", "transform", "--input", str(src),
                 "--output", str(dst)]) == 0
    from logflow.snapshots import read_snapshot
    star, _ = read_snapshot(dst)
    grids = star.domain.meshgrid()
    assert np.max(np.abs(star.values - 0.5 * grids[0] ** 2)) < 1e-10


@pytest.mark.parametrize("dst, message", [("missing/o.snap", "does not exist"),
                                          (".", "is a directory")])
def test_legendre_transform_to_unwritable_output_exits_config(tmp_path, capsys,
                                                              dst, message):
    from logflow.grid import BoxDomain, GridFunction
    from logflow.snapshots import write_snapshot
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    src = tmp_path / "u.snap"
    write_snapshot(src, GridFunction(dom, 0.5 * dom.axis ** 2), t=0.0, tau=1.0)
    assert main(["legendre", "transform", "--input", str(src),
                 "--output", str(tmp_path / dst)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.snap"]


def test_truncated_snapshot_exits_with_missing_artifact(tmp_path):
    from logflow.grid import BoxDomain, GridFunction
    from logflow.snapshots import write_snapshot
    dom = BoxDomain(n=2, half_width=2.0, m=33)
    x, y = dom.meshgrid()
    src = tmp_path / "u.snap"
    dst = tmp_path / "ustar.snap"
    write_snapshot(src, GridFunction(dom, 0.5 * (x ** 2 + y ** 2)), t=0.0, tau=1.0)
    src.write_bytes(src.read_bytes()[:2000])
    assert main(["legendre", "transform", "--input", str(src),
                 "--output", str(dst)]) == 3
    assert not dst.exists()


@pytest.mark.parametrize("tamper", [
    lambda b: b[:2000],             # a prefix drops rows
    lambda b: b[:-3],               # a cut inside the last row keeps the count
    lambda b: b[:-2] + b"x\n",      # an unreadable value
], ids=["prefix", "cut-last-row", "bad-number"])
def test_damaged_csv_snapshot_exits_with_missing_artifact(tmp_path, tamper):
    from logflow.grid import BoxDomain, GridFunction
    from logflow.snapshots import read_snapshot, write_snapshot
    dom = BoxDomain(n=2, half_width=2.0, m=33)
    x, y = dom.meshgrid()
    src = tmp_path / "u.csv"
    dst = tmp_path / "ustar.snap"
    write_snapshot(src, GridFunction(dom, 0.5 * (x ** 2 + y ** 2)), fmt="csv")
    src.write_bytes(tamper(src.read_bytes()))
    with pytest.raises(MissingArtifact):
        read_snapshot(src)
    assert main(["legendre", "transform", "--input", str(src),
                 "--output", str(dst)]) == 3
    assert not dst.exists()


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_snapshot_exits_with_missing_artifact(tmp_path, fmt, bad):
    from logflow.grid import BoxDomain, GridFunction
    from logflow.snapshots import read_snapshot, write_snapshot
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    x, y = dom.meshgrid()
    src = tmp_path / "u.snap"
    dst = tmp_path / "ustar.snap"
    write_snapshot(src, GridFunction(dom, 0.5 * (x ** 2 + y ** 2)), fmt=fmt)
    if fmt == "binary":
        src.write_bytes(src.read_bytes()[:-8] + np.array([bad], dtype="<f8").tobytes())
    else:
        lines = src.read_text().splitlines()
        lines[-1] = f"{lines[-1].rsplit(',', 1)[0]},{bad!r}"
        src.write_text("\n".join(lines) + "\n")
    with pytest.raises(MissingArtifact, match="non-finite"):
        read_snapshot(src)
    assert main(["legendre", "transform", "--input", str(src),
                 "--output", str(dst)]) == 3
    assert not dst.exists()


def _drop(key):
    return lambda head: json.dumps({k: v for k, v in head.items() if k != key})


@pytest.mark.parametrize("tamper", [
    lambda head: "{garbage",
    _drop("n"), _drop("L"), _drop("m"), _drop("format"),
    lambda head: json.dumps(dict(head, kind="something-else")),
    lambda head: json.dumps(dict(head, m=3)),   # BoxDomain needs m >= 5
    lambda head: json.dumps(dict(head, m=65.5)),
], ids=["not-json", "no-n", "no-L", "no-m", "no-format", "wrong-kind", "bad-grid",
        "fractional-m"])
def test_malformed_snapshot_header_exits_with_missing_artifact(tmp_path, tamper):
    from logflow.grid import BoxDomain, GridFunction
    from logflow.snapshots import read_snapshot, write_snapshot
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    x, y = dom.meshgrid()
    src = tmp_path / "u.snap"
    dst = tmp_path / "ustar.snap"
    write_snapshot(src, GridFunction(dom, 0.5 * (x ** 2 + y ** 2)), t=0.0, tau=1.0)
    first, rest = src.read_bytes().split(b"\n", 1)
    src.write_bytes(tamper(json.loads(first)).encode("utf-8") + b"\n" + rest)
    with pytest.raises(MissingArtifact):
        read_snapshot(src)
    assert main(["legendre", "transform", "--input", str(src),
                 "--output", str(dst)]) == 3
    assert not dst.exists()


def test_analyze_condition_cli(tmp_path):
    from logflow.grid import BoxDomain, GridFunction
    from logflow.snapshots import write_snapshot
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    u = GridFunction(dom, 0.5 * dom.axis ** 2)
    src = tmp_path / "u.snap"
    write_snapshot(src, u)
    assert main(["analyze", "condition", "--input", str(src),
                 "--lambda", "1.0", "--Lambda", "1.0"]) == 0
    assert main(["analyze", "condition", "--input", str(src),
                 "--lambda", "2.0", "--Lambda", "3.0"]) == 4


def test_analyze_condition_with_inverted_bounds_exits_config(tmp_path, capsys):
    from logflow.grid import BoxDomain, GridFunction
    from logflow.snapshots import write_snapshot
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    src = tmp_path / "u.snap"
    write_snapshot(src, GridFunction(dom, 0.5 * dom.axis ** 2))
    assert main(["analyze", "condition", "--input", str(src),
                 "--lambda", "3", "--Lambda", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--lambda 3 exceeds --Lambda 2" in err


def test_emit_requires_artifacts(tmp_path):
    with pytest.raises(MissingArtifact):
        emit_plotdata(tmp_path)


def test_mcf_reconstruct_cli(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": 1.0, "t_end": 0.05,
                 "snapshot_times": np.linspace(0.0, 0.05, 11).tolist()},
        "outdir": str(tmp_path / "run"),
    })
    assert main(["flow", "run", "--config", str(cfg)]) == 0
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[[0.2], [-0.3]]")
    assert main(["mcf", "reconstruct", "--trajectory", str(tmp_path / "run"),
                 "--seeds", str(seeds)]) == 0
    assert (tmp_path / "run" / "paths.csv").exists()
    assert (tmp_path / "run" / "mcf_report.json").exists()
    # a window past the last snapshot is a numerical abort with one line
    capsys.readouterr()
    assert main(["mcf", "reconstruct", "--trajectory", str(tmp_path / "run"),
                 "--seeds", str(seeds), "--t-start", "5.0"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "three stored snapshots" in err
    assert "re-run the flow with a uniform grid of flow.snapshot_times" in err


@pytest.mark.parametrize("tau", [1.0, 0.5])
def test_legendre_check_dual_cli_prints_the_run_tau(tmp_path, capsys, tau):
    # the residual is that of the tau = 1 equation; a run at another tau
    # reads a large one, and the printed tau says why
    cfg = _write_cfg(tmp_path, {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": tau, "t_end": 0.05, "snapshot_times": [0.0, 0.025, 0.05]},
        "outdir": str(tmp_path / "run"),
    })
    assert main(["flow", "run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["legendre", "check-dual", "--trajectory", str(tmp_path / "run")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["dual_residual", "tau"] and out["tau"] == tau
    assert (out["dual_residual"] < 0.01) == (tau == 1.0)
    assert (out["dual_residual"] > 0.1) == (tau != 1.0)


def _manifest_mismatches(rundir: Path) -> dict:
    """Each file of a run directory whose sha256 the manifest does not
    list, mapped to (listed, actual); the manifest lists itself as nothing."""
    listed = {e["name"]: e["sha256"] for e in
              json.loads((rundir / "manifest.json").read_text())["files"]}
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in rundir.iterdir() if p.name != "manifest.json"}
    return {name: (listed.get(name), actual.get(name))
            for name in listed.keys() | actual.keys()
            if listed.get(name) != actual.get(name)}


def test_commands_writing_into_a_run_directory_rewrite_its_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": 1.0, "t_end": 0.5,
                 "snapshot_times": np.linspace(0.0, 0.5, 51).tolist()},
        "outdir": str(tmp_path / "run"),
    })
    rundir = tmp_path / "run"
    assert main(["flow", "run", "--config", str(cfg)]) == 0
    assert _manifest_mismatches(rundir) == {}
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[[0.2], [-0.3]]")
    for argv in (["analyze", "decay", "--trajectory", str(rundir), "--order", "3"],
                 ["analyze", "plane", "--trajectory", str(rundir)],
                 ["mcf", "reconstruct", "--trajectory", str(rundir), "--seeds", str(seeds)],
                 ["emit", str(rundir)]):
        assert main(argv) == 0
        assert _manifest_mismatches(rundir) == {}, argv
    written = {"ratefit.json", "plane_report.json", "paths.csv", "mcf_report.json",
               "plotdata.csv"}
    assert written <= {e["name"] for e in
                       json.loads((rundir / "manifest.json").read_text())["files"]}


def test_analyze_decay_merges_its_fit_into_the_pipeline_fits(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "preset": "decay-rates", "grid": {"m": 65},
        "flow": {"t_end": 4.0, "snapshot_times": [0.25, 0.5, 1.0, 2.0, 4.0]},
        "outdir": str(tmp_path / "run")})
    rundir = tmp_path / "run"
    assert main(["flow", "run", "--config", str(cfg)]) == 0
    before = json.loads((rundir / "ratefit.json").read_text())
    assert [f["quantity"] for f in before] == ["D3norm2", "D4norm2"]
    capsys.readouterr()
    assert main(["analyze", "decay", "--trajectory", str(rundir), "--order", "3"]) == 0
    printed = json.loads(capsys.readouterr().out)
    after = json.loads((rundir / "ratefit.json").read_text())
    assert [f["quantity"] for f in after] == ["D3norm2", "D4norm2"]
    assert after == [printed, before[1]]
    assert _manifest_mismatches(rundir) == {}
    # a ratefit.json that is not a list of fits is refused, not overwritten
    (rundir / "ratefit.json").write_text('{"D3norm2": 1}')
    assert main(["analyze", "decay", "--trajectory", str(rundir)]) == 3
    assert "not a list of rate fits" in capsys.readouterr().err


def test_numerical_abort_exit_code_and_last_good_state(tmp_path, monkeypatch):
    # a reckless stage fraction forces step rejection; with no retries allowed
    # the run aborts, exits 3 and persists the last accepted state
    monkeypatch.setattr("logflow.flow._SAFETY", 200.0)
    monkeypatch.setattr("logflow.flow._MAX_RETRIES", 0)
    cfg = _write_cfg(tmp_path, {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.12, "width": 0.7},
        "flow": {"tau": 1.0, "t_end": 1.0},
        "outdir": str(tmp_path / "abort"),
    })
    assert main(["flow", "run", "--config", str(cfg)]) == 3
    assert (tmp_path / "abort" / "last_good.snap").exists()
    report = json.loads((tmp_path / "abort" / "report.json").read_text())
    assert report["aborted"]
    assert _manifest_mismatches(tmp_path / "abort") == {}


def test_nonconvex_initial_data_exits_numerical(tmp_path):
    # amplitude 0.9 makes the data concave at the origin: tau = 1 cannot start
    cfg = _write_cfg(tmp_path, {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.9, "width": 1.0},
        "flow": {"tau": 1.0, "t_end": 0.1},
        "outdir": str(tmp_path / "bad"),
    })
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["flow", "run", "--config", str(cfg)]) == 3
