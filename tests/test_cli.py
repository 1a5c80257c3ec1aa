"""Configuration loading, the command-line surface, artifact round trips."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from logflow.cli import emit_plotdata, load_trajectory_dir, main
from logflow.config import ExperimentConfig, load_config, parse_keyvalue
from logflow.errors import ConfigError, MissingArtifact
from logflow.experiments import PIPELINES, finer_level
from logflow.flow import FLOW_KEYS
from logflow.presets import experiment_preset, preset_names


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_round_trips_losslessly():
    cfg = load_config({"preset": "quadratic-exact"})
    clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert clone.to_dict() == cfg.to_dict()


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
    "legendre-duality": {"quadratic_residual": 1e-8, "bump_residual": 1e-2},
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
        assert cfg.check == FROZEN_THRESHOLDS[name]
        assert "check" not in experiment_preset(name)


# each refined preset's refinement pair: (measured key, ratio, floor, finer m,
# whether the finer level halves the snapshot spacing)
REFINEMENTS = {
    "condition-b-preservation": ("drift", 3.0, 1e-6, 129, False),
    "heat-oracle": ("sup_diff", 3.0, 0.0, 129, False),
    "expander-stationarity": ("residuals", 3.0, 0.0, 129, False),
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


def test_settable_surface_is_pinned():
    # adding or removing a top-level config key or a flow key shows up here
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "pipeline", "grid", "initial", "flow", "expander", "mcf", "analysis",
        "check", "seed", "snapshot_format", "outdir", "preset"]
    assert list(FLOW_KEYS) == [
        "tau", "t_end", "stepper", "safety", "max_dt", "snapshot_times",
        "store_every", "monitor_every", "monitor_window", "max_halvings"]


def test_range_table_bounds_declared_keys_and_admits_their_defaults():
    # a mistyped entry in the table of ranges would bound nothing
    from logflow.config import _RANGES
    from logflow.presets import INITIAL_FAMILIES
    declared = {"flow": [FLOW_KEYS], "initial": list(INITIAL_FAMILIES.values()),
                "expander": [p.expander for p in PIPELINES.values()],
                "analysis": [p.analysis for p in PIPELINES.values()]}
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
    # above); a number inside a comparison, or a float or a check override
    # among a row's overrides, would be a second copy
    path = Path(__file__).with_name("test_acceptance.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rows = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == "_row"]
    floats = [c.lineno for row in rows for c in ast.walk(row)
              if isinstance(c, ast.Constant) and isinstance(c.value, float)]
    overrides = [k.arg for row in rows for k in row.keywords if k.arg == "check"]
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


def test_check_mode_exit_code(tmp_path, capsys):
    # an impossible threshold fails the report; an impossible wall-time bound
    # fails only --check, and wall time never reaches report.json
    for check, passed in (({"sup_error": 1e-30}, False), ({"runtime_s": 1e-9}, True)):
        cfg = _write_cfg(tmp_path, {"preset": "quadratic-exact", "grid": {"m": 17},
                                    "check": check, "outdir": str(tmp_path / "run")})
        assert main(["flow", "run", "--config", str(cfg)]) == 0
        assert main(["flow", "run", "--config", str(cfg), "--check"]) == 4
        assert f'"key": "{next(iter(check))}"' in capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["passed"] is passed and "runtime_s" not in json.dumps(report)


@pytest.mark.parametrize("preset, line, message", [
    ("expander-stationarity", "grid.n = 2", "slope0"),  # the preset's slope0 = 0.5
    ("quadratic-exact", "initial.A = [[1.0]]", "initial.A"),  # n = 2
    ("quadratic-exact", "initial.b = [1.0]", "initial.b"),
    ("quadratic-exact", "initial.b = [1.0, 0.0, 0.0]", "initial.b"),
    # the finer level halves the snapshot spacing, even when stored states
    # would supply the three snapshots
    ("legendre-duality", "flow.snapshot_times = []\nflow.store_every = 50",
     "snapshot_times"),
    # a key whose default is a number takes only numbers
    ("expander-stationarity", "expander.slope0 = x", "expander.slope0"),
    ("condition-b-preservation", "initial.amplitude = big", "initial.amplitude"),
    ("condition-b-preservation", "flow.t_end = soon", "flow.t_end"),
    # a key whose default is None takes null or a number
    ("condition-b-preservation", "flow.max_dt = x", "flow.max_dt"),
    ("blowdown-convergence", "flow.monitor_window = x", "flow.monitor_window"),
    ("mcf-correspondence", "mcf.t_start = x", "mcf.t_start"),
    ("expander-cross-validation", "expander.r_max = x", "expander.r_max"),
    # a key whose default is a list takes a list of numbers
    ("condition-b-preservation", "flow.snapshot_times = x", "flow.snapshot_times"),
    ("condition-b-preservation", 'flow.snapshot_times = ["a"]', "flow.snapshot_times"),
    ("expander-stationarity", "expander.times = x", "expander.times"),
    ("expander-stationarity", 'expander.times = [1.0, "b"]', "expander.times"),
    # the residual times must exist and be positive
    ("expander-stationarity", "expander.times = []", "expander.times"),
    ("expander-stationarity", "expander.times = [-1.0]", "expander.times"),
    # a [lo, hi] bound takes two ordered numbers
    ("decay-rates", "check.exponent3 = [1.0]", "check.exponent3"),
    ("decay-rates", "check.exponent3 = [-0.7, -1.3]", "check.exponent3"),
    # particle transport starts inside the run
    ("mcf-correspondence", "mcf.t_start = 5.0", "mcf.t_start"),
    # numbers out of their key's range: positive, nonnegative integer, [0, 1]
    ("blowdown-convergence", "analysis.window = -1.0", "analysis.window"),
    ("heat-oracle", "flow.t_end = 0.0", "flow.t_end"),
    ("condition-b-preservation", "flow.t_end = -1.0", "flow.t_end"),
    ("expander-stationarity", "expander.dt_probe = -1e-3", "expander.dt_probe"),
    ("condition-b-preservation", "flow.safety = -1.0", "flow.safety"),
    ("condition-b-preservation", "flow.store_every = -3", "flow.store_every"),
    ("condition-b-preservation", "flow.monitor_every = 2.5", "flow.monitor_every"),
    ("condition-b-preservation", "flow.tau = 1.5", "flow.tau"),
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


def test_unknown_stepper_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, {"preset": "condition-b-preservation",
                                "flow": {"stepper": "rk3"},
                                "outdir": str(tmp_path / "run")})
    assert main(["flow", "run", "--config", str(cfg)]) == 2
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
], ids=lambda v: v.split(" ")[0] if "=" in v else None)
def test_unknown_flow_key_exit_code(tmp_path, preset, line):
    # one mistyped key per section, and a section the expander pipelines do
    # not read; each is a configuration error
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
    # the heat pipeline needs flow.t_end like every pipeline that evolves data
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"preset": "heat-oracle"}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pipeline": "heat", "grid": {"n": 1, "L": 4.0, "m": 33},
                               "initial": {"kind": "quadratic_plus_bump", "A": 1.0},
                               "flow": {"tau": 0.0}}))
    runs = tmp_path / "runs"
    assert main(["heat", "solve", "--config", str(good), str(bad),
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


def test_expander_shoot_and_certify(tmp_path):
    out = tmp_path / "prof"
    assert main(["expander", "shoot", "--n", "1", "--a", "-0.1",
                 "--rmax", "2.0", "--out", str(out)]) == 0
    rows = (out / "profile.csv").read_text().splitlines()
    assert rows[0] == "r,u,du,d2u"
    assert len(rows) > 100


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
], ids=["not-json", "no-n", "no-L", "no-m", "no-format", "wrong-kind", "bad-grid"])
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
        "flow": {"tau": 1.0, "t_end": 0.05, "store_every": 1},
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


def test_heat_solve_cli(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "pipeline": "heat",
        "grid": {"n": 1, "L": 4.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": 0.0, "t_end": 0.05},
        "outdir": str(tmp_path / "heat"),
    })
    assert main(["heat", "solve", "--config", str(cfg)]) == 0
    assert list((tmp_path / "heat").glob("aux_snapshot_*.snap"))


def test_numerical_abort_exit_code_and_last_good_state(tmp_path):
    # a reckless safety factor forces step rejection; with no halvings allowed
    # the run aborts, exits 3 and persists the last accepted state
    cfg = _write_cfg(tmp_path, {
        "pipeline": "flow",
        "grid": {"n": 1, "L": 3.0, "m": 33},
        "initial": {"kind": "quadratic_plus_bump", "A": 1.0,
                    "amplitude": 0.12, "width": 0.7},
        "flow": {"tau": 1.0, "t_end": 1.0, "stepper": "euler",
                 "safety": 200.0, "max_halvings": 0},
        "outdir": str(tmp_path / "abort"),
    })
    assert main(["flow", "run", "--config", str(cfg)]) == 3
    assert (tmp_path / "abort" / "last_good.snap").exists()
    report = json.loads((tmp_path / "abort" / "report.json").read_text())
    assert report["aborted"]


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
