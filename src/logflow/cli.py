"""Command-line entry point.

One binary: ``flow run`` runs every pipeline, whichever its config names, and
the other commands work on one snapshot or run directory::

    logflow flow run --config cfg.json [--check]
    logflow expander certify --input snapshot.snap
    logflow legendre transform --input u.snap --output ustar.snap
    logflow legendre check-dual --trajectory rundir
    logflow mcf reconstruct --trajectory rundir --seeds seeds.json
    logflow analyze decay --trajectory rundir --order 3
    logflow analyze plane --trajectory rundir
    logflow analyze condition --input u.snap --lambda 0.5 --Lambda 2.0
    logflow emit rundir

Configs are JSON or ``dotted.key = value`` text; ``{"preset": "<name>"}``
pulls a named experiment.  Exit codes: 0 success, 2 configuration error,
3 numerical abort, 4 threshold failure in ``--check`` mode, which also runs
a refined pipeline's finer level and judges the wall time.  Several configs
run one after another in this process, each into its own directory; every
preset at once is ``logflow flow run --config presets/*.json --outdir out``.
A ``--trajectory`` command reads a run directory's snapshots, not its
monitors or final flow state.  A run monitors every accepted state and
snapshots only at ``flow.snapshot_times`` and at ``flow.t_end``, so
``mcf reconstruct``, which needs densely sampled states, needs a run with a
uniform grid of ``flow.snapshot_times``; the mcf pipeline, streaming its
particles through the flow, stores none.  ``analyze decay`` merges its fit
into the run's ``ratefit.json`` by quantity, keeping the other fits.
``legendre check-dual`` prints the residual of the tau = 1 equation, whatever
the run's tau, and that tau beside it.  Every command that writes into a run
directory rewrites its ``manifest.json`` afterwards.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import analysis, expander, legendre, mcf
from .config import ExperimentConfig, check_seeds, load_config
from .errors import (AbortedNonConvex, ConfigError, InsufficientSamples, LogFlowError,
                     MissingArtifact)
from .experiments import PIPELINES, gate, judge, run_pipeline
from .flow import FLOW_KEYS, MonitorRecord, Trajectory
from .grid import gradient, hessian
from .snapshots import read_snapshot, write_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4


# ---------------------------------------------------------------------------
# artifact directory helpers
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(outdir: Path) -> None:
    entries = []
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json" or p.is_dir():
            continue
        entries.append({"name": p.name, "bytes": p.stat().st_size,
                        "sha256": _sha256(p)})
    manifest = {"created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "files": entries}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _write_monitors(outdir: Path, monitors) -> None:
    columns = [f.name for f in dataclasses.fields(MonitorRecord)]
    with open(outdir / "monitors.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for rec in monitors:
            writer.writerow([f"{getattr(rec, c):.17g}" for c in columns])


def _snapshot_name(idx: int, t) -> str:
    tag = "final" if t is None else f"{t:.12g}".replace(".", "p").replace("-", "m")
    return f"snapshot_{idx:04d}_t{tag}.snap"


def persist_run(outdir: Path, cfg: ExperimentConfig, report: dict,
                artifacts: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    # a run directory does not name its own location
    recorded = {k: v for k, v in cfg.to_dict().items() if k != "outdir"}
    (outdir / "config.json").write_text(json.dumps(recorded, indent=2, sort_keys=True))
    traj = artifacts.get("trajectory")
    tau = cfg.tau
    if traj is not None:
        _write_monitors(outdir, traj.monitors)
        for k, (t, u) in enumerate(traj.snapshots):
            write_snapshot(outdir / _snapshot_name(k, t), u, t=t, tau=tau)
    for k, (t, u) in enumerate(artifacts.get("snapshots", [])):
        write_snapshot(outdir / f"aux_{_snapshot_name(k, t)}", u, t=t, tau=tau)
    paths = artifacts.get("paths")
    if paths is not None:
        _write_paths_csv(outdir / "paths.csv", paths)
    fits = artifacts.get("ratefits")
    if fits:
        (outdir / "ratefit.json").write_text(json.dumps(
            [f.to_dict() for f in fits], indent=2))
    # wall-clock figures live in the manifest, never in the report, so that
    # identical configs reproduce identical reports
    persisted = {k: v for k, v in report.items() if k != "runtime_s"}
    (outdir / "report.json").write_text(json.dumps(persisted, indent=2,
                                                   sort_keys=True))
    _write_manifest(outdir)


def _write_paths_csv(path: Path, paths) -> None:
    n = paths.seeds.shape[1]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        head = (["path", "t"] + [f"r{i + 1}" for i in range(n)]
                + [f"F{i + 1}" for i in range(2 * n)])
        writer.writerow(head)
        for p in range(len(paths.seeds)):
            for k, t in enumerate(paths.times):
                row = [p, f"{t:.17g}"]
                row += [f"{v:.17g}" for v in paths.positions[k, p]]
                row += [f"{v:.17g}" for v in paths.F[k, p]]
                writer.writerow(row)


# ---------------------------------------------------------------------------
# trajectory directory loading
# ---------------------------------------------------------------------------

def load_trajectory_dir(path) -> tuple[Trajectory, float]:
    """Rebuild (trajectory, tau) from a persisted run directory: its
    snapshots, sorted by time, without a final flow state."""
    path = Path(path)
    if not path.is_dir():
        raise MissingArtifact(f"{path} is not a run directory")
    snaps = []
    tau = None
    for p in sorted(path.glob("snapshot_*.snap")):
        u, head = read_snapshot(p)
        snaps.append((head["t"], u))
        tau = head.get("tau", tau)
    if not snaps:
        raise MissingArtifact(f"no snapshots found in {path}")
    snaps.sort(key=lambda s: s[0])
    if tau is None:  # headers written without tau: the flow's default
        tau = FLOW_KEYS["tau"]
    return Trajectory(state=None, snapshots=snaps), tau


# ---------------------------------------------------------------------------
# tidy plot data
# ---------------------------------------------------------------------------

def emit_plotdata(artifact_dir) -> Path:
    """Long-format CSV (quantity, t, value) from a run directory."""
    outdir = Path(artifact_dir)
    monitors = outdir / "monitors.csv"
    ratefit = outdir / "ratefit.json"
    report = outdir / "report.json"
    if not outdir.is_dir() or not (monitors.exists() or report.exists()):
        raise MissingArtifact(f"{artifact_dir} has no monitors.csv or report.json")
    target = outdir / "plotdata.csv"
    rows = []
    if monitors.exists():
        with open(monitors, newline="") as f:
            for rec in csv.DictReader(f):
                t = rec["t"]
                for key in ("lambda_min", "lambda_max", "grad_sq_window",
                            "d3_norm", "residual"):
                    rows.append((key, t, rec[key]))
    if ratefit.exists():
        for fit in json.loads(ratefit.read_text()):
            for t, v in zip(fit["times"], fit["values"]):
                rows.append((fit["quantity"], f"{t:.17g}", f"{v:.17g}"))
    if report.exists():
        rep = json.loads(report.read_text())
        if "errors" in rep and "times" in rep:
            for t, v in zip(rep["times"], rep["errors"]):
                rows.append(("blowdown_error", f"{t:.17g}", f"{v:.17g}"))
        if "max_gradient" in rep:
            for t, v in zip(rep["times"], rep["max_gradient"]):
                rows.append(("max_gradient", f"{t:.17g}", f"{v:.17g}"))
    with open(target, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["quantity", "t", "value"])
        writer.writerows(rows)
    _write_manifest(outdir)
    return target


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_dir(path) -> Path:
    """A run directory, refused before any run when it, or the nearest of its
    parents that exists, is not a directory."""
    path = Path(path)
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"output directory {path}: {p} is not a directory")
            break
    return path


def _cmd_run_configs(args) -> int:
    """Load every config and check its run directory first, then run them one
    after another."""
    cfgs = []
    for p in args.config:
        cfg = load_config(p)
        if args.outdir:
            cfg.outdir = args.outdir if len(args.config) == 1 else str(
                Path(args.outdir) / Path(str(p)).stem)
        _run_dir(cfg.outdir)
        cfgs.append(cfg)
    status = EXIT_OK
    for cfg in cfgs:
        status = max(status, _run_one(cfg, args.check))
    return status


def _run_one(cfg: ExperimentConfig, check: bool) -> int:
    outdir = Path(cfg.outdir)
    try:
        report, artifacts, timing = gate(cfg) if check else (*run_pipeline(cfg), [])
    except AbortedNonConvex as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        if exc.state is not None:
            write_snapshot(outdir / "last_good.snap", exc.state.u,
                           t=exc.state.t, tau=exc.state.tau)
        (outdir / "report.json").write_text(json.dumps(
            {"error": str(exc), "aborted": True}, indent=2))
        _write_manifest(outdir)
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    persist_run(outdir, cfg, report, artifacts)
    print(json.dumps({k: v for k, v in report.items()
                      if not isinstance(v, (list, dict))}, indent=2))
    failed = [c for c in report["checks"] + timing if not c["ok"]]
    if check and failed:
        print("threshold check failed:", file=sys.stderr)
        for entry in failed:
            print(f"  {json.dumps(entry)}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _output_file(path) -> Path:
    """An output file path, refused before the computation when its directory
    is missing or it names a directory."""
    path = Path(path)
    if not path.parent.is_dir():
        raise ConfigError(f"output directory {path.parent} does not exist")
    if path.is_dir():
        raise ConfigError(f"output {path} is a directory")
    return path


def _cmd_expander_certify(args) -> int:
    u, head = read_snapshot(args.input)
    out = _output_file(args.output or Path(args.input).with_suffix(".certification.json"))
    rep = expander.certify(u)
    out.write_text(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    print(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_legendre_transform(args) -> int:
    u, head = read_snapshot(args.input)
    out = _output_file(args.output)
    star = legendre.legendre_transform(u, hessian(u), gradient(u))
    write_snapshot(out, star, t=head.get("t"), tau=head.get("tau"))
    print(f"conjugate written to {args.output}")
    return EXIT_OK


def _cmd_legendre_checkdual(args) -> int:
    traj, tau = load_trajectory_dir(args.trajectory)
    if len(traj.snapshots) < legendre.DUAL_SNAPSHOTS:
        raise ConfigError(f"need at least {legendre.DUAL_SNAPSHOTS} snapshots "
                          "for the duality check")
    res, _ = legendre.dual_flow_check(traj.snapshots[-legendre.DUAL_SNAPSHOTS:])
    print(json.dumps({"dual_residual": res, "tau": tau}, indent=2))
    return EXIT_OK


def _cmd_mcf_reconstruct(args) -> int:
    traj, tau = load_trajectory_dir(args.trajectory)
    try:
        seeds = json.loads(Path(args.seeds).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--seeds {args.seeds}: {exc}") from exc
    check_seeds(seeds, traj.snapshots[0][1].domain.n, "--seeds")
    try:
        transport = mcf.ParticleTransport(seeds, t_start=args.t_start)
        paths = mcf.integrate_particles(transport, traj.snapshots).paths()
    except InsufficientSamples as exc:
        # a run stores only what it is asked for, and its steps adapt
        raise InsufficientSamples(f"{exc}; re-run the flow with a uniform grid of "
                                  f"flow.snapshot_times for dense samples") from exc
    rep = mcf.verify_mcf(paths)
    outdir = Path(args.trajectory)
    _write_paths_csv(outdir / "paths.csv", paths)
    (outdir / "mcf_report.json").write_text(json.dumps({
        "max_deviation": rep.max_deviation,
        "max_tangential": rep.max_tangential,
        "max_normal": rep.max_normal,
        "per_path": rep.per_path}, indent=2))
    _write_manifest(outdir)
    print(json.dumps({"max_deviation": rep.max_deviation,
                      "tangential_ratio": rep.tangential_ratio}, indent=2))
    return EXIT_OK


def _cmd_analyze_decay(args) -> int:
    """Fit the order's decay and merge it into ``ratefit.json`` by quantity:
    a fit of the same quantity is replaced in place, the others are kept."""
    traj, tau = load_trajectory_dir(args.trajectory)
    fit = analysis.fit_decay(traj, order=args.order)
    out = Path(args.trajectory) / "ratefit.json"
    fits = {}
    if out.exists():
        try:
            fits = {f["quantity"]: f for f in json.loads(out.read_text())}
        except (ValueError, TypeError, KeyError) as exc:
            raise MissingArtifact(f"{out} is not a list of rate fits: {exc}") from exc
    fits[fit.quantity] = fit.to_dict()
    out.write_text(json.dumps(list(fits.values()), indent=2))
    _write_manifest(out.parent)
    print(json.dumps(fit.to_dict(), indent=2))
    return EXIT_OK


def _cmd_analyze_plane(args) -> int:
    traj, tau = load_trajectory_dir(args.trajectory)
    rep = analysis.plane_convergence(traj, window_half=args.window)
    checks = judge(PIPELINES["plane"].check, rep.measured())
    result = {**rep.to_dict(), "checks": checks,
              "passed": all(c["ok"] for c in checks)}
    out = Path(args.trajectory) / "plane_report.json"
    out.write_text(json.dumps(result, indent=2))
    _write_manifest(out.parent)
    print(json.dumps({k: v for k, v in result.items()
                      if not isinstance(v, list)}, indent=2))
    return EXIT_OK


def _cmd_analyze_condition(args) -> int:
    if args.lam > args.Lam:
        raise ConfigError(f"--lambda {args.lam:g} exceeds --Lambda {args.Lam:g}")
    u, head = read_snapshot(args.input)
    rep = analysis.check_condition_B(u, args.lam, args.Lam)
    defect = None
    try:
        defect = analysis.check_condition_A(u)
    except LogFlowError:
        pass
    out = {"condition_B": rep.to_dict(), "condition_A_defect": defect}
    print(json.dumps(out, indent=2))
    return EXIT_OK if rep.passed else EXIT_THRESHOLD


def _cmd_emit(args) -> int:
    emit_plotdata(args.artifact_dir)
    print(f"plot data written to {Path(args.artifact_dir) / 'plotdata.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    """A float argument type that refuses (exit 2) NaN and the infinities."""
    value = float(text)
    if math.isfinite(value):
        return value
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")


_finite.__name__ = "float"  # named in argparse's "invalid ... value"


def _positive(text: str) -> float:
    """A finite float argument type that refuses (exit 2) a value that is not
    positive."""
    value = _finite(text)
    if value > 0:
        return value
    raise argparse.ArgumentTypeError(f"must be positive, got {text}")


_positive.__name__ = "float"  # named in argparse's "invalid ... value"


def build_parser() -> argparse.ArgumentParser:
    """The command table: each leaf parser carries its handler as ``handler``."""
    parser = argparse.ArgumentParser(prog="logflow",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    top = parser.add_subparsers(dest="command", required=True)

    def command(sub, name, handler):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        return p

    flow = top.add_parser("flow").add_subparsers(dest="sub", required=True)
    run = command(flow, "run", _cmd_run_configs)
    run.add_argument("--config", nargs="+", required=True)
    run.add_argument("--check", action="store_true",
                     help="run the refinement pair too; exit 4 when a check "
                          "or the wall-time bound fails")
    run.add_argument("--outdir", default=None)

    exp = top.add_parser("expander").add_subparsers(dest="sub", required=True)
    cert = command(exp, "certify", _cmd_expander_certify)
    cert.add_argument("--input", required=True)
    cert.add_argument("--output", default=None)

    leg = top.add_parser("legendre").add_subparsers(dest="sub", required=True)
    tr = command(leg, "transform", _cmd_legendre_transform)
    tr.add_argument("--input", required=True)
    tr.add_argument("--output", required=True)
    cd = command(leg, "check-dual", _cmd_legendre_checkdual)
    cd.add_argument("--trajectory", required=True)

    mc = top.add_parser("mcf").add_subparsers(dest="sub", required=True)
    rec = command(mc, "reconstruct", _cmd_mcf_reconstruct)
    rec.add_argument("--trajectory", required=True)
    rec.add_argument("--seeds", required=True)
    rec.add_argument("--t-start", type=_finite, default=None)

    an = top.add_parser("analyze").add_subparsers(dest="sub", required=True)
    dec = command(an, "decay", _cmd_analyze_decay)
    dec.add_argument("--trajectory", required=True)
    dec.add_argument("--order", type=int, choices=(3, 4), default=3)
    pl = command(an, "plane", _cmd_analyze_plane)
    pl.add_argument("--trajectory", required=True)
    pl.add_argument("--window", type=_positive, default=analysis.PLANE_WINDOW)
    cond = command(an, "condition", _cmd_analyze_condition)
    cond.add_argument("--input", required=True)
    cond.add_argument("--lambda", dest="lam", type=_finite, required=True)
    cond.add_argument("--Lambda", dest="Lam", type=_finite, required=True)

    em = command(top, "emit", _cmd_emit)
    em.add_argument("artifact_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LogFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
