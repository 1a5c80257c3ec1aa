"""The benchmark's workloads and the pass that runs and checks one of them.

A workload is a list of ``(label, config dict)`` entries drawn from a seed.
One pass runs every entry through ``run_pipeline``; the preset suite also
persists each run and re-checks the persisted trajectory from disk.  An
operation (a pipeline call or an on-disk re-check) fails when it raises,
when its report says ``passed`` is false, or when its report or snapshot
digest differs from the first pass of the same process.

Why these workloads:

* ``flow-3d`` -- condition B at n = 3, m = 25: the large-array regime where
  Hessian assembly and the n = 3 Jacobi eigenvalues dominate; legendre, mcf
  and snapshots stay idle.
* ``duality-2d`` -- Legendre self-duality at n = 2, m = 97: the dense
  O(N*M) conjugation dominates and sets peak memory; the flow part is small.
* ``preset-suite`` -- all ten packaged presets, persisted and re-read: the
  1-D small-array regime where per-call overhead dominates, and the only
  workload touching heat, expander, mcf, analysis, snapshot I/O and the CLI.

The seed draws the bump of the first two along the curve of constant
centre curvature ``2 * amplitude / width**2 = 0.2`` (within 2 %), so every
seed passes the frozen thresholds and takes the same number of explicit
steps to within one percent: seeds change the data, not the amount of work.
For the suite the seed sets the order of the presets.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

NAMES = ("flow-3d", "duality-2d", "preset-suite")

# presets cheap enough for the reduced suite of the self-test
_REDUCED_SUITE = ("condition-b-preservation", "decay-rates",
                  "expander-cross-validation", "expander-stationarity",
                  "heat-oracle", "legendre-duality", "mcf-correspondence",
                  "plane-convergence")


def _bump(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    width = rng.uniform(0.9, 1.1)
    return {"amplitude": width ** 2 * rng.uniform(0.098, 0.102), "width": width}


def entries(name: str, seed: int, reduced: bool = False) -> list:
    """The ``(label, config dict)`` list of a workload for one seed."""
    if name == "flow-3d":
        m, t_end = (13, 0.25) if reduced else (25, 2.0)
        return [("condition-b-3d", {
            "preset": "condition-b-preservation",
            "grid": {"n": 3, "L": 3.0, "m": m},
            "initial": _bump(seed),
            "flow": {"tau": 1.0, "t_end": t_end}})]
    if name == "duality-2d":
        return [("legendre-duality-2d", {
            "preset": "legendre-duality",
            "grid": {"n": 2, "m": 33 if reduced else 97},
            "initial": _bump(seed)})]
    if name == "preset-suite":
        from logflow.presets import preset_names
        names = [p for p in preset_names() if not reduced or p in _REDUCED_SUITE]
        order = np.random.default_rng(seed).permutation(len(names))
        return [(names[i], {"preset": names[i]}) for i in order]
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def _sha(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "little"))
    h.update(data)


def report_bytes(report: dict) -> bytes:
    """The report as persisted: wall-clock figures are left out."""
    return json.dumps({k: v for k, v in report.items() if k != "runtime_s"},
                      indent=2, sort_keys=True).encode()


def memory_digest(report: dict, artifacts: dict) -> str:
    h = hashlib.sha256()
    _sha(h, report_bytes(report))
    traj = artifacts.get("trajectory")
    snaps = list(traj.snapshots) if traj is not None else []
    for t, u in snaps + list(artifacts.get("snapshots", [])):
        _sha(h, repr(t).encode())
        _sha(h, np.ascontiguousarray(u.values).tobytes())
    return h.hexdigest()


def files_digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for p in [outdir / "report.json"] + sorted(outdir.glob("*.snap")):
        _sha(h, p.name.encode())
        _sha(h, p.read_bytes())
    return h.hexdigest()


def same_trajectory(loaded, traj) -> bool:
    """Bit-for-bit equality of a reloaded trajectory and the one in memory."""
    mem = sorted(traj.snapshots, key=lambda s: s[0])
    if len(loaded.snapshots) != len(mem):
        return False
    return all(td == tm and ud.domain == um.domain
               and ud.values.tobytes() == um.values.tobytes()
               for (td, ud), (tm, um) in zip(loaded.snapshots, mem))


class Runner:
    """Loads a workload's configs once and runs checked passes over them."""

    def __init__(self, name: str, seed: int, reduced: bool = False):
        self.entries = entries(name, seed, reduced)
        self.persist = name == "preset-suite"
        self.first: dict = {}   # operation label -> digest of its first pass
        self.cfgs: list = []

    def setup(self) -> None:
        """Import logflow, load every config, build its domain and initial data."""
        from logflow import cli, config, experiments, presets  # noqa: F401
        for label, data in self.entries:
            cfg = config.load_config(data)
            if cfg.initial:
                presets.make_initial_data(cfg.domain(), cfg.initial,
                                          float(cfg.flow.get("tau", 1.0)),
                                          np.random.default_rng(cfg.seed))
            self.cfgs.append((label, cfg))

    def run_pass(self, workdir: Path, tracer) -> tuple[float, list]:
        """One pass: (wall seconds, [(operation, ok, detail)]).

        The suite persists its runs under ``workdir``, which the caller
        removes only after the last pass: on a file system mounted with
        online discard, deleting a thousand snapshots stalls the writes
        that follow for seconds, which would land in the next timed pass.
        """
        from logflow import cli, experiments
        ops: list = []

        def record(label: str, passed: bool, digest: str) -> None:
            first = self.first.setdefault(label, digest)
            if not passed:
                ops.append((label, False, "verdict failed"))
            elif digest != first:
                ops.append((label, False, "differs from the first pass"))
            else:
                ops.append((label, True, ""))

        workdir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        for label, cfg in self.cfgs:
            outdir = workdir / label
            try:
                report, artifacts = experiments.run_pipeline(cfg)
                if self.persist:
                    cli.persist_run(outdir, cfg, report, artifacts)
                with tracer.span("bench.digest"):
                    digest = (files_digest(outdir) if self.persist
                              else memory_digest(report, artifacts))
                record(label, report.get("passed") is True, digest)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ops.append((label, False, "raised"))
                continue
            if not (self.persist and artifacts.get("trajectory") is not None):
                continue
            label = f"{label}:from-disk"
            try:
                loaded, _ = cli.load_trajectory_dir(outdir)
                with tracer.span("bench.recheck"):
                    same = (same_trajectory(loaded, artifacts["trajectory"])
                            and (outdir / "report.json").read_bytes()
                            == report_bytes(report))
                record(label, same, "")
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ops.append((label, False, "raised"))
        return time.perf_counter() - start, ops
