"""Acceptance gate: one row per criterion, one printed line each.

Each row runs ``logflow flow run --check`` on a preset file (or on a preset
with overrides), so the gate and ``--check`` are one path: every bound,
refinement pair and wall-time bound comes from
``logflow.experiments.PIPELINES``, which ``tests/test_cli.py`` pins, and each
line lists the run's persisted ``checks``.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import json
from pathlib import Path

from logflow.cli import EXIT_OK, EXIT_THRESHOLD, main
from logflow.config import load_config
from logflow.experiments import judge, mcf_verify_pipeline

PRESETS = Path(__file__).resolve().parents[1] / "presets"
FAULT_SEPARATION = 10  # criterion 7: the planted fault / the clean deviation


def _report(idx: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {idx:2d} | {name}: {detail}"
    print(line)
    assert ok, line


def _detail(checks) -> str:
    return "; ".join(f"{c['key']}={c['measured']} (bound {c['bound']})" for c in checks)


def _check_run(tmp_path, tag: str, preset: str, overrides: dict) -> tuple[int, dict]:
    """``flow run --check`` on the preset's file (or on the preset with
    overrides) into ``tmp_path / tag``: its exit code and report."""
    path = PRESETS / f"{preset}.json"
    if overrides:
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({"preset": preset, **overrides}))
    code = main(["flow", "run", "--check", "--config", str(path),
                 "--outdir", str(tmp_path / tag)])
    return code, json.loads((tmp_path / tag / "report.json").read_text())


def _row(tmp_path, criterion: int, name: str, preset: str, **overrides) -> dict:
    """One row of the gate: the run must pass; print its line and return its
    report."""
    code, report = _check_run(tmp_path, "run", preset, overrides)
    _report(criterion, name, code == EXIT_OK, f"exit {code}; {_detail(report['checks'])}")
    return report


def _fault(tmp_path, criterion: int, name: str, preset: str, **overrides) -> None:
    """A planted fault: with the fault's overrides, which move no bound, the
    run must fail a check and exit 4."""
    code, report = _check_run(tmp_path, "fault", preset, overrides)
    failed = [c for c in report["checks"] if not c["ok"]]
    _report(criterion, f"{name}, planted fault", code == EXIT_THRESHOLD,
            f"{overrides}: exit {code}; failed {_detail(failed)}")


# ---------------------------------------------------------------------------
# criteria: one row each
# ---------------------------------------------------------------------------

def test_criterion_01_exact_quadratic_evolution(tmp_path):
    _row(tmp_path, 1, "exact quadratic evolution", "quadratic-exact")


def test_criterion_02_hessian_bound_preservation(tmp_path, monkeypatch):
    _row(tmp_path, 2, "Hessian bound preservation", "condition-b-preservation")
    # the error control rejects the steps an unstable stage count spoils
    # (drift 0.0 at stage fractions 1.2, 1.4 and 3.0), so the fault also
    # loosens the tolerance to 1e3 h^3: fraction 1.4 then reads drift 0.323
    # at m = 65
    monkeypatch.setattr("logflow.flow._ERROR_TOL", 1e3)
    monkeypatch.setattr("logflow.flow._SAFETY", 1.4)
    _fault(tmp_path, 2, "Hessian bound preservation, stage fraction 1.4 and "
           "tolerance 1e3 h^3", "condition-b-preservation")


def test_criterion_03_heat_oracle_agreement(tmp_path):
    _row(tmp_path, 3, "tau=0 oracle agreement", "heat-oracle")


def test_criterion_04_expander_stationarity(tmp_path):
    _row(tmp_path, 4, "self-expander stationarity", "expander-stationarity")


def test_criterion_05_expander_cross_validation(tmp_path):
    _row(tmp_path, 5, "expander solver cross-validation", "expander-cross-validation")


def test_criterion_05_expander_cross_validation_2d(tmp_path):
    _row(tmp_path, 5, "expander solver cross-validation, n = 2",
         "expander-cross-validation", grid={"n": 2, "m": 65})


def test_criterion_06_legendre_self_duality(tmp_path):
    _row(tmp_path, 6, "Legendre self-duality", "legendre-duality")
    # duality holds only at tau = 1
    _fault(tmp_path, 6, "Legendre self-duality", "legendre-duality", flow={"tau": 0.9})


def test_criterion_06_legendre_self_duality_2d(tmp_path):
    _row(tmp_path, 6, "Legendre self-duality, n = 2", "legendre-duality", grid={"n": 2, "m": 33})


def test_criterion_07_mcf_correspondence(tmp_path):
    clean = _row(tmp_path, 7, "graph flow correspondence", "mcf-correspondence")
    # planted fault: every snapshot scaled by 1.1 must fail the check and read
    # far above the clean deviation
    cfg = load_config({"preset": "mcf-correspondence"})
    _, measured, _ = mcf_verify_pipeline(cfg, corrupt=True)
    checks = judge(cfg.check, measured)
    separation = measured["deviation"] / clean["max_deviation"]
    _report(7, "graph flow correspondence, planted fault",
            not all(c["ok"] for c in checks) and separation > FAULT_SEPARATION,
            f"corrupted: {_detail(checks)}; {separation:.1f} x the clean "
            f"deviation (bound > {FAULT_SEPARATION})")


def test_criterion_08_decay_exponents(tmp_path):
    _row(tmp_path, 8, "derivative decay exponents", "decay-rates")


def test_criterion_09_blowdown_convergence(tmp_path):
    _row(tmp_path, 9, "blow-down convergence", "blowdown-convergence")


def test_criterion_10_plane_convergence(tmp_path):
    _row(tmp_path, 10, "plane convergence", "plane-convergence")


def test_criterion_11_determinism_and_round_trip(tmp_path):
    base = {"preset": "quadratic-exact",
            "flow": {"snapshot_times": [0.5, 1.0]}}
    blobs = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(dict(base, outdir=str(tmp_path / tag))))
        assert main(["flow", "run", "--config", str(cfg_path)]) == EXIT_OK
        blobs.append(b"".join(p.read_bytes() for p in
                              sorted((tmp_path / tag).glob("snapshot_*.snap"))))
    identical = blobs[0] == blobs[1]

    # binary <-> csv round trip at 17 significant digits
    from logflow.snapshots import read_snapshot, write_snapshot
    snap = sorted((tmp_path / "a").glob("snapshot_*.snap"))[0]
    u, head = read_snapshot(snap)
    csv_path = tmp_path / "roundtrip.csv"
    write_snapshot(csv_path, u, t=head["t"], tau=head["tau"], fmt="csv")
    v, _ = read_snapshot(csv_path)
    round_trip = v.values.tobytes() == u.values.tobytes()

    reports = [json.loads((tmp_path / tag / "report.json").read_text())
               for tag in ("a", "b")]
    same_reports = reports[0] == reports[1]

    ok = identical and round_trip and same_reports
    _report(11, "determinism and format round-trip",
            ok, f"bit-identical snapshots={identical}, csv round-trip={round_trip}, "
                f"identical reports={same_reports}")
