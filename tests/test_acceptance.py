"""Acceptance gate: one test per frozen criterion, one printed line each.

Every threshold below is pinned; the presets under test live in
``logflow.presets`` and are exactly what the CLI exposes.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import json
import time

import pytest

from logflow.config import load_config
from logflow.experiments import (condition_b_pipeline, decay_pipeline,
                                 expander_cross_pipeline,
                                 expander_stationarity_pipeline,
                                 heat_oracle_pipeline, legendre_dual_pipeline,
                                 mcf_verify_pipeline, blowdown_pipeline,
                                 plane_pipeline, quadratic_exact_pipeline)


def _report(idx: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {idx:2d} | {name}: {detail}"
    print(line)
    assert ok, line


def _cfg(preset: str, **overrides):
    data = {"preset": preset}
    for key, val in overrides.items():
        data[key] = val
    return load_config(data)


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quadratic_exact_report():
    report, artifacts = quadratic_exact_pipeline(_cfg("quadratic-exact"))
    return report, artifacts


@pytest.fixture(scope="module")
def condition_b_reports():
    rep65, _ = condition_b_pipeline(_cfg("condition-b-preservation"))
    rep129, _ = condition_b_pipeline(_cfg("condition-b-preservation",
                                          grid={"m": 129}))
    return rep65, rep129


@pytest.fixture(scope="module")
def heat_oracle_reports():
    rep65, _ = heat_oracle_pipeline(_cfg("heat-oracle"))
    rep129, _ = heat_oracle_pipeline(_cfg("heat-oracle", grid={"m": 129}))
    return rep65, rep129


@pytest.fixture(scope="module")
def stationarity_reports():
    rep65, _ = expander_stationarity_pipeline(_cfg("expander-stationarity"))
    rep129, _ = expander_stationarity_pipeline(_cfg("expander-stationarity",
                                                    grid={"m": 129}))
    return rep65, rep129


@pytest.fixture(scope="module")
def legendre_reports():
    rep65, _ = legendre_dual_pipeline(_cfg("legendre-duality"))
    rep129, _ = legendre_dual_pipeline(_cfg(
        "legendre-duality", grid={"m": 129},
        flow={"t_end": 0.5025, "snapshot_times": [0.4975, 0.5, 0.5025]}))
    return rep65, rep129


@pytest.fixture(scope="module")
def legendre_reports_2d():
    rep33, _ = legendre_dual_pipeline(_cfg("legendre-duality", grid={"n": 2, "m": 33}))
    rep65, _ = legendre_dual_pipeline(_cfg(
        "legendre-duality", grid={"n": 2, "m": 65},
        flow={"t_end": 0.5025, "snapshot_times": [0.4975, 0.5, 0.5025]}))
    return rep33, rep65


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_exact_quadratic_evolution(quadratic_exact_report):
    rep, _ = quadratic_exact_report
    ok = rep["sup_error"] <= 1e-8 and rep["runtime_s"] <= 10.0
    _report(1, "exact quadratic evolution",
            ok, f"sup_error={rep['sup_error']:.3e} (<=1e-8), "
                f"runtime={rep['runtime_s']:.2f}s (<=10s)")


def test_criterion_02_hessian_bound_preservation(condition_b_reports):
    rep65, rep129 = condition_b_reports
    drift65, drift129 = rep65["drift"], rep129["drift"]
    ok = drift65 <= 5e-3 and drift129 <= max(drift65 / 3.0, 1e-6)
    _report(2, "Hessian bound preservation",
            ok, f"drift(m=65)={drift65:.3e} (<=5e-3), "
                f"drift(m=129)={drift129:.3e} (<=max(drift65/3, 1e-6))")


def test_criterion_03_heat_oracle_agreement(heat_oracle_reports):
    rep65, rep129 = heat_oracle_reports
    d65, d129 = rep65["sup_diff"], rep129["sup_diff"]
    ok = d65 <= 5e-4 and d129 <= d65 / 3.0
    _report(3, "tau=0 oracle agreement",
            ok, f"sup_diff(m=65)={d65:.3e} (<=5e-4), "
                f"ratio={d65 / d129:.2f} (>=3)")


def test_criterion_04_expander_stationarity(stationarity_reports):
    rep65, rep129 = stationarity_reports
    worst65, worst129 = rep65["worst_residual"], rep129["worst_residual"]
    ratios = {t: rep65["residuals"][t] / rep129["residuals"][t]
              for t in rep65["residuals"]}
    ok = worst65 <= 0.05 and all(r >= 3.0 for r in ratios.values())
    _report(4, "self-expander stationarity",
            ok, f"worst residual(m=65)={worst65:.3e} (<=0.05), "
                f"refinement ratios={ {k: round(v, 2) for k, v in ratios.items()} } (>=3)")


def test_criterion_05_expander_cross_validation():
    rep, _ = expander_cross_pipeline(_cfg("expander-cross-validation"))
    ok = (rep["profile_gap"] <= 1e-4 and rep["newton_residual"] <= 1e-10
          and rep["newton_iterations"] <= 15)
    _report(5, "expander solver cross-validation",
            ok, f"profile_gap={rep['profile_gap']:.3e} (<=1e-4), "
                f"newton_residual={rep['newton_residual']:.3e} (<=1e-10), "
                f"iterations={rep['newton_iterations']} (<=15)")


def test_criterion_06_legendre_self_duality(legendre_reports):
    rep65, rep129 = legendre_reports
    ratio = rep65["bump_residual"] / rep129["bump_residual"]
    ok = (rep65["quadratic_residual"] <= 1e-8
          and rep65["bump_residual"] <= 1e-2
          and ratio >= 3.0
          and max(rep65["eigen_swap_gaps"]) <= rep65["swap_tolerance"]
          and max(rep129["eigen_swap_gaps"]) <= rep129["swap_tolerance"])
    _report(6, "Legendre self-duality",
            ok, f"quadratic={rep65['quadratic_residual']:.2e} (<=1e-8), "
                f"bump(m=65)={rep65['bump_residual']:.3e} (<=1e-2), "
                f"ratio={ratio:.2f} (>=3), swap gaps ok")


def test_criterion_06_legendre_self_duality_2d(legendre_reports_2d):
    rep33, rep65 = legendre_reports_2d
    ratio = rep33["bump_residual"] / rep65["bump_residual"]
    ok = (rep33["quadratic_residual"] <= 1e-8
          and rep33["bump_residual"] <= 1e-2
          and ratio >= 3.0
          and max(rep33["eigen_swap_gaps"]) <= rep33["swap_tolerance"]
          and max(rep65["eigen_swap_gaps"]) <= rep65["swap_tolerance"])
    _report(6, "Legendre self-duality, n = 2",
            ok, f"quadratic={rep33['quadratic_residual']:.2e} (<=1e-8), "
                f"bump(m=33)={rep33['bump_residual']:.3e} (<=1e-2), "
                f"ratio={ratio:.2f} (>=3), swap gaps ok")


def test_criterion_07_mcf_correspondence():
    rep, _ = mcf_verify_pipeline(_cfg("mcf-correspondence"))
    rep_bad, _ = mcf_verify_pipeline(_cfg("mcf-correspondence"), corrupt=True)
    ok = (rep["max_deviation"] <= 5e-3
          and rep["tangential_ratio"] <= 0.10
          and rep_bad["max_deviation"] > 10 * rep["max_deviation"])
    _report(7, "graph flow correspondence",
            ok, f"|dF/dt - H|={rep['max_deviation']:.3e} (<=5e-3), "
                f"tangential/normal={rep['tangential_ratio']:.3f} (<=0.10), "
                f"corrupted={rep_bad['max_deviation']:.3e} (flagged)")


def test_criterion_08_decay_exponents():
    tic = time.perf_counter()
    rep, _ = decay_pipeline(_cfg("decay-rates"))
    runtime = time.perf_counter() - tic
    p3, p4 = rep["fit3"]["exponent"], rep["fit4"]["exponent"]
    ok = (-1.3 <= p3 <= -0.7) and (-2.4 <= p4 <= -1.6) and runtime <= 120.0
    _report(8, "derivative decay exponents",
            ok, f"p3={p3:.3f} (in [-1.3,-0.7]), p4={p4:.3f} (in [-2.4,-1.6]), "
                f"runtime={runtime:.1f}s (<=120s)")


def test_criterion_09_blowdown_convergence():
    rep, _ = blowdown_pipeline(_cfg("blowdown-convergence"))
    errs = rep["errors"]
    monotone = all(errs[k + 1] < errs[k] for k in range(2, len(errs) - 1))
    ok = monotone and rep["final_error"] <= 0.02
    _report(9, "blow-down convergence",
            ok, f"errors={['%.2e' % e for e in errs]}, strictly decreasing for "
                f"k>=2={monotone}, final={rep['final_error']:.3e} (<=0.02)")


def test_criterion_10_plane_convergence():
    rep, _ = plane_pipeline(_cfg("plane-convergence"))
    ok = (rep["hypothesis_ok"] and rep["decreasing"]
          and rep["final_max_gradient"] <= 0.02)
    _report(10, "plane convergence",
            ok, f"max|Du| decreasing={rep['decreasing']}, "
                f"final={rep['final_max_gradient']:.4f} (<=0.02 at t=8)")


def test_criterion_11_determinism_and_round_trip(tmp_path):
    from logflow.cli import main
    base = {"preset": "quadratic-exact",
            "flow": {"snapshot_times": [0.5, 1.0]}}
    blobs = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(dict(base, outdir=str(tmp_path / tag))))
        assert main(["flow", "run", "--config", str(cfg_path)]) == 0
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
