"""Named experiment pipelines.

Each function takes an :class:`~logflow.config.ExperimentConfig`, runs one
pipeline end to end and returns ``(report, artifacts)``: a JSON-ready report
with measured quantities and pass flags at the preset's frozen thresholds,
plus the in-memory artifacts (trajectories, snapshots) the CLI may persist.
"""

from __future__ import annotations

import time

import numpy as np

from . import analysis, expander, heat, legendre, mcf
from .config import ExperimentConfig
from .errors import ConfigError
from .flow import QuadraticFarField, Trajectory, pde_residual, run
from .grid import BoxDomain, GridFunction
from .presets import make_initial_data

__all__ = ["run_pipeline", "PIPELINES"]


def _setup(cfg: ExperimentConfig):
    domain = cfg.domain()
    tau = float(cfg.flow.get("tau", 1.0))
    rng = np.random.default_rng(cfg.seed)
    u0, boundary = make_initial_data(domain, cfg.initial, tau, rng)
    if cfg.boundary == "frozen":
        from .flow import Frozen
        boundary = Frozen()
    elif cfg.boundary == "quadratic":
        boundary = QuadraticFarField.fit_corner(u0)
    elif cfg.boundary != "auto":
        raise ConfigError("boundary must be 'auto', 'quadratic' or 'frozen'")
    return domain, tau, u0, boundary


def _run_flow(cfg: ExperimentConfig, u0: GridFunction, boundary) -> Trajectory:
    fl = cfg.flow
    return run(u0,
               tau=float(fl.get("tau", 1.0)),
               t_end=float(fl["t_end"]),
               boundary=boundary,
               stepper=fl.get("stepper", "rk2"),
               safety=float(fl.get("safety", 0.5)),
               max_dt=fl.get("max_dt"),
               snapshot_times=fl.get("snapshot_times", ()),
               store_every=int(fl.get("store_every", 0)),
               monitor_every=int(fl.get("monitor_every", 1)),
               monitor_window=fl.get("monitor_window"),
               max_halvings=int(fl.get("max_halvings", 20)))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def flow_pipeline(cfg: ExperimentConfig):
    _, _, u0, boundary = _setup(cfg)
    traj = _run_flow(cfg, u0, boundary)
    lo = min(r.lambda_min for r in traj.monitors)
    hi = max(r.lambda_max for r in traj.monitors)
    report = {
        "pipeline": "flow",
        "t_end": traj.state.t,
        "steps": traj.state.step_count,
        "lambda_min_overall": lo,
        "lambda_max_overall": hi,
        "snapshots": [t for t, _ in traj.snapshots],
        "passed": True,
    }
    return report, {"trajectory": traj}


def heat_pipeline(cfg: ExperimentConfig):
    domain, tau, u0, boundary = _setup(cfg)
    if not isinstance(boundary, QuadraticFarField):
        raise ConfigError("the Gaussian-convolution pipeline needs a quadratic far field")
    t = float(cfg.flow.get("t_end", 0.1))
    out = heat.heat_solve(u0, t, boundary)
    report = {"pipeline": "heat", "t": t, "passed": True}
    return report, {"snapshots": [(t, out)], "trajectory": None}


def quadratic_exact_pipeline(cfg: ExperimentConfig):
    tic = time.perf_counter()
    domain, tau, u0, boundary = _setup(cfg)
    traj = _run_flow(cfg, u0, boundary)
    rate = boundary.rate(tau, domain.n)
    exact = u0.values + traj.state.t * rate
    sl = domain.interior()
    sup_err = float(np.max(np.abs((traj.state.u.values - exact)[sl])))
    runtime = time.perf_counter() - tic
    thr = cfg.check
    report = {
        "pipeline": "quadratic_exact",
        "sup_error": sup_err,
        "rate": rate,
        "runtime_s": runtime,
        "steps": traj.state.step_count,
        "passed": sup_err <= thr.get("sup_error", 1e-8)
                  and runtime <= thr.get("runtime_s", 10.0),
    }
    return report, {"trajectory": traj}


def condition_b_pipeline(cfg: ExperimentConfig):
    _, _, u0, boundary = _setup(cfg)
    traj = _run_flow(cfg, u0, boundary)
    recs = traj.monitors
    lam0, Lam0 = recs[0].lambda_min, recs[0].lambda_max
    undershoot = max(0.0, max(lam0 - r.lambda_min for r in recs))
    overshoot = max(0.0, max(r.lambda_max - Lam0 for r in recs))
    drift = max(undershoot, overshoot)
    thr = cfg.check.get("drift", 5e-3)
    report = {
        "pipeline": "condition_b",
        "lambda_initial": lam0,
        "Lambda_initial": Lam0,
        "undershoot": undershoot,
        "overshoot": overshoot,
        "drift": drift,
        "threshold": thr,
        "passed": drift <= thr,
    }
    return report, {"trajectory": traj}


def heat_oracle_pipeline(cfg: ExperimentConfig):
    domain, tau, u0, boundary = _setup(cfg)
    if tau != 0.0:
        raise ConfigError("the oracle comparison runs at tau = 0")
    traj = _run_flow(cfg, u0, boundary)
    oracle = heat.heat_solve(u0, traj.state.t, boundary)
    sl = domain.interior()
    sup_diff = float(np.max(np.abs((traj.state.u.values - oracle.values)[sl])))
    thr = cfg.check.get("sup_diff", 5e-4)
    report = {
        "pipeline": "heat_oracle",
        "t": traj.state.t,
        "sup_diff": sup_diff,
        "threshold": thr,
        "passed": sup_diff <= thr,
    }
    return report, {"trajectory": traj, "snapshots": [(traj.state.t, oracle)]}


def expander_stationarity_pipeline(cfg: ExperimentConfig):
    domain = cfg.domain()
    ex = cfg.expander
    a = float(ex.get("a", -0.1))
    slope0 = float(ex.get("slope0", 0.0))
    r_max = float(ex.get("r_max", 2.0 + domain.half_width))
    dt_probe = float(ex.get("dt_probe", 1e-3))
    if slope0 != 0.0 and domain.n == 1:
        # genuinely non-quadratic stationary solution on the line
        prof_fn = expander.line_profile(a, slope0, r_max)
        prof = None
    else:
        prof = expander.radial_shoot(domain.n, a, r_max)
        prof_fn = lambda radii: prof(np.abs(radii))
    grids = domain.meshgrid()
    radii = np.sqrt(sum(g ** 2 for g in grids)) if domain.n > 1 else grids[0]

    def family(t):
        return GridFunction(domain, t * prof_fn(radii / np.sqrt(t)),
                            label=f"self-similar t={t}")

    cert = expander.certify(family(1.0))
    residuals = {}
    for t in ex.get("times", [1.0, 2.0, 4.0]):
        u_lo = family(t)
        u_mid = family(t + 0.5 * dt_probe)
        u_hi = family(t + dt_probe)
        residuals[str(t)] = pde_residual(u_lo, u_mid, u_hi, dt_probe, tau=1.0)
    worst = max(residuals.values())
    thr = cfg.check.get("residual", 0.05)
    report = {
        "pipeline": "expander_stationarity",
        "a": a,
        "slope0": slope0,
        "h": domain.h,
        "certification": cert.to_dict(),
        "residuals": residuals,
        "worst_residual": worst,
        "threshold": thr,
        "passed": worst <= thr and cert.residual_norm <= thr,
    }
    return report, {"profile": prof}


def expander_cross_pipeline(cfg: ExperimentConfig):
    domain = cfg.domain()
    ex = cfg.expander
    a = float(ex.get("a", -0.1))
    prof = expander.radial_shoot(domain.n, a,
                                 float(ex.get("r_max", domain.half_width + 0.5)))
    target = expander.profile_to_grid(prof, domain)
    pert = float(ex.get("perturbation", 5e-3))
    start_vals = target.values + pert * np.cos(2.0 * sum(domain.meshgrid()))
    start_vals[domain.ring_mask()] = target.values[domain.ring_mask()]
    sol = expander.newton_solve(GridFunction(domain, start_vals), dirichlet=target)
    gap = float(np.max(np.abs(sol.u.values - target.values)))
    cert = expander.certify(sol)
    thr = cfg.check
    report = {
        "pipeline": "expander_cross",
        "profile_gap": gap,
        "newton_residual": sol.residual_norm,
        "newton_iterations": sol.iterations,
        "certification": cert.to_dict(),
        "passed": (gap <= thr.get("profile_gap", 1e-4)
                   and sol.residual_norm <= thr.get("newton_residual", 1e-10)
                   and sol.iterations <= thr.get("newton_iterations", 15)),
    }
    return report, {"solution": sol, "snapshots": [(None, sol.u)]}


def legendre_dual_pipeline(cfg: ExperimentConfig):
    # closed-form anisotropic quadratic trajectory first
    qdom = BoxDomain(n=2, half_width=2.0, m=65)
    A = np.diag([2.0, 2.0])
    g1, g2 = qdom.meshgrid()
    rate = 0.5 * np.log(4.0)

    def quad_at(t):
        return GridFunction(qdom, 0.5 * (2 * g1 ** 2 + 2 * g2 ** 2) + rate * t)

    quad_res = legendre.dual_flow_check(
        [(t, quad_at(t)) for t in (0.45, 0.5, 0.55)])

    _, _, u0, boundary = _setup(cfg)
    traj = _run_flow(cfg, u0, boundary)
    if len(traj.snapshots) < 3:
        raise ConfigError("duality check needs three snapshot times")
    snaps = traj.snapshots[-3:]
    bump_res = legendre.dual_flow_check([(t, u) for t, u in snaps])
    swap_gaps = []
    for t, u in snaps:
        lo_gap, hi_gap = legendre.eigenvalue_swap_gap(u)
        swap_gaps.append(max(lo_gap, hi_gap))
    swap_tol = u.domain.h
    thr = cfg.check
    report = {
        "pipeline": "legendre_dual",
        "quadratic_residual": quad_res,
        "bump_residual": bump_res,
        "eigen_swap_gaps": swap_gaps,
        "swap_tolerance": swap_tol,
        "passed": (quad_res <= thr.get("quadratic_residual", 1e-8)
                   and bump_res <= thr.get("bump_residual", 1e-2)
                   and max(swap_gaps) <= swap_tol),
    }
    return report, {"trajectory": traj}


def mcf_verify_pipeline(cfg: ExperimentConfig, corrupt: bool = False):
    _, _, u0, boundary = _setup(cfg)
    traj = _run_flow(cfg, u0, boundary)
    if corrupt:
        traj = Trajectory(state=traj.state,
                          snapshots=[(t, u.with_values(1.1 * u.values))
                                     for t, u in traj.snapshots])
    seeds = cfg.mcf.get("seeds") or [[0.0]]
    t_start = cfg.mcf.get("t_start", None)
    paths = mcf.integrate_particles(traj, seeds, t_start=t_start)
    rep = mcf.verify_mcf(paths)
    thr = cfg.check.get("deviation", 5e-3)
    report = {
        "pipeline": "mcf_verify",
        "max_deviation": rep.max_deviation,
        "max_tangential": rep.max_tangential,
        "max_normal": rep.max_normal,
        "tangential_ratio": rep.tangential_ratio,
        "per_path": rep.per_path,
        "threshold": thr,
        "corrupted": corrupt,
        "passed": (rep.max_deviation <= thr and rep.tangential_ratio <= 0.10)
                  if not corrupt else rep.max_deviation > thr,
    }
    return report, {"trajectory": traj, "paths": paths}


def decay_pipeline(cfg: ExperimentConfig):
    tic = time.perf_counter()
    _, _, u0, boundary = _setup(cfg)
    traj = _run_flow(cfg, u0, boundary)
    fit3 = analysis.fit_decay(traj, order=3)
    fit4 = analysis.fit_decay(traj, order=4)
    runtime = time.perf_counter() - tic
    b3 = cfg.check.get("exponent3", [-1.3, -0.7])
    b4 = cfg.check.get("exponent4", [-2.4, -1.6])
    ok3 = fit3.exponent is not None and b3[0] <= fit3.exponent <= b3[1]
    ok4 = fit4.exponent is not None and b4[0] <= fit4.exponent <= b4[1]
    report = {
        "pipeline": "decay",
        "fit3": fit3.to_dict(),
        "fit4": fit4.to_dict(),
        "runtime_s": runtime,
        "passed": ok3 and ok4 and runtime <= cfg.check.get("runtime_s", 120.0),
    }
    return report, {"trajectory": traj, "ratefits": [fit3, fit4]}


def blowdown_pipeline(cfg: ExperimentConfig):
    domain, tau, u0, boundary = _setup(cfg)
    traj = _run_flow(cfg, u0, boundary)
    if not isinstance(boundary, QuadraticFarField):
        raise ConfigError("blow-down comparisons need a quadratic far field")
    A = boundary.A

    def U1(pts):
        return 0.5 * np.einsum("ki,ij,kj->k", pts, A, pts)

    an = cfg.analysis
    rep = analysis.blowdown_convergence(
        traj, U1, window_half=float(an.get("window", 1.0)),
        monotone_from=int(an.get("monotone_from", 2)),
        final_tol=float(cfg.check.get("final_error", 0.02)))
    report = {"pipeline": "blowdown", **rep.to_dict()}
    return report, {"trajectory": traj, "ratefits": [rep.fit] if rep.fit else []}


def plane_pipeline(cfg: ExperimentConfig):
    _, _, u0, boundary = _setup(cfg)
    traj = _run_flow(cfg, u0, boundary)
    rep = analysis.plane_convergence(
        traj, window_half=float(cfg.analysis.get("window", 2.0)),
        final_tol=float(cfg.check.get("final_max_gradient", 0.02)))
    report = {"pipeline": "plane", **rep.to_dict()}
    return report, {"trajectory": traj}


PIPELINES = {
    "flow": flow_pipeline,
    "heat": heat_pipeline,
    "quadratic_exact": quadratic_exact_pipeline,
    "condition_b": condition_b_pipeline,
    "heat_oracle": heat_oracle_pipeline,
    "expander_stationarity": expander_stationarity_pipeline,
    "expander_cross": expander_cross_pipeline,
    "legendre_dual": legendre_dual_pipeline,
    "mcf_verify": mcf_verify_pipeline,
    "decay": decay_pipeline,
    "blowdown": blowdown_pipeline,
    "plane": plane_pipeline,
}


def run_pipeline(cfg: ExperimentConfig):
    if cfg.pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {cfg.pipeline!r}")
    return PIPELINES[cfg.pipeline](cfg)
