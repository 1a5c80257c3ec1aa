"""Named experiment pipelines.

Each runner takes an :class:`~logflow.config.ExperimentConfig`, runs one
pipeline end to end and returns ``(report, measured, artifacts)``: a
JSON-ready report of measured quantities, the values its verdict judges, and
the in-memory artifacts (trajectories, snapshots) the CLI may persist.
Runners measure; :func:`judge` alone compares a measurement with its bound,
and :func:`run_pipeline` sets the report's ``checks`` and ``passed``
(:func:`gate` extends both with a refinement pair).
:data:`PIPELINES` is the one list of pipelines: it declares each pipeline's
runner, its frozen thresholds, whether it evolves initial data (reading the
``initial`` and ``flow`` sections), the keys it reads from the ``mcf``
section with their defaults, and its refinement pair.  It is the only
source of thresholds: loading a config copies them into ``check``, which
no config sets, and fills ``mcf``, so a runner indexes both directly.  The
parameters of the expander and analysis pipelines are constants of the code
that reads them.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, expander, heat, legendre, mcf
from .config import ExperimentConfig
from .errors import ConfigError
from .flow import QuadraticFarField, Trajectory, pde_residual, run
from .grid import GridFunction
from .presets import make_initial_data

__all__ = ["run_pipeline", "gate", "judge", "finer_level", "refinement_check",
           "PIPELINES", "Refinement"]


def _run_flow(cfg: ExperimentConfig, observe=None) -> tuple[GridFunction, Trajectory]:
    """The initial data and its trajectory under the config's flow section;
    the ring follows the closure built with the data, and ``observe`` sees
    every state (:func:`~logflow.flow.run`)."""
    u0, boundary = make_initial_data(cfg.domain(), cfg.initial, cfg.tau,
                                     np.random.default_rng(cfg.seed))
    return u0, run(u0, boundary=boundary, observe=observe, **cfg.flow)


# both expander pipelines read the separable expander built on the line
# expander of u(0) = a, u'(0) = slope0, integrated past the largest |x| they
# read by _PAST_REACH; stationarity reads it at the times _TIMES, each
# differenced over dt_probe, and cross-validation starts Newton
# _PERTURBATION off it
_A, _PAST_REACH = -0.1, 0.5
_SLOPE0, _DT_PROBE, _TIMES = 0.5, 1e-3, (1.0, 2.0, 4.0)
_PERTURBATION = 5e-3


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def flow_pipeline(cfg: ExperimentConfig):
    # the interior bounds of every accepted state, as condition B reads them
    _, traj = _run_flow(cfg)
    lo = min(rec.lambda_min for rec in traj.monitors)
    hi = max(rec.lambda_max for rec in traj.monitors)
    report = {
        "pipeline": "flow",
        "t_end": traj.state.t,
        "steps": traj.state.step_count,
        "lambda_min_overall": lo,
        "lambda_max_overall": hi,
        "snapshots": [t for t, _ in traj.snapshots],
    }
    return report, {}, {"trajectory": traj}


def quadratic_exact_pipeline(cfg: ExperimentConfig):
    u0, traj = _run_flow(cfg)
    rate = traj.state.boundary.rate(cfg.tau, u0.domain.n)
    exact = u0.values + traj.state.t * rate
    sl = u0.domain.interior()
    sup_err = float(np.max(np.abs((traj.state.u.values - exact)[sl])))
    report = {
        "pipeline": "quadratic_exact",
        "sup_error": sup_err,
        "rate": rate,
        "steps": traj.state.step_count,
    }
    return report, {"sup_error": sup_err}, {"trajectory": traj}


def condition_b_pipeline(cfg: ExperimentConfig):
    # the interior bounds of every accepted state, which its monitor records
    _, traj = _run_flow(cfg)
    lam0, Lam0 = traj.monitors[0].lambda_min, traj.monitors[0].lambda_max
    undershoot = max(0.0, max(lam0 - rec.lambda_min for rec in traj.monitors))
    overshoot = max(0.0, max(rec.lambda_max - Lam0 for rec in traj.monitors))
    drift = max(undershoot, overshoot)
    report = {
        "pipeline": "condition_b",
        "lambda_initial": lam0,
        "Lambda_initial": Lam0,
        "undershoot": undershoot,
        "overshoot": overshoot,
        "drift": drift,
    }
    return report, {"drift": drift}, {"trajectory": traj}


def heat_oracle_pipeline(cfg: ExperimentConfig):
    if cfg.tau != 0.0:
        raise ConfigError("the oracle comparison runs at tau = 0")
    u0, traj = _run_flow(cfg)
    oracle = heat.heat_solve(u0, traj.state.t, traj.state.boundary)
    sl = u0.domain.interior()
    sup_diff = float(np.max(np.abs((traj.state.u.values - oracle.values)[sl])))
    report = {"pipeline": "heat_oracle", "t": traj.state.t, "sup_diff": sup_diff}
    return report, {"sup_diff": sup_diff}, {"trajectory": traj,
                                            "snapshots": [(traj.state.t, oracle)]}


def _corner_radius(domain) -> float:
    """The largest |x| on the grid: the box corners."""
    return float(np.sqrt(sum(g ** 2 for g in domain.meshgrid())).max())


def expander_stationarity_pipeline(cfg: ExperimentConfig):
    # the line expander with u'(0) = slope0 != 0 is not quadratic, nor is its
    # rotated separable sum at n >= 2, so the residuals measure the
    # discretisation (the centred profile is an exact parabola)
    domain = cfg.domain()
    grids = domain.meshgrid()
    # family(t) reads the expander at x / sqrt(t), widest at the smallest t
    reach = _corner_radius(domain) / np.sqrt(min(_TIMES))
    U = expander.separable_expander(domain.n, _A, _SLOPE0, reach + _PAST_REACH)

    def family(t):
        return GridFunction(domain, t * U(*(g / np.sqrt(t) for g in grids)),
                            label=f"self-similar t={t}")

    cert = expander.certify(family(1.0))
    residuals = {}
    for t in _TIMES:
        u_lo = family(t)
        u_mid = family(t + 0.5 * _DT_PROBE)
        u_hi = family(t + _DT_PROBE)
        residuals[str(t)] = pde_residual(u_lo, u_mid, u_hi, _DT_PROBE, tau=1.0)
    report = {
        "pipeline": "expander_stationarity",
        "a": _A,
        "slope0": _SLOPE0,
        "h": domain.h,
        "certification": cert.to_dict(),
        "residuals": residuals,
        "worst_residual": max(residuals.values()),
    }
    measured = {"residual": {**residuals, "certification": cert.residual_norm}}
    return report, measured, {}


def expander_cross_pipeline(cfg: ExperimentConfig):
    domain = cfg.domain()
    grids = domain.meshgrid()
    U = expander.separable_expander(domain.n, _A, _SLOPE0,
                                    _corner_radius(domain) + _PAST_REACH)
    target = GridFunction(domain, U(*grids), label="expander")
    # the taper vanishes on the ring, so the start stays convex next to it
    L = domain.half_width
    taper = math.prod(1.0 - (g / L) ** 2 for g in grids)
    start_vals = target.values + _PERTURBATION * taper * np.cos(2.0 * sum(grids))
    sol = expander.newton_solve(GridFunction(domain, start_vals), dirichlet=target)
    gap = float(np.max(np.abs(sol.u.values - target.values)))
    measured = {"profile_gap": gap, "newton_residual": sol.residual_norm,
                "newton_iterations": sol.iterations}
    report = {"pipeline": "expander_cross", **measured,
              "certification": expander.certify(sol).to_dict()}
    return report, measured, {"snapshots": [(None, sol.u)]}


def legendre_dual_pipeline(cfg: ExperimentConfig):
    _, traj = _run_flow(cfg)
    snaps = traj.snapshots[-legendre.DUAL_SNAPSHOTS:]
    # the swap gaps read the dual check's conjugates, on its 0.75 box
    bump_res, pairs = legendre.dual_flow_check(snaps)
    swap_gaps = [max(legendre.eigenvalue_swap_gap(H, H_star)) for H, H_star in pairs]
    report = {
        "pipeline": "legendre_dual",
        "bump_residual": bump_res,
        "eigen_swap_gaps": swap_gaps,
    }
    # the swap gaps vanish to O(h): the bound is the grid's, not the table's
    measured = {"bump_residual": bump_res,
                "swap_gaps_within_h": bool(max(swap_gaps) <= snaps[-1][1].domain.h)}
    return report, measured, {"trajectory": traj}


def mcf_verify_pipeline(cfg: ExperimentConfig, corrupt: bool = False):
    # the particles ride the flow: each state is handed over as the run
    # accepts it, with the Hessian the step already built, and none is stored
    transport = mcf.ParticleTransport(cfg.mcf["seeds"], t_start=cfg.mcf["t_start"])

    def observe(s):
        if corrupt:  # every state scaled by 1.1, its Hessian assembled anew
            state = (s.t, s.u.with_values(1.1 * s.u.values))
        else:
            state = (s.t, s.u, s.H)
        mcf.integrate_particles(transport, [state])

    _, traj = _run_flow(cfg, observe)
    paths = transport.paths()
    rep = mcf.verify_mcf(paths)
    report = {
        "pipeline": "mcf_verify",
        "max_deviation": rep.max_deviation,
        "max_tangential": rep.max_tangential,
        "max_normal": rep.max_normal,
        "tangential_ratio": rep.tangential_ratio,
        "per_path": rep.per_path,
        "corrupted": corrupt,
    }
    measured = {"deviation": rep.max_deviation,
                "tangential_ratio": rep.tangential_ratio}
    return report, measured, {"trajectory": traj, "paths": paths}


def decay_pipeline(cfg: ExperimentConfig):
    _, traj = _run_flow(cfg)
    fit3 = analysis.fit_decay(traj, order=3)
    fit4 = analysis.fit_decay(traj, order=4)
    report = {"pipeline": "decay", "fit3": fit3.to_dict(), "fit4": fit4.to_dict()}
    measured = {"exponent3": fit3.exponent, "exponent4": fit4.exponent}
    return report, measured, {"trajectory": traj, "ratefits": [fit3, fit4]}


def blowdown_pipeline(cfg: ExperimentConfig):
    _, traj = _run_flow(cfg)
    if not isinstance(traj.state.boundary, QuadraticFarField):
        raise ConfigError("blow-down comparisons need a quadratic far field")
    A = traj.state.boundary.A

    def U1(pts):
        return 0.5 * np.einsum("ki,ij,kj->k", pts, A, pts)

    rep = analysis.blowdown_convergence(traj, U1, window_half=analysis.BLOWDOWN_WINDOW,
                                        monotone_from=analysis.MONOTONE_FROM)
    report = {"pipeline": "blowdown", **rep.to_dict()}
    measured = {"monotone": rep.monotone, "final_error": rep.final_error}
    return report, measured, {"trajectory": traj,
                              "ratefits": [rep.fit] if rep.fit else []}


def plane_pipeline(cfg: ExperimentConfig):
    _, traj = _run_flow(cfg)
    rep = analysis.plane_convergence(traj, window_half=analysis.PLANE_WINDOW)
    return {"pipeline": "plane", **rep.to_dict()}, rep.measured(), {"trajectory": traj}


class Refinement(NamedTuple):
    """A refinement pair: the finer level (:func:`finer_level`) must pass its
    own checks and read ``key`` at most ``max(coarse / ratio, floor)``."""

    key: str
    ratio: float
    floor: float
    halves_spacing: bool = False


class Pipeline(NamedTuple):
    """A pipeline's runner, its frozen thresholds (which loading copies into
    ``check``; no config sets them), whether it evolves initial data (reads
    ``initial`` and ``flow``), the keys it reads from ``mcf``, each mapped to
    its default, its refinement pair, if it has one, and the fewest
    snapshots its runner reads, with the time they start at."""

    runner: Callable
    check: dict = {}
    evolves: bool = True
    mcf: dict = {}
    refinement: Refinement | None = None
    snapshots: tuple = (0, 0.0)


PIPELINES = {
    "flow": Pipeline(flow_pipeline),
    "quadratic_exact": Pipeline(quadratic_exact_pipeline,
                                {"sup_error": 1e-8, "runtime_s": 10.0}),
    "condition_b": Pipeline(condition_b_pipeline, {"drift": 5e-3},
                            refinement=Refinement("drift", 3.0, 1e-6)),
    "heat_oracle": Pipeline(heat_oracle_pipeline, {"sup_diff": 5e-4},
                            refinement=Refinement("sup_diff", 3.0, 0.0)),
    "expander_stationarity": Pipeline(
        expander_stationarity_pipeline, {"residual": 0.05}, evolves=False,
        refinement=Refinement("residuals", 3.0, 0.0)),
    "expander_cross": Pipeline(
        expander_cross_pipeline,
        {"profile_gap": 1e-4, "newton_residual": 1e-10, "newton_iterations": 15},
        evolves=False, refinement=Refinement("profile_gap", 3.0, 0.0)),
    "legendre_dual": Pipeline(legendre_dual_pipeline,
                              {"bump_residual": 1e-2},
                              refinement=Refinement("bump_residual", 3.0, 0.0,
                                                    halves_spacing=True),
                              snapshots=(legendre.DUAL_SNAPSHOTS, 0.0)),
    "mcf_verify": Pipeline(mcf_verify_pipeline,
                           {"deviation": 5e-3, "tangential_ratio": 0.10},
                           mcf={"seeds": [[0.0]], "t_start": None}),
    "decay": Pipeline(decay_pipeline, {"exponent3": [-1.3, -0.7],
                                       "exponent4": [-2.4, -1.6], "runtime_s": 120.0},
                      snapshots=(analysis.FIT_SAMPLES, analysis.DECAY_FROM)),
    "blowdown": Pipeline(blowdown_pipeline, {"final_error": 0.02}),
    "plane": Pipeline(plane_pipeline, {"final_max_gradient": 0.02}),
}


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _within(measured, bound) -> bool:
    """The one comparison of a measurement with its bound."""
    if isinstance(measured, dict):
        return all(_within(v, bound[k] if isinstance(bound, dict) else bound)
                   for k, v in measured.items())
    if isinstance(bound, bool):
        return measured is bound
    if measured is None:  # a fit that found nothing to fit
        return False
    if isinstance(bound, list):
        lo, hi = bound
        return lo <= measured <= hi
    return measured <= bound


def judge(check: dict, measured: dict) -> list:
    """One ``{key, bound, measured, ok}`` entry per measured value.

    A number is bounded by ``check[key]``: a scalar bound means
    ``measured <= bound``, a ``[lo, hi]`` pair ``lo <= measured <= hi``, and
    a dict of numbers must hold the bound entry by entry.  A condition with
    no table bound is a bool, reported with bound ``true``.
    """
    checks = []
    for key, value in measured.items():
        bound = True if isinstance(value, bool) else check[key]
        checks.append({"key": key, "bound": bound, "measured": value,
                       "ok": _within(value, bound)})
    return checks


def finer_level(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg at ``grid.m -> 2m - 1``; with ``halves_spacing``, the snapshot times
    and ``t_end`` move halfway toward the middle snapshot time (loading
    refuses a duality config without the snapshot times it needs)."""
    flow = dict(cfg.flow)
    if PIPELINES[cfg.pipeline].refinement.halves_spacing:
        times = flow["snapshot_times"]
        mid = times[len(times) // 2]
        flow["snapshot_times"] = [mid + (t - mid) / 2 for t in times]
        flow["t_end"] = mid + (flow["t_end"] - mid) / 2
    return dataclasses.replace(cfg, grid={**cfg.grid, "m": 2 * cfg.domain().m - 1},
                               flow=flow)


def refinement_check(ref: Refinement, coarse, fine, level: str) -> dict:
    """The refinement clause as a checks entry: ``fine <= max(coarse / ratio,
    floor)``, elementwise over a per-time dict."""
    if isinstance(coarse, dict):
        bound = {k: max(v / ref.ratio, ref.floor) for k, v in coarse.items()}
    else:
        bound = max(coarse / ref.ratio, ref.floor)
    key = f"{ref.key} refinement ({level})"
    return judge({key: bound}, {key: fine})[0]


def run_pipeline(cfg: ExperimentConfig):
    """Run and judge cfg's pipeline: ``(report, artifacts)``.  The report
    gains ``checks`` (:func:`judge` over the runner's measured values),
    ``passed`` (their conjunction), ``runtime_s`` (the runner's wall time,
    which no verdict here reads) and, for a pipeline with a trajectory,
    ``counters`` (:meth:`~logflow.flow.FlowState.run_counters`)."""
    tic = time.perf_counter()
    report, measured, artifacts = PIPELINES[cfg.pipeline].runner(cfg)
    report["runtime_s"] = time.perf_counter() - tic
    if "trajectory" in artifacts:
        report["counters"] = artifacts["trajectory"].state.run_counters()
    report["checks"] = judge(cfg.check, measured)
    report["passed"] = all(c["ok"] for c in report["checks"])
    return report, artifacts


def gate(cfg: ExperimentConfig):
    """What the acceptance gate and ``--check`` judge: ``(report, artifacts,
    timing)``: a refined report gains the finer level's checks and the clause;
    ``timing`` judges wall time against ``check.runtime_s`` outside the
    report, which stays deterministic."""
    ref = PIPELINES[cfg.pipeline].refinement
    fine_cfg = finer_level(cfg) if ref is not None else None
    report, artifacts = run_pipeline(cfg)
    if fine_cfg is not None:
        fine, _ = run_pipeline(fine_cfg)
        level = f"m = {fine_cfg.domain().m}"
        report["checks"] += [{**c, "key": f"{c['key']} ({level})"} for c in fine["checks"]]
        report["checks"].append(refinement_check(ref, report[ref.key], fine[ref.key], level))
        report["passed"] = all(c["ok"] for c in report["checks"])
    timing = (judge(cfg.check, {"runtime_s": report["runtime_s"]})
              if "runtime_s" in cfg.check else [])
    return report, artifacts, timing
