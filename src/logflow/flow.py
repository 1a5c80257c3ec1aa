"""Explicit time integration of the interpolation family of parabolic flows.

The right-hand side is F_tau(D2u) = (tau/n) ln det D2u + (1 - tau) trace D2u,
which is the heat equation at tau = 0 and the logarithmic gradient flow
du/dt = (1/n) ln det D2u at tau = 1.  The box is truncated, so the outermost
node layer (the ring) takes the values of the initial-data family's closure:
a quadratic far field or a closed-form reference, which
:func:`logflow.presets.make_initial_data` builds with the data.  Everything
inside evolves by the discretised equation with forward Euler or explicit
midpoint (RK2) stepping under a parabolic CFL limit derived from the
linearised operator.  Each iterate's Hessian is assembled once and shared
by the step acceptance, the step limit, F_tau and the monitors; its
eigenvalue bounds and its convexity verdict are computed once per region,
and its determinant once, for both the verdict and F_tau.  A quadratic far
field keeps the time-independent part of its ring values per domain and
adds t * rate per call.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import AbortedNonConvex, NonConvexityError
from .grid import (BoxDomain, GridFunction, HessianField, gradient, hessian,
                   third_derivative_norm)

__all__ = [
    "QuadraticFarField",
    "ReferenceSolution",
    "FlowState",
    "MonitorRecord",
    "Trajectory",
    "dt_stable",
    "step_explicit",
    "run",
    "pde_residual",
]


# ---------------------------------------------------------------------------
# boundary models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticFarField:
    """Far field u(x, t) = x'Ax/2 + b.x + c + t * rate(tau).

    A quadratic evolves exactly under every member of the flow family, with
    the x-independent rate (tau/n) ln det A + (1 - tau) tr A, so this is the
    exact closure whenever the data is quadratic outside a compact set.
    """

    A: np.ndarray
    b: np.ndarray
    c: float = 0.0
    _trace: float = field(init=False, repr=False, compare=False)
    _det: float = field(init=False, repr=False, compare=False)
    # per domain, the time-independent part of the ring values
    _ring: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("far-field matrix must be symmetric")
        object.__setattr__(self, "_trace", float(np.trace(A)))
        object.__setattr__(self, "_det", float(np.linalg.det(A)))

    def rate(self, tau: float, n: int) -> float:
        if tau == 0.0:
            return self._trace
        if self._det <= 0.0:
            raise NonConvexityError("quadratic far field needs det A > 0 when tau > 0")
        return tau / n * math.log(self._det) + (1.0 - tau) * self._trace

    def values_at(self, pts: np.ndarray, t: float, tau: float, n: int) -> np.ndarray:
        return self._static(pts) + t * self.rate(tau, n)

    def ring_values(self, domain: BoxDomain, t: float, tau: float) -> np.ndarray:
        """:meth:`values_at` on the ring of ``domain``; only ``t * rate`` is
        evaluated per call, the rest once per domain."""
        static = self._ring.get(domain)
        if static is None:
            static = self._ring[domain] = self._static(_ring_info(domain)[1])
        return static + t * self.rate(tau, domain.n)

    def _static(self, pts: np.ndarray) -> np.ndarray:
        quad = 0.5 * np.einsum("ki,ij,kj->k", pts, self.A, pts)
        return quad + pts @ self.b + self.c


@dataclass(frozen=True)
class ReferenceSolution:
    """Closed-form reference u_ref(points, t) used as exact Dirichlet data."""

    fn: Callable[[np.ndarray, float], np.ndarray]

    def values_at(self, pts: np.ndarray, t: float, tau: float, n: int) -> np.ndarray:
        return np.asarray(self.fn(pts, t), dtype=np.float64)

    def ring_values(self, domain: BoxDomain, t: float, tau: float) -> np.ndarray:
        return self.values_at(_ring_info(domain)[1], t, tau, domain.n)


BoundaryModel = QuadraticFarField | ReferenceSolution

STEPPERS = ("euler", "rk2")


@lru_cache(maxsize=32)
def _ring_info(domain: BoxDomain):
    mask = domain.ring_mask()
    idx = np.nonzero(mask)
    pts = np.stack([domain.axis[i] for i in idx], axis=-1)
    return idx, pts


def apply_boundary(values: np.ndarray, domain: BoxDomain, model: BoundaryModel,
                   t: float, tau: float) -> None:
    """Write the model's ring values at time t."""
    values[_ring_info(domain)[0]] = model.ring_values(domain, t, tau)


# ---------------------------------------------------------------------------
# flow state and monitors
# ---------------------------------------------------------------------------

@dataclass
class MonitorRecord:
    t: float
    lambda_min: float
    lambda_max: float
    grad_sq_window: float
    d3_norm: float
    dt: float
    residual: float

    COLUMNS = ("t", "lambda_min", "lambda_max", "grad_sq_window",
               "d3_norm", "dt", "residual")

    def as_row(self) -> tuple:
        return (self.t, self.lambda_min, self.lambda_max, self.grad_sq_window,
                self.d3_norm, self.dt, self.residual)


@dataclass
class FlowState:
    """One iterate; its Hessian and F_tau values are evaluated on first use and kept."""

    u: GridFunction
    t: float
    tau: float
    boundary: BoundaryModel
    step_count: int = 0

    @cached_property
    def H(self) -> HessianField:
        return hessian(self.u)

    @cached_property
    def F(self) -> np.ndarray:
        """F_tau(D2u); shared by every reader, so never written to."""
        return _ftau(self.H, self.tau)


@dataclass
class Trajectory:
    """Snapshots, monitor records and the final state of one integration; a
    trajectory read back from a run directory has no state."""

    state: FlowState | None
    snapshots: list  # list of (t, GridFunction)
    monitors: list = field(default_factory=list)  # list of MonitorRecord


# ---------------------------------------------------------------------------
# spatial operator
# ---------------------------------------------------------------------------

def _ftau(H: HessianField, tau: float) -> np.ndarray:
    """F_tau(D2u) on every node where the Hessian is defined; convexity is
    enforced on the non-ring nodes whenever tau > 0.  The one discretisation
    of the operator: at tau = 1 it is also the left side of the expander's
    Newton residual and of Legendre's dual residual."""
    n = H.domain.n
    # einsum's trace adds to 0.0, which turns -0.0 into +0.0; so does "+ 0.0"
    trace = H.mats[..., 0, 0] + 0.0 if n == 1 else np.einsum("...ii->...", H.mats)
    if tau == 0.0:
        return trace
    if not H.is_strictly_convex("nonring"):
        raise NonConvexityError("strict convexity lost while evaluating the flow operator")
    det = H.det()
    # ring one-sided values may misbehave; they are unused
    return tau / n * np.log(np.where(det > 0.0, det, 1.0)) + (1.0 - tau) * trace


def dt_stable(state: FlowState, safety: float = 0.5) -> float:
    """Parabolic step limit safety * h^2 / (2 n mu_max).

    mu_max bounds the largest diffusion coefficient of the linearised operator
    (tau/n) u^{ij} d_ij + (1 - tau) Laplacian over the non-ring nodes.
    """
    dom = state.u.domain
    mu = 1.0 - state.tau
    if state.tau > 0.0:
        lmin, _ = state.H.eigen_bounds("nonring")
        if lmin <= 0.0:
            raise NonConvexityError("lambda_min <= 0: no stable explicit step exists")
        mu += state.tau / (dom.n * lmin)
    return safety * dom.h ** 2 / (2.0 * dom.n * mu)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _advance(state: FlowState, dt: float, stepper: str) -> FlowState:
    """One tentative step (may raise NonConvexityError)."""
    u, tau, t, boundary = state.u, state.tau, state.t, state.boundary
    dom = u.domain
    k1 = state.F
    if stepper == "euler":
        new = u.values + dt * k1
    elif stepper == "rk2":
        mid = u.values + 0.5 * dt * k1
        apply_boundary(mid, dom, boundary, t + 0.5 * dt, tau)
        k2 = _ftau(hessian(u.with_values(mid)), tau)
        new = u.values + dt * k2
    else:
        raise ValueError(f"unknown stepper {stepper!r}")
    apply_boundary(new, dom, boundary, t + dt, tau)
    trial = FlowState(u=u.with_values(new), t=t + dt, tau=tau, boundary=boundary,
                      step_count=state.step_count + 1)
    # the new state must itself be convex when tau > 0, else F_tau raises
    # and the step is rejected
    trial.F
    return trial


def step_explicit(state: FlowState, dt: float, stepper: str = "rk2",
                  max_halvings: int = 20) -> FlowState:
    """Advance one accepted step; on convexity failure halve dt and retry."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    trial_dt = dt
    for _ in range(max_halvings + 1):
        try:
            return _advance(state, trial_dt, stepper)
        except NonConvexityError:
            trial_dt *= 0.5
    raise AbortedNonConvex(
        f"step rejected after {max_halvings} halvings at t={state.t:.6g}", state=state)


def _monitor(state: FlowState, dt: float, residual: float, window: tuple) -> MonitorRecord:
    lmin, lmax = state.H.eigen_bounds("interior")
    g = gradient(state.u)
    gsq = float(np.sum(g * g, axis=0)[window].max())
    d3 = third_derivative_norm(state.H)
    return MonitorRecord(t=state.t, lambda_min=lmin, lambda_max=lmax,
                         grad_sq_window=gsq, d3_norm=d3, dt=dt, residual=residual)


def run(u0: GridFunction, *, tau: float = 1.0, t_end: float, boundary: BoundaryModel,
        stepper: str = "rk2", safety: float = 0.5, max_dt: float | None = None,
        snapshot_times: Sequence[float] = (), store_every: int = 0,
        monitor_every: int = 1, monitor_window: float | None = None,
        max_halvings: int = 20,
        observe: Callable[[FlowState], None] | None = None) -> Trajectory:
    """Integrate to t_end with adaptive steps, exact snapshot landings and monitors.

    ``boundary`` supplies the ring values at every time.  The initial data is
    checked for strict convexity on the grid when tau > 0 (a warning, not an
    error: the continuum statement guarantees preservation, the discrete run
    enforces it step by step).  A config's flow section is passed here as
    keyword arguments, so these defaults are the flow defaults
    (:data:`FLOW_KEYS`); JSON numbers of either kind are accepted for the
    float and integer parameters.  ``observe``, when given, sees the initial
    state and every accepted state, after the landing on a snapshot time:
    the states ``store_every = 1`` would store, handed over one at a time
    instead of kept.  It is not a config key.
    """
    tau, t_end, safety = float(tau), float(t_end), float(safety)
    store_every, monitor_every = int(store_every), int(monitor_every)
    max_halvings = int(max_halvings)
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    dom = u0.domain
    state = FlowState(u=u0.copy(), t=0.0, tau=tau, boundary=boundary)
    if tau > 0.0:
        lmin0, _ = state.H.eigen_bounds("nonring")
        if lmin0 <= 1e-10:
            warnings.warn("initial data is not strictly convex on the grid "
                          f"(lambda_min = {lmin0:.3g})", stacklevel=2)

    inner = dom.interior()
    window = dom.window(monitor_window) if monitor_window is not None else inner
    targets = sorted({float(s) for s in snapshot_times if 0.0 <= s <= t_end + 1e-12})
    snapshots: list = []
    monitors: list = []

    def _maybe_snapshot():
        if (targets and abs(state.t - targets[0]) <= 1e-9 * max(1.0, targets[0])):
            targets.pop(0)
            snapshots.append((state.t, state.u.copy()))
        elif store_every and state.step_count % store_every == 0:
            snapshots.append((state.t, state.u.copy()))

    state.F  # non-convex initial data fails here, before the first step
    monitors.append(_monitor(state, 0.0, 0.0, window))
    _maybe_snapshot()
    if observe is not None:
        observe(state)

    while state.t < t_end - 1e-12:
        dt = dt_stable(state, safety)
        if max_dt is not None:
            dt = min(dt, max_dt)
        if targets:
            dt = min(dt, targets[0] - state.t)
        dt = min(dt, t_end - state.t)
        new_state = step_explicit(state, dt, stepper=stepper, max_halvings=max_halvings)
        taken = new_state.t - state.t
        monitored = monitor_every and new_state.step_count % monitor_every == 0
        if monitored:  # only a monitor record reads the step residual
            resid = float(np.abs(
                (new_state.u.values[inner] - state.u.values[inner]) / taken
                - 0.5 * (state.F[inner] + new_state.F[inner])).max())
        state = new_state  # the previous iterate is released here
        # snap exactly onto targets to keep reference comparisons clean
        if targets and abs(state.t - targets[0]) <= 1e-9 * max(1.0, targets[0]):
            state.t = targets[0]
        if observe is not None:
            observe(state)
        if monitored:
            monitors.append(_monitor(state, taken, resid, window))
        _maybe_snapshot()

    if not snapshots or snapshots[-1][0] < state.t - 1e-12:
        snapshots.append((state.t, state.u.copy()))
    return Trajectory(state=state, snapshots=snapshots, monitors=monitors)


# the keys a config's flow section may set, each with its default: every
# keyword argument of run except the boundary model and the observer (t_end
# has no default)
FLOW_KEYS = {name: p.default for name, p in inspect.signature(run).parameters.items()
             if p.kind is p.KEYWORD_ONLY and name not in ("boundary", "observe")}


# ---------------------------------------------------------------------------
# a-posteriori residual
# ---------------------------------------------------------------------------

def pde_residual(u_lo: GridFunction, u_mid: GridFunction, u_hi: GridFunction,
                 dt: float, tau: float) -> float:
    """Interior sup of (u(t+dt) - u(t))/dt - F_tau(D2 u(t+dt/2)).

    The centred difference makes the time-discretisation error O(dt^2), so
    with a small probe step the value measures the spatial consistency of the
    trajectory with the flow equation.
    """
    dom = u_lo.domain
    f_mid = _ftau(hessian(u_mid), tau)
    resid = (u_hi.values - u_lo.values) / dt - f_mid
    return float(np.max(np.abs(resid[dom.interior()])))

