"""Explicit time integration of the interpolation family of parabolic flows.

The right-hand side is F_tau(D2u) = (tau/n) ln det D2u + (1 - tau) trace D2u,
which is the heat equation at tau = 0 and the logarithmic gradient flow
du/dt = (1/n) ln det D2u at tau = 1.  The box is truncated, so the outermost
node layer (the ring) takes the values of the initial-data family's closure:
a quadratic far field or a closed-form reference, which
:func:`logflow.presets.make_initial_data` builds with the data.  Everything
inside evolves by the discretised equation with one stepper, damped
second-order Runge-Kutta-Chebyshev (RKC; Sommeijer, Shampine & Verwer,
J. Comput. Appl. Math. 88, 1998).  A step spends as many stages s as the
stability interval beta(s) ~ 0.65 s^2 needs to cover it: each stage is one
evaluation of F_tau, with no Jacobian and no solve, and writes the ring at its
own time.  An inner stage forms only the Hessian entries of the non-ring
block, by the central differences the whole-field Hessian takes there, so
its F_tau and its convexity verdict are bit for bit the whole field's; it
is combined with the earlier stages on that block alone.  The step size
comes from RKC's embedded error estimate, which costs no further F_tau
evaluation: a step is accepted when the estimate's interior RMS is at most
a tolerance of order h^3, and the next step scales with the cube root of
the ratio.  The first step is the parabolic limit :func:`dt_stable`.  Every
F_tau evaluation checks convexity, and a step whose stage or result loses
it is retried at half the step.  Each iterate's Hessian (a trial step's
result included) is assembled once and shared by the step acceptance, the
stage count, F_tau and the monitors; its eigenvalue bounds and its
convexity verdict are computed once per region, and its determinant once,
for both the verdict and F_tau.  A quadratic far field keeps the
time-independent part of its ring values per domain and adds t * rate per
call.  A run counts its rejected trials, the steps that needed one and its
F_tau evaluations in :class:`RunCounters`.
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
from .grid import (BoxDomain, GridFunction, HessianField, _det, _nonring_hessian,
                   _require_finite, _sylvester, gradient, hessian, third_derivative_norm)

__all__ = [
    "QuadraticFarField",
    "ReferenceSolution",
    "FlowState",
    "RunCounters",
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
class RunCounters:
    """What one integration spent beyond its accepted steps: trial steps
    rejected for convexity or for their error estimate, accepted steps taken
    shorter than first tried, and F_tau evaluations, those of rejected trials
    included (one per Hessian)."""

    rejected_trials: int = 0
    halved_steps: int = 0
    f_evals: int = 0


@dataclass
class FlowState:
    """One iterate; its Hessian and F_tau values are evaluated on first use and
    kept.  The states of one run share one :class:`RunCounters`.  ``err`` and
    ``residual`` describe the step that produced the state (both 0 at the
    start): its error estimate over the tolerance, and the interior sup of
    ``(u - u_prev) / dt - (F + F_prev) / 2``."""

    u: GridFunction
    t: float
    tau: float
    boundary: BoundaryModel
    step_count: int = 0
    counters: RunCounters = field(default_factory=RunCounters)
    err: float = 0.0
    residual: float = 0.0

    @cached_property
    def H(self) -> HessianField:
        return hessian(self.u)

    @cached_property
    def F(self) -> np.ndarray:
        """F_tau(D2u); shared by every reader, so never written to."""
        self.counters.f_evals += 1
        return _ftau(self.H, self.tau)

    def run_counters(self) -> dict:
        """The run's counters up to this state, accepted steps included."""
        return {"accepted_steps": self.step_count, **vars(self.counters)}


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

_CONVEXITY_LOST = "strict convexity lost while evaluating the flow operator"


def _ftau(H: HessianField, tau: float) -> np.ndarray:
    """F_tau(D2u) on every node where the Hessian is defined; convexity is
    enforced on the non-ring nodes whenever tau > 0.  The one discretisation
    of the operator: at tau = 1 it is also the left side of the expander's
    Newton residual and of Legendre's dual residual."""
    if tau == 0.0:
        return _ftau_of(H.mats, tau, None)
    if not H.is_strictly_convex():
        raise NonConvexityError(_CONVEXITY_LOST)
    # convexity is enforced off the ring only: a ring node's one-sided
    # Hessian may have det <= 0 and gets a finite value no reader uses
    det = H.det()
    return _ftau_of(H.mats, tau, np.where(det > 0.0, det, 1.0))


def _stage_ftau(values: np.ndarray, domain: BoxDomain, tau: float) -> np.ndarray:
    """F_tau of an RKC stage's values on the (m-2)^n non-ring block.

    Bit for bit ``_ftau(hessian(u), tau)[nonring]`` with its checks: the
    values are those of a valid grid function, ring included (else
    ValueError), and, when tau > 0, every non-ring node's Hessian is
    strictly convex (else NonConvexityError).  No ring node's entry is
    formed (see :func:`~logflow.grid._nonring_hessian`).
    """
    _require_finite(values)
    mats = _nonring_hessian(values, domain.h)
    if tau == 0.0:
        return _ftau_of(mats, tau, None)
    det = _det(mats)
    if not _sylvester(mats) or (det <= 0.0).any():
        raise NonConvexityError(_CONVEXITY_LOST)
    return _ftau_of(mats, tau, det)


def _ftau_of(mats: np.ndarray, tau: float, det: np.ndarray | None) -> np.ndarray:
    """F_tau of the symmetric matrices ``mats`` (..., n, n), of determinants
    ``det`` > 0 (unread at tau = 0): the operator's formula, which reads the
    diagonal and, through ``det``, the upper triangle.  At tau = 1 it forms
    no trace: its term trace * 0.0 is +-0.0 for finite entries, and adding
    it changes no f, since log never returns -0.0."""
    n = mats.shape[-1]
    if tau != 0.0:
        f = np.log(det)
        f *= tau / n
        if tau == 1.0:
            return f
    # einsum's trace adds to 0.0, which turns -0.0 into +0.0; so does "+ 0.0"
    trace = mats[..., 0, 0] + 0.0 if n == 1 else np.einsum("...ii->...", mats)
    if tau == 0.0:
        return trace
    f += np.multiply(trace, 1.0 - tau, out=trace)
    return f


def dt_stable(state: FlowState) -> float:
    """Parabolic step limit _SAFETY * h^2 / (2 n mu_max): forward Euler's
    stable step h^2 / (2 n mu_max) times the fraction of RKC's stability
    interval in use, which sets RKC's stage count, and the first step of a
    run.

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
    return _SAFETY * dom.h ** 2 / (2.0 * dom.n * mu)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

# RKC damping: away from z = 0 the stability polynomial stays below about
# 1 - eps / 3 in modulus over its interval, which eps shortens by 2 eps / 15
_RKC_EPS = 2.0 / 13.0

# error control: a step is accepted when the interior RMS of its error
# estimate is at most _ERROR_TOL * h^3.  Per-step control leaves a global
# time error of order tol^(2/3), so h^3 keeps it O(h^2) under refinement.
_ERROR_TOL = 1e-2

# the fraction of RKC's stability interval a step uses (see :func:`run`), and
# the rejected trials a step may retry before the run aborts
_SAFETY = 0.5
_MAX_RETRIES = 20


@lru_cache(maxsize=128)
def _rkc_coefficients(s: int) -> tuple:
    """Damped second-order RKC with s stages: ``(beta, mu~_1, stages)``.

    beta is the real stability interval and mu~_1 the first stage's F
    weight; ``stages`` holds, for j = 2..s, the weights ``(mu, nu, mu~,
    gamma~)`` of Y_j and the time fraction c_{j-1} of the stage Y_{j-1} it
    reads.  All come from the Chebyshev polynomials T_j and their first two
    derivatives at w0 = 1 + eps / s^2 (Sommeijer, Shampine & Verwer 1998),
    computed on first use for each s.
    """
    w0 = 1.0 + _RKC_EPS / s ** 2
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * w0 * dT[j - 1] - dT[j - 2] + 2.0 * T[j - 1])
        d2T.append(2.0 * w0 * d2T[j - 1] - d2T[j - 2] + 4.0 * dT[j - 1])
    w1 = dT[s] / d2T[s]
    # b_j = T_j'' / T_j'^2 for j >= 2, and b_0 = b_1 = b_2
    b = [d2T[2] / dT[2] ** 2] * 2 + [d2T[j] / dT[j] ** 2 for j in range(2, s + 1)]
    mu1 = b[1] * w1
    c = [0.0, mu1]
    stages = []
    for j in range(2, s + 1):
        mu = 2.0 * w0 * b[j] / b[j - 1]
        nu = -b[j] / b[j - 2]
        mu_t = 2.0 * w1 * b[j] / b[j - 1]
        a_prev = 1.0 - b[j - 1] * T[j - 1]
        stages.append((mu, nu, mu_t, -a_prev * mu_t, c[j - 1]))
        c.append(mu * c[j - 1] + nu * c[j - 2] + mu_t * (1.0 - a_prev))
    return (w0 + 1.0) / w1, mu1, tuple(stages)


def _rkc_stages(need: float) -> int:
    """The smallest s >= 2 whose stability interval beta(s) reaches ``need``.
    Damping keeps beta(s) below the undamped 2 (s^2 - 1) / 3, so no s under
    sqrt(1.5 need + 1) can reach it."""
    s = max(2, math.ceil(math.sqrt(1.5 * need + 1.0)))
    while _rkc_coefficients(s)[0] < need:
        s += 1
    return s


def _advance(state: FlowState, dt: float) -> FlowState:
    """One tentative damped RKC step; its result's F_tau is not yet evaluated.

    Explicit Euler is stable up to ``dt_stable(state) / _SAFETY``, which puts
    the spectral radius at ``2 _SAFETY / dt_stable(state)``; s stages cover
    dt when ``dt <= beta(s) / 2 * dt_stable(state)``, so ``_SAFETY`` is the
    fraction of the stability interval in use.  F0 is the state's own F, so
    a step evaluates F_tau s times, counting its result's.  The inner stages
    evaluate F_tau on the non-ring block only (:func:`_stage_ftau`, which
    may raise NonConvexityError) and are combined there; each stage's ring
    takes the boundary values at the stage's time.
    """
    u, tau, t, boundary = state.u, state.tau, state.t, state.boundary
    dom = u.domain
    inner = dom.nonring()
    _, mu1, stages = _rkc_coefficients(_rkc_stages(2.0 * dt / dt_stable(state)))
    # the stages live on the non-ring block; each is written into one
    # whole-grid buffer, with the ring at the stage's time, for F_tau to read
    y0, f0 = u.values[inner], state.F[inner]
    prev2, prev = y0, y0 + mu1 * dt * f0
    values = np.empty_like(u.values)
    for mu, nu, mu_t, gamma_t, c_prev in stages:
        values[inner] = prev
        apply_boundary(values, dom, boundary, t + c_prev * dt, tau)
        state.counters.f_evals += 1
        f = _stage_ftau(values, dom, tau)
        # (1 - mu - nu) y0 + mu prev + nu prev2 + mu~ dt f + gamma~ dt f0,
        # summed in that order, on one temporary
        new = np.multiply(y0, 1.0 - mu - nu)
        tmp = np.multiply(prev, mu)
        new += tmp
        new += np.multiply(prev2, nu, out=tmp)
        new += np.multiply(f, mu_t * dt, out=f)
        new += np.multiply(f0, gamma_t * dt, out=tmp)
        prev2, prev = prev, new
    values[inner] = prev
    apply_boundary(values, dom, boundary, t + dt, tau)
    return FlowState(u=u.with_values(values), t=t + dt, tau=tau, boundary=boundary,
                     step_count=state.step_count + 1, counters=state.counters)


def _resize(err: float) -> float:
    """The factor from a step whose error ratio is ``err`` to the next."""
    return min(10.0, max(0.1, 0.8 * max(err, 1e-12) ** (-1.0 / 3.0)))


def step_explicit(state: FlowState, dt: float, tol: float = math.inf) -> FlowState:
    """Advance one accepted RKC step of at most dt.

    A trial whose stage or result loses convexity is retried at half the
    step.  RKC's embedded estimate of the step's error is ``-0.8 dt r`` with
    ``r = (Y1 - Y0) / dt - (F0 + F1) / 2``; a trial whose estimate has an
    interior RMS above ``tol`` is retried at the step :func:`_resize` gives.
    Both kinds of retry count as rejected trials and draw on one budget of
    ``_MAX_RETRIES``; when it runs out, :class:`AbortedNonConvex` names the
    last rejection's cause.  The default ``tol`` accepts every convex trial,
    so dt is then a fixed step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    inner = state.u.domain.interior()
    trial_dt = dt
    for _ in range(_MAX_RETRIES + 1):
        where = "a stage"
        try:
            trial = _advance(state, trial_dt)
            where = "the result"
            trial.F  # when tau > 0 the result must be convex too
        except NonConvexityError:
            state.counters.rejected_trials += 1
            trial_dt *= 0.5
            last = f"convexity lost in {where}"
            continue
        r = ((trial.u.values[inner] - state.u.values[inner]) / trial_dt
             - 0.5 * (state.F[inner] + trial.F[inner]))
        trial.err = 0.8 * trial_dt * math.sqrt(float(np.mean(r * r))) / tol
        if trial.err > 1.0:
            state.counters.rejected_trials += 1
            trial_dt *= _resize(trial.err)
            last = f"error estimate {trial.err:.3g} times the tolerance"
            continue
        trial.residual = float(np.abs(r).max())
        state.counters.halved_steps += trial_dt < dt
        return trial
    raise AbortedNonConvex(f"step rejected after {_MAX_RETRIES} retries at "
                           f"t={state.t:.6g}; the last: {last}", state=state)


def _monitor(state: FlowState, dt: float) -> MonitorRecord:
    lmin, lmax = state.H.eigen_bounds("interior")
    g = gradient(state.u)
    gsq = float(np.sum(g * g, axis=0)[state.u.domain.interior()].max())
    d3 = third_derivative_norm(state.H)
    return MonitorRecord(t=state.t, lambda_min=lmin, lambda_max=lmax,
                         grad_sq_window=gsq, d3_norm=d3, dt=dt, residual=state.residual)


def run(u0: GridFunction, *, tau: float = 1.0, t_end: float, boundary: BoundaryModel,
        snapshot_times: Sequence[float] = (),
        observe: Callable[[FlowState], None] | None = None) -> Trajectory:
    """Integrate to t_end with error-controlled RKC steps, exact snapshot
    landings and monitors.

    ``boundary`` supplies the ring values at every time.  The initial data is
    checked for strict convexity on the grid when tau > 0 (a warning, not an
    error: the continuum statement guarantees preservation, the discrete run
    enforces it step by step).  A config's flow section is passed here as
    keyword arguments, so these defaults are the flow defaults
    (:data:`FLOW_KEYS`); JSON numbers of either kind are accepted for
    ``tau`` and ``t_end``.  The initial state and every accepted
    state are monitored, and a state is snapshot when it lands on a snapshot
    time or at t_end.  ``observe``, when given, sees each monitored state,
    after its landing, one at a time; it is not a config key.

    The first step is :func:`dt_stable` of the initial state.  Each accepted
    step's error estimate, over the tolerance ``_ERROR_TOL * h^3``, sets the
    next step (:func:`step_explicit`), and a step is shortened to land on the
    next snapshot time and on ``t_end``.  ``_SAFETY`` is the fraction of
    RKC's stability interval in use: the fewest stages s with ``beta(s) >=
    need = 2 dt / dt_stable(state)`` leave it at ``_SAFETY * need / beta(s)
    <= _SAFETY``.  The error control rejects the steps an unstable fraction
    spoils, so a fraction above 1 may still give a stable run.
    """
    tau, t_end = float(tau), float(t_end)
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    dom = u0.domain
    state = FlowState(u=u0, t=0.0, tau=tau, boundary=boundary)
    if tau > 0.0:
        lmin0, _ = state.H.eigen_bounds("nonring")
        if lmin0 <= 1e-10:
            warnings.warn("initial data is not strictly convex on the grid "
                          f"(lambda_min = {lmin0:.3g})", stacklevel=2)

    targets = sorted({float(s) for s in snapshot_times if 0.0 <= s <= t_end + 1e-12})
    tol = _ERROR_TOL * dom.h ** 3
    snapshots: list = []
    monitors: list = []

    def _record(taken: float) -> None:
        # snap exactly onto a target to keep reference comparisons clean
        if targets and abs(state.t - targets[0]) <= 1e-9 * max(1.0, targets[0]):
            state.t = targets.pop(0)
            snapshots.append((state.t, state.u))
        if observe is not None:
            observe(state)
        monitors.append(_monitor(state, taken))

    state.F  # non-convex initial data fails here, before the first step
    _record(0.0)
    dt = dt_stable(state)
    while state.t < t_end - 1e-12:
        step = min(dt, t_end - state.t)
        if targets:
            step = min(step, targets[0] - state.t)
        new_state = step_explicit(state, step, tol)
        taken = new_state.t - state.t
        dt = taken * _resize(new_state.err)
        state = new_state  # the previous iterate is released here
        _record(taken)

    if not snapshots or snapshots[-1][0] < state.t - 1e-12:
        snapshots.append((state.t, state.u))
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

