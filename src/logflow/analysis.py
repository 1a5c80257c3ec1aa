"""Asymptotic-behaviour experiments: homogeneity and pinching checks, blow-down
convergence toward the attracting expander, decay-rate fits of higher
derivatives, and long-time flattening of bounded-gradient graphs.

Everything here consumes trajectories or snapshots from the flow module and
reduces them to small reports of measured values, which the pipelines judge
against their frozen thresholds, so the qualitative statements become
regression-testable numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (EmptyCoincidenceError, InsufficientSamples, WindowEscape)
from .grid import (BoxDomain, GridFunction, coincident_index_sets,
                   derivative_sup_norm, gradient, hessian, sample)

__all__ = [
    "check_condition_A",
    "check_condition_B",
    "ConditionBReport",
    "RateFit",
    "fit_decay",
    "blowdown_convergence",
    "BlowdownReport",
    "plane_convergence",
    "PlaneReport",
]


# ---------------------------------------------------------------------------
# pointwise data conditions
# ---------------------------------------------------------------------------

def check_condition_A(u: GridFunction, scales: Sequence[float] = (2.0, 4.0)) -> float:
    """Degree-2 homogeneity defect: max over scales and coincident nodes of
    |u(x) - u(Rx)/R^2|; zero exactly for homogeneous-of-degree-two data."""
    worst = 0.0
    hit = False
    for R in scales:
        try:
            src, dst = coincident_index_sets(u.domain, R)
        except EmptyCoincidenceError:
            continue
        hit = True
        worst = max(worst, float(np.max(np.abs(
            u.values[src] - u.values[dst] / R ** 2))))
    if not hit:
        raise EmptyCoincidenceError("no scale produced coincident nodes")
    return worst


@dataclass
class ConditionBReport:
    lambda_min: float
    lambda_max: float
    lower: float
    upper: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def check_condition_B(u: GridFunction, lower: float, upper: float) -> ConditionBReport:
    """Uniform Hessian pinching lower*I <= D2u <= upper*I on the interior.

    The tolerance 1e-8 + h^2 absorbs grid rounding plus the second-order
    discretisation error of the Hessian stencils.
    """
    if lower > upper:
        raise ValueError("need lower <= upper")
    lo, hi = hessian(u).eigen_bounds("interior")
    tol = 1e-8 + u.domain.h ** 2
    passed = (lo >= lower - tol) and (hi <= upper + tol)
    return ConditionBReport(lambda_min=lo, lambda_max=hi, lower=lower,
                            upper=upper, tol=tol, passed=passed)


# ---------------------------------------------------------------------------
# decay-rate fitting
# ---------------------------------------------------------------------------

# the fewest samples a rate fit takes, and the first time the decay fit reads
FIT_SAMPLES = 5
DECAY_FROM = 0.25

@dataclass
class RateFit:
    quantity: str
    times: list
    values: list
    exponent: float | None
    coefficient: float | None
    max_log_residual: float | None
    identically_zero: bool = False

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def _loglog_fit(times, values, quantity) -> RateFit:
    t = np.asarray(times, dtype=np.float64)
    q = np.asarray(values, dtype=np.float64)
    if t.size < FIT_SAMPLES:
        raise InsufficientSamples(f"rate fits need at least {FIT_SAMPLES} samples")
    if np.max(np.abs(q)) <= 1e-13:
        return RateFit(quantity=quantity, times=list(t), values=list(q),
                       exponent=None, coefficient=None, max_log_residual=None,
                       identically_zero=True)
    lt, lq = np.log(t), np.log(q)
    slope, intercept = np.polyfit(lt, lq, 1)
    resid = float(np.max(np.abs(lq - (slope * lt + intercept))))
    return RateFit(quantity=quantity, times=list(t), values=list(q),
                   exponent=float(slope), coefficient=float(np.exp(intercept)),
                   max_log_residual=resid)


def fit_decay(trajectory, order: int) -> RateFit:
    """Log-log fit of the squared interior sup norm of the derivative tensor
    of the given order against snapshot times t >= DECAY_FROM."""
    samples = [(t, u) for t, u in trajectory.snapshots if t >= DECAY_FROM - 1e-12]
    if len(samples) < FIT_SAMPLES:
        raise InsufficientSamples(f"need >= {FIT_SAMPLES} snapshots at "
                                  f"t >= {DECAY_FROM}, found {len(samples)}")
    times = [t for t, _ in samples]
    values = [derivative_sup_norm(u, order) ** 2 for _, u in samples]
    return _loglog_fit(times, values, quantity=f"D{order}norm2")


# ---------------------------------------------------------------------------
# blow-down convergence
# ---------------------------------------------------------------------------

# the blow-down pipeline's window half-width and the first error index its
# monotonicity verdict reads, so it needs MONOTONE_FROM + 2 positive times
BLOWDOWN_WINDOW, MONOTONE_FROM = 1.0, 2

@dataclass
class BlowdownReport:
    times: list
    errors: list
    monotone_from: int
    monotone: bool
    final_error: float
    fit: RateFit | None

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["fit"] = self.fit.to_dict() if self.fit is not None else None
        return d


def blowdown_convergence(trajectory, U1: Callable,
                         window_half: float, *, monotone_from: int) -> BlowdownReport:
    """Convergence of t^{-1} u(sqrt(t) x, t) toward the expander profile U1.

    For each snapshot time the rescaled solution is cubically sampled on the
    fixed window and compared against U1, a function of the (k, n) array of
    window points.  ``monotone`` says whether the errors decrease strictly
    from index ``monotone_from`` on; an index that leaves no pair to compare
    raises :class:`InsufficientSamples`.
    """
    dom = trajectory.snapshots[0][1].domain
    margin_limit = dom.half_width - (dom.margin + 1) * dom.h
    times, errors = [], []
    window = BoxDomain(n=dom.n, half_width=window_half,
                       m=min(dom.m, 65), margin=0)
    pts = window.points()
    target = np.asarray(U1(pts), dtype=np.float64)
    for t, u in trajectory.snapshots:
        if t <= 0.0:
            continue
        stretch = np.sqrt(t) * window_half
        if stretch > margin_limit:
            raise WindowEscape(
                f"sqrt(t) * window = {stretch:.3g} exceeds the usable box "
                f"{margin_limit:.3g}; cap T at {(margin_limit / window_half) ** 2:.3g}")
        vals = sample(u.values, dom, np.sqrt(t) * pts, order=3) / t
        times.append(t)
        errors.append(float(np.max(np.abs(vals - target))))
    if monotone_from > len(errors) - 2:
        raise InsufficientSamples(
            f"monotone_from = {monotone_from} leaves no pair of the "
            f"{len(errors)} blow-down errors to compare")
    monotone = all(errors[k + 1] < errors[k]
                   for k in range(monotone_from, len(errors) - 1))
    fit = None
    if len(errors) >= FIT_SAMPLES:
        fit = _loglog_fit(times, errors, quantity="blowdown_error")
    return BlowdownReport(times=times, errors=errors, monotone_from=monotone_from,
                          monotone=monotone, final_error=errors[-1], fit=fit)


# ---------------------------------------------------------------------------
# long-time flattening of bounded-gradient graphs
# ---------------------------------------------------------------------------

# the plane pipeline's window half-width, also ``analyze plane``'s default
PLANE_WINDOW = 2.0

@dataclass
class PlaneReport:
    hypothesis_ok: bool
    note: str
    times: list = field(default_factory=list)
    max_gradient: list = field(default_factory=list)
    affine_deviation: list = field(default_factory=list)
    decreasing: bool = False
    final_max_gradient: float | None = None

    def to_dict(self) -> dict:
        return self.__dict__.copy()

    def measured(self) -> dict:
        """The values the plane verdict judges."""
        return {"hypothesis_ok": self.hypothesis_ok, "decreasing": self.decreasing,
                "final_max_gradient": self.final_max_gradient}


def plane_convergence(trajectory, window_half: float) -> PlaneReport:
    """Flattening of the graph (x, Du) for bounded-gradient data.

    The testable reading uses linear-plus-decaying-gradient data (a pinched
    convex potential cannot have a bounded gradient on all of space, so the
    hypothesis is checked and flagged rather than assumed): per snapshot the
    report records the window sup of |Du| and the deviation of Du from its
    best affine fit, and whether both decrease from t = 1 on.
    """
    snaps = trajectory.snapshots
    dom = snaps[0][1].domain
    g0 = gradient(snaps[0][1])
    mag0 = np.sqrt(sum(g0[i] ** 2 for i in range(dom.n)))
    peak = np.unravel_index(np.argmax(mag0), dom.shape)
    k = dom.margin + 1
    if any(i < k or i >= dom.m - k for i in peak):
        return PlaneReport(hypothesis_ok=False,
                           note="initial gradient peaks at the boundary: "
                                "sup |Du0| is not grid-testable (hypothesis violated)")

    sl = dom.window(window_half)
    grids = dom.meshgrid()
    coords = np.stack([g[sl].ravel() for g in grids], axis=-1)
    design = np.concatenate([np.ones((coords.shape[0], 1)), coords], axis=1)

    times, max_grad, affine_dev = [], [], []
    for t, u in snaps:
        g = gradient(u)
        mag = np.sqrt(sum(g[i] ** 2 for i in range(dom.n)))[sl]
        times.append(t)
        max_grad.append(float(np.max(mag)))
        dev = 0.0
        for i in range(dom.n):
            comp = g[i][sl].ravel()
            coef, *_ = np.linalg.lstsq(design, comp, rcond=None)
            dev = max(dev, float(np.max(np.abs(comp - design @ coef))))
        affine_dev.append(dev)

    idx = [i for i, t in enumerate(times) if t >= 1.0 - 1e-12]
    decreasing = all(max_grad[b] < max_grad[a] + 1e-12 and
                     affine_dev[b] < affine_dev[a] + 1e-12
                     for a, b in zip(idx, idx[1:]))
    final = max_grad[idx[-1]] if idx else max_grad[-1]
    return PlaneReport(hypothesis_ok=True, note="compact-perturbation reading",
                       times=times, max_gradient=max_grad,
                       affine_deviation=affine_dev, decreasing=decreasing,
                       final_max_gradient=final)
