"""Solvers and certification for the self-expander Monge-Ampere equation.

The stationary profile of a self-similarly expanding flow solves

    (1/n) ln det D2u = u - <x, Du>/2,

the steady state of the rescaled logarithmic gradient flow.  Two independent
routes are implemented: shooting of the line equation
u'' = exp(u - x u'/2) from u(0) = a, u'(0) = slope0 along both half-lines,
and a damped Newton iteration on the discretised equation with Dirichlet
data on the boundary ring.  A line solution W gives an expander at every n,
the rotated separable sum of :func:`separable_expander`.  Newton's left side
is the flow's own operator, F_1 of :func:`logflow.flow._ftau`, so the grid
equation it solves is the one the flow integrates; its block-tridiagonal
Jacobian is eliminated block by block with numpy.  The shoot steps with a
private adaptive Dormand-Prince 5(4) pair on Python floats (the ODE has two
unknowns): the tableau, error estimate and step control of scipy's RK45,
with the RMS error norm over rtol = 1e-10, atol = 1e-12, safety 0.9 and
step factors in [0.2, 10].  Its dense output is the pair's own quartic
interpolant (Shampine's coefficients), fifth-order accurate between steps;
a cubic Hermite interpolant is not accurate enough for the stationarity
refinement check.  Certification reports Hessian bounds,
the degree-2 homogeneity defect of the profile's blow-down against its own
far-field quadratic, and the residual of the Bernstein-type identity
u^{ij} w_ij = <x, Dw>/2 for w = u - <x, Du>/2 (w is constant exactly on
quadratic solutions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BlowupError, ConfigError, EmptyCoincidenceError, NewtonStall,
                     NonConvexityError, RangeError)
from .flow import _ftau
from .grid import (GridFunction, HessianField, coincident_index_sets, gradient,
                   hessian)

__all__ = [
    "ExpanderSolution",
    "line_profile",
    "separable_expander",
    "newton_solve",
    "certify",
    "CertificationReport",
]

_RTOL, _ATOL = 1e-10, 1e-12   # tolerances of the ODE integrations
# step budget of one half-line: the pipelines' line profiles take 57-96
# steps and one from u(0) = 10 to x = 1 takes 6702; from u(0) = 20 the
# budget runs out at x = 0.048
_MAX_STEPS = 100_000
# a block of the Newton solve's elimination takes whole slices along axis 0,
# as many as fit in this many unknowns: below about 32 unknowns numpy's
# per-call cost outweighs a dense block's cubic cost (timed at n = 1 and 2)
_BLOCK = 32
_ROTATION = 0.3   # the separable expander's angle in the (x1, x2) plane


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) stepper
# ---------------------------------------------------------------------------

# Dormand & Prince, J. Comput. Appl. Math. 6 (1980): nodes, stages, the
# fifth-order weights and the weights of the embedded error estimate; the
# last error weight multiplies the first-same-as-last stage f(t + h, y_new)
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# Shampine, Math. Comp. 46 (1986): the quartic dense output
# y(t + x h) = y + h sum_k (K P)_k x^(k+1), one row per stage
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _dot(weights, stages) -> float:
    return sum(w * k for w, k in zip(weights, stages))


def _rms(a: float, b: float) -> float:
    return math.sqrt(0.5 * (a * a + b * b))


def _dopri45(f, t0: float, y0, t_end: float):
    """Integrate y' = f(t, y) for two unknowns from t0 to t_end > t0.

    The first step is chosen as scipy's ``select_initial_step`` chooses it; a
    step is accepted when the RMS norm of the error estimate, scaled by
    ``_ATOL + _RTOL * max(|y|, |y_new|)``, is below 1, and the next step
    grows or shrinks by ``0.9 * err^(-1/5)`` clipped to [0.2, 10] (at most 1
    after a rejection).  A step below ten float spacings of t, or
    a step past the budget of ``_MAX_STEPS`` accepted steps, raises
    :class:`BlowupError`.  Returns the dense solution: a callable
    taking a 1-D array of times in [t0, t_end] to the (2, N) array of y; a
    time past t_end raises :class:`RangeError`.  The messages call t x, the
    line variable of :func:`line_profile`, its one caller.
    """
    u, v = y0
    fu, fv = f(t0, (u, v))
    su, sv = _ATOL + abs(u) * _RTOL, _ATOL + abs(v) * _RTOL
    d0, d1 = _rms(u / su, v / sv), _rms(fu / su, fv / sv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t0)
    gu, gv = f(t0 + h0, (u + h0 * fu, v + h0 * fv))
    d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
    h1 = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100.0 * h0, h1, t_end - t0)

    t = t0
    knots, starts, stages = [t0], [], []
    while t < t_end:
        if len(starts) == _MAX_STEPS:
            raise BlowupError(f"no end after {_MAX_STEPS} accepted steps, at x = {t:.6g}")
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise BlowupError(f"step size fell below {min_step:.3g} at x = {t:.6g}")
            t_new = min(t + h_abs, t_end)
            h_abs = h = t_new - t
            ku, kv = [fu], [fv]
            for c, a in zip(_C, _A):
                ku_s, kv_s = f(t + c * h, (u + h * _dot(a, ku), v + h * _dot(a, kv)))
                ku.append(ku_s)
                kv.append(kv_s)
            u_new, v_new = u + h * _dot(_B, ku), v + h * _dot(_B, kv)
            fu_new, fv_new = f(t_new, (u_new, v_new))
            ku.append(fu_new)
            kv.append(fv_new)
            err = _rms(h * _dot(_E, ku) / (_ATOL + max(abs(u), abs(u_new)) * _RTOL),
                       h * _dot(_E, kv) / (_ATOL + max(abs(v), abs(v_new)) * _RTOL))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # NaN compares false, so a NaN error shrinks the step by 0.2
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        knots.append(t_new)
        starts.append((u, v))
        stages.append((ku, kv))
        t, u, v, fu, fv = t_new, u_new, v_new, fu_new, fv_new

    knots = np.array(knots)
    widths = np.diff(knots)
    starts = np.array(starts)
    coeffs = np.array(stages) @ _P   # (steps, 2, 4)

    def dense(times: np.ndarray) -> np.ndarray:
        if times.size and times.max() > t_end:
            raise RangeError(f"profile read at x = {times.max():.6g}, "
                             f"past its end x = {t_end:.6g}")
        # a time on a knot reads the step that ends there
        seg = np.clip(np.searchsorted(knots, times) - 1, 0, len(widths) - 1)
        x = ((times - knots[seg]) / widths[seg])[:, None]
        q = coeffs[seg]
        poly = q[..., 3]
        for k in (2, 1, 0):
            poly = q[..., k] + x * poly
        return (starts[seg] + widths[seg][:, None] * x * poly).T

    return dense


def _line_rhs(x, y):
    """The line equation u'' = exp(u - x u'/2) as a first-order system."""
    u, du = y
    # keep exp finite: a solution that runs away then fails the step control
    return [du, math.exp(min(u - 0.5 * x * du, 700.0))]


def line_profile(a: float, slope0: float, half_width: float):
    """Two-sided 1-D expander solution with u(0) = a, u'(0) = slope0.

    On the line the stationary equation u'' = exp(u - x u'/2) is regular away
    from nothing, so both half-lines are integrated directly; a nonzero slope
    yields the genuinely non-quadratic (asymmetric) solutions whose far-field
    curvatures differ on the two sides.  Returns a vectorised callable u(x)
    for |x| <= half_width; a point past it raises :class:`RangeError`.
    """
    r0 = 1e-6
    c0 = math.exp(a)
    if not half_width > r0:
        raise ConfigError(f"half_width = {half_width:.3g} must exceed r0 = {r0:g}")

    # x -> -x maps the equation to itself and u'(0) to -u'(0), so the left
    # half-line is the right one of the mirrored start
    def shoot(slope):
        start = (a + slope * r0 + 0.5 * c0 * r0 ** 2, slope + c0 * r0)
        return _dopri45(_line_rhs, r0, start, half_width)

    right, left = shoot(slope0), shoot(-slope0)

    def u(x):
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()
        out = np.empty_like(flat)
        mid = np.abs(flat) < r0
        out[mid] = a + slope0 * flat[mid] + 0.5 * c0 * flat[mid] ** 2
        pos = (~mid) & (flat > 0)
        neg = (~mid) & (flat < 0)
        if np.any(pos):
            out[pos] = right(flat[pos])[0]
        if np.any(neg):
            out[neg] = left(-flat[neg])[0]
        return out.reshape(x.shape)

    return u


def separable_expander(n: int, a: float, slope0: float, half_width: float):
    """The expander u(x) = sum_i (W((Rx)_i) - ln n) / n on n coordinate arrays.

    W is :func:`line_profile` ``(a, slope0, half_width)`` and R the rotation
    by ``_ROTATION`` in the (x1, x2) plane.  D2u is R' diag(W''((Rx)_i)) R / n,
    so (1/n) ln det D2u = (1/n) sum_i (W - y W'/2)((Rx)_i) - ln n, which is
    u - <x, Du>/2: the sum solves the equation exactly, at every n and for
    any rotation.  The rotation keeps the Hessian off the grid axes.  Every
    |(Rx)_i| is at most |x|, so ``half_width`` past the largest |x| read
    covers the box.  At n = 1 this is W itself.
    """
    W = line_profile(a, slope0, half_width)
    if n == 1:
        return W
    c, s = math.cos(_ROTATION), math.sin(_ROTATION)

    def u(*x):
        y = (c * x[0] - s * x[1], s * x[0] + c * x[1], *x[2:])
        return sum(W(yi) - math.log(n) for yi in y) / n

    return u


# ---------------------------------------------------------------------------
# residual and Newton iteration on the grid
# ---------------------------------------------------------------------------

def _w_field(u: GridFunction) -> np.ndarray:
    """w = u - <x, Du>/2; the expander equation reads F_1(D2u) = w, with
    F_1 = (1/n) ln det the flow operator at tau = 1 (:func:`_ftau`)."""
    g = gradient(u)
    grids = u.domain.meshgrid()
    return u.values - 0.5 * sum(grids[i] * g[i] for i in range(u.domain.n))


@dataclass
class ExpanderSolution:
    u: GridFunction
    residual_norm: float
    iterations: int
    condition_B: tuple[float, float]

    def __post_init__(self):
        if not np.isfinite(self.residual_norm):
            raise ValueError("residual norm must be finite")
        if self.condition_B[0] <= 0.0:
            raise NonConvexityError("certified solutions must be strictly convex")


def _assemble_jacobian(H: HessianField):
    """Jacobian of the discrete residual F_1(D2u) - w with respect to the
    non-ring unknowns, numbered lexicographically over the (m-2)^n non-ring
    nodes.

    d(F_1(D2u))[v] = (1/n) u^{ij} v_ij,
    dw[v] = v - <x, Dv>/2,

    so the 3^n stencil has the coefficient u^{ij}/n on the second
    differences, drift weights +-x_i/(4h) on the axis neighbours and -1 at
    the centre.  It couples each slice of unknowns along axis 0 only to the
    slices next to it, so the matrix is block tridiagonal.  Returns its
    entries as ``(rows, cols, vals)`` sorted by row; a row lists its
    neighbours in stencil order, and neighbours on the ring, which carry
    fixed Dirichlet data, are left out.
    """
    dom = H.domain
    n, h, m = dom.n, dom.h, dom.m
    grids = dom.meshgrid()

    inner = dom.nonring()
    idx_map = -np.ones(dom.shape, dtype=np.int64)
    n_unknown = (m - 2) ** n
    idx_map[inner] = np.arange(n_unknown).reshape([m - 2] * n)
    coef = H.inverse()[inner] / n

    cols, vals = [], []

    def add(offset, weight):
        # weight: array over the inner block; neighbour at node+offset
        cols.append(idx_map[tuple(slice(1 + o, m - 1 + o) for o in offset)])
        vals.append(weight)

    centre = -1.0
    for i in range(n):
        centre = centre - 2.0 * coef[..., i, i] / h ** 2
    add((0,) * n, centre)

    for i in range(n):
        for s in (+1, -1):
            o = [0] * n
            o[i] = s
            add(tuple(o), coef[..., i, i] / h ** 2 + s * grids[i][inner] / (4.0 * h))

    for i in range(n):
        for j in range(i + 1, n):
            for si in (+1, -1):
                for sj in (+1, -1):
                    o = [0] * n
                    o[i], o[j] = si, sj
                    add(tuple(o), coef[..., i, j] * (si * sj) / (2.0 * h ** 2))

    # one row per unknown, its stencil entries in order along the row
    cols = np.stack(cols, axis=-1).reshape(n_unknown, -1)
    vals = np.stack(vals, axis=-1).reshape(n_unknown, -1)
    keep = cols >= 0
    rows = np.broadcast_to(np.arange(n_unknown)[:, None], cols.shape)
    return rows[keep], cols[keep], vals[keep]


def _block_solve(jac, rhs: np.ndarray, slice_size: int) -> np.ndarray:
    """Solve J x = rhs for the block-tridiagonal Jacobian of
    :func:`_assemble_jacobian` by block Thomas elimination.

    A block holds whole slices of ``slice_size`` unknowns, as many as fit in
    ``_BLOCK`` unknowns and at least one.  Block row k is made dense when it
    is eliminated: ``D_k - L_k C_{k-1}`` is solved by LU with partial
    pivoting (``np.linalg.solve``) against ``[U_k | r_k - L_k y_{k-1}]``,
    giving ``C_k`` and ``y_k``; only the ``C_k`` and ``y_k`` are kept for the
    back substitution ``x_k = y_k - C_k x_{k+1}``.  A singular block raises
    ``np.linalg.LinAlgError``.
    """
    rows, cols, vals = jac
    size = slice_size * max(1, _BLOCK // slice_size)
    edges = list(range(0, rhs.size, size)) + [rhs.size]
    cuts = np.searchsorted(rows, edges)
    C, y = [], []
    for k in range(len(edges) - 1):
        a, b = edges[k], edges[k + 1]
        c0, c1 = edges[max(k - 1, 0)], edges[min(k + 2, len(edges) - 1)]
        part = slice(cuts[k], cuts[k + 1])
        strip = np.zeros((b - a, c1 - c0))
        strip[rows[part] - a, cols[part] - c0] = vals[part]
        lower, diag, upper = strip[:, :a - c0], strip[:, a - c0:b - c0], strip[:, b - c0:]
        r = rhs[a:b]
        if k:
            diag -= lower @ C[-1]
            r = r - lower @ y[-1]
        sol = np.linalg.solve(diag, np.column_stack((upper, r)))
        C.append(sol[:, :-1])
        y.append(sol[:, -1])
    x = [y.pop()]
    while y:
        x.append(y.pop() - C[len(y)] @ x[-1])
    return np.concatenate(x[::-1])


def newton_solve(u_init: GridFunction,
                 dirichlet: GridFunction | None = None) -> ExpanderSolution:
    """Damped Newton iteration for the discrete self-expander equation
    F_1(D2u) = u - <x, Du>/2, with F_1 the flow operator at tau = 1.

    ``dirichlet`` supplies the fixed ring values (defaults to the ring of the
    initial guess).  The iteration stops at a residual of 1e-10 or after 50
    steps.  Each Newton direction solves the block-tridiagonal Jacobian by
    block Thomas elimination (:func:`_block_solve`); a singular block or a
    non-finite direction raises :class:`NewtonStall`.  The line search
    backtracks until the iterate stays strictly convex and the residual
    decreases; a step below 2^-20 raises :class:`NewtonStall`.  Each
    iterate's Hessian is evaluated once and shared by its convexity test,
    its residual and its Jacobian.
    """
    tol, max_iter, min_step = 1e-10, 50, 2.0 ** -20
    dom = u_init.domain
    ring = dom.ring_mask()
    vals = u_init.values.copy()
    if dirichlet is not None:
        vals[ring] = dirichlet.values[ring]
    u = u_init.with_values(vals)

    H = hessian(u)
    if not H.is_strictly_convex():
        raise NonConvexityError("initial guess is not strictly convex")

    inner = dom.nonring()
    R = (_ftau(H, 1.0) - _w_field(u))[inner]
    rnorm = float(np.max(np.abs(R)))
    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            lo, hi = H.eigen_bounds("interior")
            return ExpanderSolution(u=u, residual_norm=rnorm, iterations=it - 1,
                                    condition_B=(lo, hi))
        try:
            delta = _block_solve(_assemble_jacobian(H), -R.ravel(),
                                 (dom.m - 2) ** (dom.n - 1))
        except np.linalg.LinAlgError as exc:
            raise NewtonStall(f"singular Jacobian at iteration {it} "
                              f"(residual {rnorm:.3e})") from exc
        if not np.isfinite(delta).all():
            raise NewtonStall(f"non-finite Newton direction at iteration {it} "
                              f"(residual {rnorm:.3e})")
        delta = delta.reshape(R.shape)
        step = 1.0
        while True:
            trial = u.values.copy()
            trial[inner] += step * delta
            u_try = u.with_values(trial)
            H_try = hessian(u_try)
            if H_try.is_strictly_convex():
                R_try = (_ftau(H_try, 1.0) - _w_field(u_try))[inner]
                r_try = float(np.max(np.abs(R_try)))
                if r_try < rnorm * (1.0 - 1e-4 * step) or r_try <= tol:
                    break
            step *= 0.5
            if step < min_step:
                raise NewtonStall(
                    f"line search stalled at iteration {it} (residual {rnorm:.3e})")
        u, H, R, rnorm = u_try, H_try, R_try, r_try

    if rnorm <= tol:
        lo, hi = H.eigen_bounds("interior")
        return ExpanderSolution(u=u, residual_norm=rnorm, iterations=max_iter,
                                condition_B=(lo, hi))
    raise NewtonStall(f"no convergence in {max_iter} iterations (residual {rnorm:.3e})")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass
class CertificationReport:
    condition_B: tuple[float, float]
    condition_A_defect: float
    bernstein_residual: float
    w_range: float
    is_quadratic: bool
    residual_norm: float

    def to_dict(self) -> dict:
        return {
            "lambda_min": self.condition_B[0],
            "lambda_max": self.condition_B[1],
            "condition_A_defect": self.condition_A_defect,
            "bernstein_residual": self.bernstein_residual,
            "w_range": self.w_range,
            "is_quadratic": self.is_quadratic,
            "residual_norm": self.residual_norm,
        }


def _bernstein_residual(H: HessianField, w: np.ndarray) -> float:
    """Interior sup of u^{ij} w_ij + (n/2) <x, Dw> with w = u - <x, Du>/2.

    On solutions of the expander equation, ln det D2u = n w, so differentiating
    gives u^{ij} u_ijk = n w_k while w_ij = -x_k u_ijk / 2; contracting yields
    u^{ij} w_ij = -(n/2) <x, Dw>.  The residual of that identity vanishes at
    second order on certified solutions and is identically zero (both sides)
    exactly when w is constant, i.e. for quadratic solutions.
    """
    dom = H.domain
    grids = dom.meshgrid()
    wf = GridFunction(dom, w, label="bernstein-w")
    gw = gradient(wf)
    # einsum sums the component-major fields in another order; C order
    # keeps the bits of the contraction
    lhs = np.einsum("...ij,...ij->...", np.ascontiguousarray(H.inverse()),
                    np.ascontiguousarray(hessian(wf).mats))
    drift = 0.5 * dom.n * sum(grids[i] * gw[i] for i in range(dom.n))
    return float(np.max(np.abs((lhs + drift)[dom.interior()])))


def certify(u_or_solution) -> CertificationReport:
    """Certify a candidate expander: bounds, blow-down defect, Bernstein residual.

    The blow-down defect compares R^{-2} u(Rx) at coincident nodes, R = 2
    and 4, against the homogeneous quadratic x'Ax/2 with A the Hessian at a
    corner of the monitored interior; it vanishes for quadratic solutions.
    A bare grid function's ``residual_norm`` is the interior sup of
    F_1(D2u) - w, the residual Newton drives to zero.  The candidate's
    Hessian and w field are evaluated once.
    """
    if isinstance(u_or_solution, ExpanderSolution):
        u, residual_norm = u_or_solution.u, u_or_solution.residual_norm
    else:
        u, residual_norm = u_or_solution, None
    dom = u.domain
    H, w = hessian(u), _w_field(u)
    if residual_norm is None:
        if not H.is_strictly_convex():
            raise NonConvexityError("expander residual needs strict convexity")
        residual_norm = float(np.max(np.abs((_ftau(H, 1.0) - w)[dom.interior()])))

    cond_b = H.eigen_bounds("interior")
    if cond_b[0] <= 0.0:
        raise NonConvexityError("candidate is not strictly convex on the interior")

    k = dom.margin + 1
    A = H.mats[(k,) * dom.n]
    grids = dom.meshgrid()
    quad = np.zeros(dom.shape)
    for i in range(dom.n):
        for j in range(dom.n):
            quad += 0.5 * A[i, j] * grids[i] * grids[j]

    defect = 0.0
    for R in (2.0, 4.0):
        try:
            src, dst = coincident_index_sets(dom, R)
        except EmptyCoincidenceError:
            continue
        defect = max(defect, float(np.max(np.abs(
            u.values[dst] / R ** 2 - quad[src]))))

    bern = _bernstein_residual(H, w)
    w_in = w[dom.interior()]
    w_range = float(np.max(w_in) - np.min(w_in))
    return CertificationReport(condition_B=cond_b, condition_A_defect=defect,
                               bernstein_residual=bern, w_range=w_range,
                               is_quadratic=w_range <= 1e-8,
                               residual_norm=residual_norm)
