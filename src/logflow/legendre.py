"""Discrete Legendre transform and the flow's exact self-duality check.

u*(y) = sup_x (<x, y> - u(x)) is evaluated by a max over grid nodes followed by
one local Taylor refinement around the arg-max node, which restores O(h^2)
accuracy (and is exact for quadratic u).  The max over the product grid is
taken axis by axis as n nested 1-D maxima, last axis first, at a cost of
O(n m^n m') for m nodes and m' dual nodes per axis; it picks the same node as
a dense scan of all pairs except at floating-point near-ties.  Each pass
copies the running maxima once into contiguous lines along the maximised
axis and scores a block of whole lines at a time against every dual index
of that axis, so the max holds O(block) scores, not a whole pass, with the
same bits as scoring the pass at once.

The transform reads the Hessian and gradient of u from its caller, who takes
them once.  :func:`dual_flow_check` conjugates each snapshot once and hands
back the Hessian pairs that :func:`eigenvalue_swap_gap` compares.

For strictly convex smooth u the conjugate satisfies
D2u*(Du(x)) = (D2u(x))^{-1}; for the logarithmic gradient flow the conjugate
of a solution solves the same equation, because the transform
F*(M) = -F(M^{-1}) of F = (1/n) ln det fixes F.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NonConvexityError, RangeError
from .flow import _ftau
from .grid import (BoxDomain, GridFunction, HessianField, _third_differences, gradient,
                   hessian)

__all__ = [
    "auto_dual_domain",
    "legendre_transform",
    "dual_flow_check",
    "eigenvalue_swap_gap",
]


_BLOCK = 1 << 16
"""Scores per block of the max, 512 kB of float64.  A block holds whole pass
lines (m' m scores each), at least one.  On the duality benchmark's t = 0.5
snapshot (n = 2, m = 97: six lines a block) on a 2-vCPU x86-64 host with
one BLAS thread the max took 2.1-2.5 ms with this block, 2.2-2.7 ms with
1 << 17, 2.5-3.0 ms with 1 << 15, 3.2-4.0 ms with 1 << 14 (one line a block)
and 3.6-3.8 ms with 1 << 18; 1 << 17 also raised that benchmark's peak RSS
by about 1.4 MB (44.4 against 43.0 MB)."""


def _discrete_sup(u: GridFunction, y_domain: BoxDomain) -> tuple[np.ndarray, tuple]:
    """max over nodes x of <x, y> - u(x) for every dual node y, with its arg-max.

    Returns the maxima, shape ``y_domain.shape``, and the arg-max node as a
    tuple of n per-axis index arrays of that shape.  Pass k maximises the
    running maxima over x_k: it copies them once into contiguous lines of
    m values along x_k and scores whole lines against every dual index y_k,
    about ``_BLOCK`` scores at a time (one line when a line holds more).
    The first maximum along the line wins, as in any other layout, so the
    bits do not depend on the block.
    """
    n, m, m_y = u.domain.n, u.domain.m, y_domain.m
    yx = np.multiply.outer(y_domain.axis, u.domain.axis)       # (m', m)
    V, args = -u.values, [None] * n
    for k in range(n - 1, -1, -1):
        # V: (m,)*(k+1) + (m',)*(n-1-k); maximise over x_k on axis k
        lead = V.shape[:k] + V.shape[k + 1:]
        W = np.ascontiguousarray(np.moveaxis(V, k, -1)).reshape(-1, m)
        lines = W.shape[0]
        V_next = np.empty((lines, m_y))
        best = np.empty((lines, m_y), dtype=np.intp)
        width = min(lines, max(1, _BLOCK // (m_y * m)))
        scores = np.empty((width, m_y, m))
        at = np.arange(0, width * m_y * m, m)              # each score row's start
        for r in range(0, lines, width):
            q = min(width, lines - r)
            np.add(W[r:r + q, None, :], yx, out=scores[:q])
            np.argmax(scores[:q], axis=-1, out=best[r:r + q])
            np.take(scores.reshape(-1), at[:q * m_y] + best[r:r + q].reshape(-1),
                    out=V_next[r:r + q].reshape(-1))
        # the dual axis y_k comes last; put it back in place k
        V = np.moveaxis(V_next.reshape(lead + (m_y,)), -1, k)
        args[k] = np.moveaxis(best.reshape(lead + (m_y,)), -1, k)
    ys = np.indices(y_domain.shape)
    idx = []
    for k in range(n):                       # i_k = arg_k[i_0..i_{k-1}, y_k..y_{n-1}]
        idx.append(args[k][tuple(idx) + tuple(ys[k:])])
    return np.ascontiguousarray(V), tuple(idx)


_SHRINK = 0.8  # the automatic dual box's share of the gradient range


def auto_dual_domain(g: np.ndarray, domain: BoxDomain, shrink: float = _SHRINK) -> BoxDomain:
    """Symmetric dual box inside the sampled range of the gradient ``g``.

    The half-width is ``shrink`` times the largest symmetric interval that the
    per-axis gradient ranges support, which keeps every dual node away from
    the gradient-range boundary where the conjugate degenerates.  It has as
    many nodes per axis as the primal grid.
    """
    half = np.inf
    for i in range(domain.n):
        lo, hi = float(np.min(g[i])), float(np.max(g[i]))
        if not (lo < 0.0 < hi):
            raise RangeError("gradient range does not surround the origin; "
                             "supply a dual box explicitly")
        half = min(half, -lo, hi)
    return BoxDomain(n=domain.n, half_width=shrink * half, m=domain.m,
                     margin=domain.margin)


def legendre_transform(u: GridFunction, H: HessianField, g: np.ndarray,
                       y_domain: BoxDomain | None = None) -> GridFunction:
    """Convex conjugate sampled on the dual box (by default the automatic one).

    ``H`` and ``g`` are ``hessian(u)`` and ``gradient(u)``: the caller takes
    them once and may read them again.  Raises :class:`RangeError` when the
    discrete arg-max for some dual node sits on the outermost grid layer,
    which signals that the requested dual point lies outside (or too close
    to the edge of) the sampled gradient range.
    """
    dom = u.domain
    lo, _ = H.eigen_bounds("all")
    if lo <= 0.0:
        raise NonConvexityError("conjugation needs strict convexity on the grid")
    if y_domain is None:
        y_domain = auto_dual_domain(g, dom)

    sup, multi = _discrete_sup(u, y_domain)
    y_pts = y_domain.points()                  # (M, n)
    # arg-max on the outermost layer: dual point outside the gradient hull
    on_edge = np.zeros(y_domain.shape, dtype=bool)
    for axis_idx in multi:
        on_edge |= (axis_idx == 0) | (axis_idx == dom.m - 1)
    if np.any(on_edge):
        k = int(np.flatnonzero(on_edge)[0])
        raise RangeError(f"dual point {y_pts[k]} outside the sampled gradient range")
    best = np.ravel_multi_index(multi, dom.shape).ravel()
    # Third-order nodal Taylor term plus removal of the central-difference
    # gradient bias (h^2/6) u_iii: both keep the refinement error and its
    # arg-max switching jumps at O(h^4), so second differences of the
    # conjugate remain second-order accurate.  Quadratics stay exact.
    third = np.empty((best.size, dom.n, dom.n, dom.n))
    for i, j, l, d in _third_differences(H):
        third[:, l, i, j] = third[:, l, j, i] = d.ravel()[best]
    bias = np.stack([third[:, i, i, i] for i in range(dom.n)], axis=-1)
    grad_at = np.stack([g[i].ravel()[best] for i in range(dom.n)], axis=-1)
    resid = y_pts - (grad_at - (dom.h ** 2 / 6.0) * bias)  # y - Du(x*)
    step = np.einsum("kij,kj->ki", H.inverse()[multi].reshape(-1, dom.n, dom.n), resid)
    star = sup.ravel() + 0.5 * np.einsum("ki,ki->k", resid, step)
    star = star - _cubic(third, step) / 6.0
    return GridFunction(y_domain, star.reshape(y_domain.shape),
                        label=f"conjugate[{u.label}]")


def _cubic(third: np.ndarray, step: np.ndarray) -> np.ndarray:
    """sum over (i, j, l) of third[k, i, j, l] step[k, i] step[k, j] step[k, l]
    for every k: ``np.einsum("kijl,ki,kj,kl->k", ...)`` bit for bit, with its
    products and its sum in the same order, from +0.0 up.  At K = 9409 on a
    2-vCPU x86-64 host it takes 0.20 ms at n = 2 against einsum's 1.5 ms
    (n = 1: 0.03 against 0.06 ms; n = 3: 0.86 against 2.2 ms)."""
    n = step.shape[1]
    cubic = np.zeros(step.shape[0])
    for i, j, l in itertools.product(range(n), repeat=3):
        cubic += third[:, i, j, l] * step[:, i] * step[:, j] * step[:, l]
    return cubic


def eigenvalue_swap_gap(H: HessianField, H_star: HessianField) -> tuple[float, float]:
    """Defects of the dual eigenvalue inequalities between the Hessian ``H``
    of u and the Hessian ``H_star`` of its conjugate.

    Returns (max(0, 1/lambda_max(u) - lambda_min(u*)),
             max(0, lambda_max(u*) - 1/lambda_min(u))); both vanish up to O(h)
    because the dual box samples a subset of the gradient image.
    """
    lo, hi = H.eigen_bounds("interior")
    lo_s, hi_s = H_star.eigen_bounds("interior")
    return max(0.0, 1.0 / hi - lo_s), max(0.0, hi_s - 1.0 / lo)


# the snapshots dual_flow_check reads
DUAL_SNAPSHOTS = 3


def dual_flow_check(snapshots: list) -> tuple[float, list]:
    """Residual of the conjugated trajectory under the same flow equation.

    ``snapshots`` holds three (t, GridFunction) entries from a tau = 1
    trajectory, not necessarily equally spaced.  Each snapshot is conjugated
    once onto one common dual box, the middle snapshot's automatic box at
    shrink 0.75.  Returns the interior sup of
    d(u*)/dt - F_1(D2u*) at the middle time, F_1 = (1/n) ln det the flow
    operator at tau = 1 (:func:`~logflow.flow._ftau`, which refuses a
    conjugate that is not strictly convex off the dual ring), with the time
    derivative taken by the second-order three-point formula, and the
    ``(H, H_star)`` Hessian pair of each snapshot and its conjugate, for
    :func:`eigenvalue_swap_gap`.
    """
    if len(snapshots) != DUAL_SNAPSHOTS:
        raise ValueError(f"dual_flow_check needs exactly {DUAL_SNAPSHOTS} snapshots")
    (t0, u0), (t1, u1), (t2, u2) = snapshots
    if not t0 < t1 < t2:
        raise ValueError("snapshot times must be strictly increasing")
    us = (u0, u1, u2)
    hess, grads = [hessian(u) for u in us], [gradient(u) for u in us]
    y_domain = auto_dual_domain(grads[1], u1.domain, shrink=0.75)
    stars = [legendre_transform(u, H, g, y_domain) for u, H, g in zip(us, hess, grads)]
    hess_star = [hessian(s) for s in stars]
    ha, hb = t1 - t0, t2 - t1
    dstar_dt = (-hb / (ha * (ha + hb)) * stars[0].values
                + (hb - ha) / (ha * hb) * stars[1].values
                + ha / (hb * (ha + hb)) * stars[2].values)
    resid = dstar_dt - _ftau(hess_star[1], 1.0)
    return float(np.max(np.abs(resid[y_domain.interior()]))), list(zip(hess, hess_star))
