"""Closed-form Gaussian convolution for the tau = 0 endpoint of the flow family.

The convolution kernel is exp(-|x-y|^2 / 4t) / (4 pi t)^{n/2}.  The input is
split into a quadratic far field, convolved analytically (a quadratic gains
exactly t * trace A), plus a decaying remainder, convolved numerically with a
separable trapezoid rule.  The split keeps the numerical integrand absolutely
convergent on the truncated box.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TailError
from .flow import QuadraticFarField
from .grid import GridFunction

__all__ = ["heat_solve", "gaussian_tail_mass"]


def _trapezoid_weights(m: int, h: float) -> np.ndarray:
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    return w


def gaussian_tail_mass(center: np.ndarray, L: float, t: float, n: int) -> float:
    """Kernel mass outside [-L, L]^n for a Gaussian centred at ``center``."""
    s = math.sqrt(4.0 * t)
    inside = 1.0
    for i in range(n):
        lo = (-L - center[i]) / s
        hi = (L - center[i]) / s
        inside *= 0.5 * (math.erf(hi) - math.erf(lo))
    return 1.0 - inside


def heat_solve(u0: GridFunction, t: float, far_field: QuadraticFarField) -> GridFunction:
    """Evolve u0 for time t under the heat equation on the sampled box.

    Raises :class:`TailError` when the kernel centred on the remainder's peak
    (or on the origin) leaks more than 1e-10 of its mass outside the box,
    i.e. when t is too large for the truncation half-width.
    """
    tail_tol = 1e-10
    if not t > 0.0:
        raise ValueError("heat_solve needs t > 0")
    dom = u0.domain
    pts = dom.points()
    quad0 = far_field.values_at(pts, 0.0, 0.0, dom.n).reshape(dom.shape)
    v = u0.values - quad0

    analytic = far_field.values_at(pts, t, 0.0, dom.n).reshape(dom.shape)
    if np.max(np.abs(v)) <= 1e-14 * max(1.0, float(np.max(np.abs(u0.values)))):
        return GridFunction(dom, analytic, label=f"heat[{u0.label}]")

    peak = np.unravel_index(np.argmax(np.abs(v)), dom.shape)
    peak_x = np.array([dom.axis[i] for i in peak])
    worst = max(gaussian_tail_mass(peak_x, dom.half_width, t, dom.n),
                gaussian_tail_mass(np.zeros(dom.n), dom.half_width, t, dom.n))
    if worst > tail_tol:
        raise TailError(
            f"Gaussian mass {worst:.3e} outside the box exceeds {tail_tol:.1e}; "
            "shrink t or enlarge the box")

    # separable trapezoid convolution of the decaying remainder
    axis = dom.axis
    w = _trapezoid_weights(dom.m, dom.h)
    diff = axis[:, None] - axis[None, :]
    kern = np.exp(-diff * diff / (4.0 * t)) / math.sqrt(4.0 * math.pi * t) * w[None, :]
    conv = v
    for ax in range(dom.n):
        conv = np.moveaxis(np.tensordot(kern, conv, axes=([1], [ax])), 0, ax)

    return GridFunction(dom, analytic + conv, label=f"heat[{u0.label}]")
