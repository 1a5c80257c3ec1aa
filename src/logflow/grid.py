"""Uniform box grids in 1-3 dimensions with second-order finite-difference calculus.

The central state object is a scalar field sampled on [-L, L]^n with uniform
spacing h = 2L/(m-1).  All derivative operators use second-order central
stencils on interior nodes and second-order one-sided stencils on the boundary
layer, so polynomials of total degree two are differentiated exactly
everywhere.  Mixed second derivatives are iterated first differences, assigned
once per unordered index pair, which makes the Hessian symmetric bit for bit.
Each Hessian is stored component-major: one (n, n, *grid) buffer seen as
(*grid, n, n) through a transpose, so every entry field ``mats[..., i, j]``
is one contiguous array.  First differences are the uniform-spacing
expressions of ``np.gradient`` with ``edge_order=2``, written out, and each
consumer computes only the ones it reads.  Each central expression is
written once (``_central``, ``_central2``), so the Hessian entries of the
non-ring block alone are the whole field's bit for bit.  At n = 3 the
eigenvalue bounds call LAPACK (``np.linalg.eigvalsh``) only on the nodes a
cheap screen cannot rule out; the screen runs once per Hessian on all
nodes and every region reads its slice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyCoincidenceError

__all__ = [
    "BoxDomain",
    "GridFunction",
    "HessianField",
    "gradient",
    "hessian",
    "third_derivative_norm",
    "derivative_sup_norm",
    "sample",
    "coincident_index_sets",
]


@dataclass(frozen=True)
class BoxDomain:
    """Uniform grid on the box [-L, L]^n.

    ``margin`` counts extra boundary layers (beyond the outermost one) that are
    excluded from interior norms; wide stencils such as third and fourth
    derivatives are pure-central on the remaining interior when margin >= 2.
    """

    n: int
    half_width: float
    m: int
    margin: int = 2

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if self.m < 5:
            raise ValueError(f"need m >= 5 points per axis, got m={self.m}")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if 2 * (self.margin + 1) >= self.m:
            raise ValueError("margin leaves no interior nodes")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.m - 1)

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.n

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.m)

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*([self.axis] * self.n), indexing="ij"))

    def points(self) -> np.ndarray:
        """All node coordinates, shape (m^n, n), row-major."""
        grids = self.meshgrid()
        return np.stack([g.ravel() for g in grids], axis=-1)

    def interior(self) -> tuple:
        """Slices selecting the monitored interior (margin + 1 layers removed)."""
        k = self.margin + 1
        return (slice(k, self.m - k),) * self.n

    def nonring(self) -> tuple:
        """Slices selecting everything but the outermost layer."""
        return (slice(1, self.m - 1),) * self.n

    def window(self, half: float) -> tuple:
        """Slices for the centred sub-box |x_i| <= half."""
        inside = np.flatnonzero(np.abs(self.axis) <= half + 1e-12)
        if inside.size == 0:
            raise ValueError("window does not contain any grid node")
        lo, hi = inside[0], inside[-1] + 1
        return tuple(slice(lo, hi) for _ in range(self.n))

    def ring_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[self.nonring()] = False
        return mask

    def to_dict(self) -> dict:
        """The one dict form of a box, as config grids and snapshot headers
        write it; :meth:`from_dict` ignores any other keys."""
        return {"n": self.n, "L": self.half_width, "m": self.m, "margin": self.margin}

    @classmethod
    def from_dict(cls, d: dict) -> "BoxDomain":
        """``n``, ``m`` and ``margin`` take integral numbers (65.0 reads as
        65), ``L`` a finite number; a bool or a string raises TypeError, a
        fraction or a non-finite value ValueError."""
        keys = {"margin": cls.margin, **d}
        for key in ("n", "L", "m", "margin"):
            value = keys[key]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{key} must be a number, got {value!r}")
            if key == "L" and not math.isfinite(value):
                raise ValueError(f"L must be finite, got {value!r}")
            if key != "L" and not float(value).is_integer():
                raise ValueError(f"{key} must be an integer, got {value!r}")
        return cls(n=int(keys["n"]), half_width=float(keys["L"]), m=int(keys["m"]),
                   margin=int(keys["margin"]))


@dataclass
class GridFunction:
    """Scalar field sampled on a :class:`BoxDomain`; values are never mutated."""

    domain: BoxDomain
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.domain.shape:
            raise ValueError(
                f"values shape {self.values.shape} != domain shape {self.domain.shape}")
        _require_finite(self.values)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.domain, values, self.label)


def _require_finite(values: np.ndarray) -> None:
    """The check every grid function's values pass on construction."""
    if not np.isfinite(values).all():
        raise ValueError("grid function contains non-finite values")


# ---------------------------------------------------------------------------
# derivative stencils
# ---------------------------------------------------------------------------

def _shift(sl: tuple, axis: int, by: int) -> tuple:
    """``sl`` moved by ``by`` nodes along ``axis``; its bounds there are
    nonnegative integers."""
    k = sl[axis]
    return sl[:axis] + (slice(k.start + by, k.stop + by),) + sl[axis + 1:]


def _central(values: np.ndarray, sl: tuple, axis: int, h: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """Central first difference along ``axis`` at the nodes ``sl`` selects."""
    out = np.subtract(values[_shift(sl, axis, 1)], values[_shift(sl, axis, -1)], out=out)
    return np.divide(out, 2.0 * h, out=out)


def _central2(values: np.ndarray, sl: tuple, axis: int, hh: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """Central second difference along ``axis`` at the nodes ``sl`` selects,
    ``hh`` the squared spacing: ``(v[-1] - 2 v[0] + v[1]) / hh`` in that order."""
    out = np.multiply(values[sl], 2.0, out=out)
    np.subtract(values[_shift(sl, axis, -1)], out, out=out)
    np.add(out, values[_shift(sl, axis, 1)], out=out)
    return np.divide(out, hh, out=out)


def axis_diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along one axis, central interior, one-sided O(h^2) ends.

    These are the expressions ``np.gradient(values, h, axis=axis,
    edge_order=2)`` evaluates for a uniform spacing, written out so that
    the bits agree without its argument handling.  The stencils index a
    view with ``axis`` swapped to the front, which builds no index tuples.
    """
    out = np.empty_like(values)
    v, o = values.swapaxes(0, axis), out.swapaxes(0, axis)
    _central(v, (slice(1, len(v) - 1),), 0, h, out=o[1:-1])
    o[0] = (-1.5 / h) * v[0] + (2.0 / h) * v[1] + (-0.5 / h) * v[2]
    o[-1] = (0.5 / h) * v[-3] + (-2.0 / h) * v[-2] + (1.5 / h) * v[-1]
    return out


def axis_diff2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative along one axis, central interior, one-sided O(h^2) ends.

    Both ends take the same expression, ordered from the end inwards; the
    stencils index a view with ``axis`` swapped to the front.
    """
    out = np.empty_like(values)
    v, o = values.swapaxes(0, axis), out.swapaxes(0, axis)
    hh = h * h
    _central2(v, (slice(1, len(v) - 1),), 0, hh, out=o[1:-1])
    o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / hh
    o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / hh
    return out


def gradient(u: GridFunction) -> np.ndarray:
    """Nodewise gradient, shape (n, *grid_shape)."""
    h = u.domain.h
    return np.stack([axis_diff(u.values, h, ax) for ax in range(u.domain.n)])


# ---------------------------------------------------------------------------
# Hessian fields
# ---------------------------------------------------------------------------

class HessianField:
    """Per-node symmetric n x n matrix of second differences of a grid function.

    ``mats`` has shape (*grid_shape, n, n); :func:`hessian` stores it
    component-major, so each entry field ``mats[..., i, j]`` is contiguous
    and every nodewise formula below reads contiguous memory.  Any layout
    gives the same values.  Regions are named: "interior", "nonring" or
    "all" (see :class:`BoxDomain`).  The determinant is evaluated once and
    kept, as are the n = 3 eigenvalue screen, the eigenvalue bounds of each
    region and the convexity verdict on the non-ring nodes.
    """

    def __init__(self, domain: BoxDomain, mats: np.ndarray):
        self.domain = domain
        self.mats = mats  # shape (*grid_shape, n, n)
        self._det = None
        self._screen = None
        self._bounds: dict = {}
        self._convex = None

    # -- determinants / inverses (closed forms, n <= 3) ---------------------

    def det(self) -> np.ndarray:
        """Nodewise determinant; shared by every reader, so never written to."""
        if self._det is None:
            self._det = _det(self.mats)
        return self._det

    def inverse(self) -> np.ndarray:
        """Nodewise inverse; n = 1 needs no determinant."""
        a = self.mats
        n = self.domain.n
        if n == 1:
            inv = np.empty_like(a)
            inv[..., 0, 0] = 1.0 / a[..., 0, 0]
            return inv
        d = self.det()
        if n == 2:
            inv = np.empty_like(a)
            inv[..., 0, 0] = a[..., 1, 1] / d
            inv[..., 1, 1] = a[..., 0, 0] / d
            inv[..., 0, 1] = inv[..., 1, 0] = -a[..., 0, 1] / d
            return inv
        m00, m01, m02 = a[..., 0, 0], a[..., 0, 1], a[..., 0, 2]
        m11, m12, m22 = a[..., 1, 1], a[..., 1, 2], a[..., 2, 2]
        inv = np.empty_like(a)
        inv[..., 0, 0] = (m11 * m22 - m12 ** 2) / d
        inv[..., 1, 1] = (m00 * m22 - m02 ** 2) / d
        inv[..., 2, 2] = (m00 * m11 - m01 ** 2) / d
        inv[..., 0, 1] = inv[..., 1, 0] = (m02 * m12 - m01 * m22) / d
        inv[..., 0, 2] = inv[..., 2, 0] = (m01 * m12 - m02 * m11) / d
        inv[..., 1, 2] = inv[..., 2, 1] = (m01 * m02 - m00 * m12) / d
        return inv

    # -- eigenvalue fields ---------------------------------------------------

    def eigen_fields(self, region: str = "interior") -> tuple[np.ndarray, np.ndarray]:
        """(lambda_min, lambda_max) on the region's nodes that can hold an extreme.

        Closed form on every node of the region for n <= 2.  For n = 3
        LAPACK's symmetric eigenvalue solver (``np.linalg.eigvalsh``) runs
        only where a cheap screen cannot rule out an extreme.  The screen is
        evaluated once per field on all nodes and each region reads its
        slice; the screen of a node does not depend on the other nodes.  Per
        node, with mu = tr/3 and S = |A - mu I|_F^2, ``lo`` = max(Gershgorin
        lower bound, mu - sqrt(2S/3)) bounds lambda_min from below and
        ``hi`` = min(Gershgorin upper bound, mu + sqrt(2S/3)) bounds
        lambda_max from above; the sqrt(2S/3) bound is exact when two
        eigenvalues coincide, as for a radial bump.  The eigenvalues of the
        two nodes argmin(lo) and argmax(hi) give thresholds lmin and lmax,
        and the solver runs on every node with not (lo > lmin + delta and
        hi < lmax - delta), delta = 1e-10 times the largest entry in the
        region.  Min and max of the returned arrays are bit for bit those of
        solving every node: ``eigvalsh`` solves one matrix at a time, so a
        node's result does not depend on the rest of its batch, and a node
        left out cannot hold a more extreme computed value, because delta
        far exceeds the solver's error (a few ulps of the entry scale) plus
        rounding in the screen.  A NaN or inf entry makes delta non-finite,
        which keeps every node.
        """
        sl = self._region(region)
        a = self.mats[sl]
        n = self.domain.n
        if n == 1:
            return a[..., 0, 0], a[..., 0, 0]
        if n == 2:
            mean = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
            rad = np.sqrt((0.5 * (a[..., 0, 0] - a[..., 1, 1])) ** 2 + a[..., 0, 1] ** 2)
            return mean - rad, mean + rad
        if self._screen is None:
            self._screen = _screen_sym3(self.mats)
        lo, hi = self._screen[0][sl], self._screen[1][sl]
        lmin = np.linalg.eigvalsh(a[np.unravel_index(np.argmin(lo), lo.shape)])[0]
        lmax = np.linalg.eigvalsh(a[np.unravel_index(np.argmax(hi), hi.shape)])[2]
        delta = 1e-10 * np.max(np.abs(a))
        ev = np.linalg.eigvalsh(a[~((lo > lmin + delta) & (hi < lmax - delta))])
        return ev[:, 0], ev[:, 2]

    def eigen_bounds(self, region: str = "interior") -> tuple[float, float]:
        """(min lambda_min, max lambda_max) over the region."""
        if region not in self._bounds:
            lmin, lmax = self.eigen_fields(region)
            self._bounds[region] = float(lmin.min()), float(lmax.max())
        return self._bounds[region]

    def is_strictly_convex(self) -> bool:
        """Sylvester criterion on every non-ring node; :meth:`det` supplies
        the last leading minor."""
        if self._convex is None:
            sl = self.domain.nonring()
            self._convex = _sylvester(self.mats[sl]) and not (self.det()[sl] <= 0.0).any()
        return self._convex

    def _region(self, region: str) -> tuple:
        if region == "interior":
            return self.domain.interior()
        if region == "nonring":
            return self.domain.nonring()
        if region == "all":
            return (slice(None),) * self.domain.n
        raise ValueError(f"unknown region {region!r}; use 'interior', 'nonring' or 'all'")


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of the n x n matrices ``a`` of shape (..., n, n), n <= 3."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0].copy()
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] ** 2
    m00, m01, m02 = a[..., 0, 0], a[..., 0, 1], a[..., 0, 2]
    m11, m12, m22 = a[..., 1, 1], a[..., 1, 2], a[..., 2, 2]
    # m00 (m11 m22 - m12^2) - m01 (m01 m22 - m12 m02) + m02 (m01 m12 - m11 m02),
    # operation for operation, in place on two temporaries
    out = np.multiply(m11, m22)
    x = np.square(m12)
    out -= x
    out *= m00
    np.multiply(m01, m22, out=x)
    y = np.multiply(m12, m02)
    x -= y
    x *= m01
    out -= x
    np.multiply(m01, m12, out=x)
    x -= np.multiply(m11, m02, out=y)
    x *= m02
    out += x
    return out


def _sylvester(a: np.ndarray) -> bool:
    """Positivity of the leading minors below order n of the n x n matrices
    ``a`` (..., n, n), read from the upper triangle; the caller tests det."""
    n = a.shape[-1]
    if n == 1:
        return True
    if (a[..., 0, 0] <= 0.0).any():
        return False
    return n == 2 or not (
        (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] ** 2) <= 0.0).any()


def _screen_sym3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodewise lower bound of lambda_min and upper bound of lambda_max for
    symmetric 3x3 matrices ``a`` of shape (..., 3, 3)."""
    d0, d1, d2 = a[..., 0, 0], a[..., 1, 1], a[..., 2, 2]
    o01, o02, o12 = a[..., 0, 1], a[..., 0, 2], a[..., 1, 2]
    r01, r02, r12 = np.abs(o01), np.abs(o02), np.abs(o12)
    gersh_lo = np.minimum(np.minimum(d0 - (r01 + r02), d1 - (r01 + r12)), d2 - (r02 + r12))
    gersh_hi = np.maximum(np.maximum(d0 + (r01 + r02), d1 + (r01 + r12)), d2 + (r02 + r12))
    mu = (d0 + d1 + d2) / 3.0
    S = (d0 - mu) ** 2 + (d1 - mu) ** 2 + (d2 - mu) ** 2 + 2.0 * (o01 ** 2 + o02 ** 2 + o12 ** 2)
    rad = np.sqrt(2.0 * S / 3.0)
    return np.maximum(gersh_lo, mu - rad), np.minimum(gersh_hi, mu + rad)


def hessian(u: GridFunction) -> HessianField:
    """Second differences: direct stencils on the diagonal, iterated firsts mixed.

    The mixed entry is computed once per unordered pair and mirrored, so the
    matrix is symmetric by construction at every node.  The first difference
    along the last axis enters no mixed entry and is not computed.  The
    entries fill one component-major (n, n, *grid) buffer, which the field
    sees as (*grid, n, n) through ``transpose`` (a view; ``np.moveaxis``
    gives the same view at several times the per-call cost).
    """
    n, h = u.domain.n, u.domain.h
    comps = np.empty((n, n) + u.domain.shape, dtype=np.float64)
    for i in range(n):
        comps[i, i] = axis_diff2(u.values, h, i)
        if i == n - 1:
            break
        first = axis_diff(u.values, h, i)
        for j in range(i + 1, n):
            comps[i, j] = comps[j, i] = axis_diff(first, h, j)
    return HessianField(u.domain, comps.transpose(tuple(range(2, n + 2)) + (0, 1)))


def _nonring_hessian(values: np.ndarray, h: float) -> np.ndarray:
    """The upper triangle of :func:`hessian` on the non-ring nodes, bit for bit.

    ``values`` holds one field on the m^n grid.  The result is the
    (*block, n, n) view of a component-major (n, n, *block) buffer over the
    (m-2)^n non-ring block; its lower triangle is left unwritten, since the
    determinant, the leading minors and the trace read only the upper one.
    At a non-ring node :func:`hessian` evaluates only central expressions:
    the second difference on the diagonal and, for i < j, the central
    difference along j of the central difference along i.  The difference
    along i is taken once, on the non-ring range of the axes up to i and the
    whole range of the axes after it, which every pair (i, j) reads.
    """
    n, m = values.ndim, values.shape[0]
    inner = (slice(1, m - 1),) * n
    comps = np.empty((n, n) + (m - 2,) * n)
    for i in range(n):
        _central2(values, inner, i, h * h, out=comps[i, i])
        if i == n - 1:
            break
        first = _central(values, inner[:i + 1] + (slice(0, m),) * (n - 1 - i), i, h)
        # first covers axes up to i on its whole range, the rest one node wider
        sl = (slice(0, m - 2),) * (i + 1) + inner[i + 1:]
        for j in range(i + 1, n):
            _central(first, sl, j, h, out=comps[i, j])
    return comps.transpose(tuple(range(2, n + 2)) + (0, 1))


# ---------------------------------------------------------------------------
# higher derivatives
# ---------------------------------------------------------------------------

def _third_differences(H: HessianField):
    """Yield (i, j, l, d_l H_ij) over index pairs i <= j and axes l."""
    n, h = H.domain.n, H.domain.h
    for i in range(n):
        for j in range(i, n):
            entry = H.mats[..., i, j]
            for l in range(n):
                yield i, j, l, axis_diff(entry, h, l)


def third_derivative_norm(H: HessianField) -> float:
    """Sup over the interior of the Frobenius norm of the third-derivative tensor.

    The squared norm is accumulated on the interior only, one unordered pair
    of Hessian indices at a time (weight 2 off the diagonal), so no
    (*grid, n, n, n) tensor is formed.  The interior lies at least one layer
    inside the box, so every difference there is the central one, and only
    that is computed.
    """
    dom = H.domain
    n, h = dom.n, dom.h
    sl = dom.interior()
    sq = 0.0
    for i in range(n):
        for j in range(i, n):
            entry = H.mats[..., i, j]
            for l in range(n):
                d = _central(entry, sl, l, h)
                sq = sq + (d * d if i == j else 2.0 * (d * d))
    return float(np.sqrt(np.max(sq)))


def _fourth_norm(H: HessianField) -> float:
    """Sup over the interior of the Frobenius norm of the fourth-derivative tensor.

    The squared norm is accumulated on the interior only, one unordered pair
    of Hessian indices and one unordered pair of axes at a time, with the
    tensor's multiplicities as weights: 1 on both diagonals, 2 off one, 4 off
    both.  Every difference there is the central one: a pure second
    difference, or a central difference of central first differences.
    """
    dom = H.domain
    n, h = dom.n, dom.h
    hh = h * h
    sl = dom.interior()
    sq = 0.0
    for i in range(n):
        for j in range(i, n):
            entry = H.mats[..., i, j]
            for k in range(n):
                for l in range(k, n):
                    if k == l:
                        d = _central2(entry, sl, k, hh)
                    else:
                        d = (_central(entry, _shift(sl, l, 1), k, h)
                             - _central(entry, _shift(sl, l, -1), k, h)) / (2.0 * h)
                    weight = (1.0 if i == j else 2.0) * (1.0 if k == l else 2.0)
                    sq = sq + weight * (d * d)
    return float(np.sqrt(np.max(sq)))


def derivative_sup_norm(u: GridFunction, order: int) -> float:
    """Interior sup of the Frobenius norm of the derivative tensor of given order."""
    if order == 3:
        return third_derivative_norm(hessian(u))
    if order == 4:
        return _fourth_norm(hessian(u))
    raise ValueError("only derivative orders 3 and 4 are monitored")


# ---------------------------------------------------------------------------
# off-node sampling and coincident-node bookkeeping
# ---------------------------------------------------------------------------

# scipy.ndimage pads this many edge nodes before its cubic prefilter in mode
# "nearest"; the sampler pads the same, so both agree to rounding
_SPLINE_PAD = 12

# most stencil values one gather of the sampler holds (512 KB)
_GATHER = 1 << 16


@lru_cache(maxsize=16)
def _prefilter(m: int) -> np.ndarray:
    """(m + 24, m) matrix taking m nodal values to the cubic B-spline
    coefficients of their edge-padded extension.

    The coefficients c solve (c[k-1] + 4 c[k] + c[k+1]) / 6 = v[k] on the
    padded nodes, with the half-sample symmetric ends c[-1] = c[0] and
    c[M] = c[M-1] of ``spline_filter(mode="nearest")``.
    """
    M = m + 2 * _SPLINE_PAD
    k = np.arange(M)
    A = np.zeros((M, M))
    A[k, k] = 4.0 / 6.0
    A[k[1:], k[:-1]] = A[k[:-1], k[1:]] = 1.0 / 6.0
    A[0, 0] = A[-1, -1] = 5.0 / 6.0
    pad = np.zeros((M, m))
    pad[k, np.clip(k - _SPLINE_PAD, 0, m - 1)] = 1.0
    out = np.linalg.solve(A, pad)
    out.flags.writeable = False
    return out


def _axis_taps(x: np.ndarray, m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The (p,) index of the first of ``order + 1`` consecutive taps of one
    axis at index coordinates ``x``, a node for ``order=1`` and a padded
    B-spline coefficient for ``order=3``, and the (p,) fraction of the cell
    each point lies in."""
    if order == 1:
        # a point past an end takes the end value, as in mode "nearest"
        x = np.minimum(np.maximum(x, 0.0), m - 1.0)
        base = np.minimum(np.floor(x), m - 2.0)
        return base.astype(np.intp), x - base
    base = np.floor(x)
    return base.astype(np.intp) + (_SPLINE_PAD - 1), x - base


def _tap_weights(t: np.ndarray, order: int) -> np.ndarray:
    """(p, order + 1) weights of the taps at cell fractions ``t``."""
    if order == 1:
        return np.stack([1.0 - t, t], axis=-1)
    s = 1.0 - t
    return np.stack([s * s * s, 4.0 - 6.0 * t * t + 3.0 * t * t * t,
                     1.0 + 3.0 * t + 3.0 * t * t - 3.0 * t * t * t, t * t * t],
                    axis=-1) / 6.0


def sample(values: np.ndarray, domain: BoxDomain, points,
           order: int = 3) -> np.ndarray:
    """Interpolate nodal arrays at arbitrary points inside the box.

    ``values`` has shape ``(*lead, *domain.shape)``: every leading index is
    one field, and the result has shape ``(*lead, len(points))``.
    ``order=3`` is cubic-spline interpolation (used wherever off-node values
    feed second-order comparisons) and agrees to rounding with
    ``scipy.ndimage.map_coordinates(order=3, mode="nearest")``; ``order=1``
    is multilinear.  The cubic B-spline coefficients come from the
    prefilter matrix cached per m, applied one axis at a time and only to
    the coefficient rows the points reach (at most 4 per point and m + 3
    in all); each point then sums its 4^n neighbouring coefficients (2^n
    node values when multilinear).  Work per field is O(m^n) per row
    reached on the first axis plus O(4^n) per point, memory O(m^n) plus
    O(n) per point, and a stack of fields costs one call whose values
    equal the per-field calls bit for bit.
    """
    if order not in (1, 3):
        raise ValueError(f"sampling order must be 1 or 3, got {order}")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, m = domain.n, domain.m
    if pts.shape[-1] != n:
        raise ValueError(f"points must have {n} coordinates")
    if (np.abs(pts) > domain.half_width + 1e-9).any():
        raise ValueError("sample point outside the computational box")
    vals = np.asarray(values, dtype=np.float64)
    lead = vals.shape[:vals.ndim - n]
    if vals.shape[vals.ndim - n:] != domain.shape:
        raise ValueError(f"values must end in the grid shape {domain.shape}")
    coords = (pts + domain.half_width) / domain.h  # index space
    p = len(pts)
    coef = vals.reshape((-1,) + domain.shape)      # (fields, *grid)
    k = order + 1                                  # taps per axis
    flat = np.zeros(p, dtype=np.intp)              # first tap, row-major
    offsets = np.zeros(1, dtype=np.intp)           # the other taps from it
    fractions = []
    for ax in range(n):
        first, t = _axis_taps(coords[:, ax], m, order)
        if order == 3:
            # the coefficient rows the taps reach, at most m + 3 of them
            hit = np.bincount(first, minlength=m + 2 * _SPLINE_PAD) > 0
            rows = np.flatnonzero(np.convolve(hit, np.ones(k))[:len(hit)])
            done = coef.shape[:ax + 1]
            coef = np.matmul(_prefilter(m)[rows], coef.reshape(-1, m, m ** (n - 1 - ax)))
            coef = coef.reshape(done + (len(rows),) + (m,) * (n - 1 - ax))
            first = np.searchsorted(rows, first)
        size = coef.shape[ax + 1]
        flat = flat * size + first
        offsets = (offsets[:, None] * size + np.arange(k)).ravel()
        fractions.append(t)
    coef = coef.reshape(len(coef), -1)
    out = np.empty((len(coef), p))
    # the stencils are gathered in slices of at most _GATHER values and
    # summed field by field, one axis at a time from the last, so a
    # field's bits do not depend on its stack
    step = max(1, _GATHER // len(offsets))
    for lo in range(0, p, step):
        part = slice(lo, lo + step)
        taps = flat[part, None] + offsets
        weights = [_tap_weights(t[part], order) for t in fractions]
        for f, c in enumerate(coef):
            acc = c[taps]
            for w in reversed(weights):
                acc = np.einsum("pak,pk->pa", acc.reshape(len(acc), -1, k), w)
            out[f, part] = acc[:, 0]
    return out.reshape(*lead, p)


def coincident_index_sets(domain: BoxDomain, R: float):
    """Index tuples (I_x, I_Rx) with x and Rx both grid nodes.

    Requires an odd point count so the origin is a node.  Works for integer R
    and reciprocals of integers; raises :class:`EmptyCoincidenceError` when the
    coincident set contains nothing but the origin.
    """
    if domain.m % 2 == 0:
        raise EmptyCoincidenceError("coincident sampling needs an odd point count")
    K = (domain.m - 1) // 2
    ks = np.arange(-K, K + 1)
    scaled = R * ks
    rounded = np.rint(scaled)
    good = (np.abs(scaled - rounded) < 1e-9) & (np.abs(rounded) <= K)
    ks = ks[good]
    if ks.size <= 1:
        raise EmptyCoincidenceError(f"no coincident nodes for R={R}")
    src_axis = ks + K
    dst_axis = np.rint(R * ks).astype(int) + K
    src = np.ix_(*([src_axis] * domain.n))
    dst = np.ix_(*([dst_axis] * domain.n))
    return src, dst
