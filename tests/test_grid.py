"""Finite-difference calculus: exactness, convergence order, eigen bounds."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from logflow.errors import EmptyCoincidenceError, NonConvexityError
from logflow.flow import _ftau
from logflow.grid import (BoxDomain, GridFunction, coincident_index_sets,
                          derivative_sup_norm, gradient, hessian, sample,
                          third_derivative_norm)


def quad_field(domain, A, b=None, c=0.0):
    A = np.atleast_2d(A)
    b = np.zeros(domain.n) if b is None else np.asarray(b)
    grids = domain.meshgrid()
    vals = c * np.ones(domain.shape)
    for i in range(domain.n):
        vals += b[i] * grids[i]
        for j in range(domain.n):
            vals += 0.5 * A[i, j] * grids[i] * grids[j]
    return GridFunction(domain, vals, label="quad")


def spd_matrix(rng, n, lo=0.3, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


# ---------------------------------------------------------------------------
# domain invariants
# ---------------------------------------------------------------------------

def test_domain_rejects_tiny_grids():
    with pytest.raises(ValueError):
        BoxDomain(n=1, half_width=1.0, m=4)
    with pytest.raises(ValueError):
        BoxDomain(n=4, half_width=1.0, m=9)
    with pytest.raises(ValueError):
        BoxDomain(n=1, half_width=-1.0, m=9)


def test_box_from_dict_takes_integral_numbers_only():
    # an integral float names the same box; fractions, bools and strings raise
    assert BoxDomain.from_dict({"n": 2.0, "L": 1, "m": 9.0, "margin": 1.0}) == \
        BoxDomain(n=2, half_width=1.0, m=9, margin=1)
    for key, value, error in (("m", 65.5, ValueError), ("n", 1.5, ValueError),
                              ("margin", 1.7, ValueError), ("L", float("inf"), ValueError),
                              ("L", True, TypeError), ("m", "65", TypeError),
                              ("n", None, TypeError)):
        with pytest.raises(error, match=key):
            BoxDomain.from_dict({"n": 1, "L": 1.0, "m": 65, key: value})


def test_grid_function_rejects_nan():
    dom = BoxDomain(n=1, half_width=1.0, m=9)
    vals = np.zeros(9)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(dom, vals)


def test_spacing():
    dom = BoxDomain(n=2, half_width=2.0, m=65)
    assert dom.h == pytest.approx(4.0 / 64)
    assert dom.axis[0] == -2.0 and dom.axis[-1] == 2.0


# ---------------------------------------------------------------------------
# quadratic exactness (including boundary stencils)
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
def test_gradient_hessian_exact_on_quadratics(seed, n):
    rng = np.random.default_rng(seed)
    dom = BoxDomain(n=n, half_width=1.5, m=9)
    A = spd_matrix(rng, n)
    b = rng.uniform(-1, 1, size=n)
    u = quad_field(dom, A, b, c=rng.uniform(-1, 1))
    g = gradient(u)
    grids = dom.meshgrid()
    for i in range(n):
        exact = b[i] + sum(A[i, j] * grids[j] for j in range(n))
        assert np.max(np.abs(g[i] - exact)) < 1e-11
    H = hessian(u)
    for i in range(n):
        for j in range(n):
            assert np.max(np.abs(H.mats[..., i, j] - A[i, j])) < 1e-10


def test_gradient_of_constant_is_zero():
    dom = BoxDomain(n=2, half_width=1.0, m=11)
    u = GridFunction(dom, np.full(dom.shape, 3.7))
    assert np.max(np.abs(gradient(u))) == 0.0


def test_sine_gradient_error_matches_taylor_bound():
    # central difference of sin at 0 errs by h^2/6 * max|u'''| = 1.666e-5 at h = 0.01
    dom = BoxDomain(n=1, half_width=1.0, m=201)
    u = GridFunction(dom, np.sin(dom.axis))
    g = gradient(u)[0]
    i0 = 100  # node at x = 0
    assert abs(dom.axis[i0]) < 1e-14
    assert abs(g[i0] - 1.0) <= 1.7e-5


def test_mixed_hessian_exact_on_cubic_per_axis():
    # u = x1^2 x2 has degree <= 3 per axis, so every stencil is exact
    dom = BoxDomain(n=2, half_width=1.28, m=257)  # h = 0.01, node at (1, 1)
    x1, x2 = dom.meshgrid()
    u = GridFunction(dom, x1 ** 2 * x2)
    H = hessian(u)
    i = int(round((1.0 + dom.half_width) / dom.h))
    assert abs(dom.axis[i] - 1.0) < 1e-12
    expected = np.array([[2.0, 2.0], [2.0, 0.0]])
    assert np.max(np.abs(H.mats[i, i] - expected)) < 1e-10


def test_hessian_bitwise_symmetric(rng):
    dom = BoxDomain(n=3, half_width=1.0, m=7)
    u = GridFunction(dom, rng.normal(size=dom.shape))
    H = hessian(u)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(H.mats[..., i, j], H.mats[..., j, i])


def test_hessian_convergence_order_two():
    # halving h reduces the interior sup error of the Hessian by ~4
    def err(m):
        dom = BoxDomain(n=2, half_width=1.0, m=m)
        x1, x2 = dom.meshgrid()
        u = GridFunction(dom, np.sin(x1) * np.cos(x2))
        H = hessian(u)
        exact = np.empty_like(H.mats)
        exact[..., 0, 0] = -np.sin(x1) * np.cos(x2)
        exact[..., 1, 1] = -np.sin(x1) * np.cos(x2)
        exact[..., 0, 1] = exact[..., 1, 0] = -np.cos(x1) * np.sin(x2)
        sl = dom.interior()
        return np.max(np.abs((H.mats - exact)[sl]))

    ratio = err(33) / err(65)
    assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3))
def test_axis_diff_matches_numpy_gradient_bit_for_bit(seed, n):
    from logflow.grid import axis_diff
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(3, 12, size=n))
    h = float(rng.uniform(1e-3, 2.0))
    base = rng.normal(size=shape + (2,)) * 10.0 ** rng.uniform(-3, 3)
    # a contiguous array and a strided view, as Hessian entries are
    for v in (np.ascontiguousarray(base[..., 0]), base[..., 1]):
        for axis in range(n):
            ref = np.gradient(v, h, axis=axis, edge_order=2)
            assert axis_diff(v, h, axis).tobytes() == ref.tobytes()


def _axis_diff2_per_end(values, h, axis):
    """Reference: each end's one-sided expression on keep-dim slices."""
    def sl(s):
        idx = [slice(None)] * values.ndim
        idx[axis] = s
        return tuple(idx)

    out = np.empty_like(values)
    out[sl(slice(1, -1))] = (values[sl(slice(None, -2))] - 2.0 * values[sl(slice(1, -1))]
                             + values[sl(slice(2, None))]) / (h * h)
    f = [values[sl(slice(k, k + 1))] for k in range(4)]
    out[sl(slice(0, 1))] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    b = [values[sl(slice(-k - 1, None if k == 0 else -k))] for k in range(4)]
    out[sl(slice(-1, None))] = (2.0 * b[0] - 5.0 * b[1] + 4.0 * b[2] - b[3]) / (h * h)
    return out


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3))
def test_axis_diff2_matches_per_end_expressions_bit_for_bit(seed, n):
    from logflow.grid import axis_diff2
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(4, 12, size=n))
    h = float(rng.uniform(1e-3, 2.0))
    base = rng.normal(size=shape + (2,)) * 10.0 ** rng.uniform(-3, 3)
    for v in (np.ascontiguousarray(base[..., 0]), base[..., 1]):
        for axis in range(n):
            ref = _axis_diff2_per_end(v, h, axis)
            assert axis_diff2(v, h, axis).tobytes() == ref.tobytes()


def _hessian_reference(u):
    """Reference: every first difference by np.gradient, mixed ones iterated."""
    from logflow.grid import axis_diff2
    n, h = u.domain.n, u.domain.h
    mats = np.empty(u.domain.shape + (n, n))
    for i in range(n):
        mats[..., i, i] = axis_diff2(u.values, h, i)
        first = np.gradient(u.values, h, axis=i, edge_order=2)
        for j in range(i + 1, n):
            mats[..., i, j] = mats[..., j, i] = np.gradient(first, h, axis=j, edge_order=2)
    return mats


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), m=st.integers(5, 13))
def test_hessian_matches_numpy_gradient_reference_bit_for_bit(seed, n, m):
    rng = np.random.default_rng(seed)
    dom = BoxDomain(n=n, half_width=float(rng.uniform(0.5, 5.0)), m=m, margin=0)
    u = GridFunction(dom, rng.normal(size=dom.shape) * 10.0 ** rng.uniform(-3, 3))
    assert hessian(u).mats.tobytes() == _hessian_reference(u).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_entry_fields_are_contiguous(n):
    dom = BoxDomain(n=n, half_width=2.0, m=9)
    u = GridFunction(dom, np.random.default_rng(n).normal(size=dom.shape))
    mats = hessian(u).mats
    assert mats.shape == dom.shape + (n, n)
    for i in range(n):
        for j in range(n):
            assert mats[..., i, j].flags.c_contiguous


# ---------------------------------------------------------------------------
# third / fourth derivatives
# ---------------------------------------------------------------------------

def test_third_derivative_zero_on_quadratics(rng):
    dom = BoxDomain(n=2, half_width=1.0, m=11)
    u = quad_field(dom, spd_matrix(rng, 2))
    assert third_derivative_norm(hessian(u)) < 1e-11


def test_third_derivative_exact_on_cubic():
    dom = BoxDomain(n=1, half_width=1.0, m=21)
    u = GridFunction(dom, dom.axis ** 3 / 6.0)
    assert third_derivative_norm(hessian(u)) == pytest.approx(1.0, abs=1e-10)


def test_third_derivative_of_bump_matches_analytic():
    dom = BoxDomain(n=1, half_width=3.0, m=301)
    x = dom.axis
    eps = 0.05
    u = GridFunction(dom, 0.5 * x ** 2 + eps * np.exp(-x ** 2))
    # d^3/dx^3 of exp(-x^2) = (12x - 8x^3) exp(-x^2), sup at the interior
    exact_field = np.abs(eps * (12 * x - 8 * x ** 3) * np.exp(-x ** 2))
    exact = np.max(exact_field[dom.interior()])
    assert third_derivative_norm(hessian(u)) == pytest.approx(exact, rel=5e-3)


def _third_norm_dense(H):
    """Reference: the full (*grid, n, n, n) tensor and its nodewise Frobenius norm."""
    from logflow.grid import axis_diff
    n, h = H.domain.n, H.domain.h
    T = np.empty(H.domain.shape + (n, n, n))
    for i in range(n):
        for j in range(i, n):
            for l in range(n):
                d = axis_diff(H.mats[..., i, j], h, l)
                T[..., l, i, j] = d
                T[..., l, j, i] = d
    frob = np.sqrt(np.sum(T * T, axis=(-3, -2, -1)))
    return float(np.max(frob[H.domain.interior()]))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
def test_third_derivative_norm_matches_dense_tensor(seed, n):
    rng = np.random.default_rng(seed)
    dom = BoxDomain(n=n, half_width=2.0, m=(41, 25, 13)[n - 1])
    grids = dom.meshgrid()
    centre = rng.uniform(-0.5, 0.5, size=n)
    r2 = sum((g - c) ** 2 for g, c in zip(grids, centre))
    u = GridFunction(dom, quad_field(dom, spd_matrix(rng, n)).values
                     + rng.uniform(0.05, 0.2) * np.exp(-r2))
    H = hessian(u)
    got, ref = third_derivative_norm(H), _third_norm_dense(H)
    if n == 1:
        assert got == ref
    else:
        # the sum of squares runs in another order: a few ulps at most
        assert abs(got - ref) <= 4 * np.spacing(ref)


def _fourth_norm_dense(H):
    """Reference: the full (*grid, n, n, n, n) tensor of second differences of
    the Hessian entries and its nodewise Frobenius norm."""
    from logflow.grid import axis_diff, axis_diff2
    n, h = H.domain.n, H.domain.h
    T = np.empty(H.domain.shape + (n, n, n, n))
    for i in range(n):
        for j in range(n):
            entry = H.mats[..., i, j]
            for k in range(n):
                for l in range(n):
                    T[..., k, l, i, j] = (axis_diff2(entry, h, k) if k == l else
                                          axis_diff(axis_diff(entry, h, min(k, l)),
                                                    h, max(k, l)))
    frob = np.sqrt(np.sum(T * T, axis=(-4, -3, -2, -1)))
    return float(np.max(frob[H.domain.interior()]))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3), margin=st.integers(0, 2))
def test_fourth_derivative_norm_matches_dense_tensor(seed, n, margin):
    rng = np.random.default_rng(seed)
    dom = BoxDomain(n=n, half_width=2.0, m=(41, 25, 13)[n - 1], margin=margin)
    grids = dom.meshgrid()
    centre = rng.uniform(-0.5, 0.5, size=n)
    r2 = sum((g - c) ** 2 for g, c in zip(grids, centre))
    u = GridFunction(dom, quad_field(dom, spd_matrix(rng, n)).values
                     + rng.uniform(0.05, 0.2) * np.exp(-r2)
                     + 1e-3 * rng.normal(size=dom.shape))
    got, ref = derivative_sup_norm(u, 4), _fourth_norm_dense(hessian(u))
    if n == 1:
        assert got == ref
    else:
        # the sum of squares runs in another order: a few ulps at most
        assert abs(got - ref) <= 4 * np.spacing(ref)


def test_fourth_derivative_on_quartic():
    dom = BoxDomain(n=1, half_width=1.0, m=41)
    u = GridFunction(dom, dom.axis ** 4 / 24.0)
    assert derivative_sup_norm(u, 4) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# eigen bounds
# ---------------------------------------------------------------------------

def test_eigen_bounds_identity():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    u = quad_field(dom, np.eye(2))
    lo, hi = hessian(u).eigen_bounds()
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_eigen_bounds_diagonal_and_coupled():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    lo, hi = hessian(quad_field(dom, np.diag([2.0, 0.5]))).eigen_bounds()
    assert (lo, hi) == (pytest.approx(0.5), pytest.approx(2.0))
    lo, hi = hessian(quad_field(dom, np.array([[2.0, 1.0], [1.0, 2.0]]))).eigen_bounds()
    # characteristic polynomial (2-x)^2 - 1 = 0 -> x = 1, 3
    assert (lo, hi) == (pytest.approx(1.0), pytest.approx(3.0))


@given(seed=st.integers(0, 10_000), n=st.integers(2, 3))
def test_eigen_bounds_match_characteristic_roots(seed, n):
    # oracle: roots of the characteristic polynomial, independent of LAPACK's eigvalsh
    rng = np.random.default_rng(seed)
    from logflow.grid import HessianField
    dom = BoxDomain(n=n, half_width=1.0, m=7)
    mats = np.empty(dom.shape + (n, n))
    mats[...] = spd_matrix(rng, n)
    H = HessianField(dom, mats)
    lo, hi = H.eigen_bounds("all")
    roots = np.sort(np.roots(np.poly(mats[(0,) * n])))
    assert abs(lo - roots[0]) < 1e-10
    assert abs(hi - roots[-1]) < 1e-10


def _symmetric_batch(rng, size):
    """Symmetric 3x3 matrices of five kinds, shuffled together.

    Random SPD, exact diagonals, a repeated eigenvalue, the identity plus
    ~1e-16 off-diagonals (the far field of a flow), and a repeated diagonal
    with off-diagonals of about 1e-14 * max|entry|.
    """
    kind = rng.integers(0, 5, size=size)
    lam = rng.uniform(0.3, 3.0, size=(size, 3))
    lam[kind >= 2, 1] = lam[kind >= 2, 0]
    q, _ = np.linalg.qr(rng.normal(size=(size, 3, 3)))
    mats = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
    diag = np.eye(3) * lam[:, None, :]
    noise = rng.normal(size=(size, 3, 3))
    near_tol = (1e-14 * rng.uniform(0.3, 3.0, size=(size, 1, 1))
                * lam.max(axis=1)[:, None, None])
    mats[kind == 1] = diag[kind == 1]
    mats[kind == 3] = (np.eye(3) + 1e-16 * noise)[kind == 3]
    mats[kind == 4] = (diag + near_tol * noise)[kind == 4]
    return 0.5 * (mats + mats.transpose(0, 2, 1))


_FIELD_KINDS = ("bump", "mixed", "constant", "repeated", "indefinite")


def _hessian_batch(rng, kind, dom):
    """Symmetric 3x3 matrices on every node of ``dom`` (n = 3), scaled at random.

    "bump" is the Hessian of a quadratic plus an off-centre Gaussian bump,
    "mixed" the five kinds of :func:`_symmetric_batch`, "constant" one SPD
    matrix on every node (all nodes tie), "repeated" a I + b x x' with unit
    x (two equal eigenvalues, the radial-bump structure; b of either sign)
    and "indefinite" symmetrised normal noise.
    """
    size = dom.m ** 3
    if kind == "bump":
        r2 = sum((g - c) ** 2 for g, c in zip(dom.meshgrid(), rng.uniform(-0.5, 0.5, 3)))
        u = GridFunction(dom, quad_field(dom, spd_matrix(rng, 3)).values
                         + rng.uniform(0.05, 0.3) * np.exp(-r2 / rng.uniform(0.5, 1.5)))
        mats = hessian(u).mats
    elif kind == "mixed":
        mats = _symmetric_batch(rng, size)
    elif kind == "constant":
        mats = np.broadcast_to(spd_matrix(rng, 3), (size, 3, 3))
    elif kind == "repeated":
        x = rng.normal(size=(size, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        a = rng.uniform(0.3, 3.0, size=(size, 1, 1))
        b = rng.uniform(-0.25, 1.0, size=(size, 1, 1))
        mats = a * np.eye(3) + b * x[:, :, None] * x[:, None, :]
    else:
        g = rng.normal(size=(size, 3, 3))
        mats = 0.5 * (g + g.transpose(0, 2, 1))
    return mats.reshape(dom.shape + (3, 3)) * 10.0 ** rng.uniform(-3, 3)


@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(_FIELD_KINDS),
       m=st.integers(7, 11),
       order=st.permutations(["interior", "nonring", "all"]))
def test_screened_eigen_bounds_equal_full_sweep(seed, kind, m, order):
    # the screen is kept across regions, so the order varies; the reference
    # solves every node of the region
    from logflow.grid import HessianField
    dom = BoxDomain(n=3, half_width=2.0, m=m)
    H = HessianField(dom, _hessian_batch(np.random.default_rng(seed), kind, dom))
    regions = {"interior": dom.interior(), "nonring": dom.nonring(),
               "all": (slice(None),) * 3}
    for name in order:
        ev = np.linalg.eigvalsh(H.mats[regions[name]])
        assert H.eigen_bounds(name) == (float(np.min(ev[..., 0])), float(np.max(ev[..., 2])))


def test_screen_sends_few_condition_b_nodes_to_eigvalsh(monkeypatch):
    # the flow-3d initial data: the condition-B preset's quadratic plus bump;
    # a flow state reads the bounds of both regions from one Hessian
    from logflow.presets import experiment_preset, make_initial_data
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(mats, *args, **kwargs):
        solved.append(int(np.prod(np.shape(mats)[:-2])))
        return eigvalsh(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    dom = BoxDomain(n=3, half_width=3.0, m=25)
    u0, _ = make_initial_data(dom, experiment_preset("condition-b-preservation")["initial"],
                              tau=1.0)
    H = hessian(u0)
    bounds = {}
    for region in ("nonring", "interior"):
        before = len(solved)
        bounds[region] = H.eigen_bounds(region)
        # the two threshold nodes, then the kept ones
        assert solved[before:before + 2] == [1, 1] and len(solved) == before + 3
        assert solved[-1] < 0.05 * (H.mats[H._region(region)].size // 9)
    fresh = hessian(u0)
    assert {region: fresh.eigen_bounds(region) for region in ("interior", "nonring")} == bounds


# ---------------------------------------------------------------------------
# log det: the flow operator (1/n) ln det D2u at tau = 1
# ---------------------------------------------------------------------------

def test_log_det_identity_zero():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    v = _ftau(hessian(quad_field(dom, np.eye(2))), 1.0)
    assert np.max(np.abs(v)) < 1e-12


def test_log_det_values():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    v = _ftau(hessian(quad_field(dom, np.diag([2.0, 2.0]))), 1.0)
    assert np.max(np.abs(v - np.log(2.0))) < 1e-10
    v = _ftau(hessian(quad_field(dom, np.diag([2.0, 0.5]))), 1.0)
    assert np.max(np.abs(v)) < 1e-10


def test_log_det_raises_on_concave_data():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    with pytest.raises(NonConvexityError):
        _ftau(hessian(quad_field(dom, -np.eye(2))), 1.0)


# ---------------------------------------------------------------------------
# sampling and coincidence
# ---------------------------------------------------------------------------

def test_cubic_sampling_accuracy():
    dom = BoxDomain(n=1, half_width=2.0, m=129)
    u = GridFunction(dom, np.sin(dom.axis))
    pts = np.array([[0.1234], [-0.7321], [1.005]])
    got = sample(u.values, dom, pts, order=3)
    assert np.max(np.abs(got - np.sin(pts[:, 0]))) < 1e-7


@pytest.mark.parametrize("n, m", [(1, 5), (1, 129), (2, 10), (2, 33), (3, 7), (3, 13)])
@pytest.mark.parametrize("order", [1, 3])
def test_sampling_matches_map_coordinates_nearest(n, m, order):
    # the reference the sampler replaced: scipy's spline interpolation with
    # edge-value extension; a stack of fields equals the per-field calls
    from scipy import ndimage
    dom = BoxDomain(n=n, half_width=2.0, m=m, margin=0)
    rng = np.random.default_rng(10 * n + m)
    fields = 5.0 * rng.standard_normal((2, 3) + dom.shape)
    pts = np.concatenate([rng.uniform(-2.0, 2.0, size=(30, n)),
                          np.full((1, n), 2.0), np.full((1, n), -2.0 - 1e-10)])
    got = sample(fields, dom, pts, order=order)
    assert got.shape == (2, 3, len(pts))
    coords = ((pts + dom.half_width) / dom.h).T
    for idx in np.ndindex(2, 3):
        ref = ndimage.map_coordinates(fields[idx], coords, order=order, mode="nearest")
        assert np.max(np.abs(got[idx] - ref)) <= 1e-13 * np.max(np.abs(fields[idx]))
        assert got[idx].tobytes() == sample(fields[idx], dom, pts, order=order).tobytes()


@pytest.mark.parametrize("m, half", [(33, 1.0), (49, None)], ids=["window", "seeds"])
def test_sampling_n3_caller_sizes_in_small_memory(m, half):
    # the blow-down check samples every node of its window (33^3 points
    # here); the transport samples a few seeds far apart, whose stencils
    # reach disjoint coefficient rows.  Dense (points, m) weights per axis
    # would hold 300 MB for the window.
    import tracemalloc
    from scipy import ndimage
    dom = BoxDomain(n=3, half_width=4.0, m=m)
    rng = np.random.default_rng(m)
    field = rng.standard_normal(dom.shape)
    if half is None:
        pts = np.array([[-3.1, 0.2, 2.9], [0.05, -2.7, 0.4], [3.3, 3.0, -3.4]])
    else:
        pts = BoxDomain(n=3, half_width=half, m=m, margin=0).points()
    tracemalloc.start()
    try:
        got = sample(field, dom, pts, order=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    ref = ndimage.map_coordinates(field, ((pts + dom.half_width) / dom.h).T,
                                  order=3, mode="nearest")
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(field))


def test_sampling_refuses_other_orders_and_shapes():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    with pytest.raises(ValueError, match="order"):
        sample(np.zeros(dom.shape), dom, [[0.0, 0.0]], order=2)
    with pytest.raises(ValueError, match="grid shape"):
        sample(np.zeros((9, 8)), dom, [[0.0, 0.0]])


def test_coincident_sets_share_values():
    dom = BoxDomain(n=2, half_width=2.0, m=9)
    x1, x2 = dom.meshgrid()
    u = x1 + 2 * x2
    src, dst = coincident_index_sets(dom, 2.0)
    assert np.allclose(2.0 * u[src], u[dst])


def test_coincident_requires_odd_grid():
    with pytest.raises(EmptyCoincidenceError):
        coincident_index_sets(BoxDomain(n=1, half_width=1.0, m=8), 2.0)
