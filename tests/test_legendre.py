"""Convex conjugation: closed forms, involution, duality of the flow."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from logflow import legendre
from logflow.errors import RangeError
from logflow.grid import BoxDomain, GridFunction, gradient, hessian, sample
from logflow.legendre import (_discrete_sup, auto_dual_domain, dual_flow_check,
                              eigenvalue_swap_gap, legendre_transform)


def conjugate(u, y_domain=None):
    return legendre_transform(u, hessian(u), gradient(u), y_domain)


def quad(domain, A, c=0.0, label="quad"):
    A = np.atleast_2d(A)
    grids = domain.meshgrid()
    vals = c * np.ones(domain.shape)
    for i in range(domain.n):
        for j in range(domain.n):
            vals += 0.5 * A[i, j] * grids[i] * grids[j]
    return GridFunction(domain, vals, label=label)


def interior_gradients(u, star):
    """Interior slice of u, and the gradients there lying two dual spacings
    inside the dual box with the mask selecting them."""
    sl = u.domain.interior()
    g = gradient(u)
    grads = np.stack([g[i][sl].ravel() for i in range(u.domain.n)], axis=-1)
    keep = np.all(np.abs(grads) <= star.domain.half_width - 2 * star.domain.h, axis=1)
    return sl, grads[keep], keep


def involution_defect(u):
    """Max over interior samples of || D2u*(Du(x)) . D2u(x) - I ||_max."""
    star = conjugate(u)
    n = u.domain.n
    sl, pts, keep = interior_gradients(u, star)
    assert pts.shape[0] > 0
    mats_x = hessian(u).mats[sl].reshape(-1, n, n)[keep]
    star_mats = hessian(star).mats
    star_at = np.empty((pts.shape[0], n, n))
    for i in range(n):
        for j in range(n):
            star_at[:, i, j] = sample(star_mats[..., i, j], star.domain, pts, order=3)
    prod = np.einsum("kij,kjl->kil", star_at, mats_x)
    return float(np.max(np.abs(prod - np.eye(n))))


def young_gap(u, star):
    """(min over node pairs of u(x) + u*(y) - <x, y>, max equality defect at
    y = Du(x) over interior nodes whose gradient lands inside the dual box)."""
    sup, _ = _discrete_sup(u, star.domain)
    worst_min = float(np.min(star.values - sup))
    sl, grads, keep = interior_gradients(u, star)
    xs = np.stack([grid[sl].ravel() for grid in u.domain.meshgrid()], axis=-1)[keep]
    star_at = sample(star.values, star.domain, grads, order=3)
    uvals = u.values[sl].ravel()[keep]
    return worst_min, float(np.max(np.abs(uvals + star_at - np.sum(xs * grads, axis=1))))


def dense_sup(u, y_domain):
    """Brute-force reference: score every node against every dual node."""
    scores = y_domain.points() @ u.domain.points().T - u.values.ravel()[None, :]
    best = np.argmax(scores, axis=1)
    return scores, best


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]),
       m=st.integers(7, 33))
def test_axis_by_axis_sup_matches_dense_scan(seed, n, m):
    if n == 3:
        m = min(m, 13)
    rng = np.random.default_rng(seed)
    dom = BoxDomain(n=n, half_width=2.0, m=m)
    # diagonally dominant SPD: the gradient image of the box then covers the
    # dual box of auto_dual_domain, so no dual node needs the outermost layer
    off = np.triu(rng.uniform(-0.1, 0.1, size=(n, n)), 1)
    A = np.diag(rng.uniform(1.0, 2.0, size=n)) + off + off.T
    grids = dom.meshgrid()
    X = np.stack(grids, axis=-1)
    centre = rng.uniform(-0.5, 0.5, size=n)
    bump = 0.05 * np.exp(-np.sum((X - centre) ** 2, axis=-1))
    u = GridFunction(dom, 0.5 * np.einsum("...i,ij,...j->...", X, A, X) + bump)
    y_dom = auto_dual_domain(gradient(u), dom, shrink=0.5)

    scores, best = dense_sup(u, y_dom)
    rows = np.arange(best.size)
    dense = scores[rows, best]
    vals, multi = _discrete_sup(u, y_dom)
    flat = np.ravel_multi_index(multi, dom.shape).ravel()
    # values: relative to the magnitude of the sampled sup
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(vals.ravel() - dense)) <= 1e-13 * scale
    # arg-max: the two scans may only disagree at floating-point near-ties
    ulps = 4 * np.finfo(float).eps * (np.max(np.abs(y_dom.points() @ dom.points().T))
                                      + np.max(np.abs(u.values)))
    assert np.all(np.abs(scores[rows, flat] - dense) <= ulps)

    # reference transform: the same refinement applied at the dense arg-max
    star = conjugate(u, y_dom).values.ravel()
    orig = legendre._discrete_sup
    legendre._discrete_sup = lambda u, y_domain: (
        dense.reshape(y_domain.shape),
        tuple(a.reshape(y_domain.shape) for a in np.unravel_index(best, dom.shape)))
    try:
        ref = conjugate(u, y_dom).values.ravel()
    finally:
        legendre._discrete_sup = orig
    same = flat == best
    assert np.max(np.abs(star - ref)[same]) <= 1e-13 * np.max(np.abs(ref))


def one_shot_sup(u, y_domain):
    """The axis-by-axis max with each pass scored as one (m,)*(k+1) + (m',)*(n-k) array."""
    n = u.domain.n
    xy = np.multiply.outer(u.domain.axis, y_domain.axis)
    V, args = -u.values, [None] * n
    for k in range(n - 1, -1, -1):
        scores = np.expand_dims(V, k + 1) + xy.reshape(xy.shape + (1,) * (n - 1 - k))
        args[k] = np.argmax(scores, axis=k)
        V = np.take_along_axis(scores, np.expand_dims(args[k], k), axis=k).squeeze(k)
    ys = np.indices(y_domain.shape)
    idx = []
    for k in range(n):
        idx.append(args[k][tuple(idx) + tuple(ys[k:])])
    return V, tuple(idx)


# A pass line is one run of the running maxima along the maximised axis,
# scored against every dual index of that axis: m * m_y scores in every
# pass, and a pass has m**k * m_y**(n-1-k) lines.  With _BLOCK = quarters *
# m * m_y // 4 a block holds quarters / 4 lines, rounded down, at least one.
# The examples use dyadic data, whose scores tie exactly, so the first
# maximum must win in every block layout:
#   quarters 2: half a line, so one line per block (n = 1, 2, 3)
#   quarters 4: exactly one line (n = 1, 2, 3)
#   n = 1, quarters 16: more than the pass's one line
#   n = 2, m = 9, m_y = 11, quarters 16: 4 lines, passes of 9 and 11 lines
#     end in blocks of 1 and 3
#   n = 3, m = 7, m_y = 9, quarters 20: 5 lines, passes of 49, 63 and 81
#     lines end in blocks of 4, 3 and 1
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), m=st.integers(7, 15),
       m_y=st.integers(7, 15), quarters=st.integers(1, 64), ties=st.booleans())
@example(seed=1, n=1, m=13, m_y=8, quarters=2, ties=True)
@example(seed=2, n=1, m=13, m_y=8, quarters=4, ties=True)
@example(seed=3, n=1, m=13, m_y=8, quarters=16, ties=True)
@example(seed=4, n=2, m=9, m_y=11, quarters=2, ties=True)
@example(seed=5, n=2, m=9, m_y=11, quarters=4, ties=True)
@example(seed=6, n=2, m=9, m_y=11, quarters=16, ties=True)
@example(seed=7, n=3, m=7, m_y=9, quarters=2, ties=True)
@example(seed=8, n=3, m=7, m_y=9, quarters=4, ties=True)
@example(seed=9, n=3, m=7, m_y=9, quarters=20, ties=True)
@example(seed=10, n=3, m=7, m_y=9, quarters=20, ties=False)
def test_blocked_sup_has_the_bits_of_one_shot_passes(seed, n, m, m_y, quarters, ties):
    rng = np.random.default_rng(seed)
    dom = BoxDomain(n=n, half_width=0.25 * (m - 1), m=m)
    y_dom = BoxDomain(n=n, half_width=0.5 * (m_y - 1), m=m_y)
    if ties:   # dyadic scores: exact ties, where the first maximum must win
        vals = 0.25 * rng.integers(-8, 9, size=dom.shape)
    else:
        vals = rng.normal(size=dom.shape)
    u = GridFunction(dom, vals)
    with mock.patch.object(legendre, "_BLOCK", quarters * m * m_y // 4):
        V, idx = _discrete_sup(u, y_dom)
    V_ref, idx_ref = one_shot_sup(u, y_dom)
    assert V.tobytes() == V_ref.tobytes()
    assert len(idx) == n
    for a, b in zip(idx, idx_ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cubic_term_has_the_bits_of_einsum(n):
    # both multiply in the order third * step_i * step_j * step_l and sum
    # over (i, j, l) in C order from +0.0, so an exactly zero sum is +0.0 on
    # both sides, also where every product is -0.0; star - cubic / 6 is
    # then unchanged too
    rng = np.random.default_rng(n)
    K = 4000
    third = rng.normal(size=(K, n, n, n))
    step = rng.normal(size=(K, n)) * np.logspace(-8, 0, K)[:, None]
    third[rng.random(third.shape) < 0.3] = 0.0
    third[rng.random(third.shape) < 0.1] = -0.0
    step[rng.random(step.shape) < 0.3] = 0.0
    step[rng.random(step.shape) < 0.1] = -0.0
    third[:4], step[:4] = -1.0, 0.0      # every product -0.0
    third[4:8], step[4:8] = 0.0, -1.0
    want = np.einsum("kijl,ki,kj,kl->k", third, step, step, step)
    got = legendre._cubic(third, step)
    assert got.tobytes() == want.tobytes()
    assert np.any(want == 0.0) and not np.any(np.signbit(want[:8]))
    star = rng.normal(size=K)
    star[:2] = -0.0
    assert (star - got / 6.0).tobytes() == (star - want / 6.0).tobytes()


def test_transform_memory_is_bounded():
    # n = 2, m = 97: the scores of one pass would take 7.3 MB, two of them
    # 14.6 MB; the blocked max keeps the whole transform under 4 MB
    dom = BoxDomain(n=2, half_width=3.0, m=97)
    x, y = dom.meshgrid()
    u = GridFunction(dom, 0.5 * (x ** 2 + 2 * y ** 2) + 0.1 * np.exp(-x ** 2 - y ** 2))
    first = conjugate(u)
    tracemalloc.start()
    try:
        star = conjugate(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert star.values.tobytes() == first.values.tobytes()
    assert peak < 4e6


def test_isotropic_quadratic_is_self_dual():
    dom = BoxDomain(n=2, half_width=1.5, m=33)
    u = quad(dom, np.eye(2))
    star = conjugate(u)
    grids = star.domain.meshgrid()
    exact = 0.5 * sum(g ** 2 for g in grids)
    assert np.max(np.abs(star.values - exact)) < 1e-12


def test_quadratic_conjugate_inverts_the_matrix():
    dom = BoxDomain(n=2, half_width=1.5, m=33)
    A = np.diag([2.0, 0.5])
    star = conjugate(quad(dom, A))
    grids = star.domain.meshgrid()
    Ainv = np.diag([0.5, 2.0])
    exact = np.zeros(star.domain.shape)
    for i in range(2):
        for j in range(2):
            exact += 0.5 * Ainv[i, j] * grids[i] * grids[j]
    assert np.max(np.abs(star.values - exact)) < 1e-12


def test_quartic_conjugate_closed_form():
    # conjugate of x^4/4 is (3/4) |y|^{4/3}
    dom = BoxDomain(n=1, half_width=1.2, m=257)
    x = dom.axis
    u = GridFunction(dom, 0.25 * x ** 4 + 0.5e-3 * x ** 2)  # tiny stiffener keeps it strictly convex
    ydom = BoxDomain(n=1, half_width=0.8, m=65)
    star = conjugate(u, ydom)
    y = ydom.axis
    exact = 0.75 * np.abs(y) ** (4.0 / 3.0)
    assert np.max(np.abs(star.values - exact)) < 5e-3


def test_out_of_range_dual_point_raises():
    dom = BoxDomain(n=1, half_width=1.0, m=33)
    u = quad(dom, np.eye(1))  # gradient range is [-1, 1]
    with pytest.raises(RangeError):
        conjugate(u, BoxDomain(n=1, half_width=3.0, m=17))
    # n = 2: the axis-by-axis arg-max must land on the outer layer as well
    dom2 = BoxDomain(n=2, half_width=1.0, m=33)
    with pytest.raises(RangeError):
        conjugate(quad(dom2, np.eye(2)), BoxDomain(n=2, half_width=3.0, m=17))


def test_automatic_dual_box_takes_the_gradient_once(monkeypatch):
    # the caller's gradient sets the automatic box; the transform takes none
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    grids = dom.meshgrid()
    r2 = sum((g - 0.2) ** 2 for g in grids)
    u = GridFunction(dom, 0.5 * sum(g ** 2 for g in grids) + 0.1 * np.exp(-r2))
    H, g = hessian(u), gradient(u)
    y_domain = auto_dual_domain(g, dom)
    explicit = legendre_transform(u, H, g, y_domain)
    calls = []

    def counting_gradient(v):
        calls.append(v)
        return gradient(v)

    monkeypatch.setattr(legendre, "gradient", counting_gradient)
    star = legendre_transform(u, H, g)
    assert len(calls) == 0
    assert star.domain == y_domain
    assert star.values.tobytes() == explicit.values.tobytes()


def test_involution_returns_original():
    dom = BoxDomain(n=1, half_width=2.0, m=129)
    x = dom.axis
    u = GridFunction(dom, 0.5 * x ** 2 + 0.05 * np.exp(-x ** 2))
    star = conjugate(u)
    back = conjugate(star)
    pts = back.domain.points()
    u_at = sample(u.values, u.domain, pts, order=3)
    assert np.max(np.abs(back.values.ravel() - u_at)) < 5e-4


def test_duality_involution_identity_matrix():
    dom = BoxDomain(n=1, half_width=2.0, m=65)
    u = quad(dom, np.eye(1))
    assert involution_defect(u) < 1e-10


def test_duality_involution_quadratic():
    dom = BoxDomain(n=2, half_width=1.5, m=33)
    assert involution_defect(quad(dom, np.diag([2.0, 0.5]))) < 1e-8


def test_duality_involution_bump():
    dom = BoxDomain(n=1, half_width=3.0, m=129)
    x = dom.axis
    u = GridFunction(dom, 0.5 * x ** 2 + 0.05 * np.exp(-x ** 2))
    assert involution_defect(u) < 5e-3


def test_young_inequality_holds_exactly_for_sampled_pairs():
    dom = BoxDomain(n=1, half_width=2.5, m=65)
    x = dom.axis
    u = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-x ** 2))
    star = conjugate(u)
    worst_min, eq_defect = young_gap(u, star)
    assert worst_min >= -1e-12      # u(x) + u*(y) >= <x, y>
    assert eq_defect < 5e-3         # equality at y = Du(x)
    dom2 = BoxDomain(n=2, half_width=2.5, m=33)
    x, y = dom2.meshgrid()
    u2 = GridFunction(dom2, 0.5 * (x ** 2 + y ** 2) + 0.1 * np.exp(-x ** 2 - y ** 2))
    worst_min, _ = young_gap(u2, conjugate(u2))
    assert worst_min >= -1e-12


def test_eigenvalue_swap():
    dom = BoxDomain(n=2, half_width=1.5, m=33)
    u = quad(dom, np.diag([2.0, 0.5]))
    gap_lo, gap_hi = eigenvalue_swap_gap(hessian(u), hessian(conjugate(u)))
    assert gap_lo <= dom.h
    assert gap_hi <= dom.h


@pytest.mark.parametrize("m", [33, 65])
def test_dual_flow_check_quadratic_trajectory(m):
    # closed-form trajectory: u = x'Ax/2 + t ln det(A)/n, conjugate solves the
    # same equation, residual at machine precision
    dom = BoxDomain(n=2, half_width=2.0, m=m)
    A = np.diag([2.0, 2.0])
    rate = 0.5 * np.log(4.0)
    snaps = [(t, quad(dom, A, c=rate * t)) for t in (0.45, 0.5, 0.55)]
    assert dual_flow_check(snaps)[0] < 1e-8


def test_dual_flow_check_handles_uneven_spacing():
    # geometric snapshot schedules are the common case; the three-point
    # derivative stays exact on trajectories linear in t
    dom = BoxDomain(n=2, half_width=2.0, m=33)
    A = np.diag([2.0, 2.0])
    rate = 0.5 * np.log(4.0)
    snaps = [(t, quad(dom, A, c=rate * t)) for t in (0.25, 0.5, 1.0)]
    assert dual_flow_check(snaps)[0] < 1e-8


def test_dual_flow_check_requires_increasing_times():
    dom = BoxDomain(n=1, half_width=1.0, m=17)
    snaps = [(t, quad(dom, np.eye(1))) for t in (0.4, 0.2, 0.1)]
    with pytest.raises(ValueError):
        dual_flow_check(snaps)


def test_dual_flow_check_bump_trajectory_converges():
    from logflow.flow import QuadraticFarField, run

    def residual(m, delta):
        # probe spacing refined with the grid, like the CFL-coupled time step
        dom = BoxDomain(n=1, half_width=4.0, m=m)
        x = dom.axis
        u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-x ** 2))
        traj = run(u0, tau=1.0, t_end=0.5 + delta,
                   boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
                   snapshot_times=[0.5 - delta, 0.5, 0.5 + delta])
        return dual_flow_check([(t, u) for t, u in traj.snapshots])[0]

    r65 = residual(65, 0.005)
    assert r65 < 1e-2
    assert r65 / residual(129, 0.0025) > 3.0
