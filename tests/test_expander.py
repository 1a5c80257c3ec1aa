"""Self-expander equation: shooting vs Newton vs closed forms, certification."""

from pathlib import Path

import numpy as np
import pytest

from logflow.errors import BlowupError, NewtonStall, NonConvexityError, RangeError
from logflow.expander import (certify, line_profile, newton_solve, profile_to_grid,
                              radial_shoot)
from logflow.flow import run
from logflow.grid import BoxDomain, GridFunction


def iso_quad(domain, scale=1.0, const=0.0):
    grids = domain.meshgrid()
    r2 = sum(g ** 2 for g in grids)
    return GridFunction(domain, const + 0.5 * scale * r2, label="quad")


# ---------------------------------------------------------------------------
# pointwise residual F_1(D2u) - w, read as certify's interior sup
# ---------------------------------------------------------------------------

def test_residual_zero_on_isotropic_quadratic():
    for n in (1, 2):
        dom = BoxDomain(n=n, half_width=1.5, m=17)
        assert certify(iso_quad(dom)).residual_norm < 1e-11


def test_residual_of_anisotropic_quadratic():
    # det = 4 but w vanishes for any quadratic: residual = (1/2) ln 4 everywhere
    dom = BoxDomain(n=2, half_width=1.0, m=17)
    x1, x2 = dom.meshgrid()
    u = GridFunction(dom, 0.5 * (2 * x1 ** 2 + 2 * x2 ** 2))
    assert certify(u).residual_norm == pytest.approx(np.log(2.0), abs=1e-9)


def test_residual_of_stretched_parabola_1d():
    dom = BoxDomain(n=1, half_width=1.0, m=17)
    u = GridFunction(dom, 0.6 * dom.axis ** 2)
    assert certify(u).residual_norm == pytest.approx(np.log(1.2), abs=1e-9)


def test_residual_requires_convexity():
    dom = BoxDomain(n=1, half_width=1.0, m=17)
    with pytest.raises(NonConvexityError, match="expander residual"):
        certify(GridFunction(dom, -0.5 * dom.axis ** 2))


# ---------------------------------------------------------------------------
# radial shooting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_trivial_profile_is_half_r_squared(n):
    prof = radial_shoot(n=n, a=0.0, r_max=2.0)
    assert np.max(np.abs(prof.u - 0.5 * prof.r ** 2)) < 1e-7
    assert np.max(np.abs(prof.du - prof.r)) < 1e-7


def test_shooting_matches_fixed_step_rk4_oracle():
    # independent fixed-step RK4 at ten-fold resolution
    n, a, r_max = 1, -0.1, 1.5
    prof = radial_shoot(n=n, a=a, r_max=r_max)

    r0 = 1e-4
    c0 = np.exp(a)
    y = np.array([a + 0.5 * c0 * r0 ** 2, c0 * r0])

    def f(r, y):
        u, du = y
        return np.array([du, np.exp(u - 0.5 * r * du)])

    steps = 50_000
    hstep = (r_max - r0) / steps
    r = r0
    for _ in range(steps):
        k1 = f(r, y)
        k2 = f(r + hstep / 2, y + hstep / 2 * k1)
        k3 = f(r + hstep / 2, y + hstep / 2 * k2)
        k4 = f(r + hstep, y + hstep * k3)
        y = y + hstep / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        r += hstep
    idx = np.argmin(np.abs(prof.r - r_max))
    assert abs(prof.u[idx] - y[0]) < 1e-8


def test_line_profiles_are_exact_parabolas():
    # on the line, u(0)=a, u'(0)=0 forces u = a + e^a r^2 / 2 identically
    a = -0.1
    prof = radial_shoot(n=1, a=a, r_max=2.0)
    exact = a + 0.5 * np.exp(a) * prof.r ** 2
    assert np.max(np.abs(prof.u - exact)) < 1e-8


def test_shoot_blowup_guard():
    with pytest.raises(BlowupError):
        radial_shoot(n=1, a=20.0, r_max=1.0)
    # exp(800) overflows: the start is refused before it is computed
    with pytest.raises(BlowupError, match="exp"):
        radial_shoot(n=1, a=800.0, r_max=1.0)


# between steps both sides evaluate the same quartic interpolant of the same
# steps, so they agree to rounding; a cubic Hermite interpolant through the
# step ends misses the reference by 2e-11 to 6e-10 at these points
_DENSE_TOL = 1e-12


def _solve_ivp_reference(f, t0, y0, t_end):
    """scipy's RK45 at the stepper's tolerances, with its dense output."""
    from scipy.integrate import solve_ivp
    from logflow.expander import _ATOL, _RTOL
    sol = solve_ivp(f, (t0, t_end), y0, method="RK45", rtol=_RTOL, atol=_ATOL,
                    dense_output=True)
    assert sol.success
    # the reference's step midpoints lie between the stepper's steps too
    return sol.sol, 0.5 * (sol.t[1:] + sol.t[:-1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_shoot_matches_solve_ivp_reference(n):
    from logflow.expander import _radial_rhs
    a, r_max, r0 = -0.1, 3.5, 1e-4
    c0 = np.exp(a)
    ref, mids = _solve_ivp_reference(_radial_rhs(n, a), r0,
                                     [a + 0.5 * c0 * r0 ** 2, c0 * r0], r_max)
    prof = radial_shoot(n=n, a=a, r_max=r_max)
    assert prof.r.size == 513
    y = ref(prof.r)
    assert np.max(np.abs(prof.u - y[0])) < 1e-9
    assert np.max(np.abs(prof.du - y[1])) < 1e-9
    # dense evaluation off the samples and between the steps
    assert mids.size > 50
    assert np.max(np.abs(prof(mids) - ref(mids)[0])) < _DENSE_TOL


def test_line_profile_matches_solve_ivp_reference():
    from logflow.expander import _radial_rhs
    a, slope0, half_width, r0 = 0.0, 0.5, 2.5, 1e-6
    f = _radial_rhs(1, a)
    right, mid_r = _solve_ivp_reference(
        f, r0, [a + slope0 * r0 + 0.5 * r0 ** 2, slope0 + r0], half_width)
    left, mid_l = _solve_ivp_reference(
        f, -r0, [a - slope0 * r0 + 0.5 * r0 ** 2, slope0 - r0], -half_width)
    u = line_profile(a=a, slope0=slope0, half_width=half_width)
    x = np.linspace(-half_width, half_width, 513)
    x = x[np.abs(x) >= r0]
    for side, pts, mids in ((right, x[x > 0], mid_r), (left, x[x < 0], mid_l)):
        assert np.max(np.abs(u(pts) - side(pts)[0])) < 1e-9
        assert np.max(np.abs(u(mids) - side(mids)[0])) < _DENSE_TOL


def test_shoot_refuses_starting_curvature_below_floor():
    # exp(-30) = 9.4e-14 lies below the curvature floor 1e-12 of every step
    with pytest.raises(BlowupError, match="starting curvature"):
        radial_shoot(n=2, a=-30.0, r_max=2.0)


def test_shoot_step_budget(monkeypatch):
    # a stiff start near the curvature cap (exp(13) = 4.4e5) would take about
    # 1e6 steps; past the budget the shoot stops with the radius reached.
    # The preset shoot takes 62-184 steps, so a budget of 50 stops it early
    import logflow.expander as expander
    assert expander._MAX_STEPS == 100_000
    radial_shoot(n=1, a=-0.1, r_max=2.0)
    monkeypatch.setattr(expander, "_MAX_STEPS", 50)
    with pytest.raises(BlowupError, match=r"no end after 50 accepted steps, at r = 1\.5"):
        radial_shoot(n=1, a=-0.1, r_max=2.0)


def test_shoot_refuses_r_max_inside_series_start():
    from logflow.errors import ConfigError
    with pytest.raises(ConfigError, match="r_max"):
        radial_shoot(n=1, a=0.0, r_max=1e-5)


def test_profiles_refuse_points_past_their_end():
    # read past r_max, the dense output would extrapolate silently: at r = 2.6
    # it misses the exact parabola a + e^a r^2 / 2 by 2.6e-6
    prof = radial_shoot(n=2, a=-0.1, r_max=2.0)
    assert np.max(np.abs(prof(np.array([0.0, 1.0, 2.0])) - (-0.1 + 0.5 * np.exp(-0.1)
                                                           * np.array([0.0, 1.0, 4.0])))) < 1e-8
    with pytest.raises(RangeError, match="past its end r_max = 2"):
        prof(np.array([1.0, 2.6]))
    u = line_profile(a=0.0, slope0=0.5, half_width=2.0)
    assert np.all(np.isfinite(u(np.array([-2.0, 2.0]))))
    for x in (-2.1, 2.1):
        with pytest.raises(RangeError, match="past its end"):
            u(np.array([0.0, x]))


def test_off_centre_line_profile_is_not_quadratic():
    # a nonzero starting slope genuinely breaks the quadratic rigidity: the
    # centred profiles keep w = u - x u' / 2 constant, this one does not
    x = np.linspace(0.0, 2.0, 2001)
    u = line_profile(a=0.0, slope0=0.5, half_width=2.0)(x)
    w = u - 0.5 * x * np.gradient(u, x)
    assert np.max(w) - np.min(w) > 1e-3


# ---------------------------------------------------------------------------
# grid Newton solver
# ---------------------------------------------------------------------------

def test_newton_recovers_quadratic_from_noisy_start(rng):
    dom = BoxDomain(n=2, half_width=1.5, m=21)
    exact = iso_quad(dom)
    noisy = exact.values + 1e-3 * rng.standard_normal(dom.shape)
    noisy[dom.ring_mask()] = exact.values[dom.ring_mask()]
    sol = newton_solve(GridFunction(dom, noisy), dirichlet=exact)
    assert sol.residual_norm <= 1e-10
    assert sol.iterations <= 6
    assert np.max(np.abs(sol.u.values - exact.values)) < 1e-9


def test_newton_cross_validates_radial_profile():
    n, a = 1, -0.1
    prof = radial_shoot(n=n, a=a, r_max=2.0)
    dom = BoxDomain(n=1, half_width=1.5, m=65)
    target = profile_to_grid(prof, dom)
    # start from the interpolated profile with a smooth interior perturbation
    start_vals = target.values + 5e-3 * np.cos(2.0 * dom.axis)
    start_vals[dom.ring_mask()] = target.values[dom.ring_mask()]
    sol = newton_solve(GridFunction(dom, start_vals), dirichlet=target)
    assert sol.residual_norm <= 1e-10
    gap = np.max(np.abs(sol.u.values - target.values))
    assert gap < 1e-4


def test_newton_stalls_on_inconsistent_boundary():
    dom = BoxDomain(n=1, half_width=1.5, m=33)
    start = iso_quad(dom)
    bad = GridFunction(dom, -0.5 * dom.axis ** 2)  # concave ring data
    with pytest.raises((NewtonStall, NonConvexityError)):
        newton_solve(start, dirichlet=bad)


def _cross_validation_start(n, m):
    """The expander-cross-validation start on [-1.5, 1.5]^n: the radial
    a = -0.1 profile plus 5e-3 cos(2 sum x), tapered by prod(1 - (x_i/L)^2)
    to vanish on the ring, and the profile."""
    dom = BoxDomain(n=n, half_width=1.5, m=m)
    grids = dom.meshgrid()
    target = profile_to_grid(radial_shoot(n=n, a=-0.1, r_max=1.5 * np.sqrt(n) + 0.5), dom)
    taper = np.prod([1.0 - (g / 1.5) ** 2 for g in grids], axis=0)
    start = target.values + 5e-3 * taper * np.cos(2.0 * sum(grids))
    start[dom.ring_mask()] = target.values[dom.ring_mask()]
    return GridFunction(dom, start), target


def _newton_residual(u):
    """Newton's residual F_1(D2u) - w on the non-ring nodes, flattened."""
    from logflow.expander import _w_field
    from logflow.flow import _ftau
    from logflow.grid import hessian
    return (_ftau(hessian(u), 1.0) - _w_field(u))[u.domain.nonring()].ravel()


@pytest.mark.parametrize("n, m", [(1, 33), (2, 17), (3, 9)])
def test_jacobian_matches_finite_differences_of_the_residual(n, m):
    # the assembled Jacobian against central differences of the residual
    # along random directions of the non-ring unknowns
    from logflow.expander import _assemble_jacobian
    from logflow.grid import hessian
    u, _ = _cross_validation_start(n, m)
    rows, cols, vals = _assemble_jacobian(hessian(u))
    inner = u.domain.nonring()
    eps = 1e-6
    for seed in range(3):
        v = np.random.default_rng(seed).standard_normal((m - 2) ** n)
        jv = np.zeros_like(v)
        np.add.at(jv, rows, vals * v[cols])
        plus, minus = u.values.copy(), u.values.copy()
        plus[inner] += eps * v.reshape([m - 2] * n)
        minus[inner] -= eps * v.reshape([m - 2] * n)
        fd = (_newton_residual(u.with_values(plus))
              - _newton_residual(u.with_values(minus))) / (2.0 * eps)
        assert np.max(np.abs(fd - jv)) <= 1e-6 * np.max(np.abs(jv))


@pytest.mark.parametrize("n, m", [(1, 129), (2, 21), (3, 13)])
def test_block_solve_matches_spsolve_on_newton_jacobians(n, m):
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    from logflow.expander import _assemble_jacobian, _block_solve
    from logflow.grid import hessian
    u, _ = _cross_validation_start(n, m)
    rhs = -_newton_residual(u)
    jac = _assemble_jacobian(hessian(u))
    size = (m - 2) ** n
    x = _block_solve(jac, rhs, (m - 2) ** (n - 1))
    x_ref = spsolve(sparse.csr_matrix((jac[2], (jac[0], jac[1])), shape=(size, size)), rhs)
    assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


def test_newton_converges_at_n3():
    u, target = _cross_validation_start(3, 13)
    sol = newton_solve(u, dirichlet=target)
    assert sol.residual_norm <= 1e-10
    assert sol.iterations <= 6
    assert np.max(np.abs(sol.u.values - target.values)) < 1e-4


@pytest.mark.parametrize("n, m", [(1, 65), (2, 21)])
@pytest.mark.parametrize("plant", ["zero row", "nan entry"])
def test_singular_newton_step_stalls(monkeypatch, n, m, plant):
    # the last row: its block is eliminated after the others
    from logflow import expander
    assemble = expander._assemble_jacobian

    def planted(H):
        rows, cols, vals = assemble(H)
        vals = np.where(rows == rows[-1], 0.0 if plant == "zero row" else np.nan, vals)
        return rows, cols, vals

    monkeypatch.setattr(expander, "_assemble_jacobian", planted)
    u, target = _cross_validation_start(n, m)
    with pytest.raises(NewtonStall, match="at iteration 1"):
        newton_solve(u, dirichlet=target)


def test_singular_newton_step_exits_3(monkeypatch, tmp_path):
    from logflow import expander
    from logflow.cli import main
    assemble = expander._assemble_jacobian

    def zero_row(H):
        rows, cols, vals = assemble(H)
        return rows, cols, np.where(rows == 40, 0.0, vals)

    monkeypatch.setattr(expander, "_assemble_jacobian", zero_row)
    preset = Path(__file__).resolve().parents[1] / "presets" / "expander-cross-validation.json"
    assert main(["flow", "run", "--config", str(preset), "--outdir", str(tmp_path / "out")]) == 3


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_trivial_expander():
    dom = BoxDomain(n=2, half_width=2.0, m=33)
    rep = certify(iso_quad(dom))
    assert rep.condition_A_defect < 1e-10
    assert rep.bernstein_residual < 1e-9
    assert rep.w_range < 1e-10
    assert rep.is_quadratic


def test_certify_reports_constant_offset_defect():
    # u = a + e^a r^2/2 solves the equation but breaks degree-2 homogeneity by a
    a = -0.1
    prof = radial_shoot(n=1, a=a, r_max=3.0)
    dom = BoxDomain(n=1, half_width=2.0, m=65)
    rep = certify(profile_to_grid(prof, dom))
    assert rep.residual_norm < 1e-6
    assert rep.is_quadratic  # w is the constant a
    # R^-2 u(Rx) - x'Ax/2 = a / R^2, largest at the smallest scale R = 2
    assert rep.condition_A_defect == pytest.approx(abs(a) / 4.0, rel=1e-3)


def test_certify_refuses_non_solutions():
    dom = BoxDomain(n=2, half_width=1.0, m=17)
    x1, x2 = dom.meshgrid()
    u = GridFunction(dom, 0.5 * (2 * x1 ** 2 + 2 * x2 ** 2))
    rep = certify(u)
    # certification reports the failure: ln 2 where a solution reads 0
    assert rep.residual_norm == pytest.approx(np.log(2.0), abs=1e-9)


def test_flow_snapshot_of_homogeneous_data_is_an_expander():
    # two-slope degree-2 homogeneous data: u(x, 1) of the flow solves the
    # stationary equation; a non-quadratic instance with non-constant w
    from logflow.flow import ReferenceSolution
    dom = BoxDomain(n=1, half_width=6.0, m=129)
    x = dom.axis
    cm, cp = 0.7, 1.3
    c = np.where(x < 0, cm, cp)
    u0 = GridFunction(dom, 0.5 * c * x ** 2, label="two-slope")
    ref = ReferenceSolution(
        lambda pts, t: 0.5 * np.where(pts[:, 0] < 0, cm, cp) * pts[:, 0] ** 2
        + t * np.log(np.where(pts[:, 0] < 0, cm, cp)))
    traj = run(u0, tau=1.0, t_end=1.0, boundary=ref)
    u1 = traj.state.u
    rep = certify(u1)
    assert rep.residual_norm < 0.05  # O(h^2) residual
    assert not rep.is_quadratic
    assert rep.w_range > 1e-2
    # w has no interior extremum: it increases monotonically across the kink
    from logflow.expander import _w_field
    w = _w_field(u1)[dom.interior()]
    interior_max_at_edge = np.argmax(w) in (0, w.size - 1)
    interior_min_at_edge = np.argmin(w) in (0, w.size - 1)
    assert interior_max_at_edge and interior_min_at_edge


def test_bernstein_residual_shrinks_at_second_order():
    # ODE-accurate non-quadratic solution: the only residual left is the FD error
    u_exact = line_profile(a=0.0, slope0=0.5, half_width=2.5)

    def res(m):
        dom = BoxDomain(n=1, half_width=2.0, m=m)
        u = GridFunction(dom, u_exact(dom.axis), label="line-expander")
        rep = certify(u)
        assert rep.residual_norm < 5e-4  # FD error of the residual, O(h^2)
        assert not rep.is_quadratic
        return rep.bernstein_residual

    assert res(65) / res(129) > 3.0


def _c_order_hessian(u):
    """The Hessian of ``u`` with each node's matrix contiguous (C order)."""
    from logflow.grid import HessianField, hessian
    return HessianField(u.domain, np.ascontiguousarray(hessian(u).mats))


@pytest.mark.parametrize("n, m, amp", [(2, 17, 0.05), (3, 17, 0.2)])
def test_certify_bits_match_c_order_hessian_reference(n, m, amp):
    # the Hessian's storage order must not move a bit of the contractions;
    # on these off-centre bumps an einsum over the component-major fields
    # moves the interior sup of the Bernstein residual
    from logflow.expander import _bernstein_residual, _w_field
    from logflow.flow import _ftau
    from logflow.grid import gradient, hessian
    dom = BoxDomain(n=n, half_width=2.0, m=m)
    grids = dom.meshgrid()
    r2 = sum((g - 0.3 * (k + 1) / n) ** 2 for k, g in enumerate(grids))
    u = GridFunction(dom, 0.5 * sum(g ** 2 for g in grids) + amp * np.exp(-r2),
                     label="bump")
    w = _w_field(u)
    H = _c_order_hessian(u)
    wf = GridFunction(dom, w)
    lhs = np.einsum("...ij,...ij->...", H.inverse(), _c_order_hessian(wf).mats)
    drift = 0.5 * n * sum(x * g for x, g in zip(grids, gradient(wf)))
    bern = float(np.max(np.abs((lhs + drift)[dom.interior()])))
    resid = float(np.max(np.abs((_ftau(H, 1.0) - w)[dom.interior()])))
    assert _bernstein_residual(hessian(u), w) == bern
    rep = certify(u)
    assert (rep.bernstein_residual, rep.residual_norm) == (bern, resid)


# ---------------------------------------------------------------------------
# derivative fields evaluated once
# ---------------------------------------------------------------------------

def _counting(fn, tally, key, when=lambda *args: True):
    def wrapper(*args, **kwargs):
        tally[key] += bool(when(*args))
        return fn(*args, **kwargs)
    return wrapper


def test_newton_forms_one_determinant_per_hessian(monkeypatch):
    from logflow import expander, grid
    from logflow.config import load_config
    from logflow.experiments import run_pipeline
    tally = {"det": 0, "hessian": 0}
    inside = []
    monkeypatch.setattr(grid, "_det", _counting(grid._det, tally, "det", lambda *a: inside))
    monkeypatch.setattr(expander, "hessian",
                        _counting(expander.hessian, tally, "hessian", lambda *a: inside))
    solve = expander.newton_solve

    def tracked(*args, **kwargs):
        inside.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(expander, "newton_solve", tracked)
    report, _ = run_pipeline(load_config({"preset": "expander-cross-validation"}))
    assert report["newton_iterations"] == 3
    assert tally == {"det": 4, "hessian": 4}


@pytest.mark.parametrize("n", [1, 2])
def test_certify_evaluates_hessian_and_gradient_once(monkeypatch, n):
    from logflow import expander
    u = iso_quad(BoxDomain(n=n, half_width=2.0, m=33))
    tally = {"hessian": 0, "gradient": 0}
    for name in tally:
        monkeypatch.setattr(expander, name, _counting(getattr(expander, name), tally,
                                                      name, lambda v, *a: v is u))
    certify(u)
    assert tally == {"hessian": 1, "gradient": 1}
