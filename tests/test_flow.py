"""Flow integration: exact quadratic evolution, CFL, monitors, invariances."""

import math

import numpy as np
import pytest

from logflow.errors import AbortedNonConvex, BoundaryInconsistency, NonConvexityError
from logflow.flow import (FlowState, QuadraticFarField, ReferenceSolution,
                          dt_stable, pde_residual, run, step_explicit)
from logflow.grid import BoxDomain, GridFunction, coincident_index_sets, hessian
from logflow.presets import make_initial_data


def quad(domain, A, b=None, c=0.0, label="quad"):
    A = np.atleast_2d(A)
    b = np.zeros(domain.n) if b is None else np.asarray(b)
    grids = domain.meshgrid()
    vals = c * np.ones(domain.shape)
    for i in range(domain.n):
        vals += b[i] * grids[i]
        for j in range(domain.n):
            vals += 0.5 * A[i, j] * grids[i] * grids[j]
    return GridFunction(domain, vals, label=label)


def unit_far_field(n):
    """The exact far field of quad(domain, I) and of bump_quad."""
    return QuadraticFarField(np.eye(n), np.zeros(n))


def bump_quad(domain, amp=0.1, width=1.0):
    grids = domain.meshgrid()
    r2 = sum(g ** 2 for g in grids)
    vals = 0.5 * r2 + amp * np.exp(-r2 / width ** 2)
    return GridFunction(domain, vals, label="quad+bump")


# ---------------------------------------------------------------------------
# right-hand side values
# ---------------------------------------------------------------------------

def rhs(u, tau):
    return FlowState(u=u, t=0.0, tau=tau, boundary=unit_far_field(u.domain.n)).F


def test_rhs_identity_quadratic_is_stationary():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    f = rhs(quad(dom, np.eye(2)), tau=1.0)
    assert np.max(np.abs(f)) < 1e-10


def test_rhs_heat_of_isotropic_quadratic():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    f = rhs(quad(dom, np.eye(2)), tau=0.0)
    assert np.max(np.abs(f - 2.0)) < 1e-10


def test_rhs_mixed_tau_value():
    dom = BoxDomain(n=2, half_width=1.0, m=9)
    f = rhs(quad(dom, np.diag([2.0, 2.0])), tau=0.5)
    expected = 0.5 * (0.5 * np.log(4.0)) + 0.5 * 4.0  # 2 + ln(2)/2
    assert expected == pytest.approx(2.346574, abs=1e-6)
    assert np.max(np.abs(f - expected)) < 1e-10


# ---------------------------------------------------------------------------
# stable step size
# ---------------------------------------------------------------------------

def test_dt_stable_log_flow_identity():
    dom = BoxDomain(n=2, half_width=0.4, m=9)  # h = 0.1
    st_ = FlowState(u=quad(dom, np.eye(2)), t=0.0, tau=1.0, boundary=unit_far_field(2))
    assert dt_stable(st_) == pytest.approx(0.0025, rel=1e-9)


def test_dt_stable_heat():
    dom = BoxDomain(n=1, half_width=0.4, m=9)
    st_ = FlowState(u=quad(dom, np.eye(1)), t=0.0, tau=0.0, boundary=unit_far_field(1))
    assert dt_stable(st_) == pytest.approx(0.0025, rel=1e-9)


def test_dt_stable_guards_degenerate_convexity():
    dom = BoxDomain(n=1, half_width=1.0, m=9)
    st_ = FlowState(u=quad(dom, np.eye(1) * 1e-9), t=0.0, tau=1.0,
                    boundary=unit_far_field(1))
    assert dt_stable(st_) < 1e-10  # dt -> 0 as lambda_min -> 0


# ---------------------------------------------------------------------------
# exact quadratic trajectories
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stepper", ["euler", "rk2"])
def test_quadratic_data_evolves_exactly(stepper):
    dom = BoxDomain(n=2, half_width=1.0, m=21)
    A = np.diag([2.0, 2.0])
    u0 = quad(dom, A)
    traj = run(u0, tau=1.0, t_end=0.25, boundary=QuadraticFarField(A, np.zeros(2)),
               stepper=stepper)
    expected = u0.values + 0.25 * np.log(2.0)
    assert np.max(np.abs(traj.state.u.values - expected)) < 1e-10


def test_far_field_rate_reads_determinant_and_trace_computed_once(monkeypatch):
    A = np.array([[2.0, 0.3], [0.3, 1.5]])
    ff = QuadraticFarField(A, np.zeros(2))
    expected = 0.7 / 2 * math.log(float(np.linalg.det(A))) + 0.3 * float(np.trace(A))
    singular = QuadraticFarField(np.diag([1.0, 0.0]), np.zeros(2))
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda M: calls.append(M) or det(M))
    assert ff.rate(0.7, 2) == expected
    assert ff.rate(0.0, 2) == 3.5
    assert singular.rate(0.0, 2) == 1.0
    with pytest.raises(NonConvexityError):
        singular.rate(0.5, 2)
    assert calls == []


def test_identity_quadratic_is_a_fixed_point():
    dom = BoxDomain(n=2, half_width=1.0, m=17)
    u0 = quad(dom, np.eye(2))
    traj = run(u0, tau=1.0, t_end=0.5, boundary=unit_far_field(2))
    for rec in traj.monitors:
        assert rec.lambda_min == pytest.approx(1.0, abs=1e-9)
        assert rec.lambda_max == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(traj.state.u.values - u0.values)) < 1e-12


def test_heat_run_matches_closed_form_on_quadratic():
    dom = BoxDomain(n=2, half_width=1.0, m=17)
    u0 = quad(dom, np.eye(2))
    traj = run(u0, tau=0.0, t_end=0.3, boundary=unit_far_field(2))
    assert np.max(np.abs(traj.state.u.values - (u0.values + 2.0 * 0.3))) < 1e-12


# ---------------------------------------------------------------------------
# Hessian-bound preservation on a bumped quadratic
# ---------------------------------------------------------------------------

def test_hessian_bounds_preserved_n2():
    dom = BoxDomain(n=2, half_width=4.0, m=33)
    u0 = bump_quad(dom)
    traj = run(u0, tau=1.0, t_end=0.2, boundary=unit_far_field(2))
    lam0 = traj.monitors[0].lambda_min
    Lam0 = traj.monitors[0].lambda_max
    under = max(0.0, max(lam0 - r.lambda_min for r in traj.monitors))
    over = max(0.0, max(r.lambda_max - Lam0 for r in traj.monitors))
    assert under <= 1e-2
    assert over <= 1e-2


def test_scaling_invariance_of_quadratic_solutions():
    # degree-2 homogeneous data: R^-2 u(Rx, R^2 t) = u(x, t) at coincident nodes
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    A = np.diag([2.0, 2.0])
    u0 = quad(dom, A)
    t_star = 0.25
    traj = run(u0, tau=1.0, t_end=4 * t_star, boundary=QuadraticFarField(A, np.zeros(2)),
               snapshot_times=[t_star / 4, t_star, 4 * t_star])
    snaps = dict(traj.snapshots)
    u_mid = snaps[t_star].values
    for R in (2.0, 0.5):
        src, dst = coincident_index_sets(dom, R)
        u_scaled = snaps[R ** 2 * t_star].values
        assert np.max(np.abs(u_mid[src] - u_scaled[dst] / R ** 2)) < 1e-10


# ---------------------------------------------------------------------------
# step rejection and abort paths
# ---------------------------------------------------------------------------

def test_step_halves_dt_until_convex():
    # a huge requested step destroys convexity; halving must rescue it
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-4 * x ** 2))
    state = FlowState(u=u0, t=0.0, tau=1.0, boundary=unit_far_field(1))
    big = 100.0 * dt_stable(state)
    new = step_explicit(state, big, stepper="euler")
    assert new.t - state.t < big  # at least one halving happened
    assert hessian(new.u).is_strictly_convex("nonring")


def test_abort_after_exhausted_halvings():
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-4 * x ** 2))
    state = FlowState(u=u0, t=0.0, tau=1.0, boundary=unit_far_field(1))
    with pytest.raises(AbortedNonConvex) as exc:
        step_explicit(state, 100.0 * dt_stable(state), stepper="euler", max_halvings=0)
    assert exc.value.state is state


@pytest.mark.parametrize("stepper, per_step", [("rk2", 2), ("euler", 1)])
def test_each_iterate_hessian_assembled_once(monkeypatch, stepper, per_step):
    # one Hessian for u0, then per step the accepted iterate's (plus the
    # midpoint's for rk2); the step limit, acceptance, F_tau and monitors share
    # it, and each Hessian's convexity verdict is evaluated once: the step
    # acceptance's is reused by the next step's F_tau
    import logflow.flow as flow
    from logflow.grid import HessianField
    calls, checked = [], []
    sylvester = HessianField._sylvester

    def counting_hessian(u):
        calls.append(u)
        return hessian(u)

    def counting_sylvester(H, a):
        checked.append(H)
        return sylvester(H, a)

    monkeypatch.setattr(flow, "hessian", counting_hessian)
    monkeypatch.setattr(HessianField, "_sylvester", counting_sylvester)
    dom = BoxDomain(n=2, half_width=4.0, m=33)
    traj = run(bump_quad(dom), tau=1.0, t_end=0.05, stepper=stepper,
               boundary=unit_far_field(2))
    steps = traj.state.step_count
    assert steps >= 2
    assert len(calls) == 1 + per_step * steps
    assert len(checked) == len({id(H) for H in checked}) == 1 + per_step * steps


def test_eigen_screen_runs_once_per_n3_hessian(monkeypatch):
    # every accepted iterate's Hessian is read by dt_stable ("nonring") and
    # by the monitor ("interior"); both regions slice one screen of all nodes
    import logflow.grid as grid
    screened = []
    screen = grid._screen_sym3

    def counting_screen(a):
        screened.append(a.shape)
        return screen(a)

    monkeypatch.setattr(grid, "_screen_sym3", counting_screen)
    dom = BoxDomain(n=3, half_width=3.0, m=13)
    traj = run(bump_quad(dom), tau=1.0, t_end=0.1,
               boundary=unit_far_field(3))
    steps = traj.state.step_count
    assert steps >= 2 and len(traj.monitors) == steps + 1
    assert screened == [dom.shape + (3, 3)] * (steps + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_values_equal_far_field_values_bit_for_bit(n):
    from logflow.flow import apply_boundary
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    model = QuadraticFarField(B @ B.T + n * np.eye(n), rng.normal(size=n), c=0.3)
    for m in (9, 12):
        dom = BoxDomain(n=n, half_width=1.7, m=m)
        pts = dom.points()[dom.ring_mask().ravel()]
        quad = 0.5 * np.einsum("ki,ij,kj->k", pts, model.A, pts)
        for tau in (0.0, 0.4, 1.0):
            for t in (0.0, 0.013, 0.5, 7.25):
                vals = np.zeros(dom.shape)
                apply_boundary(vals, dom, model, t, tau)
                ref = quad + pts @ model.b + model.c + t * model.rate(tau, n)
                assert model.values_at(pts, t, tau, n).tobytes() == ref.tobytes()
                assert vals[dom.ring_mask()].tobytes() == ref.tobytes()
                assert not vals[dom.nonring()].any()


def test_reference_boundary_mismatch_refused():
    dom = BoxDomain(n=1, half_width=2.0, m=17)
    u0 = quad(dom, np.eye(1))
    ref = ReferenceSolution(lambda pts, t: np.full(pts.shape[0], 99.0))
    with pytest.raises(BoundaryInconsistency):
        run(u0, tau=0.0, t_end=0.1, boundary=ref)


# ---------------------------------------------------------------------------
# convergence in dt, continuity in tau
# ---------------------------------------------------------------------------

def _final_values(stepper, max_dt, m=33):
    dom = BoxDomain(n=1, half_width=3.0, m=m)
    u0 = bump_quad(dom)
    traj = run(u0, tau=1.0, t_end=0.1, boundary=unit_far_field(1), stepper=stepper,
               max_dt=max_dt)
    return traj.state.u.values


@pytest.mark.parametrize("stepper,lo,hi", [("euler", 1.5, 3.0), ("rk2", 2.6, 6.5)])
def test_step_size_convergence_order(stepper, lo, hi):
    dt0 = 5e-4
    ref = _final_values(stepper, dt0 / 8)
    e1 = np.max(np.abs(_final_values(stepper, dt0) - ref))
    e2 = np.max(np.abs(_final_values(stepper, dt0 / 2) - ref))
    assert lo <= e1 / e2 <= hi


def test_tau_continuity_is_lipschitz():
    dom = BoxDomain(n=1, half_width=3.0, m=33)
    u0 = bump_quad(dom)

    def final(tau):
        return run(u0, tau=tau, t_end=0.25, boundary=unit_far_field(1)).state.u.values

    base, d02, d01 = final(0.4), final(0.6), final(0.5)
    gap_02 = np.max(np.abs(d02 - base))
    gap_01 = np.max(np.abs(d01 - base))
    assert gap_01 <= 0.75 * gap_02  # roughly linear in |tau - tau'|
    assert gap_02 <= 1.0


# ---------------------------------------------------------------------------
# gradient monitor on linear far-field data
# ---------------------------------------------------------------------------

def test_window_gradient_monitor_nonincreasing():
    dom = BoxDomain(n=1, half_width=6.0, m=97)
    u0, ref = make_initial_data(
        dom, {"kind": "linear_plus_bump", "amplitude": 0.1, "width": 1.0}, 0.0)
    traj = run(u0, tau=0.0, t_end=0.5, boundary=ref, monitor_window=2.0)
    vals = [rec.grad_sq_window for rec in traj.monitors]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-8


# ---------------------------------------------------------------------------
# residuals and snapshots
# ---------------------------------------------------------------------------

def test_pde_residual_zero_on_exact_quadratic_family():
    dom = BoxDomain(n=2, half_width=1.0, m=17)
    A = np.diag([2.0, 2.0])
    rate = 0.5 * np.log(4.0)
    snaps = [quad(dom, A, c=rate * t) for t in (0.1, 0.15, 0.2)]
    assert pde_residual(snaps[0], snaps[1], snaps[2], dt=0.1, tau=1.0) < 1e-12


def test_snapshot_times_hit_exactly():
    dom = BoxDomain(n=1, half_width=2.0, m=17)
    traj = run(quad(dom, np.eye(1)), tau=1.0, t_end=0.5, boundary=unit_far_field(1),
               snapshot_times=[0.1, 0.25, 0.5])
    assert [t for t, _ in traj.snapshots] == [0.1, 0.25, 0.5]


def test_runs_are_deterministic():
    dom = BoxDomain(n=1, half_width=3.0, m=33)
    u0 = bump_quad(dom)
    a = run(u0, tau=1.0, t_end=0.1, boundary=unit_far_field(1)).state.u.values
    b = run(u0, tau=1.0, t_end=0.1, boundary=unit_far_field(1)).state.u.values
    assert a.tobytes() == b.tobytes()
