"""Flow integration: exact quadratic evolution, CFL, monitors, invariances."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from logflow.errors import AbortedNonConvex, NonConvexityError
from logflow.flow import (FlowState, QuadraticFarField, ReferenceSolution, dt_stable,
                          pde_residual, run, step_explicit)
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

@pytest.mark.parametrize("tau", [1.0, 0.0], ids=["log", "heat"])
def test_quadratic_data_evolves_exactly(tau):
    # isotropic data under the log flow and the heat flow, adaptive steps
    dom = BoxDomain(n=2, half_width=1.0, m=21)
    A = np.diag([2.0, 2.0])
    u0 = quad(dom, A)
    far = QuadraticFarField(A, np.zeros(2))
    traj = run(u0, tau=tau, t_end=0.25, boundary=far)
    expected = u0.values + 0.25 * far.rate(tau, 2)
    assert np.max(np.abs(traj.state.u.values - expected)) < 1e-10


@pytest.mark.parametrize("n, m", [(1, 33), (2, 21), (3, 11)])
def test_rkc_quadratic_data_evolves_exactly(n, m):
    # a tilted, sheared quadratic: each step's error estimate is roundoff, so
    # from the explicit limit on every step grows tenfold until t_end
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    A = B @ B.T / n + np.eye(n)
    b = rng.normal(size=n)
    dom = BoxDomain(n=n, half_width=1.0, m=m)
    u0 = quad(dom, A, b, c=0.3)
    far = QuadraticFarField(A, b, 0.3)
    state = FlowState(u=u0, t=0.0, tau=1.0, boundary=far)
    traj = run(u0, tau=1.0, t_end=0.5, boundary=far)
    expected = u0.values + 0.5 * far.rate(1.0, n)
    steps = [r.dt for r in traj.monitors[1:]]
    assert steps[0] == dt_stable(state) and traj.state.step_count <= 4
    assert steps[1] == pytest.approx(10.0 * steps[0], rel=1e-12)
    assert traj.state.run_counters()["rejected_trials"] == 0
    assert np.max(np.abs(traj.state.u.values - expected)) < 1e-12


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


def test_rotated_kink_overshoot_shows_on_accepted_states():
    # u0 = c xi^2/2 + eta^2/2 in axes rotated by pi/4, with c = 0.25 for
    # xi < 0 and 4 otherwise, sits on both Hessian bounds, and the central
    # mixed stencil is not monotone: lambda_max overshoots its initial bound
    # by 1.2e-2 over six error-controlled steps
    dom = BoxDomain(n=2, half_width=3.0, m=33)
    r = math.sqrt(0.5)

    def exact(pts, t):  # per side, the quadratic plus t (1/n) ln c
        xi, eta = r * (pts[:, 0] + pts[:, 1]), r * (pts[:, 1] - pts[:, 0])
        c = np.where(xi < 0, 0.25, 4.0)
        return 0.5 * c * xi ** 2 + 0.5 * eta ** 2 + 0.5 * t * np.log(c)

    u0 = GridFunction(dom, exact(dom.points(), 0.0).reshape(dom.shape))
    bounds = []
    run(u0, tau=1.0, t_end=0.05, boundary=ReferenceSolution(exact),
        observe=lambda s: bounds.append(s.H.eigen_bounds("interior")))
    lam0, Lam0 = bounds[0]
    assert max(max(lam0 - lo, hi - Lam0) for lo, hi in bounds) > 5e-3


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

def test_step_halves_dt_until_convex(monkeypatch):
    # a huge requested step with too few stages (stage fraction 3) destroys
    # convexity; halving must rescue it
    import logflow.flow as flow
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-4 * x ** 2))
    state = FlowState(u=u0, t=0.0, tau=1.0, boundary=unit_far_field(1))
    big = 100.0 * dt_stable(state)
    monkeypatch.setattr(flow, "_SAFETY", 3.0)
    new = step_explicit(state, big)
    assert new.t - state.t < big  # at least one halving happened
    assert hessian(new.u).is_strictly_convex()


def test_rkc_stage_losing_convexity_halves_the_step(monkeypatch):
    # twice the stability interval (fraction 3 against rkc's own 1.5 margin):
    # a stage, not only a step's result, loses convexity, and the step is
    # retried at half the size instead of aborting
    import logflow.flow as flow
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-4 * x ** 2))
    state = FlowState(u=u0, t=0.0, tau=1.0, boundary=unit_far_field(1))
    failed = []

    def recording(fn, where):
        def wrapper(*args):
            try:
                return fn(*args)
            except NonConvexityError:
                failed.append(where)
                raise
        return wrapper

    monkeypatch.setattr(flow, "_stage_ftau", recording(flow._stage_ftau, "stage"))
    monkeypatch.setattr(flow, "_ftau", recording(flow._ftau, "result"))
    monkeypatch.setattr(flow, "_SAFETY", 3.0)
    new = step_explicit(state, 0.1)
    assert failed and failed[0] == "stage"
    assert hessian(new.u).is_strictly_convex()
    taken = new.t - state.t
    assert taken < 0.1 and math.log2(0.1 / taken).is_integer()
    assert state.counters.rejected_trials == len(failed)
    assert state.counters.halved_steps == 1 and new.counters is state.counters


def test_abort_after_exhausted_halvings(monkeypatch):
    import logflow.flow as flow
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-4 * x ** 2))
    state = FlowState(u=u0, t=0.0, tau=1.0, boundary=unit_far_field(1))
    dt = dt_stable(state)
    monkeypatch.setattr(flow, "_SAFETY", 3.0)
    monkeypatch.setattr(flow, "_MAX_RETRIES", 0)
    with pytest.raises(AbortedNonConvex) as exc:
        step_explicit(state, 100.0 * dt)
    assert exc.value.state is state
    assert str(exc.value).endswith("the last: convexity lost in a stage")
    monkeypatch.undo()

    def refuse(H, tau):
        raise NonConvexityError("refused")

    # every result is refused; the state's own F is kept already
    monkeypatch.setattr(flow, "_ftau", refuse)
    monkeypatch.setattr(flow, "_MAX_RETRIES", 1)
    with pytest.raises(AbortedNonConvex, match="the last: convexity lost in the result$"):
        step_explicit(state, dt)


def test_error_control_rejects_and_aborts_after_exhausted_retries(monkeypatch):
    # a trial whose error estimate exceeds the tolerance is retried smaller,
    # and each retry draws on the same budget as a halving
    import logflow.flow as flow
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-4 * x ** 2))
    state = FlowState(u=u0, t=0.0, tau=1.0, boundary=unit_far_field(1))
    tol = flow._ERROR_TOL * dom.h ** 3  # what run asks for at this spacing
    new = step_explicit(state, 0.05, tol=tol)  # 57 times the explicit limit
    assert new.t - state.t < 0.05 and new.err <= 1.0
    assert state.counters.rejected_trials >= 1 and state.counters.halved_steps == 1
    rejected = state.counters.rejected_trials
    monkeypatch.setattr(flow, "_MAX_RETRIES", 2)
    with pytest.raises(AbortedNonConvex, match=r"the last: error estimate \S+ times "
                       r"the tolerance$") as exc:
        step_explicit(state, 0.05, tol=1e-30)
    assert exc.value.state is state
    assert state.counters.rejected_trials == rejected + 3


def test_each_iterate_hessian_assembled_once(monkeypatch):
    # one Hessian for u0, then per trial step one for its result; the stage
    # count, acceptance, F_tau and monitors share it, and no inner stage
    # assembles one.  Each Hessian's convexity verdict is evaluated once
    # (the step acceptance's is reused by the next step's F_tau) and each
    # stage makes its own.
    import logflow.flow as flow
    import logflow.grid as grid
    calls, stage_calls, checked, stage_checked, stages = [], [], [], [], []
    choose, sylvester = flow._rkc_stages, flow._sylvester

    def counting(fn, seen):
        def wrapper(*args):
            out = fn(*args)
            seen.append(out)
            return out
        return wrapper

    monkeypatch.setattr(flow, "hessian", counting(hessian, calls))
    monkeypatch.setattr(flow, "_stage_ftau", counting(flow._stage_ftau, stage_calls))
    monkeypatch.setattr(grid, "_sylvester",
                        lambda a: checked.append(a.base) or sylvester(a))
    monkeypatch.setattr(flow, "_sylvester", counting(sylvester, stage_checked))
    monkeypatch.setattr(flow, "_rkc_stages",
                        lambda need: stages.append(choose(need)) or stages[-1])
    dom = BoxDomain(n=2, half_width=4.0, m=33)
    traj = run(bump_quad(dom), tau=1.0, t_end=0.05, boundary=unit_far_field(2))
    steps = traj.state.step_count
    trials = steps + traj.state.counters.rejected_trials
    assert steps >= 2 and len(stages) == trials and min(stages) >= 3
    assert len(calls) == 1 + trials
    assert len(stage_calls) == sum(stages) - trials
    assert traj.state.counters.f_evals == len(calls) + len(stage_calls)
    # the verdicts read each Hessian's own buffer, once
    assert sorted(map(id, checked)) == sorted(id(H.mats.base) for H in calls)
    assert len(stage_checked) == len(stage_calls)


# ---------------------------------------------------------------------------
# the RKC stage operator against the whole-field Hessian
# ---------------------------------------------------------------------------

def _off_diagonal(n, off):
    return np.eye(n) + off * (1.0 - np.eye(n))


def _quad_bump(dom, off, amp, width, centre):
    """x'Ax/2 with A = _off_diagonal(n, off), plus amp exp(-|x - c|^2 / w^2)."""
    grids = dom.meshgrid()
    vals = 0.5 * sum(g * g for g in grids)
    for i in range(dom.n):
        for j in range(i + 1, dom.n):
            vals = vals + off * grids[i] * grids[j]
    r2 = sum((g - centre) ** 2 for g in grids)
    return GridFunction(dom, vals + amp * np.exp(-r2 / width ** 2))


def _outcome(fn):
    try:
        return fn().tobytes()
    except NonConvexityError:
        return "non-convex"


@given(n=st.integers(1, 3), m=st.sampled_from([5, 6, 9, 14]),
       tau=st.sampled_from([0.0, 0.4, 1.0]), off=st.floats(-0.4, 0.4),
       amp=st.floats(-2.0, 1.0), width=st.floats(0.5, 1.5), centre=st.floats(-1.0, 1.0))
def test_stage_operator_equals_ftau_of_hessian_bit_for_bit(n, m, tau, off, amp, width,
                                                           centre):
    # the same values, or NonConvexityError on the same data, on the
    # non-ring block; the stage's upper triangle is hessian's there too
    from logflow.flow import _ftau, _stage_ftau
    from logflow.grid import _nonring_hessian
    dom = BoxDomain(n=n, half_width=2.0, m=m, margin=0)
    u = _quad_bump(dom, off, amp, width, centre)
    inner = dom.nonring()
    want = _outcome(lambda: _ftau(hessian(u), tau)[inner])
    assert _outcome(lambda: _stage_ftau(u.values, dom, tau)) == want
    upper = np.triu_indices(n)
    got = _nonring_hessian(u.values, dom.h)[..., upper[0], upper[1]]
    assert got.tobytes() == hessian(u).mats[inner][..., upper[0], upper[1]].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stage_operator_raises_where_ftau_does(n):
    # a bump deep enough to break convexity near its centre fails both ways
    # at tau > 0 and at neither at tau = 0
    from logflow.flow import _ftau, _stage_ftau
    dom = BoxDomain(n=n, half_width=2.0, m=9)
    u = _quad_bump(dom, 0.0, 1.0, 1.0, 0.0)
    for tau in (0.4, 1.0):
        with pytest.raises(NonConvexityError):
            _ftau(hessian(u), tau)
        with pytest.raises(NonConvexityError):
            _stage_ftau(u.values, dom, tau)
    assert _stage_ftau(u.values, dom, 0.0).tobytes() == \
        _ftau(hessian(u), 0.0)[dom.nonring()].tobytes()


def _whole_formula(mats, tau, det):
    """F_tau with every term formed: trace, log of det where det > 0 (else
    of 1) times tau / n, plus trace times 1 - tau, even at tau = 1."""
    n = mats.shape[-1]
    trace = mats[..., 0, 0] + 0.0 if n == 1 else np.einsum("...ii->...", mats)
    if tau == 0.0:
        return trace
    return np.log(np.where(det > 0.0, det, 1.0)) * (tau / n) + trace * (1.0 - tau)


@given(n=st.integers(1, 3), m=st.sampled_from([5, 9, 14]), off=st.floats(-0.4, 0.4),
       amp=st.floats(-0.4, 0.4), width=st.floats(0.5, 1.5), centre=st.floats(-1.0, 1.0))
@example(n=1, m=9, off=0.0, amp=0.1, width=1.0, centre=0.0)
@example(n=2, m=9, off=0.2, amp=-0.3, width=1.0, centre=0.4)
@example(n=3, m=9, off=-0.2, amp=0.3, width=1.0, centre=-0.7)
def test_ftau_of_equals_the_whole_formula_bit_for_bit(n, m, off, amp, width, centre):
    # at tau = 1 the trace term is +-0.0 and log never returns -0.0, so the
    # formula without it has the same bits; tau = 0 and 0.5 keep the trace
    from logflow.flow import _ftau, _ftau_of, _stage_ftau
    from logflow.grid import _det, _nonring_hessian
    dom = BoxDomain(n=n, half_width=2.0, m=m, margin=0)
    u = _quad_bump(dom, off, amp, width, centre)
    mats = _nonring_hessian(u.values, dom.h)
    det = _det(mats)
    assume(np.all(det > 0.0) and hessian(u).is_strictly_convex())
    H = hessian(u)
    for tau in (0.0, 0.5, 1.0):
        want = _whole_formula(mats, tau, det).tobytes()
        assert _ftau_of(mats, tau, det).tobytes() == want
        assert _stage_ftau(u.values, dom, tau).tobytes() == want
        assert _ftau(H, tau).tobytes() == _whole_formula(H.mats, tau, H.det()).tobytes()


@given(n=st.integers(1, 3), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       at=st.integers(0, 10 ** 6), tau=st.sampled_from([0.0, 1.0]))
def test_stage_operator_rejects_non_finite_values_like_a_grid_function(n, bad, at, tau):
    # ring nodes included: a stage's values pass the grid function's check
    from logflow.flow import _stage_ftau
    dom = BoxDomain(n=n, half_width=2.0, m=7)
    values = _quad_bump(dom, 0.1, 0.1, 1.0, 0.0).values.copy()
    values.flat[at % values.size] = bad
    with pytest.raises(ValueError) as want:
        GridFunction(dom, values)
    with pytest.raises(ValueError) as got:
        _stage_ftau(values, dom, tau)
    assert str(got.value) == str(want.value)


def _whole_field_advance(state, dt):
    """The RKC step with each stage's F_tau taken from its whole-field
    Hessian, every node combined and the ring then overwritten."""
    import logflow.flow as flow
    u, tau, t, boundary = state.u, state.tau, state.t, state.boundary
    dom = u.domain
    _, mu1, stages = flow._rkc_coefficients(
        flow._rkc_stages(2.0 * dt / dt_stable(state)))
    y0, f0 = u.values, state.F
    prev2, prev = y0, y0 + mu1 * dt * f0
    for mu, nu, mu_t, gamma_t, c_prev in stages:
        flow.apply_boundary(prev, dom, boundary, t + c_prev * dt, tau)
        state.counters.f_evals += 1
        f = flow._ftau(hessian(u.with_values(prev)), tau)
        prev2, prev = prev, ((1.0 - mu - nu) * y0 + mu * prev + nu * prev2
                             + mu_t * dt * f + gamma_t * dt * f0)
    flow.apply_boundary(prev, dom, boundary, t + dt, tau)
    return FlowState(u=u.with_values(prev), t=t + dt, tau=tau, boundary=boundary,
                     step_count=state.step_count + 1, counters=state.counters)


@pytest.mark.parametrize("n, m, tau, factor, safety", [
    (1, 33, 1.0, 100.0, 3.0),   # stage convexity losses, then halvings
    (2, 21, 0.4, 40.0, 0.5),    # error rejections
    (3, 13, 1.0, 20.0, 0.5),
])
def test_step_equals_whole_field_stage_step_bit_for_bit(monkeypatch, n, m, tau, factor,
                                                        safety):
    import logflow.flow as flow
    dom = BoxDomain(n=n, half_width=2.0, m=m)
    u0 = _quad_bump(dom, 0.2, 0.1, 1.0, 0.3)
    far = QuadraticFarField(_off_diagonal(n, 0.2), np.zeros(n))

    # the requested step is taken at the default stage fraction
    dt = factor * dt_stable(FlowState(u=u0, t=0.0, tau=tau, boundary=far))
    monkeypatch.setattr(flow, "_SAFETY", safety)

    def one_step():
        state = FlowState(u=u0, t=0.0, tau=tau, boundary=far)
        new = step_explicit(state, dt, tol=flow._ERROR_TOL * dom.h ** 3)
        return (new.t, new.err, new.residual, new.u.values.tobytes(), new.F.tobytes(),
                new.run_counters())

    got = one_step()
    monkeypatch.setattr(flow, "_advance", _whole_field_advance)
    want = one_step()
    assert got == want and got[-1]["rejected_trials"] >= 1


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


# ---------------------------------------------------------------------------
# convergence in dt, continuity in tau
# ---------------------------------------------------------------------------

def _fixed_steps(u0, dt, t_end):
    """The states of RKC steps of a fixed dt from u0 (tau = 1, unit far
    field), the last step shortened to land on t_end."""
    states = [FlowState(u=u0, t=0.0, tau=1.0, boundary=unit_far_field(u0.domain.n))]
    while states[-1].t < t_end - 1e-12:
        states.append(step_explicit(states[-1], min(dt, t_end - states[-1].t)))
    return states


def test_step_size_convergence_order():
    # fixed steps at 2.8 times the explicit limit, so that 4, 3 and 2 stages
    # converge at second order
    u0 = bump_quad(BoxDomain(n=1, half_width=3.0, m=33))

    def final(dt):
        return _fixed_steps(u0, dt, 0.1)[-1].u.values

    dt0 = 2e-2
    ref = final(dt0 / 8)
    e1 = np.max(np.abs(final(dt0) - ref))
    e2 = np.max(np.abs(final(dt0 / 2) - ref))
    assert 2.6 <= e1 / e2 <= 6.5


def test_rkc_stable_at_ten_times_the_explicit_limit():
    # fixed steps of 10x the explicit limit at n = 2: 8 steps of up to 6
    # stages stay within 2e-4 of 80 steps at the limit, reject nothing and
    # keep the Hessian bounds
    dom = BoxDomain(n=2, half_width=4.0, m=33)
    u0 = bump_quad(dom)
    limit = dt_stable(FlowState(u=u0, t=0.0, tau=1.0, boundary=unit_far_field(2)))
    ref = _fixed_steps(u0, limit, 1.0)[-1]
    states = _fixed_steps(u0, 10.0 * limit, 1.0)
    assert len(states) - 1 == math.ceil(1.0 / (10.0 * limit))
    assert states[-1].run_counters()["rejected_trials"] == 0
    assert np.max(np.abs(states[-1].u.values - ref.u.values)) < 2e-4
    bounds = [s.H.eigen_bounds("interior") for s in states]
    lam0, Lam0 = bounds[0]
    assert all(lam0 - 1e-2 <= lo and hi <= Lam0 + 1e-2 for lo, hi in bounds)


@pytest.mark.parametrize("s", [2, 3, 5, 10, 40])
def test_rkc_stability_polynomial(s):
    # the stage recursion on y' = z y gives P(z): second order at 0, within
    # [-1, 1] over the whole stability interval, which the stage count covers
    # with the fewest stages
    from logflow.flow import _rkc_coefficients, _rkc_stages
    beta, mu1, stages = _rkc_coefficients(s)

    def P(z):
        prev2, prev = np.ones_like(z), 1.0 + mu1 * z
        for mu, nu, mu_t, gamma_t, _ in stages:
            prev2, prev = prev, ((1.0 - mu - nu) + mu * prev + nu * prev2
                                 + mu_t * z * prev + gamma_t * z)
        return prev

    z = np.array([-1e-2, -5e-3])
    err = np.abs(P(z) - np.exp(z))
    assert err[0] / err[1] == pytest.approx(8.0, rel=0.05)
    assert np.abs(P(np.linspace(-beta, 0.0, 20 * s * s))).max() <= 1.0 + 1e-12
    assert 0.49 * s * s < beta < 2.0 * (s * s - 1) / 3.0
    assert _rkc_stages(beta) == s and _rkc_stages(beta * (1 + 1e-12)) == s + 1


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
    traj = run(u0, tau=0.0, t_end=0.5, boundary=ref)
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
