"""Asymptotics: homogeneity, pinching, blow-down, decay, flattening."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from logflow.errors import InsufficientSamples, WindowEscape
from logflow.analysis import (blowdown_convergence, check_condition_A,
                              check_condition_B, fit_decay, plane_convergence)
from logflow.flow import QuadraticFarField, ReferenceSolution, pde_residual, run
from logflow.grid import BoxDomain, GridFunction, coincident_index_sets
from logflow.presets import make_initial_data


def iso_quad(domain, scale=1.0, const=0.0):
    grids = domain.meshgrid()
    r2 = sum(g ** 2 for g in grids)
    return GridFunction(domain, const + 0.5 * scale * r2)


# ---------------------------------------------------------------------------
# homogeneity defect
# ---------------------------------------------------------------------------

def test_condition_a_zero_for_homogeneous():
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    assert check_condition_A(iso_quad(dom)) < 1e-12


def test_condition_a_constant_offset_value():
    # |u(x) - u(Rx)/R^2| = |1 - 1/R^2| for u = |x|^2/2 + 1, largest at R = 2... 0.9375 at R=4
    dom = BoxDomain(n=1, half_width=2.0, m=17)
    defect = check_condition_A(iso_quad(dom, const=1.0), scales=(2.0,))
    assert defect == pytest.approx(0.75, abs=1e-12)


@given(c=st.floats(0.1, 5.0))
def test_condition_a_scale_covariant(c):
    dom = BoxDomain(n=1, half_width=2.0, m=17)
    base = iso_quad(dom, const=1.0)
    scaled = GridFunction(dom, c * base.values)
    d1 = check_condition_A(base, scales=(2.0,))
    d2 = check_condition_A(scaled, scales=(2.0,))
    assert d2 == pytest.approx(c * d1, rel=1e-9)


# ---------------------------------------------------------------------------
# pinching report
# ---------------------------------------------------------------------------

def test_condition_b_identity():
    dom = BoxDomain(n=2, half_width=1.0, m=17)
    assert check_condition_B(iso_quad(dom), 1.0, 1.0).passed


def test_condition_b_diagonal_bounds():
    dom = BoxDomain(n=2, half_width=1.0, m=17)
    x1, x2 = dom.meshgrid()
    u = GridFunction(dom, 0.5 * (2.0 * x1 ** 2 + 0.5 * x2 ** 2))
    assert check_condition_B(u, 0.5, 2.0).passed
    assert not check_condition_B(u, 1.0, 2.0).passed


def test_condition_b_quartic_fails_any_positive_lower_bound():
    dom = BoxDomain(n=1, half_width=1.0, m=33)
    u = GridFunction(dom, 0.25 * dom.axis ** 4)
    assert not check_condition_B(u, 0.1, 10.0).passed


# ---------------------------------------------------------------------------
# parabolic rescaling
# ---------------------------------------------------------------------------

def test_rescaled_trajectory_solves_the_flow():
    # scaling covariance: R^-2 u(Rx, R^2 t) is again a solution; it is read
    # off the coincident nodes, on the sub-box of half-width L/R
    dom = BoxDomain(n=1, half_width=4.0, m=65)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-x ** 2))
    R, t0, dt = 2, 0.05, 0.004
    big_times = [R ** 2 * (t0 + k * dt) for k in (0, 1, 2)]
    traj = run(u0, tau=1.0, t_end=big_times[-1],
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=big_times)
    _, dst = coincident_index_sets(dom, R)
    sub = BoxDomain(n=1, half_width=dom.half_width / R, m=(dom.m - 1) // R + 1)
    views = [GridFunction(sub, u.values[dst] / R ** 2) for _, u in traj.snapshots]
    t_lo, _, t_hi = (t / R ** 2 for t, _ in traj.snapshots)
    resid = pde_residual(*views, dt=t_hi - t_lo, tau=1.0)
    assert resid < 5e-2  # O(h^2 + dt) at the coarse sampling


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def _two_slope_trajectory(m=97, L=10.0, t_end=8.0, times=None):
    dom = BoxDomain(n=1, half_width=L, m=m)
    x = dom.axis
    cm, cp = 0.7, 1.3
    u0 = GridFunction(dom, 0.5 * np.where(x < 0, cm, cp) * x ** 2)
    ref = ReferenceSolution(
        lambda pts, t: 0.5 * np.where(pts[:, 0] < 0, cm, cp) * pts[:, 0] ** 2
        + t * np.log(np.where(pts[:, 0] < 0, cm, cp)))
    return run(u0, tau=1.0, t_end=t_end, boundary=ref,
               snapshot_times=times or [0.25 * 2 ** k for k in range(6)])


def test_fit_decay_identically_zero_on_quadratic():
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    traj = run(iso_quad(dom), tau=1.0, t_end=8.0,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=[0.25 * 2 ** k for k in range(6)])
    fit = fit_decay(traj, order=3)
    assert fit.identically_zero


def test_fit_decay_needs_five_samples():
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    traj = run(iso_quad(dom), tau=1.0, t_end=1.0,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=[0.5, 1.0])
    with pytest.raises(InsufficientSamples):
        fit_decay(traj, order=3)


def test_decay_exponents_on_self_similar_data():
    # exactly self-similar trajectories decay as 1/t (order 3) and 1/t^2 (order 4)
    traj = _two_slope_trajectory()
    p3 = fit_decay(traj, order=3).exponent
    p4 = fit_decay(traj, order=4).exponent
    assert -1.3 <= p3 <= -0.7
    assert -2.4 <= p4 <= -1.6


def test_diffusive_bump_decays_at_least_as_fast_as_one_over_t():
    # gaussian-bump data decays much faster than 1/t; the one-sided bound holds
    dom = BoxDomain(n=1, half_width=8.0, m=129)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-x ** 2))
    traj = run(u0, tau=1.0, t_end=8.0,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=[0.25 * 2 ** k for k in range(6)])
    p3 = fit_decay(traj, order=3).exponent
    assert p3 <= -(3 - 2) + 0.3


# ---------------------------------------------------------------------------
# blow-down convergence
# ---------------------------------------------------------------------------

def test_blowdown_stationary_expander_is_exact():
    dom = BoxDomain(n=1, half_width=4.0, m=65)
    traj = run(iso_quad(dom), tau=1.0, t_end=4.0,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=[1.0, 2.0, 4.0])
    rep = blowdown_convergence(traj, lambda p: 0.5 * p[:, 0] ** 2,
                               window_half=1.0, monotone_from=0)
    assert max(rep.errors) < 1e-9


def test_blowdown_monotone_needs_a_pair_of_errors():
    dom = BoxDomain(n=1, half_width=4.0, m=33)
    traj = run(iso_quad(dom), tau=1.0, t_end=2.0,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=[1.0, 2.0])
    # two errors make one pair, compared from index 0 only
    rep = blowdown_convergence(traj, lambda p: 0.5 * p[:, 0] ** 2, window_half=1.0,
                               monotone_from=0)
    assert len(rep.errors) == 2
    with pytest.raises(InsufficientSamples, match="no pair"):
        blowdown_convergence(traj, lambda p: 0.5 * p[:, 0] ** 2, window_half=1.0,
                             monotone_from=1)


def test_blowdown_window_escape():
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    traj = run(iso_quad(dom), tau=1.0, t_end=16.0,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=[16.0])
    with pytest.raises(WindowEscape):
        blowdown_convergence(traj, lambda p: 0.5 * p[:, 0] ** 2, window_half=1.0,
                             monotone_from=2)


def test_blowdown_bump_converges():
    dom = BoxDomain(n=1, half_width=8.0, m=97)
    x = dom.axis
    u0 = GridFunction(dom, 0.5 * x ** 2 + 0.1 * np.exp(-x ** 2))
    traj = run(u0, tau=1.0, t_end=16.0,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=[1.0, 2.0, 4.0, 8.0, 16.0])
    rep = blowdown_convergence(traj, lambda p: 0.5 * p[:, 0] ** 2, window_half=1.0,
                               monotone_from=2)
    assert rep.monotone
    assert rep.final_error <= 0.02


# ---------------------------------------------------------------------------
# plane convergence
# ---------------------------------------------------------------------------

def test_plane_convergence_on_decaying_gradient_data():
    dom = BoxDomain(n=1, half_width=8.0, m=129)
    u0, boundary = make_initial_data(
        dom, {"kind": "linear_plus_bump", "amplitude": 0.1, "width": 1.0}, 0.0)
    traj = run(u0, tau=0.0, t_end=8.0, boundary=boundary,
               snapshot_times=[0.5, 1.0, 2.0, 4.0, 8.0])
    rep = plane_convergence(traj, window_half=2.0)
    assert rep.hypothesis_ok and rep.decreasing
    assert rep.final_max_gradient <= 0.02
    # closed form: sup |Du| = 0.1 / sqrt(1 + 4 t)
    assert rep.final_max_gradient == pytest.approx(0.1 / np.sqrt(33.0), rel=2e-2)


def test_plane_convergence_flags_unbounded_gradient():
    dom = BoxDomain(n=1, half_width=4.0, m=65)
    traj = run(iso_quad(dom), tau=0.0, t_end=0.5,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=[0.5])
    rep = plane_convergence(traj, window_half=1.0)
    assert not rep.hypothesis_ok
    assert rep.measured() == {"hypothesis_ok": False, "decreasing": False,
                              "final_max_gradient": None}
