"""Graph geometry in split signature: frames, curvature, path transport."""

import numpy as np
import pytest

from logflow.errors import EscapeError, InsufficientSamples
from logflow.flow import QuadraticFarField, Trajectory, run
from logflow.grid import BoxDomain, GridFunction, hessian
from logflow.mcf import (ParticleTransport, integrate_particles, mean_curvature_fields,
                        verify_mcf)


def bump(domain, amp=0.1, width=1.0):
    grids = domain.meshgrid()
    r2 = sum(g ** 2 for g in grids)
    return GridFunction(domain, 0.5 * r2 + amp * np.exp(-r2 / width ** 2))


def quad(domain, A):
    A = np.atleast_2d(A)
    grids = domain.meshgrid()
    vals = np.zeros(domain.shape)
    for i in range(domain.n):
        for j in range(domain.n):
            vals += 0.5 * A[i, j] * grids[i] * grids[j]
    return GridFunction(domain, vals)


# ---------------------------------------------------------------------------
# frames and the ambient pairing
# ---------------------------------------------------------------------------

def mean_curvature(u, at):
    """Mean curvature vector at one node, in null components (2n,)."""
    return mean_curvature_fields(hessian(u))[(slice(None),) + tuple(at)]


def test_frame_pairing_identities():
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    u = bump(dom, amp=0.15)
    # Gram matrix of the ambient pairing in null coordinates (x, y)
    B = np.zeros((4, 4))
    B[:2, 2:] = B[2:, :2] = 0.5 * np.eye(2)
    g = hessian(u).mats[8, 8]
    e = np.concatenate([np.eye(2), g], axis=1)      # tangent frame e_i
    eta = np.concatenate([np.eye(2), -g], axis=1)   # normal frame eta_i
    assert np.array_equal(e @ B @ e.T, g)              # <e_i, e_j> = u_ij
    assert np.array_equal(eta @ B @ eta.T, -g)         # <eta_i, eta_j> = -u_ij
    assert np.max(np.abs(e @ B @ eta.T)) == 0.0        # <e_i, eta_j> = 0


def test_spacelike_iff_convex():
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    ev = np.linalg.eigvalsh(hessian(bump(dom)).mats[8, 8])
    assert ev[0] > 0.0


# ---------------------------------------------------------------------------
# mean curvature values
# ---------------------------------------------------------------------------

def test_curvature_vanishes_on_quadratics():
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    H = mean_curvature(quad(dom, np.array([[2.0, 0.5], [0.5, 1.0]])), (8, 8))
    assert np.max(np.abs(H)) < 1e-9


def test_curvature_hand_value_on_quartic():
    # u = x^4/4 + x^2/2 at x = 0.5: g = 1.75, g' = 3
    # coefficient c = -g'/(2 n g^2) = -0.489796, H = c * (1, -1.75)
    dom = BoxDomain(n=1, half_width=1.0, m=401)  # node exactly at 0.5
    x = dom.axis
    u = GridFunction(dom, 0.25 * x ** 4 + 0.5 * x ** 2)
    at = int(round((0.5 + 1.0) / dom.h))
    assert abs(dom.axis[at] - 0.5) < 1e-12
    H = mean_curvature(u, (at,))
    c = -3.0 / (2.0 * 1.0 * 1.75 ** 2)
    assert H[0] == pytest.approx(c, rel=1e-4)
    assert H[1] == pytest.approx(-1.75 * c, rel=1e-4)
    assert c == pytest.approx(-0.489796, abs=1e-6)


def test_curvature_grid_convergence_against_analytic():
    # closed-form H for u = x^2/2 + a exp(-x^2): compare at x = 0.4
    a = 0.1

    def exact_H(x):
        e = np.exp(-x ** 2)
        upp = 1 + a * e * (4 * x ** 2 - 2)
        uppp = a * e * (12 * x - 8 * x ** 3)
        c = -uppp / (2 * upp ** 2)
        return np.array([c, -upp * c])

    def fd_H(m):
        dom = BoxDomain(n=1, half_width=2.0, m=m)
        x = dom.axis
        u = GridFunction(dom, 0.5 * x ** 2 + a * np.exp(-x ** 2))
        at = int(round((0.4 + 2.0) / dom.h))
        assert abs(dom.axis[at] - 0.4) < 1e-9
        return mean_curvature(u, (at,))

    e1 = np.max(np.abs(fd_H(41) - exact_H(0.4)))
    e2 = np.max(np.abs(fd_H(81) - exact_H(0.4)))
    assert e1 / e2 > 3.0  # second order


# ---------------------------------------------------------------------------
# particle transport
# ---------------------------------------------------------------------------

def _paths(traj, seeds, t_start=None):
    """Paths of the seeds carried through every stored snapshot of traj."""
    return integrate_particles(ParticleTransport(seeds, t_start), traj.snapshots).paths()


def _every_state(u0, **kwargs):
    """A run of u0 whose snapshots are the initial state and every accepted
    state, collected through run's observer."""
    states = []
    traj = run(u0, observe=lambda s: states.append((s.t, s.u)), **kwargs)
    return Trajectory(state=traj.state, snapshots=states)


def _bump_trajectory(m=65, t_end=0.5, samples=40):
    """A bump run stored at samples + 1 uniform times: error-controlled steps
    are too few to sample a path densely."""
    dom = BoxDomain(n=1, half_width=4.0, m=m)
    u0 = bump(dom)
    return run(u0, tau=1.0, t_end=t_end,
               boundary=QuadraticFarField(np.eye(1), np.zeros(1)),
               snapshot_times=np.linspace(0.0, t_end, samples + 1))


def test_quadratic_trajectory_has_stationary_particles():
    dom = BoxDomain(n=2, half_width=2.0, m=17)
    A = np.diag([2.0, 2.0])
    traj = _every_state(quad(dom, A), tau=1.0, t_end=0.05,
                        boundary=QuadraticFarField(A, np.zeros(2)))
    seeds = np.array([[0.3, -0.2], [0.0, 0.5]])
    paths = _paths(traj, seeds)
    assert np.max(np.abs(paths.positions - seeds)) < 1e-10
    assert np.max(np.abs(paths.F[..., 2:] - paths.F[0, :, 2:])) < 1e-9


def test_path_self_convergence_under_snapshot_refinement():
    # oversampled reference: the full snapshot cadence; paths rebuilt on 2x and
    # 4x coarser cadences must approach it at second order in the step
    traj = _bump_trajectory(m=65, t_end=0.3, samples=100)
    fine = _paths(traj, [[0.3]])

    def end_gap(stride):
        sub = type(traj)(state=traj.state, snapshots=traj.snapshots[::stride])
        path = _paths(sub, [[0.3]])
        t_last = path.times[-1]
        k = int(np.argmin(np.abs(fine.times - t_last)))
        assert abs(fine.times[k] - t_last) < 1e-12
        return float(abs(path.positions[-1, 0, 0] - fine.positions[k, 0, 0]))

    g2, g4 = end_gap(2), end_gap(4)
    assert g2 < 2e-5
    assert 3.0 <= g4 / g2 <= 7.0  # Richardson factor 5 for a second-order path


def test_escape_guard():
    traj = _bump_trajectory(m=33, t_end=0.05)
    with pytest.raises(EscapeError):
        _paths(traj, [[3.9]])


def test_window_past_last_snapshot():
    traj = _bump_trajectory(m=33, t_end=0.05)
    with pytest.raises(InsufficientSamples, match="three stored snapshots"):
        _paths(traj, [[0.0]], t_start=1.0)


def test_paths_do_not_cross():
    traj = _bump_trajectory(m=65, t_end=0.5)
    seeds = np.linspace(-0.8, 0.8, 9)[:, None]
    paths = _paths(traj, seeds)
    final = paths.positions[-1, :, 0]
    d0 = np.min(np.diff(seeds[:, 0]))
    assert np.min(np.diff(final)) >= 0.5 * d0


# ---------------------------------------------------------------------------
# dF/dt = H verification
# ---------------------------------------------------------------------------

def test_verify_mcf_quadratic_is_exact():
    dom = BoxDomain(n=1, half_width=2.0, m=33)
    A = np.eye(1) * 2.0
    traj = _every_state(quad(dom, A), tau=1.0, t_end=0.05,
                        boundary=QuadraticFarField(A, np.zeros(1)))
    paths = _paths(traj, [[0.2], [-0.4]])
    rep = verify_mcf(paths)
    assert rep.max_deviation < 1e-10


def test_verify_mcf_bump_within_budget_and_detects_corruption():
    traj = _bump_trajectory(m=65, t_end=0.4)
    seeds = np.linspace(-0.6, 0.6, 5)[:, None]
    paths = _paths(traj, seeds, t_start=0.1)
    rep = verify_mcf(paths)
    assert rep.max_deviation < 5e-3
    assert rep.tangential_ratio < 0.10

    # negative control: scaling the potential breaks the correspondence loudly
    corrupted = type(traj)(
        state=traj.state,
        snapshots=[(t, u.with_values(1.1 * u.values)) for t, u in traj.snapshots])
    paths_bad = _paths(corrupted, seeds, t_start=0.1)
    rep_bad = verify_mcf(paths_bad)
    assert rep_bad.max_deviation > 10 * rep.max_deviation


def _verify_per_time(paths):
    """Reference: the frame split of dF/dt taken one inner time at a time."""
    tt, n = paths.times, paths.seeds.shape[1]
    dev = tan = nor = np.zeros(len(paths.seeds))
    for j in range(1, len(tt) - 1):
        dFdt = (paths.F[j + 1] - paths.F[j - 1]) / (tt[j + 1] - tt[j - 1])
        Hvec = paths.H[j]
        U = paths.metric[j]
        dev = np.maximum(dev, np.max(np.abs(dFdt - Hvec), axis=1))
        dx, dy = dFdt[:, :n], dFdt[:, n:]
        Uinv_dy = np.linalg.solve(U, dy[..., None])[..., 0]
        a, b = 0.5 * (dx + Uinv_dy), 0.5 * (dx - Uinv_dy)
        Ua, Ub = np.einsum("kij,kj->ki", U, a), np.einsum("kij,kj->ki", U, b)
        tan = np.maximum(tan, np.max(np.abs(np.concatenate([a, Ua], axis=1)), axis=1))
        nor = np.maximum(nor, np.max(np.abs(np.concatenate([b, -Ub], axis=1)), axis=1))
    return dev, tan, nor


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_mcf_matches_per_time_reference_bit_for_bit(n):
    dom = BoxDomain(n=n, half_width=2.0, m=13)
    traj = _every_state(bump(dom, amp=0.1), tau=1.0, t_end=0.15,
                        boundary=QuadraticFarField(np.eye(n), np.zeros(n)))
    seeds = np.random.default_rng(n).uniform(-0.5, 0.5, size=(4, n))
    paths = _paths(traj, seeds)
    rep = verify_mcf(paths)
    got = [[q[k] for q in rep.per_path] for k in ("deviation", "tangential", "normal")]
    for mine, ref in zip(got, _verify_per_time(paths)):
        assert np.array(mine).tobytes() == ref.tobytes()


def test_mcf_pipeline_transport_assembles_no_hessian(monkeypatch):
    # the pipeline hands each accepted state to integrate_particles with the
    # Hessian its flow step already built; reading stored snapshots back
    # assembles one per snapshot
    import logflow.mcf as mcf
    from logflow.config import load_config
    from logflow.experiments import run_pipeline
    from logflow.grid import hessian
    calls, handed = [], []

    def counting_hessian(u):
        calls.append(u)
        return hessian(u)

    def counting_transport(transport, states):
        handed.append(len(states))
        return integrate_particles(transport, states)

    monkeypatch.setattr(mcf, "hessian", counting_hessian)
    monkeypatch.setattr(mcf, "integrate_particles", counting_transport)
    cfg = load_config({"preset": "mcf-correspondence", "grid": {"m": 65},
                       "flow": {"t_end": 0.3}})
    report, art = run_pipeline(cfg)
    assert report["passed"]
    assert calls == []
    assert handed == [1] * (art["trajectory"].state.step_count + 1)
    traj = _bump_trajectory(m=33, t_end=0.02)
    _paths(traj, [[0.1]])
    assert len(calls) == len({id(u) for u in calls}) == len(traj.snapshots)


@pytest.mark.parametrize("grid, seeds", [
    ({"m": 65}, [[-0.4], [0.0], [0.6]]),
    ({"n": 2, "L": 2.0, "m": 17}, [[0.2, -0.1], [0.0, 0.3]]),
], ids=["n1", "n2"])
def test_streamed_paths_equal_stored_paths_bit_for_bit(grid, seeds):
    # the pipeline hands over each state as the flow accepts it and stores
    # only the snapshot times; transport over every state of the same run,
    # collected through the observer, must give the same bits.  The uniform
    # times keep the steps dense.
    from logflow.config import load_config
    from logflow.experiments import _run_flow, run_pipeline
    times = np.linspace(0.0, 0.1, 11).tolist()
    cfg = load_config({"preset": "mcf-correspondence", "grid": grid,
                       "flow": {"t_end": 0.1, "snapshot_times": times},
                       "mcf": {"seeds": seeds, "t_start": 0.02}})
    _, streamed = run_pipeline(cfg)
    assert [t for t, _ in streamed["trajectory"].snapshots] == times
    states = []
    _run_flow(cfg, lambda s: states.append((s.t, s.u)))
    traj = Trajectory(state=None, snapshots=states)
    assert len(traj.snapshots) == streamed["trajectory"].state.step_count + 1
    paths = _paths(traj, cfg.mcf["seeds"], t_start=cfg.mcf["t_start"])
    assert len(paths.times) >= 3
    for key in ("seeds", "times", "positions", "F", "H", "metric"):
        mine, ref = getattr(streamed["paths"], key), getattr(paths, key)
        assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes(), key
