"""Spacelike gradient graphs in the flat split-signature space R^{2n}.

A strictly convex potential u embeds R^n as the graph F(x) = (x, Du(x)) in
null coordinates (x, y), where the ambient metric is the pairing

    <a, b> = ( a_x . b_y + a_y . b_x ) / 2 ,

so ds^2 = sum dx^i dy^i / 2.  Tangent frames e_i = d/dx^i + u_ij d/dy^j and
normal frames eta_i = d/dx^i - u_ij d/dy^j satisfy <e_i, e_j> = u_ij,
<eta_i, eta_j> = -u_ij and <e_i, eta_j> = 0; the induced metric is the
Hessian itself.   With g = det D2u, the mean curvature vector is

    H = -(1/(2 n g)) (dg/dx^l) g^{lk} eta_k ,

whose x-part is the velocity field of the diffeomorphisms that turn a
potential trajectory into a solution of dF/dt = H.  Particle transport
takes the states of a flow one at a time, streamed from a running flow or
read from stored snapshots, evaluates each state's curvature field once
(reusing the flow's Hessian when it is handed over) and records the
curvature vector and the induced metric along every path, which is what the
dF/dt = H check compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EscapeError, InsufficientSamples, NonConvexityError
from .grid import BoxDomain, HessianField, axis_diff, gradient, hessian, sample

__all__ = [
    "mean_curvature_fields",
    "ParticlePaths",
    "ParticleTransport",
    "integrate_particles",
    "verify_mcf",
    "McfReport",
]


def mean_curvature_fields(Hess: HessianField) -> np.ndarray:
    """Mean curvature components on the whole grid, shape (2n, *grid), from
    the Hessian field of the potential.

    x-part: H_x^i = -(1/(2 n g)) (d_l g) g^{li};  y-part: H_y^j = (d_j g)/(2 n g).
    The x-part is the particle velocity dx/dt.
    """
    dom = Hess.domain
    n, h = dom.n, dom.h
    g = Hess.det()
    if (g[dom.nonring()] <= 0.0).any():
        raise NonConvexityError("graph is not spacelike: det D2u <= 0")
    inv = Hess.inverse()
    dg = np.stack([axis_diff(g, h, ax) for ax in range(n)])
    out = np.empty((2 * n,) + dom.shape)
    coef = 1.0 / (2.0 * n * g)
    for i in range(n):
        out[i] = -coef * sum(dg[l] * inv[..., l, i] for l in range(n))
        out[n + i] = coef * dg[i]
    return out


# ---------------------------------------------------------------------------
# particle transport along a trajectory
# ---------------------------------------------------------------------------

@dataclass
class ParticlePaths:
    """The paths of p particles over k shared times, stacked by time and then
    by particle."""

    seeds: np.ndarray        # (p, n)
    times: np.ndarray        # (k,)
    positions: np.ndarray    # (k, p, n)
    F: np.ndarray            # (k, p, 2n) embedding along the paths
    H: np.ndarray            # (k, p, 2n) mean curvature vector along the paths
    metric: np.ndarray       # (k, p, n, n) induced metric (the Hessian) along the paths


def _escape_guard(dom: BoxDomain, pts: np.ndarray):
    limit = dom.half_width - (dom.margin + 1) * dom.h
    if np.any(np.abs(pts) > limit):
        raise EscapeError("particle left the trustworthy interior margin")


class ParticleTransport:
    """Seeds advected through a stream of states of one flow.

    :func:`integrate_particles` feeds it the states in time order; those
    before ``t_start`` are skipped, the first one in the window places the
    seeds, and each later one moves the particles over the interval since
    the previous one.  Only the previous state's velocity field is kept, so
    a flow can hand over its states as it produces them
    (``flow.run(observe=...)``) instead of storing them.
    """

    def __init__(self, seeds, t_start: float | None = None):
        self.seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
        self.t_start = t_start
        self.times: list = []
        self.positions: list = []   # (particles, n) per state
        self.samples: list = []     # (fields, particles): Du, H, then D2u
        self.velocity = None        # particle velocity field of the last state

    def paths(self) -> ParticlePaths:
        """The paths so far; a window with fewer than three states raises
        :class:`InsufficientSamples`."""
        k = len(self.times)
        if k < 3:
            window = "" if self.t_start is None else f" at or after t = {self.t_start:g}"
            raise InsufficientSamples(f"particle transport needs at least three stored "
                                      f"snapshots{window}, found {k}")
        n = self.seeds.shape[1]
        pos = np.stack(self.positions)                       # (k, particles, n)
        vals = np.stack(self.samples).transpose(0, 2, 1)     # (k, particles, fields)
        return ParticlePaths(seeds=self.seeds, times=np.array(self.times), positions=pos,
                             F=np.concatenate([pos, vals[..., :n]], axis=-1),
                             H=vals[..., n:3 * n],
                             metric=vals[..., 3 * n:].reshape(pos.shape + (n,)))


def integrate_particles(transport: ParticleTransport, states) -> ParticleTransport:
    """Advance the transport through ``states`` and return it.

    Each state is ``(t, u)`` or ``(t, u, H)``, with ``H`` the Hessian field
    of ``u`` when the caller already has it: the stored snapshots of a
    trajectory, or one state at a time as a flow accepts it.  Particles
    take one explicit midpoint step per interval with multilinear spatial
    sampling and linear-in-time field interpolation.  The embedding
    F = (r, Du(r)), the curvature vector and the induced metric along each
    path use cubic sampling, so that time differences of F stay within the
    second-order error budget and :func:`verify_mcf` needs no field of its
    own.
    """
    tr = transport
    for t, u, *known in states:
        if tr.t_start is not None and t < tr.t_start - 1e-12:
            continue
        dom = u.domain
        n = dom.n
        Hess = known[0] if known else hessian(u)
        curv = mean_curvature_fields(Hess)
        if not tr.times:
            x = tr.seeds
            _escape_guard(dom, x)
        else:
            x, dt = tr.positions[-1], t - tr.times[-1]
            xm = x + 0.5 * dt * sample(tr.velocity, dom, x, order=1).T
            _escape_guard(dom, xm)
            vm = sample(0.5 * (tr.velocity + curv[:n]), dom, xm, order=1).T
            x = x + dt * vm
            _escape_guard(dom, x)
        # the Hessian buffer is component-major: its n^2 entry fields are one block
        entries = np.moveaxis(Hess.mats, (-2, -1), (0, 1)).reshape((n * n,) + dom.shape)
        tr.samples.append(sample(np.concatenate([gradient(u), curv, entries]),
                                 dom, x, order=3))
        tr.times.append(t)
        tr.positions.append(x)
        tr.velocity = curv[:n]
    return tr


# ---------------------------------------------------------------------------
# verification of dF/dt = H
# ---------------------------------------------------------------------------

@dataclass
class McfReport:
    max_deviation: float          # sup |dF/dt - H| in ambient components
    max_tangential: float         # sup |tangential part of dF/dt|
    max_normal: float             # sup |normal part of dF/dt|
    per_path: list = field(default_factory=list)

    @property
    def tangential_ratio(self) -> float:
        return self.max_tangential / max(self.max_normal, 1e-300)


def verify_mcf(paths: ParticlePaths) -> McfReport:
    """Compare centred time differences of F against the curvature vector.

    The motion is purely normal in the continuum, so the tangential part of
    dF/dt (split through the frames at the sampled point) must vanish to
    discretisation accuracy while the full vector matches H.  The curvature
    vector and the metric are the ones :func:`integrate_particles` sampled
    along each path.
    """
    tt, F, n = paths.times, paths.F, paths.seeds.shape[1]
    # centred differences at the inner times
    Hvec, U = paths.H[1:-1], paths.metric[1:-1]
    dFdt = (F[2:] - F[:-2]) / (tt[2:] - tt[:-2])[:, None, None]
    dev = np.abs(dFdt - Hvec).max(axis=(0, 2))
    # split dFdt = sum a_i e_i + sum b_i eta_i through the point frames
    dx, dy = dFdt[..., :n], dFdt[..., n:]
    Uinv_dy = np.linalg.solve(U, dy[..., None])[..., 0]
    a = 0.5 * (dx + Uinv_dy)
    b = 0.5 * (dx - Uinv_dy)
    Ua = np.einsum("jkab,jkb->jka", U, a)
    Ub = np.einsum("jkab,jkb->jka", U, b)
    tan = np.abs(np.concatenate([a, Ua], axis=-1)).max(axis=(0, 2))
    nor = np.abs(np.concatenate([b, -Ub], axis=-1)).max(axis=(0, 2))
    per_path = [{"x0": x0.tolist(), "deviation": float(dev[i]),
                 "tangential": float(tan[i]), "normal": float(nor[i])}
                for i, x0 in enumerate(paths.seeds)]
    return McfReport(max_deviation=float(np.max(dev)),
                     max_tangential=float(np.max(tan)),
                     max_normal=float(np.max(nor)), per_path=per_path)
