"""Named initial-data families and ready-to-run experiment presets.

Initial data comes in four families:

* ``quadratic(A, b, c)``                exact solutions, fixed points of every check
* ``quadratic_plus_bump(A, amp, width)``  pinched data with a decaying Gaussian dent
* ``linear_plus_bump(b, amp, width)``   bounded-gradient data Du = b + amp e^{-x1^2/w^2}
* ``two_slope(c_minus, c_plus)``        degree-2 homogeneous line data with a slope jump

The exact closure of the gradient-bump data,
``u = b.x + (amp w sqrt(pi)/2) erf(x1 / sqrt(w^2 + 4t))``, takes ``erf`` from
the standard library's :mod:`math` (the platform libm) elementwise, so building
any family's data loads numpy only.

Each experiment preset is a configuration dictionary consumed by
:mod:`logflow.config`; the acceptance suite runs these presets verbatim.  The
frozen thresholds a preset is judged against are its pipeline's, declared in
:data:`logflow.experiments.PIPELINES`, and the expander and analysis presets
set only the grid and flow: their pipelines' parameters are constants of
:mod:`logflow.experiments` and :mod:`logflow.analysis`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .flow import QuadraticFarField, ReferenceSolution
from .grid import BoxDomain, GridFunction

__all__ = ["make_initial_data", "experiment_preset", "preset_names", "INITIAL_FAMILIES"]

# each family and the keys it reads besides "kind", mapped to their defaults;
# A = None is the identity and b = None the zero vector, both of size n
INITIAL_FAMILIES = {kind: {"noise": 0.0, **keys} for kind, keys in {
    "quadratic": {"A": None, "b": None, "c": 0.0},
    "quadratic_plus_bump": {"A": None, "amplitude": 0.1, "width": 1.0},
    "linear_plus_bump": {"b": None, "amplitude": 0.1, "width": 1.0},
    "two_slope": {"c_minus": 0.7, "c_plus": 1.3},
}.items()}


def _as_matrix(A, n):
    # loading admits A only as a scalar or an n x n matrix, b only as a
    # length-n vector
    if A is None:
        return np.eye(n)
    A = np.asarray(A, dtype=np.float64)
    return float(A) * np.eye(n) if A.ndim == 0 else A


def _as_vector(b, n):
    return np.zeros(n) if b is None else np.asarray(b, dtype=np.float64)


def make_initial_data(domain: BoxDomain, spec: dict, tau: float,
                      rng: np.random.Generator | None = None):
    """Build (u0, boundary_model) from an initial-data description.

    The boundary model is the exact far-field closure of the family: the
    evolved quadratic for the first two families, the closed-form reference
    for the gradient-bump (heat endpoint) and two-slope families.
    """
    kind = spec.get("kind")
    if kind not in INITIAL_FAMILIES:
        raise ConfigError(
            f"unknown initial data family {kind!r}; choose from {tuple(INITIAL_FAMILIES)}")
    spec = {**INITIAL_FAMILIES[kind], **spec}
    grids = domain.meshgrid()
    n = domain.n
    if kind == "quadratic":
        A = _as_matrix(spec["A"], n)
        b = _as_vector(spec["b"], n)
        c = float(spec["c"])
        vals = c * np.ones(domain.shape)
        for i in range(n):
            vals += b[i] * grids[i]
            for j in range(n):
                vals += 0.5 * A[i, j] * grids[i] * grids[j]
        u0 = GridFunction(domain, vals, label="quadratic")
        boundary = QuadraticFarField(A, b, c)
    elif kind == "quadratic_plus_bump":
        A = _as_matrix(spec["A"], n)
        amp = float(spec["amplitude"])
        width = float(spec["width"])
        r2 = sum(g ** 2 for g in grids)
        vals = amp * np.exp(-r2 / width ** 2)
        for i in range(n):
            for j in range(n):
                vals += 0.5 * A[i, j] * grids[i] * grids[j]
        u0 = GridFunction(domain, vals, label="quadratic_plus_bump")
        boundary = QuadraticFarField(A, np.zeros(n), 0.0)
    elif kind == "linear_plus_bump":
        b = _as_vector(spec["b"], n)
        amp = float(spec["amplitude"])
        width = float(spec["width"])
        if tau != 0.0:
            raise ConfigError("linear_plus_bump data is not convex: only the "
                              "tau = 0 endpoint can evolve it")

        def reference(pts, t):
            s = math.sqrt(width ** 2 + 4.0 * t)
            x1 = (pts[:, 0] / s).tolist()
            bump = np.fromiter(map(math.erf, x1), np.float64, len(x1))
            return pts @ b + amp * width * math.sqrt(math.pi) / 2.0 * bump

        u0 = GridFunction(domain, reference(domain.points(), 0.0).reshape(domain.shape),
                          label="linear_plus_bump")
        boundary = ReferenceSolution(reference)
    else:  # two_slope
        if n != 1:
            raise ConfigError("two_slope data lives on the line (n = 1)")
        cm = float(spec["c_minus"])
        cp = float(spec["c_plus"])
        if min(cm, cp) <= 0:
            raise ConfigError("two_slope curvatures must be positive")
        x = grids[0]
        u0 = GridFunction(domain, 0.5 * np.where(x < 0, cm, cp) * x ** 2,
                          label="two_slope")
        # per-side quadratic evolution: rate tau ln c + (1 - tau) c
        def reference(pts, t):
            c = np.where(pts[:, 0] < 0, cm, cp)
            rate = tau * np.log(c) + (1.0 - tau) * c
            return 0.5 * c * pts[:, 0] ** 2 + t * rate

        boundary = ReferenceSolution(reference)

    noise = float(spec["noise"])
    if noise:
        if rng is None:
            rng = np.random.default_rng(0)
        bumpless = u0.values + noise * rng.standard_normal(domain.shape)
        bumpless[domain.ring_mask()] = u0.values[domain.ring_mask()]
        u0 = GridFunction(domain, bumpless, label=u0.label + "+noise")
    return u0, boundary


# ---------------------------------------------------------------------------
# experiment presets
# ---------------------------------------------------------------------------

# the unit quadratic with a small Gaussian dent, shared by five presets
_BUMP = {"kind": "quadratic_plus_bump", "A": 1.0, "amplitude": 0.1, "width": 1.0}

_PRESETS: dict[str, dict] = {
    "quadratic-exact": {
        "pipeline": "quadratic_exact",
        "grid": {"n": 2, "L": 2.0, "m": 65},
        "initial": {"kind": "quadratic", "A": [[2.0, 0.0], [0.0, 2.0]]},
        "flow": {"tau": 1.0, "t_end": 1.0},
    },
    "condition-b-preservation": {
        "pipeline": "condition_b",
        "grid": {"n": 1, "L": 6.0, "m": 65},
        "initial": _BUMP,
        "flow": {"tau": 1.0, "t_end": 2.0},
    },
    "heat-oracle": {
        "pipeline": "heat_oracle",
        "grid": {"n": 1, "L": 4.0, "m": 65},
        "initial": _BUMP,
        "flow": {"tau": 0.0, "t_end": 0.1},
    },
    "expander-stationarity": {
        "pipeline": "expander_stationarity",
        "grid": {"n": 1, "L": 2.0, "m": 65},
    },
    "expander-cross-validation": {
        "pipeline": "expander_cross",
        "grid": {"n": 1, "L": 1.5, "m": 129},
    },
    "legendre-duality": {
        "pipeline": "legendre_dual",
        "grid": {"n": 1, "L": 4.0, "m": 65},
        "initial": _BUMP,
        "flow": {"tau": 1.0, "t_end": 0.505,
                 "snapshot_times": [0.495, 0.5, 0.505]},
    },
    "mcf-correspondence": {
        "pipeline": "mcf_verify",
        "grid": {"n": 1, "L": 4.0, "m": 129},
        "initial": _BUMP,
        "flow": {"tau": 1.0, "t_end": 1.0},
        "mcf": {"seeds": [[-0.8], [-0.6], [-0.4], [-0.2], [0.0],
                          [0.2], [0.4], [0.6], [0.8]],
                "t_start": 0.1},
    },
    "decay-rates": {
        "pipeline": "decay",
        "grid": {"n": 1, "L": 12.0, "m": 129},
        "initial": {"kind": "two_slope", "c_minus": 0.7, "c_plus": 1.3},
        "flow": {"tau": 1.0, "t_end": 8.0,
                 "snapshot_times": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]},
    },
    "blowdown-convergence": {
        "pipeline": "blowdown",
        "grid": {"n": 1, "L": 8.0, "m": 129},
        "initial": _BUMP,
        "flow": {"tau": 1.0, "t_end": 16.0,
                 "snapshot_times": [1.0, 2.0, 4.0, 8.0, 16.0]},
    },
    "plane-convergence": {
        "pipeline": "plane",
        "grid": {"n": 1, "L": 8.0, "m": 129},
        "initial": {"kind": "linear_plus_bump", "b": [0.0],
                    "amplitude": 0.1, "width": 1.0},
        "flow": {"tau": 0.0, "t_end": 8.0,
                 "snapshot_times": [0.5, 1.0, 2.0, 4.0, 8.0]},
    },
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def experiment_preset(name: str) -> dict:
    """Deep copy of a named preset; unknown names list the catalogue."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available presets: {', '.join(preset_names())}")
    import copy
    return copy.deepcopy(_PRESETS[name])
