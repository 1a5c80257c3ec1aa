"""Numerical laboratory for the logarithmic gradient flow du/dt = (1/n) ln det D2u,
its heat-equation deformation, self-expanding stationary profiles, convex
duality, and the associated spacelike graph flow in split-signature space."""

from .errors import (AbortedNonConvex, BlowupError, ConfigError,
                     EmptyCoincidenceError, EscapeError, InsufficientSamples,
                     LogFlowError, MissingArtifact, NewtonStall,
                     NonConvexityError, RangeError, TailError,
                     WindowEscape)
from .grid import (BoxDomain, GridFunction, HessianField, gradient, hessian,
                   third_derivative_norm)
from .flow import (FlowState, MonitorRecord, QuadraticFarField,
                   ReferenceSolution, Trajectory, dt_stable, pde_residual,
                   run, step_explicit)
from .heat import heat_solve
from .expander import ExpanderSolution, certify, newton_solve
from .legendre import dual_flow_check, legendre_transform
from .mcf import integrate_particles, verify_mcf
from .analysis import (blowdown_convergence, check_condition_A,
                       check_condition_B, fit_decay, plane_convergence)
from .snapshots import read_snapshot, write_snapshot

__version__ = "0.1.0"
