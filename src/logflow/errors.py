"""Exception types shared across the laboratory."""


class LogFlowError(Exception):
    """Base class for every package-specific failure."""


class NonConvexityError(LogFlowError):
    """The Hessian lost strict positive-definiteness where log det D2u is needed."""


class AbortedNonConvex(LogFlowError):
    """Time integration gave up after repeated step rejections.

    Carries the last accepted state so callers can persist it.
    """

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class TailError(LogFlowError):
    """Gaussian quadrature mass leaks outside the truncated box (t too large for L)."""


class BlowupError(LogFlowError):
    """The Dormand-Prince 5(4) stepper of the line expander ran out of its
    budget of accepted steps, or its step fell below its floor."""


class NewtonStall(LogFlowError):
    """Damped Newton iteration stopped making progress before reaching tolerance."""


class RangeError(LogFlowError):
    """A requested point lies outside the sampled range: a dual point outside
    the sampled gradient range, or a point past a line profile's end."""


class EscapeError(LogFlowError):
    """A particle path left the trustworthy interior of the computational box."""


class EmptyCoincidenceError(LogFlowError):
    """No grid nodes coincide under the requested rescaling."""


class WindowEscape(LogFlowError):
    """The rescaled comparison window does not fit inside the computational box."""


class InsufficientSamples(LogFlowError):
    """Too few samples: rate fitting needs at least five geometric time
    samples, particle transport three stored snapshots in its window, the
    blow-down monotonicity verdict a pair of errors to compare."""


class MissingArtifact(LogFlowError):
    """A run directory lacks a file an operation needs, or a snapshot is unusable.

    Unusable snapshots have a malformed header (not JSON, a wrong kind, a
    missing key, an impossible grid), are truncated or padded, or hold
    non-finite values.
    """


class ConfigError(LogFlowError):
    """Experiment configuration failed validation."""
