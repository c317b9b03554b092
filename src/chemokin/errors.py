"""Exception types shared across the package."""


class ChemokinError(Exception):
    """Base class for all package errors."""


class BadConfig(ChemokinError):
    """Unknown key/family or an unparsable, non-finite or out-of-range parameter."""


class AssumptionViolation(ChemokinError):
    """A model assumption failed a construction-time sweep.

    The message names the failed inequality and the offending grid point.
    """


class SolverFailure(ChemokinError):
    """A failure found while stepping or solving a validated scenario.

    The CLI reports these as verification failures (exit 4), not as bad
    configuration.
    """


class NonFiniteInput(SolverFailure):
    """An input array contains NaN or infinity."""


class CflViolation(SolverFailure):
    """A time step exceeds the positivity bound of a sub-operation."""


class SpecViolation(SolverFailure):
    """The model/grid combination breaks a runtime requirement
    (e.g. the adaptation rate is non-negative at the m truncation)."""


class PositivityError(SolverFailure):
    """A scheme produced a negative cell; a hard failure, never clipped."""


class NoContraction(SolverFailure):
    """The fixed-point iteration horizon is too long to contract."""


class EmptyField(ChemokinError):
    """An operation that needs positive mass received a vacuum field."""
