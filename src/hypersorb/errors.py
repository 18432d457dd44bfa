"""Exception types shared across the solver suite."""


class HypersorbError(Exception):
    """Base class for all package errors."""


class InvalidInput(HypersorbError, ValueError):
    """A user-supplied value violates a documented precondition; ConfigError is one kind."""


class BracketingError(HypersorbError, RuntimeError):
    """Root bracketing failed; message carries the interval diagnostics."""


class DegenerateBasisError(HypersorbError, RuntimeError):
    """The mode Gram matrix is numerically singular; use fewer modes."""


class DegenerateModeError(HypersorbError, RuntimeError):
    """A mode sits at the critical point where both exponents coincide."""


class StabilityError(HypersorbError, RuntimeError):
    """The explicit scheme produced non-finite values (time step too large)."""


class ConfigError(InvalidInput):
    """Invalid input no run starts from; CLI exit 2.

    A bad configuration, B = 0 for a wave engine, or a z* outside the slab.
    """
