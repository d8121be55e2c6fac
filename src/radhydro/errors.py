"""Exception types shared across the package."""


class RadHydroError(Exception):
    """Base class for all package-specific errors."""


class SolverFailure(RadHydroError):
    """A numerical failure during time integration.

    When the solver raises it, it names where: ``eps`` of the failing
    sweep member (None for the limit system), ``time`` (None when the
    caller did not say) and ``field`` ("rho", "u", "theta", "I0" or
    "I1").
    """

    def __init__(self, message: str, *, eps=None, time=None, field=None):
        super().__init__(message)
        self.eps = eps
        self.time = time
        self.field = field


def located(eps, time) -> str:
    """'eps = ..., t = ...' (or 'limit system') for a failure message."""
    where = "limit system" if eps is None else f"eps = {eps:g}"
    return where if time is None else f"{where}, t = {time:.6g}"


class NonPositiveState(SolverFailure):
    """Density or temperature fell to (or below) the positivity floor.

    ``minimum`` is the field's smallest value and ``margin`` its distance
    above the floor (negative: how far below it).
    """

    def __init__(self, message: str, *, minimum=None, floor=None, **where):
        super().__init__(message, **where)
        self.minimum = minimum
        self.margin = None if minimum is None else minimum - floor


class BlowUp(SolverFailure):
    """Non-finite values detected during time integration."""


class TimeMismatch(RadHydroError):
    """A step of a run did not move its time forward, or the run did not
    land on the output time it was stepped to (``runner._sampled``)."""


class DegenerateFit(RadHydroError):
    """Rate-fit input cannot support a log-log regression."""


class NotInP1Subspace(RadHydroError):
    """Kinetic data is too far from the affine-in-direction subspace."""


class ConfigError(RadHydroError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Configuration file cannot be read or is not valid JSON."""


class ValidationError(ConfigError):
    """Configuration parsed but violates the schema."""
