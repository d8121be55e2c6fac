"""Exception types shared across the package."""


class RadHydroError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveState(RadHydroError):
    """Density or temperature fell to (or below) the positivity floor."""


class PositivityLost(NonPositiveState):
    """Constructed initial data violated positivity of rho or theta."""


class BlowUp(RadHydroError):
    """Non-finite values detected during time integration."""


class TimeMismatch(RadHydroError):
    """Two states that must be simultaneous carry different times, or a
    run did not land on the output time it was stepped to."""


class DegenerateFit(RadHydroError):
    """Rate-fit input cannot support a log-log regression."""


class NotInP1Subspace(RadHydroError):
    """Kinetic data is too far from the affine-in-direction subspace."""


class ConfigError(RadHydroError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Configuration file is not valid JSON."""


class ValidationError(ConfigError):
    """Configuration parsed but violates the schema."""
