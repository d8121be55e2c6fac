"""Pseudo-spectral compressible flow coupled to P1 gray radiation.

Solves the viscous heat-conducting flow equations coupled to the two
radiation moments on the periodic torus, in both the finite-eps form
(eps = reciprocal light speed) and its relaxation limit, and ships a
convergence harness that measures the O(eps) approach of one to the
other. A discrete-ordinates gray-transport module validates the
two-moment closure the solver rests on.
"""

from .analysis import batch_error_squares, fit_rate, well_prepared_init
from .config import RunConfig, load_config
from .errors import (
    BlowUp,
    ConfigError,
    DegenerateFit,
    NonPositiveState,
    NotInP1Subspace,
    ParseError,
    RadHydroError,
    TimeMismatch,
    ValidationError,
)
from .fluid import FluidParams
from .kinetic import (
    OrdinateSet,
    kinetic_rhs,
    make_ordinates,
    moment_system_check,
    moments,
    p1_basis,
    p1_projection_residual,
    transport_term,
)
from .radiation import limit_closure_residual
from .runner import RunSummary, emit_summary, run
from .spectral import Grid
from .stepping import EpsBatch, cfl_dt, step_batch, step_eps

__version__ = "0.1.0"
