"""Error norms, prepared data and rate fitting.

The convergence harness compares every eps member of the batch a run
marches against its member 0, the limit run (eps = 0), through five
difference fields: the fluid differences (rho, u, theta) and the
radiation differences measured against the moments of the limit run,
the limit closure of the *limit* temperature. The differences are never
formed as fields: ``batch_error_squares`` takes their squared norms from
the half spectra the batch carries, as one (index, fluid/radiation,
member) array. The runner forms the
functionals of the limit theorem from it, over the member axis: the
energy gamma = fluid + eps * radiation, whose sup-in-time should scale
like eps^2, and the well-preparedness functional sqrt(fluid) +
sqrt(eps) * sqrt(radiation) at t = 0, which must be O(eps).
The prepared data of a whole sweep is built as one batch, after the
limit data as member 0, and checked by the solver's positivity guard
(``fluid.require_positive``). Its perturbation shapes are one
(2n+3, *shape) array of unit-L^2 rows, in the field order rho,
u_1..u_n, theta, I0, I1_1..I1_n of the states: the configured profile
specs or the defaults, as ``RunConfig.shapes`` evaluates them.

Observed convergence orders come from a least-squares line through
(log eps, log error) over a sweep of eps values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFit
from .fluid import require_positive
from .spectral import Grid, sobolev_squares
from .stepping import EpsBatch

__all__ = [
    "unit_rows",
    "batch_error_squares",
    "well_prepared_init",
    "fit_rate",
]


def unit_rows(grid: Grid, rows: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """A (m, *shape) stack with every row scaled to unit L^2 norm, and
    the norms before scaling; a row of norm zero stays as it is.

    The rows are transformed in one batch (the same bits as one row per
    call); each norm is the square root of the ``sobolev_squares`` of
    its own row.
    """
    norms = [math.sqrt(sobolev_squares(grid, c, (0,))[0]) for c in grid.forward(rows)]
    scale = [1.0 / norm if norm != 0.0 else 1.0 for norm in norms]
    return rows * np.reshape(scale, (-1,) + (1,) * grid.n_dims), norms


def batch_error_squares(batch: EpsBatch, indices) -> np.ndarray:
    """Squared H^s norms of the differences of members 1.. of batch from
    its member 0, the limit system (eps = 0), at every index in indices.

    Returns an array of shape (len(indices), 2, E - 1): per eps member
    the fluid ||drho||_s^2 + ||du||_s^2 + ||dtheta||_s^2 and the
    radiation ||dI0||_s^2 + ||dI1||_s^2, where the radiation references
    are the moments the limit member carries, the limit closure of the
    limit temperature, I0 = (I - Lap)^(-1) theta^4 and its negative
    gradient. The differences are taken between the half spectra the
    batch carries, so nothing is transformed here; the norms are the
    ``sobolev_squares`` of the (2n+3, E - 1, *half_shape) differences.
    """
    grid = batch.grid
    if batch.eps[:1] != (0.0,):
        raise ValueError(f"member 0 must be the limit system, eps = 0: {batch.eps}")
    diff = np.concatenate([batch.spectrum[:, 1:], batch.rad[:, 1:]])
    diff -= np.concatenate([batch.spectrum[:, :1], batch.rad[:, :1]])
    per_field = sobolev_squares(grid, diff, indices)  # (index, field, member)
    return np.add.reduceat(per_field, [0, grid.n_dims + 2], axis=1)


def well_prepared_init(base: EpsBatch, eps_values, amp: float, shapes: np.ndarray) -> EpsBatch:
    """The batch a run marches: the limit data base (the one-member
    batch eps = 0) as member 0, copied bit for bit, then the prepared
    data of a sweep at distance O(eps) from it, a member per entry of
    eps_values.

    The fluid fields deviate by eps*amp times their shapes and the
    radiation pair deviates from the limit closure the base carries by
    sqrt(eps)*amp times its shapes (the rows of the (2n+3, *shape)
    ``shapes``, as ``RunConfig.shapes`` gives them; unit L^2 norm each),
    so the weighted initial-deviation functional is amp-many multiples of
    eps with an eps-independent constant. The fluid spectrum is built
    the same way, from the base state's spectrum and the shapes', so at
    amp = 0 the fluid spectrum is exactly the base state's and the
    moments are exactly the base's limit closure.

    Raises:
        NonPositiveState: if the perturbed rho or theta of a member is
            below the positivity floor (``require_positive``: the first
            such member in the order of eps_values, rho before theta),
            naming its eps, the base time, the field and its minimum.
    """
    eps = tuple(float(e) for e in eps_values)
    grid = base.grid
    n = grid.n_dims
    dev = shapes[:, None]
    dev_hat = grid.forward(dev)

    member = (-1,) + (1,) * n
    fluid_scale = np.reshape([e * amp for e in eps], member)
    rad_scale = np.reshape([math.sqrt(e) * amp for e in eps], member)
    fluid = base.fluid + dev[: n + 2] * fluid_scale
    require_positive(fluid, eps, base.time)
    joined = lambda base_rows, rows: np.concatenate([base_rows, rows], axis=1)
    spectrum = joined(base.spectrum, base.spectrum + dev_hat[: n + 2] * fluid_scale)
    rad = joined(base.rad, base.rad + dev_hat[n + 2 :] * rad_scale)
    return EpsBatch(grid, (0.0, *eps), joined(base.fluid, fluid), rad, base.time, spectrum=spectrum)


def fit_rate(pairs) -> dict:
    """Fit log(error) = slope*log(eps) + intercept by least squares.

    Returns the rate-fit block of ``summary.json``: the eps values in
    decreasing order, their errors, slope, intercept and r_squared.

    Args:
        pairs: at least three (eps, error) tuples with positive errors.

    Raises:
        DegenerateFit: nonpositive error, fewer than 3 pairs, or all eps
            equal.
    """
    pairs = sorted(pairs, key=lambda p: -p[0])
    if len(pairs) < 3:
        raise DegenerateFit(f"need at least 3 pairs, got {len(pairs)}")
    eps_values = [float(p[0]) for p in pairs]
    errors = [float(p[1]) for p in pairs]
    if any(e <= 0.0 for e in errors):
        raise DegenerateFit("errors must be positive for a log-log fit")
    if len(set(eps_values)) == 1:
        raise DegenerateFit("all eps values are equal")
    if len(set(eps_values)) != len(eps_values):
        raise DegenerateFit("eps values must be distinct")
    x = np.log(eps_values)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return {
        "eps_values": eps_values,
        "errors": errors,
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": r_squared,
    }

