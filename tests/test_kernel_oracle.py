"""The Strang-step kernels against test-local copies of their earlier,
straightforward formulas: the fluid right-hand side, the exact radiation
substep and the RK4 combination."""

import numpy as np
import pytest

from radhydro.fluid import FluidParams, _rhs_common, require_positive
from radhydro.radiation import emission_spectrum
from radhydro.spectral import Grid
from radhydro.stepping import _propagator, _rk4, _substep, step_eps

from conftest import eps_batch, smooth_field, smooth_vector, stack

# lam != 0 of both signs; 2 mu + n lam stays positive in 1D and 2D.
PARAMS = [FluidParams(mu=0.2, lam=0.3, kappa=0.1), FluidParams(mu=0.2, lam=-0.15, kappa=0.4)]


def oracle_rhs(grid, y, y_hat, p, rad=None, eps=None):
    """The fluid right-hand side as a plain formula: strain tensor, sums
    over broadcast products and one dealias pass over the products."""
    n = grid.n_dims
    ik = grid.half_ik[:, None]
    k_sq, mask = grid.half_k_squared, grid.half_dealias_mask
    half = (y.shape[1], *grid.half_shape)
    rho, u, theta = y[0], y[1:-1], y[-1]
    u_hat, theta_hat = y_hat[1:-1], y_hat[-1]

    grads = np.empty((n * n + n, *half), dtype=complex)
    np.multiply(ik[None], u_hat[:, None], out=grads[: n * n].reshape(n, n, *half))
    np.multiply(ik, theta_hat, out=grads[n * n :])
    grads = grid.inverse(grads)
    grad_u = grads[: n * n].reshape(n, n, *rho.shape)  # [i, j] = d_j u_i
    grad_theta = grads[n * n :]

    div_u = np.trace(grad_u)
    strain = (grad_u + grad_u.swapaxes(0, 1)) * 0.5
    products = np.empty((n + 3, *rho.shape))
    np.multiply(rho, u, out=products[:n])
    np.multiply(rho, theta, out=products[n])
    shear_heating = np.sum(strain * strain, axis=(0, 1)) * (2.0 * p.mu)
    products[n + 1] = shear_heating + div_u * div_u * p.lam
    products[n + 2] = theta**4
    prod_hat = grid.forward(products)
    prod_hat *= mask

    div_u_hat = np.sum(ik * u_hat, axis=0)
    numer = np.empty((n + 1, *half), dtype=complex)
    numer[:n] = -p.mu * k_sq * u_hat + ik * ((p.mu + p.lam) * div_u_hat - prod_hat[n])
    numer[n] = -p.kappa * k_sq * theta_hat + prod_hat[n + 1]
    if rad is not None:
        numer[n] -= prod_hat[n + 2]
    else:
        numer[n] -= k_sq * grid.half_helmholtz * prod_hat[n + 2]
    numer = grid.inverse(numer)
    if rad is not None:
        numer[:n] += rad[1:] * eps
        numer[n] += rad[0]

    quotients = numer / rho
    quotients[:n] -= np.sum(u * grad_u, axis=1)
    quotients[n] -= np.sum(u * grad_theta, axis=0) + theta * div_u
    quot_hat = grid.forward(quotients)

    tend = np.empty((n + 2, *half), dtype=complex)
    tend[0] = -np.sum(ik * prod_hat[:n], axis=0)
    np.multiply(quot_hat, mask, out=tend[1:])
    return tend


def oracle_substep(grid, coeffs, source, eps, dt):
    """The exact radiation substep as a plain formula, its propagator
    computed on the spot."""
    i0, i1 = coeffs[0], coeffs[1:]
    kappa = grid.half_k_abs
    khat = grid.half_k_unit[:, None]
    along = np.sum(khat * i1, axis=0)
    i0_star = source * grid.half_helmholtz
    along_star = -1j * kappa * i0_star
    tau = dt / eps
    decay = np.exp(-tau)
    cos_r = np.cos(kappa * tau)
    sin_r = np.sin(kappa * tau)
    d0 = i0 - i0_star
    da = along - along_star
    out = np.empty_like(coeffs)
    out[0] = i0_star + decay * (cos_r * d0 - 1j * sin_r * da)
    along_new = along_star + decay * (-1j * sin_r * d0 + cos_r * da)
    out[1:] = along_new * khat + decay * (i1 - along * khat)
    return out


def oracle_rk4(grid, y, y_hat, rhs, dt, eps, time):
    """Classical RK4 on spectra as one expression per stage."""

    def stage(z_hat, offset):
        z = grid.inverse(z_hat)
        require_positive(z, eps, time + offset)
        return rhs(z, z_hat)

    require_positive(y, eps, time)
    k1 = rhs(y, y_hat)
    k2 = stage(y_hat + k1 * (0.5 * dt), 0.5 * dt)
    k3 = stage(y_hat + k2 * (0.5 * dt), 0.5 * dt)
    k4 = stage(y_hat + k3 * dt, dt)
    out = y_hat + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0)
    return grid.inverse(out), out


def _members(grid, rng, count):
    """(fluid, moment) value stacks of count random band-limited states,
    each (m, count, *shape)."""
    fluids, rads = [], []
    for _ in range(count):
        rho = 1.0 + smooth_field(grid, rng, kmax=5, amp=0.1)
        theta = 1.0 + smooth_field(grid, rng, kmax=5, amp=0.1)
        fluids.append(stack(grid, rho, smooth_vector(grid, rng, kmax=5, amp=0.2), theta))
        i0 = 1.0 + smooth_field(grid, rng, kmax=5, amp=0.1)
        rads.append(stack(grid, i0, smooth_vector(grid, rng, kmax=5, amp=0.1)))
    return np.stack(fluids, axis=1), np.stack(rads, axis=1)


def _row_gaps(got, want):
    """Largest difference per field row, relative to the row's largest
    entry."""
    axes = tuple(range(1, want.ndim))
    return np.abs(got - want).max(axis=axes) / np.abs(want).max(axis=axes)


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("p", PARAMS, ids=["lam+", "lam-"])
def test_rhs_matches_oracle(n_dims, n, members, coupled, p):
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(51 + 7 * n_dims + members)
    y, rad = _members(grid, rng, members)
    y_hat = grid.forward(y)
    coupling, oracle_coupling = {}, {}
    if coupled:
        # The kernel takes the moments' half spectra, the oracle their
        # values.
        eps = np.reshape([0.1, 0.03, 0.01][:members], (-1,) + (1,) * n_dims)
        coupling = {"rad": grid.forward(rad), "eps": eps}
        oracle_coupling = {"rad": rad, "eps": eps}
    got = _rhs_common(grid, y, y_hat, p, **coupling)
    want = oracle_rhs(grid, y, y_hat, p, **oracle_coupling)
    assert got.shape == want.shape == (n_dims + 2, members, *grid.half_shape)
    assert np.all(_row_gaps(got, want) <= 1e-13)


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
def test_substep_matches_oracle(n_dims, n):
    # Moderate, stiff and vanishing eps: the propagator decays from about
    # 0.9 to exactly 0 over the members.
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(52)
    y, rad = _members(grid, rng, 3)
    eps = np.reshape([0.5, 0.01, 1e-6], (-1,) + (1,) * n_dims)
    coeffs, source = grid.forward(rad), emission_spectrum(grid, y[-1])
    for dt in (0.0, 0.005, 0.05):
        got = _substep(grid, coeffs, source, _propagator(grid, eps, dt))
        want = oracle_substep(grid, coeffs, source, eps, dt)
        assert np.all(_row_gaps(got, want) <= 1e-15)


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
def test_step_eps_matches_two_independent_half_substeps(n_dims, n):
    # step_eps builds one propagator for both half substeps; the oracle
    # step builds each half substep's on its own.
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(53)
    y, rad = _members(grid, rng, 3)
    eps_values = (0.1, 0.02, 0.004)
    b = eps_batch(grid, eps_values, list(y.swapaxes(0, 1)), list(rad.swapaxes(0, 1)))
    p, dt = PARAMS[0], 0.002
    eps = np.reshape(eps_values, (-1,) + (1,) * n_dims)
    rad_half = oracle_substep(grid, b.rad, emission_spectrum(grid, b.fluid[-1]), eps, 0.5 * dt)
    rhs = lambda z, z_hat: _rhs_common(grid, z, z_hat, p, rad=rad_half, eps=eps)
    fluid, spectrum = _rk4(grid, b.fluid, b.spectrum, rhs, dt, b.eps, b.time)
    rad_new = oracle_substep(grid, rad_half, emission_spectrum(grid, fluid[-1]), eps, 0.5 * dt)

    stepped = step_eps(b, p, dt)
    for got, want in ((stepped.fluid, fluid), (stepped.spectrum, spectrum), (stepped.rad, rad_new)):
        assert np.all(_row_gaps(got, want) <= 1e-15)


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
@pytest.mark.parametrize("coupled", [False, True])
def test_rk4_is_bitwise_the_plain_expression(n_dims, n, coupled):
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(54)
    y, rad = _members(grid, rng, 3)
    coupling = {}
    if coupled:
        coupling = {"rad": grid.forward(rad), "eps": np.reshape([0.1, 0.03, 0.01], (-1,) + (1,) * n_dims)}
    rhs = lambda z, z_hat: _rhs_common(grid, z, z_hat, PARAMS[0], **coupling)
    y_hat = grid.forward(y)
    got = _rk4(grid, y, y_hat, rhs, 0.003, None, 0.0)
    want = oracle_rk4(grid, y, y_hat, rhs, 0.003, None, 0.0)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
