"""An independent linear oracle for both systems.

About the constant state rho = theta = I0 = 1, u = I1 = 0 one Fourier
mode k of each system evolves by a constant matrix: (n+2) x (n+2) for
the limit system, (2n+3) x (2n+3) for the eps system. A run of one mode
of amplitude 1e-7 is compared with V exp(Lambda t) V^(-1) from numpy's
``eig`` (nonlinear terms reach mode k only at third order in the
amplitude). The error is the largest component error of the mode's
coefficients relative to their largest component.

Values at 1D/32, k = 3, T = 0.5, mu = lam = kappa = 0.01: ``step_eps``
on the limit system (eps = 0) 1.32e-10 at dt = 2.5e-3; at eps = 0.1
7.4e-5, 1.9e-5, 4.7e-6 for dt = 5e-3, 2.5e-3, 1.25e-3 (order 2); at
eps = 1e-6 and 1e-8 alike 2.63e-4, 1.31e-4, 6.5e-5 (order 1). In the transition regime
dt ~ eps (eps = 1e-3) the error is not monotone in dt: 4.8e-4, 2.1e-3,
6.6e-4.

The same linearisation gives the stability threshold of a band-edge
mode under the limit step, found by bisection on dt, which
``cfl_bounds`` at factor 1 must not exceed.
"""

import math

import numpy as np
import pytest

from radhydro.fluid import FluidParams
from radhydro.spectral import Grid
from radhydro.stepping import EpsBatch, cfl_bounds, step_eps

from conftest import limit_state

PARAMS = FluidParams(mu=0.01, lam=0.01, kappa=0.01)
AMP = 1e-7
T_END = 0.5
DTS = (5e-3, 2.5e-3, 1.25e-3)


def _matrix(k, p, eps=None, u=None):
    """Linearised evolution of the mode k's coefficients of (rho, u,
    theta), and with eps of (I0, I1) after them, about rho = theta = I0 = 1,
    I1 = 0 and the constant velocity u (default 0)."""
    k = np.asarray(k, dtype=float)
    n = len(k)
    k2, ik = k @ k, 1j * k
    vel, th = slice(1, n + 1), n + 1
    size = n + 2 if eps is None else 2 * n + 3
    a = np.zeros((size, size), dtype=complex)
    # Mass, momentum (stress mu Lap u + (mu + lam) grad div u, pressure
    # rho theta) and temperature (-theta div u, conduction).
    a[0, vel] = -ik
    a[vel, vel] = -p.mu * k2 * np.eye(n) - (p.mu + p.lam) * np.outer(k, k)
    a[vel, 0] = a[vel, th] = -ik
    a[th, vel] = -ik
    a[th, th] = -p.kappa * k2
    if eps is None:
        # Limit heat source -div q0 = -|k|^2 (1 + |k|^2)^(-1) theta^4.
        a[th, th] -= 4.0 * k2 / (1.0 + k2)
    else:
        # Momentum source eps I1, heat source I0 - theta^4 and the moment
        # relaxation (4 theta - I0 - ik.I1)/eps, (-I1 - ik I0)/eps.
        i0, i1 = n + 2, slice(n + 3, 2 * n + 3)
        a[vel, i1] = eps * np.eye(n)
        a[th, i0] = 1.0
        a[th, th] -= 4.0
        a[i0, th] = 4.0 / eps
        a[i0, i0] = -1.0 / eps
        a[i0, i1] = -ik / eps
        a[i1, i1] = -np.eye(n) / eps
        a[i1, i0] = -ik / eps
    if u is not None:
        a -= 1j * (np.asarray(u) @ k) * np.eye(size)
    return a


def _exact(a, z0, t):
    """exp(a t) z0 as V exp(Lambda t) V^(-1) z0."""
    lam, v = np.linalg.eig(a)
    return v @ (np.exp(lam * t) * np.linalg.solve(v, z0))


def _index(grid, k):
    """Half-spectrum index of the mode k (last component >= 0)."""
    n = grid.points_per_dim
    return (Ellipsis,) + tuple(int(c) % n for c in k)


def _values(grid, k, z, base):
    """Real fields base + 2 Re(z e^{ik.x}): the coefficient of mode k is z."""
    wave = np.exp(1j * sum(c * x for c, x in zip(k, grid.coordinates())))
    return np.stack([b + 2.0 * (c * wave).real for b, c in zip(base, z)])


def _mode(grid, k):
    """Coefficients of one mode of amplitude AMP: random fluid ones and
    the radiation pair on the limit closure of the temperature."""
    n = grid.n_dims
    rng = np.random.default_rng(5)
    fluid = rng.normal(size=n + 2) + 1j * rng.normal(size=n + 2)
    i0 = 4.0 * fluid[-1] / (1.0 + np.dot(k, k))
    rad = np.concatenate([[i0], -1j * np.asarray(k, dtype=float) * i0])
    return AMP * np.concatenate([fluid, rad])


def _relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _limit_error(grid, k, dt):
    n = grid.n_dims
    z0 = _mode(grid, k)[: n + 2]
    state = limit_state(grid, _values(grid, k, z0, [1.0] + [0.0] * n + [1.0]))
    for _ in range(round(T_END / dt)):
        state = step_eps(state, PARAMS, dt)
    got = state.spectrum[:, 0][_index(grid, k)]
    return _relative_error(got, _exact(_matrix(k, PARAMS), z0, T_END))


def _eps_error(grid, k, eps, dt):
    n = grid.n_dims
    z0 = _mode(grid, k)
    values = _values(grid, k, z0, [1.0] + [0.0] * n + [1.0, 1.0] + [0.0] * n)
    batch = EpsBatch(grid, (eps,), values[: n + 2, None], grid.forward(values[n + 2 :, None]), 0.0)
    for _ in range(round(T_END / dt)):
        batch = step_eps(batch, PARAMS, dt)
    index = _index(grid, k)
    got = np.concatenate([batch.spectrum[:, 0][index], batch.rad[:, 0][index]])
    return _relative_error(got, _exact(_matrix(k, PARAMS, eps), z0, T_END))


def _orders(errors):
    """Observed orders between successive halvings of dt."""
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


GRID_1D, MODE_1D = Grid(1, 32), (3,)
GRID_2D, MODE_2D = Grid(2, 16), (1, 2)


class TestDispersion:
    @pytest.mark.parametrize("grid,k", [(GRID_1D, MODE_1D), (GRID_2D, MODE_2D)], ids=["1d", "2d"])
    def test_step_limit(self, grid, k):
        # 1.32e-10 (1D) and 7.8e-11 (2D) at dt = 2.5e-3, near the
        # roundoff of a 1e-7 mode on an O(1) state.
        assert _limit_error(grid, k, 2.5e-3) <= 2e-10

    @pytest.mark.parametrize("grid,k", [(GRID_1D, MODE_1D), (GRID_2D, MODE_2D)], ids=["1d", "2d"])
    def test_step_eps_order_two_while_dt_below_eps(self, grid, k):
        # eps = 0.1: orders 2.00 and 2.00 (1D and 2D), 4.7e-6 (1D) and
        # 1.3e-6 (2D) at dt = 1.25e-3.
        errors = [_eps_error(grid, k, 0.1, dt) for dt in DTS]
        assert all(1.8 <= q <= 2.2 for q in _orders(errors))
        assert errors[-1] <= 1e-5

    def test_step_eps_order_one_uniformly_in_eps(self):
        # eps = 1e-6 and 1e-8: 2.63e-4, 1.31e-4, 6.5e-5 for both, order
        # 1.00; the bound 4e-4 at dt = 5e-3 holds for every eps << dt.
        for eps in (1e-6, 1e-8):
            errors = [_eps_error(GRID_1D, MODE_1D, eps, dt) for dt in DTS]
            assert all(0.9 <= q <= 1.1 for q in _orders(errors))
            assert max(errors) <= 4e-4

    def test_step_eps_transition_regime_is_bounded(self):
        # dt ~ eps: not monotone in dt (4.8e-4, 2.1e-3, 6.6e-4), so only
        # a bound is checked.
        errors = [_eps_error(GRID_1D, MODE_1D, 1e-3, dt) for dt in DTS]
        assert max(errors) <= 5e-3


def _growth_threshold(grid, p, u):
    """Largest dt (to 2^-14 of the bracket) at which no eigencomponent of
    the band-edge mode k = floor(N/3) (1, ..., 1) grows under the limit step,
    bisected between half and twice the smaller ``cfl_bounds`` at factor
    1, and both bounds.

    A component of the linearisation grows by |R(dt lambda)| per RK4
    step, so four steps from a mode of amplitude 1e-8 in each
    eigencomponent show growth long before nonlinear terms matter.
    """
    n = grid.n_dims
    k = np.full(n, float(grid.points_per_dim // 3))
    _, v = np.linalg.eig(_matrix(k, p, u=u))
    amp = 1e-8
    base = [1.0, *u, 1.0]
    values = _values(grid, k, v @ np.full(n + 2, amp), base)
    index = _index(grid, k)

    def grows(dt):
        state = limit_state(grid, values)
        for _ in range(4):
            state = step_eps(state, p, dt)
        return np.abs(np.linalg.solve(v, state.spectrum[:, 0][index])).max() > amp

    bounds = cfl_bounds(grid, values, p, 1.0, 1.0)
    lo, hi = 0.5 * min(bounds), 2.0 * min(bounds)
    assert not grows(lo) and grows(hi)
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if grows(mid) else (mid, hi)
    return lo, bounds


class TestStabilityThreshold:
    # Measured threshold / bound: advection and sound 1.018 (1D/64,
    # u = 0.5) and 1.027 (2D/32, |u| = 0.5 along k); viscosity 1.007
    # (1D/64) and 1.016 (2D/32), mu = kappa = 0.5.
    FACTOR = 1.1

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 32)], ids=["1d", "2d"])
    def test_advective_bound(self, grid):
        n = grid.n_dims
        p = FluidParams(mu=1e-5, lam=0.0, kappa=1e-5)
        threshold, (advective, diffusive) = _growth_threshold(grid, p, [0.5 / math.sqrt(n)] * n)
        assert advective < diffusive
        assert advective <= threshold <= self.FACTOR * advective

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 32)], ids=["1d", "2d"])
    def test_diffusive_bound(self, grid):
        p = FluidParams(mu=0.5, lam=0.0, kappa=0.5)
        threshold, (advective, diffusive) = _growth_threshold(grid, p, [0.0] * grid.n_dims)
        assert diffusive < advective
        assert diffusive <= threshold <= self.FACTOR * diffusive
