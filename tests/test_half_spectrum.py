"""Half-spectrum (rfftn) operators and the array fluid kernel.

The package works on the rfftn half spectrum only. These tests hold its
operators and symbols against a test-local full-complex reference
(``numpy.fft.fftn`` with its own wavenumber meshes), the array
right-hand sides against an assembly from the reference operators of
``conftest``, and pin the transform budget.
"""

import json
from collections import Counter

import numpy as np
import pytest

import radhydro.stepping
from radhydro import cli
from radhydro.config import parse_config
from radhydro.fluid import FluidParams, _rhs_common
from radhydro.kinetic import (
    kinetic_rhs,
    make_ordinates,
    moment_system_check,
    moments,
    p1_basis,
    p1_projection_residual,
)
from radhydro.radiation import emission_spectrum, limit_closure_residual
from radhydro.runner import run
from radhydro.spectral import Grid, sobolev_squares
from radhydro.stepping import EpsBatch, step_batch, step_eps

from conftest import (
    dealias,
    div,
    eps_batch,
    fluid_rhs,
    grad,
    helmholtz_inverse,
    l2_inner,
    laplacian,
    limit_pair,
    limit_spectrum,
    limit_state,
    smooth_field,
    smooth_vector,
    sobolev_norm,
    stack,
)

GRIDS = [(n_dims, n) for n_dims in (1, 2) for n in (8, 64, 128)]
TOL = 1e-12


def _random(grid, rng):
    """White-noise real field: every mode populated, Nyquist included."""
    return rng.standard_normal(grid.shape)


def _close(got, want):
    scale = max(np.abs(want).max(), 1.0)
    return np.abs(got - want).max() <= TOL * scale


def _half(grid, full):
    """Half-spectrum part of a full coefficient array."""
    return full[..., : grid.points_per_dim // 2 + 1]


# Full-complex reference, independent of radhydro.spectral: the whole
# spectrum of numpy.fft.fftn with fftfreq wavenumbers, Nyquist included.
def _full(values):
    return np.fft.fftn(values, norm="forward")


def _full_values(coeffs):
    return np.fft.ifftn(coeffs, norm="forward").real


def _full_k(grid):
    n = grid.points_per_dim
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.meshgrid(*([k] * grid.n_dims), indexing="ij")


def _full_k_squared(grid):
    return sum(k**2 for k in _full_k(grid))


def _full_dealias(grid, coeffs):
    keep = np.all([np.abs(k) <= grid.points_per_dim / 3.0 for k in _full_k(grid)], axis=0)
    return np.where(keep, coeffs, 0.0)


@pytest.mark.parametrize("n_dims,n", GRIDS)
class TestOperatorsAgainstFullSpectrum:
    def test_layout_is_half_of_full(self, n_dims, n):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(1))
        half = grid.forward(f)
        assert half.shape == grid.half_shape
        assert _close(half, _half(grid, _full(f)))
        assert _close(grid.inverse(half), f)

    def test_grad(self, n_dims, n):
        # The full-spectrum gradient keeps an odd Nyquist part, which
        # taking the real part of its values drops; the half symbol is
        # zero there, so the values agree.
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(2))
        c = _full(f)
        for j, (k, comp) in enumerate(zip(_full_k(grid), grad(grid, f))):
            assert _close(comp, _full_values(1j * k * c)), j

    def test_div(self, n_dims, n):
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(3)
        v = np.stack([_random(grid, rng) for _ in range(n_dims)])
        want = _full_values(sum(1j * k * _full(c) for k, c in zip(_full_k(grid), v)))
        assert _close(div(grid, v), want)

    def test_laplacian(self, n_dims, n):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(4))
        want = -_full_k_squared(grid) * _full(f)
        half = -grid.half_k_squared * grid.forward(f)
        assert _close(half, _half(grid, want))
        assert _close(laplacian(grid, f), _full_values(want))

    def test_helmholtz_inverse(self, n_dims, n):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(5))
        want = _full(f) / (1.0 + _full_k_squared(grid))
        half = grid.half_helmholtz * grid.forward(f)
        assert _close(half, _half(grid, want))
        assert _close(helmholtz_inverse(grid, f), _full_values(want))

    def test_dealias_mask(self, n_dims, n):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(6))
        want = _full_dealias(grid, _full(f))
        half = grid.half_dealias_mask * grid.forward(f)
        assert _close(half, _half(grid, want))
        assert _close(dealias(grid, f), _full_values(want))

    @pytest.mark.parametrize("s", [0, 1, 4])
    def test_sobolev_norm_matches_full_sum(self, n_dims, n, s):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(7))
        weight = (1.0 + _full_k_squared(grid)) ** s
        full = np.sqrt(np.sum(weight * np.abs(_full(f)) ** 2) * grid.volume)
        assert sobolev_norm(grid, f, s) == pytest.approx(full, rel=TOL)

    def test_hermitian_multiplicity(self, n_dims, n):
        # Parseval on the half spectrum: interior last-axis columns stand
        # for two modes, the k_last = 0 and Nyquist columns for one.
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(8)
        f, g = _random(grid, rng), _random(grid, rng)
        half = grid.forward(f)
        weighted = np.sum(grid.half_multiplicity * np.abs(half) ** 2)
        assert weighted == pytest.approx(np.sum(np.abs(_full(f)) ** 2), rel=TOL)
        inner = np.sum(np.conj(_full(f)) * _full(g)).real * grid.volume
        assert l2_inner(grid, f, g) == pytest.approx(inner, rel=TOL)
        assert np.all(grid.half_multiplicity[..., 0] == 1.0)
        assert np.all(grid.half_multiplicity[..., -1] == 1.0)
        assert np.all(grid.half_multiplicity[..., 1:-1] == 2.0)


def _oracle_rhs(grid, fluid, p, momentum_source, heat_source):
    """Field-by-field assembly from the reference operators.

    Every product and quotient is dealiased on its own (a vector row by
    row); the stress divergence is mu*Lap u + (mu + lam)*grad div u.
    """
    rho, u, theta = fluid[0], fluid[1:-1], fluid[-1]
    d_rho = -div(grid, dealias(grid, rho * u))
    grad_p = grad(grid, dealias(grid, rho * theta))
    div_u = div(grid, u)
    grad_div_u = grad(grid, div_u)
    grads = [grad(grid, c) for c in u]  # grads[i][j] = d_j u_i
    n = len(u)
    strain_sq = np.zeros(grid.shape)
    for i in range(n):
        for j in range(n):
            d_ij = (grads[i][j] + grads[j][i]) * 0.5
            strain_sq = strain_sq + d_ij * d_ij
    dissipated = dealias(grid, strain_sq * (2.0 * p.mu) + div_u * div_u * p.lam)
    d_u = []
    for i in range(n):
        numer = laplacian(grid, u[i]) * p.mu + grad_div_u[i] * (p.mu + p.lam) - grad_p[i]
        if momentum_source is not None:
            numer = numer + momentum_source[i]
        d_u.append(dealias(grid, numer / rho) - dealias(grid, np.sum(u * grads[i], axis=0)))
    heat = laplacian(grid, theta) * p.kappa + dissipated + heat_source
    advection = np.sum(u * grad(grid, theta), axis=0)
    d_theta = dealias(grid, heat / rho) - dealias(grid, advection) - dealias(grid, theta * div_u)
    return stack(grid, d_rho, d_u, d_theta)


def _assert_rhs_close(got, want):
    for g, w in zip(got, want):
        scale = np.abs(w).max()
        assert np.abs(g - w).max() <= TOL * scale


def _wavy_fluid(grid, rng):
    rho = 1.0 + smooth_field(grid, rng)
    u = smooth_vector(grid, rng)
    theta = 1.0 + smooth_field(grid, rng)
    return stack(grid, rho, u, theta)


PARAMS = FluidParams(mu=0.05, lam=0.02, kappa=0.03)


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
class TestRhsAgainstOperatorAssembly:
    def test_eps_form(self, n_dims, n):
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(11)
        f = _wavy_fluid(grid, rng)
        i0 = 1.0 + smooth_field(grid, rng)
        i1 = smooth_vector(grid, rng)
        eps = 0.3
        theta = f[-1]
        want = _oracle_rhs(grid, f, PARAMS, i1 * eps, i0 - dealias(grid, theta**4))
        _assert_rhs_close(fluid_rhs(grid, f, PARAMS, rad=stack(grid, i0, i1), eps=eps), want)

    def test_limit_form(self, n_dims, n):
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(12)
        f = _wavy_fluid(grid, rng)
        want = _oracle_rhs(grid, f, PARAMS, None, -div(grid, limit_pair(grid, f[-1])[1]))
        _assert_rhs_close(fluid_rhs(grid, f, PARAMS), want)


@pytest.fixture
def fft_calls(monkeypatch):
    """Count calls of every numpy.fft transform entry point."""
    calls = Counter()
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                 "hfft", "ihfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _transform_counts(n_dims, forward, inverse):
    """numpy.fft calls of that many forward and inverse grid transforms:
    one-axis rfft (irfft) calls, and in 2D as many fft (ifft) calls
    along the other axis."""
    counts = Counter(rfft=forward, irfft=inverse)
    if n_dims == 2:
        counts.update(fft=forward, ifft=inverse)
    return +counts


@pytest.mark.parametrize("n_dims", [1, 2])
class TestTransformBudget:
    # Exact counts, so that per-field transforms cannot come back unseen.
    def _state(self, n_dims, members=1):
        """Fluid and moment values of one state, and its batch of members."""
        grid = Grid(n_dims, 16)
        rng = np.random.default_rng(21)
        fluid = _wavy_fluid(grid, rng)
        i0 = 1.0 + smooth_field(grid, rng)
        rad = stack(grid, i0, smooth_vector(grid, rng, amp=0.02))
        eps = (0.1, 0.05, 0.025, 0.0125)[:members]
        return grid, fluid, rad, eps_batch(grid, eps, [fluid] * members, [rad] * members)

    def _counts(self, n_dims, forward, inverse):
        return _transform_counts(n_dims, forward, inverse)

    def _rhs_calls(self, n_dims, fft_calls, coupled):
        """Transform calls of one kernel call on the state's spectrum."""
        grid, fluid, rad, _ = self._state(n_dims)
        y = fluid[:, None]
        y_hat = grid.forward(y)
        coupling = {}
        if coupled:
            coupling = {"rad": grid.forward(rad)[:, None], "eps": np.full((1,) * (n_dims + 1), 0.1)}
        fft_calls.clear()
        _rhs_common(grid, y, y_hat, PARAMS, **coupling)
        return fft_calls

    # The kernel takes the state's spectrum (and the moments' spectra)
    # and returns the spectrum of the tendency: products and quotients
    # forward, gradients and numerators inverse, for the eps and the
    # limit coupling alike.
    def test_fluid_rhs_eps(self, n_dims, fft_calls):
        assert self._rhs_calls(n_dims, fft_calls, coupled=True) == self._counts(n_dims, 2, 2)

    def test_fluid_rhs_limit(self, n_dims, fft_calls):
        assert self._rhs_calls(n_dims, fft_calls, coupled=False) == self._counts(n_dims, 2, 2)

    def test_batch(self, n_dims, fft_calls):
        # A batch built from values transforms them and their theta^4,
        # forward once each; it takes the moments as a half spectrum.
        grid, fluid, rad, _ = self._state(n_dims)
        rad_hat = grid.forward(rad)[:, None]
        fft_calls.clear()
        EpsBatch(grid, (0.1,), fluid[:, None], rad_hat, 0.0)
        assert fft_calls == self._counts(n_dims, 2, 0)

    def test_step_eps(self, n_dims, fft_calls):
        # Four right-hand sides (2 + 2 each), the values of three later
        # stages and of the result (one inverse each), and the closing
        # theta^4 (forward). The batch carries the fluid spectrum, the
        # theta^4 spectrum that opens the step and the moments as a half
        # spectrum, which the right-hand sides take as it is, so nothing
        # is transformed forward to start a stage or a substep and the
        # moments are never inverted; a step hands its closing theta^4
        # spectrum to the next one. The first step costs the same.
        _, _, _, batch = self._state(n_dims)
        fft_calls.clear()
        s = step_eps(batch, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8 + 1, 12)
        fft_calls.clear()
        step_eps(s, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8 + 1, 12)

    def test_step_limit(self, n_dims, fft_calls):
        # The limit system is the batch eps = 0: four right-hand sides
        # (2 + 2 each), four stage inverses and the closing theta^4
        # forward transform, whose closure the step carries as its
        # moments. The flux is formed inside each right-hand side, with no
        # transform of its own, and no half substep opens the step.
        grid, fluid, _, _ = self._state(n_dims)
        state = limit_state(grid, fluid)
        fft_calls.clear()
        state = step_eps(state, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8 + 1, 12)
        fft_calls.clear()
        step_eps(state, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8 + 1, 12)

    def test_limit_rhs_forward_batches(self, n_dims, monkeypatch):
        # Forward-transformed fields per limit right-hand side in a step:
        # the products rho*u, rho*theta, dissipation and theta^4, then
        # the n + 1 quotients; the step closes with the theta^4 of its
        # one member.
        grid, fluid, _, _ = self._state(n_dims)
        state = limit_state(grid, fluid)
        batch_sizes = []
        forward = np.fft.rfft

        def counted(a, *args, **kwargs):
            batch_sizes.append(a.shape[0])
            return forward(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        step_eps(state, PARAMS, 0.01)
        assert batch_sizes == [n_dims + 3, n_dims + 1] * 4 + [1]

    def test_limit_closure_residual(self, n_dims, fft_calls):
        # It takes the theta^4 spectrum and the flux rows the state carries.
        grid, fluid, _, _ = self._state(n_dims)
        state = limit_state(grid, fluid)
        fft_calls.clear()
        limit_closure_residual(grid, state.source[0], state.rad[1:, 0])
        assert fft_calls == self._counts(n_dims, 0, 0)

    @pytest.mark.parametrize(
        "mode,extra", [("simulate-limit", {}), ("convergence-study", {"eps_list": [0.1, 0.05, 0.025]})]
    )
    def test_run_samples_cost_no_transform(
        self, n_dims, mode, extra, fft_calls, monkeypatch, tmp_path
    ):
        # A parsed run transforms only in its steps (9 forward + 12
        # inverse per step_eps call) and in the right-hand-side check of
        # its limit initial state (two right-hand sides, 2 + 2 each): its
        # eleven output samples cost no transform.
        raw = {"grid": {"n_dims": n_dims, "points": 16}, "t_end": 0.05, "output_interval": 0.005}
        config = parse_config({**raw, **extra}, mode=mode)
        calls = []
        step = radhydro.stepping.step_eps

        def counted(*args):
            calls.append(None)
            return step(*args)

        monkeypatch.setattr(radhydro.stepping, "step_eps", counted)
        fft_calls.clear()
        run(config, out_dir=str(tmp_path))
        steps = len(calls)
        assert steps > 0
        assert fft_calls == self._counts(n_dims, 9 * steps + 4, 12 * steps + 4)

    @pytest.mark.parametrize("ordinates", [8, 512])
    def test_closure_check_costs_no_transform(self, n_dims, ordinates, fft_calls, tmp_path):
        # The parse builds the limit state, which carries the spectra of
        # the moments and of theta^4; the check takes them as they are.
        raw = {"grid": {"n_dims": n_dims, "points": 16}, "ordinates": ordinates}
        config = parse_config(raw, mode="closure-check")
        fft_calls.clear()
        summary = run(config, out_dir=str(tmp_path))
        assert summary.exit_status == 0
        assert fft_calls == self._counts(n_dims, 0, 0)

    @pytest.mark.parametrize("members", [1, 4])
    def test_lockstep_step(self, n_dims, members, fft_calls):
        # Four right-hand sides over all members (2 + 2 calls each), four
        # stage inverses and one theta^4 forward transform; the theta^4
        # spectrum of the step before is reused.
        batch = step_batch(self._state(n_dims, members)[-1], PARAMS, 0.01)
        fft_calls.clear()
        step_batch(batch, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8 + 1, 12)


FULL_COMPLEX = ("fft2", "ifft2", "fftn", "ifftn")


@pytest.fixture
def half_spectrum_only(monkeypatch):
    """Make every full-complex numpy.fft entry point raise, and fft and
    ifft unless they run along the first spatial axis of a 2D half
    spectrum (complex data of last axis N/2 + 1), which is the second
    half of a 2D grid transform."""
    for name in FULL_COMPLEX:

        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"numpy.fft.{_name} called")

        monkeypatch.setattr(np.fft, name, forbidden)
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def half_axis_only(a, *args, _original=original, _name=name, **kwargs):
            half = np.iscomplexobj(a) and a.ndim >= 2 and a.shape[-1] == a.shape[-2] // 2 + 1
            if not (half and kwargs.get("axis") == -2):
                raise AssertionError(f"numpy.fft.{_name} called on a full spectrum or real data")
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, half_axis_only)


@pytest.mark.parametrize("n_dims", [1, 2])
class TestNoFullComplexTransform:
    @pytest.mark.parametrize(
        "mode,extra",
        [
            ("convergence-study", {"t_end": 0.05, "output_interval": 0.025,
                                   "eps_list": [0.1, 0.05, 0.025]}),
            ("simulate-eps", {"t_end": 0.05, "output_interval": 0.025}),
            ("simulate-limit", {"t_end": 0.05, "output_interval": 0.025}),
            ("closure-check", {"ordinates": 8}),
        ],
    )
    def test_cli_mode(self, n_dims, mode, extra, tmp_path, half_spectrum_only):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"n_dims": n_dims, "points": 16}, **extra}))
        argv = [mode, "--config", str(config), "--out", str(tmp_path / "out"), "--no-strict"]
        assert cli.main(argv) == 0

    def test_public_operators(self, n_dims, half_spectrum_only):
        grid = Grid(n_dims, 16)
        rng = np.random.default_rng(31)
        f, v = 1.0 + smooth_field(grid, rng), smooth_vector(grid, rng)
        coefficients = grid.forward(f)
        assert _close(grid.inverse(coefficients), f)
        assert coefficients[(0,) * n_dims].real == pytest.approx(f.mean(), rel=TOL)
        for op in (laplacian, helmholtz_inverse, dealias):
            assert op(grid, f).shape == grid.shape
        assert div(grid, grad(grid, f)).shape == grid.shape
        assert dealias(grid, v).shape == v.shape
        assert sobolev_norm(grid, v, 0) > 0.0
        values = stack(grid, f, v)
        assert sobolev_squares(grid, grid.forward(values), (0, 2)).shape == (2, n_dims + 1)

        theta = f
        source = emission_spectrum(grid, theta)
        assert limit_closure_residual(grid, source, limit_spectrum(grid, theta)[1:]) < 1e-12
        assert emission_spectrum(grid, theta).shape == grid.half_shape
        assert limit_spectrum(grid, theta).shape == (1 + n_dims, *grid.half_shape)
        rad_hat = limit_spectrum(grid, theta)
        rad_values = grid.inverse(rad_hat)

        ords = make_ordinates(n_dims, 8)
        kin = (p1_basis(ords), rad_hat)
        assert kinetic_rhs(grid, ords, kin, source, 0.1, 1.0, 0.5).shape == rad_hat.shape
        assert moments(ords, kin).shape == (1 + n_dims, *grid.half_shape)
        assert p1_projection_residual(grid, ords, kin) < 1e-10
        residual, [(r0, r1)] = moment_system_check(grid, ords, kin, source, 0.1, [(1.0, 0.5)])
        assert residual < 1e-10 and max(r0, r1) < 1e-8

        fluid = stack(grid, f, v, f)
        assert fluid_rhs(grid, fluid, PARAMS, rad=rad_values, eps=0.1).shape == fluid.shape
        assert fluid_rhs(grid, fluid, PARAMS).shape == fluid.shape
        batch = step_eps(eps_batch(grid, (0.1,), [fluid], [rad_values]), PARAMS, 0.01)
        assert step_eps(batch, PARAMS, 0.01).fluid.shape == (n_dims + 2, 1, *grid.shape)
        limit = step_eps(limit_state(grid, fluid), PARAMS, 0.01)
        assert limit.fluid.shape == (n_dims + 2, 1, *grid.shape)


@pytest.mark.parametrize("n_dims,n", GRIDS)
def test_limit_q_matches_full_spectrum_formula(n_dims, n):
    grid = Grid(n_dims, n)
    theta = 1.0 + _random(grid, np.random.default_rng(13)) * 0.1
    i0 = _full_dealias(grid, _full(theta**4)) / (1.0 + _full_k_squared(grid))
    got = grid.inverse(limit_spectrum(grid, theta)[1:])  # the values of the limit flux
    assert got.shape == (n_dims, *grid.shape)
    for g, k in zip(got, _full_k(grid)):
        want = _full_values(-1j * k * i0)
        assert _close(g, want)
        assert _close(grid.forward(g), grid.forward(want))


@pytest.mark.parametrize("n_dims,n", GRIDS)
def test_in_kernel_limit_rhs_matches_limit_q_flux(n_dims, n):
    # The kernel without a coupling argument forms -div q0 of the limit
    # flux from its own theta^4 row; the field-by-field assembly takes
    # the values of the flux spectrum that limit_spectrum gives.
    grid = Grid(n_dims, n)
    f = _wavy_fluid(grid, np.random.default_rng(14))
    q = grid.inverse(limit_spectrum(grid, f[-1])[1:])
    want = _oracle_rhs(grid, f, PARAMS, None, -div(grid, q))
    _assert_rhs_close(fluid_rhs(grid, f, PARAMS), want)
