"""Half-spectrum (rfftn) operators and the array fluid kernel.

The package works on the rfftn half spectrum only. These tests hold its
operators and symbols against a test-local full-complex reference
(``numpy.fft.fftn`` with its own wavenumber meshes), the array
right-hand sides against an assembly from the public operators, and pin
the transform budget.
"""

import json
from collections import Counter

import numpy as np
import pytest

from radhydro import cli
from radhydro.fluid import FluidParams, _rhs_common
from radhydro.kinetic import (
    KineticField,
    kinetic_rhs,
    make_ordinates,
    moment_system_check,
    moments,
    p1_projection_residual,
)
from radhydro.radiation import (
    RadiationMoments,
    emission,
    emission_spectrum,
    limit_I0,
    limit_closure_residual,
    limit_q,
    limit_spectrum,
)
from radhydro.spectral import (
    Grid,
    SpectralField,
    VectorField,
    dealias,
    div,
    grad,
    helmholtz_inverse,
    laplacian,
    sobolev_norm,
    sobolev_squares,
)
from radhydro.stepping import step_batch, step_eps, step_limit

from conftest import (
    eps_batch,
    fields,
    fluid_rhs,
    l2_inner,
    limit_state,
    smooth_field,
    smooth_vector,
    stack,
)

GRIDS = [(n_dims, n) for n_dims in (1, 2) for n in (8, 64, 128)]
TOL = 1e-12


def _random(grid, rng):
    """White-noise real field: every mode populated, Nyquist included."""
    return SpectralField.from_values(grid, rng.standard_normal(grid.shape))


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
        half = grid.forward(f.values)
        assert half.shape == f.coefficients.shape == grid.half_shape
        assert _close(half, _half(grid, _full(f.values)))
        assert _close(f.coefficients, half)
        assert _close(grid.inverse(half), f.values)

    def test_grad(self, n_dims, n):
        # The full-spectrum gradient keeps an odd Nyquist part, which
        # taking the real part of its values drops; the half symbol is
        # zero there, so the values agree.
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(2))
        c = _full(f.values)
        got = grid.inverse(grid.half_ik * grid.forward(f.values))
        for j, (k, comp) in enumerate(zip(_full_k(grid), grad(f))):
            want = _full_values(1j * k * c)
            assert _close(got[j], want), j
            assert _close(comp.values, want), j

    def test_div(self, n_dims, n):
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(3)
        v = VectorField([_random(grid, rng) for _ in range(n_dims)])
        stack = np.stack([c.values for c in v])
        want = _full_values(sum(1j * k * _full(c) for k, c in zip(_full_k(grid), stack)))
        got = grid.inverse(np.sum(grid.half_ik * grid.forward(stack), axis=0))
        assert _close(got, want)
        assert _close(div(v).values, want)

    def test_laplacian(self, n_dims, n):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(4))
        want = -_full_k_squared(grid) * _full(f.values)
        half = -grid.half_k_squared * grid.forward(f.values)
        assert _close(half, _half(grid, want))
        assert _close(laplacian(f).coefficients, _half(grid, want))
        assert _close(laplacian(f).values, _full_values(want))

    def test_helmholtz_inverse(self, n_dims, n):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(5))
        want = _full(f.values) / (1.0 + _full_k_squared(grid))
        half = grid.half_helmholtz * grid.forward(f.values)
        assert _close(half, _half(grid, want))
        assert _close(helmholtz_inverse(f).coefficients, _half(grid, want))
        assert _close(helmholtz_inverse(f).values, _full_values(want))

    def test_dealias_mask(self, n_dims, n):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(6))
        want = _full_dealias(grid, _full(f.values))
        half = grid.half_dealias_mask * grid.forward(f.values)
        assert _close(half, _half(grid, want))
        assert _close(dealias(f).coefficients, _half(grid, want))
        assert _close(dealias(f).values, _full_values(want))

    @pytest.mark.parametrize("s", [0, 1, 4])
    def test_sobolev_norm_matches_full_sum(self, n_dims, n, s):
        grid = Grid(n_dims, n)
        f = _random(grid, np.random.default_rng(7))
        weight = (1.0 + _full_k_squared(grid)) ** s
        full = np.sqrt(np.sum(weight * np.abs(_full(f.values)) ** 2) * grid.volume)
        assert sobolev_norm(f, s) == pytest.approx(full, rel=TOL)

    def test_hermitian_multiplicity(self, n_dims, n):
        # Parseval on the half spectrum: interior last-axis columns stand
        # for two modes, the k_last = 0 and Nyquist columns for one.
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(8)
        f, g = _random(grid, rng), _random(grid, rng)
        half = grid.forward(f.values)
        weighted = np.sum(grid.half_multiplicity * np.abs(half) ** 2)
        assert weighted == pytest.approx(np.sum(np.abs(_full(f.values)) ** 2), rel=TOL)
        inner = np.sum(np.conj(_full(f.values)) * _full(g.values)).real * grid.volume
        assert l2_inner(f, g) == pytest.approx(inner, rel=TOL)
        assert np.all(grid.half_multiplicity[..., 0] == 1.0)
        assert np.all(grid.half_multiplicity[..., -1] == 1.0)
        assert np.all(grid.half_multiplicity[..., 1:-1] == 2.0)


def _dot(a, b):
    """Pointwise scalar product of two vector fields (not dealiased)."""
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out = out + x * y
    return out


def _oracle_rhs(grid, fluid, p, momentum_source, heat_source):
    """Field-by-field assembly from the public operators.

    Every product and quotient is dealiased on its own; the stress
    divergence is mu*Lap u + (mu + lam)*grad div u.
    """
    rho, u, theta = fields(grid, fluid)
    d_rho = -div(VectorField([dealias(rho * c) for c in u]))
    grad_p = grad(dealias(rho * theta))
    div_u = div(u)
    grad_div_u = grad(div_u)
    grads = [grad(c) for c in u]  # grads[i][j] = d_j u_i
    n = len(u)
    strain_sq = SpectralField.zeros(grid)
    for i in range(n):
        for j in range(n):
            d_ij = (grads[i][j] + grads[j][i]) * 0.5
            strain_sq = strain_sq + d_ij * d_ij
    dissipated = dealias(strain_sq * (2.0 * p.mu) + div_u * div_u * p.lam)
    d_u = []
    for i in range(n):
        numer = laplacian(u[i]) * p.mu + grad_div_u[i] * (p.mu + p.lam) - grad_p[i]
        if momentum_source is not None:
            numer = numer + momentum_source[i]
        d_u.append(dealias(numer / rho) - dealias(_dot(u, grads[i])))
    heat = laplacian(theta) * p.kappa + dissipated + heat_source
    d_theta = dealias(heat / rho) - dealias(_dot(u, grad(theta))) - dealias(theta * div_u)
    return stack(grid, d_rho, VectorField(d_u), d_theta)


def _assert_rhs_close(got, want):
    for g, w in zip(got, want):
        scale = np.abs(w).max()
        assert np.abs(g - w).max() <= TOL * scale


def _wavy_fluid(grid, rng):
    one = SpectralField.constant(grid, 1.0)
    rho = one + smooth_field(grid, rng)
    u = smooth_vector(grid, rng)
    theta = one + smooth_field(grid, rng)
    return stack(grid, rho, u, theta)


PARAMS = FluidParams(mu=0.05, lam=0.02, kappa=0.03)


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
class TestRhsAgainstOperatorAssembly:
    def test_eps_form(self, n_dims, n):
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(11)
        f = _wavy_fluid(grid, rng)
        i0 = SpectralField.constant(grid, 1.0) + smooth_field(grid, rng)
        i1 = smooth_vector(grid, rng)
        eps = 0.3
        theta = fields(grid, f)[-1]
        want = _oracle_rhs(grid, f, PARAMS, i1 * eps, i0 - dealias(theta**4))
        _assert_rhs_close(fluid_rhs(grid, f, PARAMS, rad=stack(grid, i0, i1), eps=eps), want)

    def test_limit_form(self, n_dims, n):
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(12)
        f = _wavy_fluid(grid, rng)
        theta = fields(grid, f)[-1]
        want = _oracle_rhs(grid, f, PARAMS, None, -div(limit_q(theta)))
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


def _transform_names(n_dims):
    """numpy.fft names of the forward and inverse grid transforms: the
    one-axis calls in 1D, the n-axis ones in 2D."""
    return ("rfft", "irfft") if n_dims == 1 else ("rfftn", "irfftn")


@pytest.mark.parametrize("n_dims", [1, 2])
class TestTransformBudget:
    # Exact counts, so that per-field transforms cannot come back unseen.
    def _state(self, n_dims, members=1):
        """Fluid and moment values of one state, and its batch of members."""
        grid = Grid(n_dims, 16)
        rng = np.random.default_rng(21)
        fluid = _wavy_fluid(grid, rng)
        i0 = SpectralField.constant(grid, 1.0) + smooth_field(grid, rng)
        rad = stack(grid, i0, smooth_vector(grid, rng, amp=0.02))
        eps = (0.1, 0.05, 0.025, 0.0125)[:members]
        return grid, fluid, rad, eps_batch(grid, eps, [fluid] * members, [rad] * members)

    def _counts(self, n_dims, forward, inverse):
        names = _transform_names(n_dims)
        return Counter({names[0]: forward, names[1]: inverse})

    def _rhs_calls(self, n_dims, fft_calls, coupled):
        """Transform calls of one kernel call on the state's spectrum."""
        grid, fluid, rad, _ = self._state(n_dims)
        y = fluid[:, None]
        y_hat = grid.forward(y)
        coupling = {}
        if coupled:
            coupling = {"rad": rad[:, None], "eps": np.full((1,) * (n_dims + 1), 0.1)}
        fft_calls.clear()
        _rhs_common(grid, y, y_hat, PARAMS, **coupling)
        return fft_calls

    # The kernel takes the state's spectrum and returns the spectrum of
    # the tendency: products and quotients forward, gradients and
    # numerators inverse, for the eps and the limit coupling alike.
    def test_fluid_rhs_eps(self, n_dims, fft_calls):
        assert self._rhs_calls(n_dims, fft_calls, coupled=True) == self._counts(n_dims, 2, 2)

    def test_fluid_rhs_limit(self, n_dims, fft_calls):
        assert self._rhs_calls(n_dims, fft_calls, coupled=False) == self._counts(n_dims, 2, 2)

    def test_step_eps(self, n_dims, fft_calls):
        # Four right-hand sides (2 + 2 each), the values of three later
        # stages and of the result (one inverse each), and two half
        # substeps (theta^4 forward and moments inverse each). The batch
        # carries the fluid spectrum and holds the moments as a half
        # spectrum, so nothing is transformed forward to start a stage
        # or a substep, and a step hands its closing theta^4 spectrum to
        # the next one.
        _, _, _, batch = self._state(n_dims)
        fft_calls.clear()
        s = step_eps(batch, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8 + 2, 12 + 1)
        fft_calls.clear()
        step_eps(s, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8 + 1, 12 + 1)

    def test_step_limit(self, n_dims, fft_calls):
        # Four right-hand sides (2 + 2 each) and four stage inverses; the
        # flux is formed inside each right-hand side, with no transform
        # of its own.
        grid, fluid, _, _ = self._state(n_dims)
        state = limit_state(grid, fluid)
        fft_calls.clear()
        step_limit(state, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8, 12)

    def test_limit_rhs_forward_batches(self, n_dims, monkeypatch):
        # Forward-transformed fields per limit right-hand side in a step:
        # the products rho*u, rho*theta, dissipation and theta^4, then
        # the n + 1 quotients.
        grid, fluid, _, _ = self._state(n_dims)
        state = limit_state(grid, fluid)
        batch_sizes = []
        name = _transform_names(n_dims)[0]
        forward = getattr(np.fft, name)

        def counted(a, *args, **kwargs):
            batch_sizes.append(a.shape[0])
            return forward(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
        step_limit(state, PARAMS, 0.01)
        assert batch_sizes == [n_dims + 3, n_dims + 1] * 4

    def test_limit_closure_residual(self, n_dims, fft_calls):
        # theta^4 and the flux values in one forward batch, no inverse.
        grid, fluid, rad, _ = self._state(n_dims)
        theta, (_, q) = fields(grid, fluid)[-1], fields(grid, rad)
        fft_calls.clear()
        limit_closure_residual(theta, q)
        assert fft_calls == Counter({_transform_names(n_dims)[0]: 1})

    @pytest.mark.parametrize("members", [1, 4])
    def test_lockstep_step(self, n_dims, members, fft_calls):
        # Four right-hand sides over all members (2 + 2 calls each), four
        # stage inverses, one inverse of the half-substepped moments and
        # one theta^4 forward transform; the theta^4 spectrum of the step
        # before is reused.
        batch = step_batch(self._state(n_dims, members)[-1], PARAMS, 0.01)
        fft_calls.clear()
        step_batch(batch, PARAMS, 0.01)
        assert fft_calls == self._counts(n_dims, 8 + 1, 12 + 1)


FULL_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")


@pytest.fixture
def half_spectrum_only(monkeypatch):
    """Make every full-complex numpy.fft entry point raise."""
    for name in FULL_COMPLEX:

        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"numpy.fft.{_name} called")

        monkeypatch.setattr(np.fft, name, forbidden)


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
    def test_cli_mode(self, n_dims, mode, extra, tmp_path, monkeypatch, half_spectrum_only):
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"n_dims": n_dims, "points": 16}, **extra}))
        argv = [mode, "--config", str(config), "--out", str(tmp_path / "out"), "--no-strict"]
        assert cli.main(argv) == 0

    def test_public_operators(self, n_dims, half_spectrum_only):
        grid = Grid(n_dims, 16)
        rng = np.random.default_rng(31)
        one = SpectralField.constant(grid, 1.0)
        f, v = one + smooth_field(grid, rng), smooth_vector(grid, rng)
        back = SpectralField.from_coefficients(grid, f.coefficients)
        assert _close(back.values, f.values)
        assert f.mean == pytest.approx(f.values.mean(), rel=TOL)
        for op in (laplacian, helmholtz_inverse, dealias):
            assert op(f).values.shape == grid.shape
        assert div(grad(f)).values.shape == grid.shape
        assert dealias(v)[0].values.shape == grid.shape
        assert sobolev_norm(v, 0) > 0.0
        values = stack(grid, f, v)
        assert sobolev_squares(grid, grid.forward(values), (0, 2)).shape == (2, n_dims + 1)

        rad = RadiationMoments(I0=limit_I0(f), I1=limit_q(f))
        assert limit_closure_residual(f, rad.I1) < 1e-12
        assert emission(f).values.shape == grid.shape
        assert emission_spectrum(grid, f.values).shape == grid.half_shape
        assert limit_spectrum(grid, f.values).shape == (1 + n_dims, *grid.half_shape)

        ords = make_ordinates(n_dims, 8)
        kin = KineticField.from_p1(rad, ords)
        assert kinetic_rhs(kin, f, 0.1, 1.0, 0.5).intensity.shape == kin.intensity.shape
        assert moments(kin, ords).I0.values.shape == grid.shape
        assert p1_projection_residual(kin, ords) < 1e-10
        residual, [(r0, r1)] = moment_system_check(kin, f, 0.1, [(1.0, 0.5)])
        assert residual < 1e-10 and max(r0, r1) < 1e-8

        fluid = stack(grid, f, v, f)
        rad_values = stack(grid, rad.I0, rad.I1)
        assert fluid_rhs(grid, fluid, PARAMS, rad=rad_values, eps=0.1).shape == fluid.shape
        assert fluid_rhs(grid, fluid, PARAMS).shape == fluid.shape
        batch = step_eps(eps_batch(grid, (0.1,), [fluid], [rad_values]), PARAMS, 0.01)
        assert step_eps(batch, PARAMS, 0.01).fluid.shape == (n_dims + 2, 1, *grid.shape)
        assert step_limit(limit_state(grid, fluid), PARAMS, 0.01).fluid.shape == fluid.shape


@pytest.mark.parametrize("n_dims,n", GRIDS)
def test_limit_q_matches_full_spectrum_formula(n_dims, n):
    grid = Grid(n_dims, n)
    theta = SpectralField.constant(grid, 1.0) + _random(grid, np.random.default_rng(13)) * 0.1
    i0 = _full_dealias(grid, _full(theta.values**4)) / (1.0 + _full_k_squared(grid))
    got = limit_q(theta)
    for g, k in zip(got, _full_k(grid)):
        want = _full_values(-1j * k * i0)
        assert _close(g.values, want)
        assert _close(g.coefficients, grid.forward(want))


@pytest.mark.parametrize("n_dims,n", GRIDS)
def test_in_kernel_limit_rhs_matches_limit_q_flux(n_dims, n):
    # The kernel without a coupling argument forms -div q0 of the limit
    # flux from its own theta^4 row; the field-by-field assembly takes
    # limit_q's flux.
    grid = Grid(n_dims, n)
    f = _wavy_fluid(grid, np.random.default_rng(14))
    want = _oracle_rhs(grid, f, PARAMS, None, -div(limit_q(fields(grid, f)[-1])))
    _assert_rhs_close(fluid_rhs(grid, f, PARAMS), want)
