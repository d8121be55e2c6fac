"""Periodic grid, its transforms, Fourier symbols and Sobolev norms.

Everything in the solver lives on the torus [0, 2pi)^n with n = 1 or 2, so
wavenumbers are integers and differential operators are exact mode-wise
multiplications by the symbols ``Grid`` caches: the gradient by i*k_j,
the Laplacian by -|k|^2, the exact inverse of (I - Laplacian) by
1/(1 + |k|^2), and the 2/3-rule dealiasing after nonlinear products by
a keep-mask. ``sobolev_squares`` gives the Parseval-exact squared H^s
norms, with the (2pi)^n measure, of a whole stack of half spectra.

The coefficient layout is the rfftn half spectrum, the only one in the
package. ``Grid.forward`` transforms the trailing spatial axes, so a
stack of shape ``(m, *grid.shape)`` becomes ``(m, *grid.half_shape)``
with the last axis holding only the wavenumbers 0..N/2; the negative
last-axis wavenumbers are implied by Hermitian symmetry,
c(-k) = conj(c(k)). ``Grid.inverse`` maps back. Both ranks share one
code path of one-axis calls: ``numpy.fft.rfft`` along the last axis,
followed in 2D by ``fft`` along the first spatial axis, and for the
inverse ``ifft`` along that axis, then ``irfft``. These are the calls
``rfftn``/``irfftn`` make, so the bits are the same, but the n-d
wrapper (its argument handling, ``_cook_nd_args``) is skipped, which
costs more than the transform on small grids: a forward transform of a
(5, 4, 64) stack takes 6.4 us against 10.5 us, and the wrapper took
0.07-0.08 s of a 1.2-1.4 s 2D/64 eps sweep (numpy 2.4 on a 2-core Xeon
virtual machine). The leading axes batch many fields into one transform
call, with the same bits as one field per call. The forward transform
divides by the total point count, so the k = 0 coefficient of a field
equals its mean and symbols read off directly. The kinetic closure
check's intensities hold half spectra too, so the check transforms
nothing.

Every field is such an array: values of shape (..., *grid.shape), a
vector field stacking its n components on one axis. The symbols are
cached lazily on the grid and marked read-only, so they can be shared
freely:

- ``half_ik``: i*k_j with every entry where |k_j| = N/2 set to zero. The
  Nyquist mode of a real field cannot carry an odd symbol (k and -k are
  the same mode there), so a real field's derivative has no Nyquist part.
- ``half_k_squared``, ``half_helmholtz`` (1/(1 + |k|^2)), ``half_k_abs``
  and ``half_k_unit`` (k/|k|, zero at k = 0) are even in k and keep the
  Nyquist entries.
- ``half_dealias_mask``: the 2/3 rule.
- ``half_multiplicity``: each half-spectrum entry stands for 2 modes of
  the full spectrum, except the k_last = 0 and k_last = N/2 columns, which
  stand for 1; Parseval sums over the half spectrum use these weights.

Transforms are called as ``np.fft.<name>`` at call time (never through
stored references) so that instrumentation that patches ``numpy.fft`` sees
every call. ``scipy.fft`` is deliberately not used: it would be faster per
call, but importing it costs about 0.4 s (scipy 1.17 on a 2-core Xeon
virtual machine), which every run would pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid", "sobolev_squares"]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, 2pi)^n.

    Attributes:
        n_dims: Spatial dimension, 1 or 2.
        points_per_dim: Points along each axis; a power of two, at least 8.
    """

    n_dims: int
    points_per_dim: int

    def __post_init__(self):
        if self.n_dims not in (1, 2):
            raise ValueError(f"n_dims must be 1 or 2, got {self.n_dims}")
        n = self.points_per_dim
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(
                f"points_per_dim must be a power of two >= 8, got {n}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.n_dims

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2pi / points_per_dim."""
        return 2.0 * np.pi / self.points_per_dim

    @property
    def volume(self) -> float:
        """Measure of the torus, (2pi)^n."""
        return (2.0 * np.pi) ** self.n_dims

    def coordinates(self) -> list[np.ndarray]:
        """Node coordinates, one full-shape array per axis."""
        x = np.arange(self.points_per_dim) * self.spacing
        axes = np.meshgrid(*([x] * self.n_dims), indexing="ij")
        return list(axes)

    @property
    def axes(self) -> tuple[int, ...]:
        """Trailing spatial axes of a field stack of shape (m, *shape)."""
        return tuple(range(-self.n_dims, 0))

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of the rfftn half spectrum of one field."""
        n = self.points_per_dim
        return (n,) * (self.n_dims - 1) + (n // 2 + 1,)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of a stack of real fields.

        Transforms the trailing n_dims axes; leading axes are a batch.
        """
        out = np.fft.rfft(values, norm="forward")
        if self.n_dims == 2:
            out = np.fft.fft(out, axis=-2, norm="forward")
        return out

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        """Real fields of a stack of half-spectrum coefficients."""
        if self.n_dims == 2:
            coefficients = np.fft.ifft(coefficients, axis=-2, norm="forward")
        return np.fft.irfft(coefficients, n=self.points_per_dim, norm="forward")

    @cached_property
    def half_wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers of the half spectrum, shape (n, *half_shape)."""
        n = self.points_per_dim
        k = np.fft.fftfreq(n, d=1.0 / n)
        k_last = np.arange(n // 2 + 1, dtype=float)
        meshes = np.meshgrid(*([k] * (self.n_dims - 1) + [k_last]), indexing="ij")
        return _read_only(np.stack(meshes))

    @cached_property
    def half_ik(self) -> np.ndarray:
        """Gradient symbol i*k_j, zero where |k_j| = N/2; shape (n, *half_shape)."""
        k = self.half_wavenumbers
        nyquist = np.abs(k) == self.points_per_dim // 2
        return _read_only(np.where(nyquist, 0.0, 1j * k))

    @cached_property
    def half_k_squared(self) -> np.ndarray:
        return _read_only(np.sum(self.half_wavenumbers**2, axis=0))

    @cached_property
    def half_helmholtz(self) -> np.ndarray:
        """Symbol 1/(1 + |k|^2) of the Helmholtz inverse."""
        return _read_only(1.0 / (1.0 + self.half_k_squared))

    @cached_property
    def half_k_abs(self) -> np.ndarray:
        return _read_only(np.sqrt(self.half_k_squared))

    @cached_property
    def half_k_unit(self) -> np.ndarray:
        """Unit wavevector k/|k| (zero at k = 0); shape (n, *half_shape)."""
        k_abs = self.half_k_abs
        safe = np.where(k_abs > 0.0, k_abs, 1.0)
        return _read_only(np.where(k_abs > 0.0, self.half_wavenumbers / safe, 0.0))

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        """2/3-rule keep-mask on the half spectrum."""
        keep = np.all(np.abs(self.half_wavenumbers) <= self.points_per_dim / 3.0, axis=0)
        return _read_only(keep)

    @cached_property
    def half_multiplicity(self) -> np.ndarray:
        """Full-spectrum modes per half-spectrum entry: 1 on the k_last = 0
        and Nyquist columns, 2 elsewhere."""
        weight = np.full(self.half_shape, 2.0)
        weight[..., 0] = 1.0
        weight[..., -1] = 1.0
        return _read_only(weight)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def sobolev_squares(grid: Grid, coeffs: np.ndarray, indices) -> np.ndarray:
    """Squared H^s norms of a stack of half spectra, at every s in indices.

    coeffs is (..., *grid.half_shape) rfftn coefficients; the result is
    (len(indices), ...). Each entry is the power sum over the half
    spectrum weighted by the Hermitian multiplicity and (1 + |k|^2)^s,
    times the (2pi)^n measure.
    """
    power = np.square(coeffs.real)
    power += np.square(coeffs.imag)
    power = power.reshape(*power.shape[: power.ndim - grid.n_dims], grid.half_multiplicity.size)
    out = np.empty((len(indices), *power.shape[:-1]))
    for i, s in enumerate(indices):
        weight = grid.half_multiplicity * (1.0 + grid.half_k_squared) ** s
        out[i] = power @ weight.ravel() * grid.volume
    return out
