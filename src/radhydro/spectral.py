"""Periodic-grid fields and Fourier-space operators.

Everything in the solver lives on the torus [0, 2pi)^n with n = 1 or 2, so
wavenumbers are integers and differential operators are exact mode-wise
multiplications:

- ``grad``/``div``: multiplication by i*k_j
- ``laplacian``: multiplication by -|k|^2
- ``helmholtz_inverse``: multiplication by 1/(1 + |k|^2), the exact inverse
  of (I - Laplacian) on the grid
- ``sobolev_norm``: Parseval-exact H^s norm with the (2pi)^n measure
  (``sobolev_squares`` gives the squares of a whole stack of half spectra)
- ``dealias``: 2/3-rule truncation applied after nonlinear products

The coefficient layout is the rfftn half spectrum, the only one in the
package. ``Grid.forward`` transforms the trailing spatial axes, so a
stack of shape ``(m, *grid.shape)`` becomes ``(m, *grid.half_shape)``
with the last axis holding only the wavenumbers 0..N/2; the negative
last-axis wavenumbers are implied by Hermitian symmetry,
c(-k) = conj(c(k)). ``Grid.inverse`` maps back. The calls match the
rank: ``numpy.fft.rfft``/``irfft`` in 1D, ``rfftn``/``irfftn`` in 2D.
In 1D the two give the same bits, but the one-axis call skips the n-d
wrapper, which costs more than the transform on small grids (a forward
transform of a (5, 4, 64) stack takes 6.4 us against 10.5 us, numpy 2.4
on a 2-core Xeon virtual machine). The leading axes batch many fields
into one transform call. The forward transform divides by the total
point count, so the k = 0 coefficient of a field equals its mean and
symbols read off directly.
``SpectralField.coefficients`` is the half spectrum of one field. Fields
are immutable: every operation returns a new field, and value /
coefficient arrays are marked read-only so they can be shared freely.

The symbols are cached lazily on the grid:

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

__all__ = [
    "Grid",
    "SpectralField",
    "VectorField",
    "grad",
    "div",
    "laplacian",
    "helmholtz_inverse",
    "sobolev_norm",
    "sobolev_squares",
    "dealias",
]

MAX_SOBOLEV_INDEX = 6


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
    def cell_volume(self) -> float:
        """Measure of one grid cell, h^n."""
        return self.spacing**self.n_dims

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
        if self.n_dims == 1:
            return np.fft.rfft(values, norm="forward")
        return np.fft.rfftn(values, axes=self.axes, norm="forward")

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        """Real fields of a stack of half-spectrum coefficients."""
        if self.n_dims == 1:
            return np.fft.irfft(coefficients, n=self.points_per_dim, norm="forward")
        return np.fft.irfftn(coefficients, s=self.shape, axes=self.axes, norm="forward")

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


class SpectralField:
    """Real scalar field with lazily synchronized Fourier coefficients.

    Construct with :meth:`from_values` (physical samples) or
    :meth:`from_coefficients` (Fourier modes). The other representation is
    computed on first access and cached; instances are immutable.
    """

    __slots__ = ("grid", "_values", "_coefficients")

    def __init__(self, grid: Grid, values=None, coefficients=None):
        if (values is None) == (coefficients is None):
            raise ValueError("provide exactly one of values or coefficients")
        self.grid = grid
        self._values = values
        self._coefficients = coefficients

    @classmethod
    def from_values(cls, grid: Grid, values) -> "SpectralField":
        arr = np.array(values, dtype=float)
        if arr.shape != grid.shape:
            raise ValueError(f"values shape {arr.shape} != grid shape {grid.shape}")
        return cls(grid, values=_read_only(arr))

    @classmethod
    def from_coefficients(cls, grid: Grid, coefficients) -> "SpectralField":
        arr = np.array(coefficients, dtype=complex)
        if arr.shape != grid.half_shape:
            raise ValueError(
                f"coefficients shape {arr.shape} != half-spectrum shape {grid.half_shape}"
            )
        return cls(grid, coefficients=_read_only(arr))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "SpectralField":
        return cls.from_values(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls.constant(grid, 0.0)

    @property
    def values(self) -> np.ndarray:
        """Physical-space samples (read-only array)."""
        if self._values is None:
            self._values = _read_only(self.grid.inverse(self._coefficients))
        return self._values

    @property
    def coefficients(self) -> np.ndarray:
        """Half-spectrum (rfftn) coefficients, shape ``grid.half_shape``;
        the k = 0 entry is the field mean."""
        if self._coefficients is None:
            self._coefficients = _read_only(self.grid.forward(self._values))
        return self._coefficients

    @property
    def mean(self) -> float:
        return float(self.coefficients[(0,) * self.grid.n_dims].real)

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    # Pointwise arithmetic. Linear combinations are alias-free; nonlinear
    # products must be followed by dealias() at the call site.
    def _coerce(self, other):
        if isinstance(other, SpectralField):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return other.values
        if np.isscalar(other):
            return other
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return SpectralField.from_values(self.grid, self.values + rhs)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return SpectralField.from_values(self.grid, self.values - rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return SpectralField.from_values(self.grid, rhs - self.values)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return SpectralField.from_values(self.grid, self.values * rhs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return SpectralField.from_values(self.grid, self.values / rhs)

    def __neg__(self):
        return SpectralField.from_values(self.grid, -self.values)

    def __pow__(self, exponent: int):
        return SpectralField.from_values(self.grid, self.values**exponent)

    def __repr__(self):
        return f"SpectralField(n_dims={self.grid.n_dims}, N={self.grid.points_per_dim})"


class VectorField:
    """Tuple of scalar fields sharing one grid; one entry per dimension."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("vector field needs at least one component")
        grid = comps[0].grid
        if any(c.grid != grid for c in comps):
            raise ValueError("components live on different grids")
        if len(comps) != grid.n_dims:
            raise ValueError(
                f"expected {grid.n_dims} components, got {len(comps)}"
            )
        self.components = comps

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls([SpectralField.zeros(grid) for _ in range(grid.n_dims)])

    @property
    def grid(self) -> Grid:
        return self.components[0].grid

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i) -> SpectralField:
        return self.components[i]

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return VectorField([c * scalar for c in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return VectorField([-c for c in self.components])


def grad(f: SpectralField) -> VectorField:
    """Spectral gradient: component j has coefficients i*k_j*fhat(k)."""
    g = f.grid
    return VectorField(
        [SpectralField.from_coefficients(g, c) for c in g.half_ik * f.coefficients]
    )


def div(v: VectorField) -> SpectralField:
    """Spectral divergence: coefficients sum_j i*k_j*vhat_j(k)."""
    g = v.grid
    out = sum(ik * comp.coefficients for ik, comp in zip(g.half_ik, v.components))
    return SpectralField.from_coefficients(g, out)


def laplacian(f: SpectralField) -> SpectralField:
    """Spectral Laplacian: coefficients -|k|^2 * fhat(k)."""
    g = f.grid
    return SpectralField.from_coefficients(g, -g.half_k_squared * f.coefficients)


def helmholtz_inverse(f: SpectralField) -> SpectralField:
    """Exact inverse of (I - Laplacian): coefficients fhat(k)/(1 + |k|^2)."""
    g = f.grid
    return SpectralField.from_coefficients(g, g.half_helmholtz * f.coefficients)


def dealias(x):
    """Zero all modes with any |k_j| > N/3 (2/3 rule). Idempotent.

    Accepts a scalar or vector field and returns the same kind.
    """
    if isinstance(x, VectorField):
        return VectorField([dealias(c) for c in x.components])
    mask = x.grid.half_dealias_mask
    return SpectralField.from_coefficients(x.grid, np.where(mask, x.coefficients, 0.0))


def sobolev_norm(x, s: int) -> float:
    """H^s norm: (sum_k (1+|k|^2)^s |fhat(k)|^2 (2pi)^n)^(1/2).

    For s = 0 this is the L^2 norm. Vector fields sum component squares.
    The sum runs over the half spectrum with Hermitian weights
    (``Grid.half_multiplicity``).

    Args:
        x: SpectralField or VectorField.
        s: Integer Sobolev index, 0 <= s <= 6. Grid resolution at desk
           scale cannot support meaningful higher indices.
    """
    if not isinstance(s, (int, np.integer)) or s < 0 or s > MAX_SOBOLEV_INDEX:
        raise ValueError(f"Sobolev index must be an integer in [0, {MAX_SOBOLEV_INDEX}]")
    if isinstance(x, VectorField):
        return float(np.sqrt(sum(sobolev_norm(c, s) ** 2 for c in x.components)))
    return float(np.sqrt(sobolev_squares(x.grid, x.coefficients, (s,))[0]))


def sobolev_squares(grid: Grid, coeffs: np.ndarray, indices) -> np.ndarray:
    """Squared H^s norms of a stack of half spectra, at every s in indices.

    coeffs is (..., *grid.half_shape) rfftn coefficients; the result is
    (len(indices), ...). Each entry is the power sum over the half
    spectrum weighted by the Hermitian multiplicity and (1 + |k|^2)^s,
    times the (2pi)^n measure.
    """
    power = np.square(coeffs.real)
    power += np.square(coeffs.imag)
    power = power.reshape(*power.shape[: power.ndim - grid.n_dims], -1)
    out = np.empty((len(indices), *power.shape[:-1]))
    for i, s in enumerate(indices):
        weight = grid.half_multiplicity * (1.0 + grid.half_k_squared) ** s
        out[i] = power @ weight.ravel() * grid.volume
    return out
