"""Periodic grids, spectral fields, and FFT calculus on the d-dimensional torus.

Everything downstream (Fourier multipliers, the EPDiff integrator, the
diffeomorphism charts) is built on the primitives in this module: the uniform
lattice on ``[0, L)^d``, forward/inverse discrete Fourier transforms, exact
spectral differentiation, and alias-free pointwise products.

Conventions
-----------
Fields are real in physical space and stored as complex Fourier coefficients.
The coefficient at integer wavenumber ``k`` approximates the continuous
transform over the fundamental domain,

    coeff(k) = integral over [0,L)^d of f(x) exp(-2*pi*i k.x/L) dx,

so a field reconstructs as ``f(x) = L^{-d} sum_k coeff(k) exp(2*pi*i k.x/L)``.
With this normalization differentiation along axis ``j`` multiplies by
``2*pi*i*k_j/L`` (verified against analytic harmonics in the test suite) and
Parseval reads ``(L/n)^d sum_x |f|^2 = L^{-d} sum_k |coeff|^2``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np


class GridMismatchError(ValueError):
    """Two fields living on different grids were combined."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform lattice on the torus ``(R/LZ)^d``.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    n : int
        Points per axis; a power of two, at least 8.
    length : float
        Side length ``L`` of the periodic box (same along every axis).
    """

    dim: int
    n: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Sample points ``x_j = j*L/n``, shape ``(dim, n, ..., n)``."""
        axes = [np.arange(self.n) * self.spacing for _ in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in FFT order, shape ``(dim, n, ..., n)``."""
        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        axes = [k1 for _ in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Continuous frequencies ``xi = k/L``, shape ``(dim, n, ..., n)``."""
        return self.wavenumbers / self.length

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True where any wavenumber component equals ``-n/2``."""
        return np.any(self.wavenumbers == -(self.n // 2), axis=0)

    @cached_property
    def derivative_factors(self) -> np.ndarray:
        """Symbols ``2*pi*i*k_j/L`` of ``d/dx_j``, shape ``(dim, n, ..., n)``.

        Nyquist modes are zeroed: their odd derivative is not representable.
        """
        factors = 2j * np.pi * self.wavenumbers / self.length
        return np.where(self.nyquist_mask, 0.0, factors)

    @property
    def padded_shape(self) -> tuple[int, ...]:
        """Shape of the 3/2 grid on which quadratic terms are evaluated."""
        return ((3 * self.n) // 2,) * self.dim

    @property
    def padded_half_shape(self) -> tuple[int, ...]:
        """Shape of a real-transform half spectrum on the 3/2 grid."""
        m = (3 * self.n) // 2
        return (m,) * (self.dim - 1) + (m // 2 + 1,)

    @cached_property
    def mirror(self) -> tuple:
        """Index taking a stack of n-grid spectra at ``k`` to their values at ``-k``."""
        flip = -np.arange(self.n) % self.n
        return (Ellipsis,) + np.ix_(*([flip] * self.dim))

    @cached_property
    def padded_blocks(self) -> tuple[list, list, list]:
        """Slice pairs ``(padded, n_grid)`` between n-grid spectra and 3/2-grid
        half spectra (last-axis bins ``0..m/2``).

        ``minus`` places each ``-n/2`` bin at ``-n/2``, ``plus`` at ``+n/2`` on
        every axis at once, and ``band`` reads the n band of a 3/2-grid half
        spectrum: ``-n/2`` on the leading axes, ``0..+n/2`` on the last.
        """
        n, m = self.n, (3 * self.n) // 2

        def pairs(plus: bool) -> tuple:
            h = n // 2 + plus
            return (slice(0, h), slice(0, h)), (slice(m - n + h, m), slice(h, n))

        def blocks(plus: bool, plus_last: bool) -> list:
            axes = [pairs(plus)] * (self.dim - 1) + [pairs(plus_last)[:1]]
            return [tuple((Ellipsis,) + side for side in zip(*combo))
                    for combo in itertools.product(*axes)]

        return blocks(False, False), blocks(True, True), blocks(False, True)

    def frequency_points(self) -> np.ndarray:
        """Frequencies as a flat list of points, shape ``(n^d, dim)``."""
        return self.frequencies.reshape(self.dim, -1).T


def _axes(dim: int) -> tuple[int, ...]:
    return tuple(range(-dim, 0))


# numpy's n-d wrappers cost about as much as a whole d=1 transform, so d=1
# calls the one-axis transforms.

def _rfft(samples: np.ndarray, dim: int) -> np.ndarray:
    """Half spectra of real samples over the last ``dim`` axes."""
    if dim == 1:
        return np.fft.rfft(samples)
    return np.fft.rfftn(samples, axes=_axes(dim))


def _irfft(half: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Real samples of shape ``shape`` (last axes) from half spectra."""
    if len(shape) == 1:
        return np.fft.irfft(half, n=shape[0])
    return np.fft.irfftn(half, s=shape, axes=_axes(len(shape)))


def _complete_hermitian(grid: TorusGrid, out: np.ndarray) -> np.ndarray:
    """Fill in place the negative last-axis bins of n-grid spectra ``(..., n, ..., n)``.

    On entry bins ``0..n/2`` of the last axis are set, bin ``n/2`` holding the
    ``+n/2`` mode, and the other bins are zero.  On exit the ``-n/2`` bin is
    that mode plus the conjugate of its reflection, the other negative bins
    are conjugate reflections, and ``out`` is exactly conjugate-symmetric.
    """
    out[..., 0] *= 0.5  # bin 0 is its own reflection on the last axis
    mirrored = out[grid.mirror]
    out += np.conjugate(mirrored, out=mirrored)
    return out


def _spectra(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """Spectra of real samples ``(..., n, ..., n)``."""
    half = grid.n // 2
    out = np.zeros(samples.shape, dtype=complex)
    out[..., :half + 1] = _rfft(samples, grid.dim)
    out[..., half] *= 0.5  # the +-n/2 bin, shared by the two halves
    out = _complete_hermitian(grid, out)
    out *= grid.cell_volume
    return out


def _samples(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of conjugate-symmetric spectra ``(..., n, ..., n)``."""
    half = coeffs[..., :grid.n // 2 + 1]
    return _irfft(half, grid.shape) / grid.cell_volume


class _FieldBase:
    """Shared arithmetic for spectral fields; ``coeffs`` owned by subclasses."""

    grid: TorusGrid
    coeffs: np.ndarray

    def _sibling(self, coeffs: np.ndarray):
        return type(self)(self.grid, coeffs)

    def _require_like(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        _require_same_grid(self, other)

    def __add__(self, other):
        self._require_like(other)
        return self._sibling(self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._require_like(other)
        return self._sibling(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return self._sibling(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._sibling(-self.coeffs)

    def samples(self) -> np.ndarray:
        """Physical-space samples on the grid (real inverse transform)."""
        return _samples(self.grid, self.coeffs)

    def imag_residual(self) -> float:
        """Sup of the imaginary part in physical space; ~0 for real fields."""
        complex_samples = np.fft.ifftn(self.coeffs / self.grid.cell_volume, axes=_axes(self.grid.dim))
        return float(np.abs(complex_samples.imag).max())

    def l2_norm(self) -> float:
        """Norm of ``sqrt(integral |f|^2 dx)`` over the box."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2) / self.grid.length**self.grid.dim))

    def max_wavenumber(self, rel_tol: float = 1e-13) -> int:
        """Largest ``|k|_inf`` carrying a coefficient above ``rel_tol`` of the peak."""
        mag = np.abs(self.coeffs)
        peak = mag.max()
        if peak == 0.0:
            return 0
        active = mag > rel_tol * peak
        while active.ndim > self.grid.dim:
            active = np.any(active, axis=0)
        kinf = np.max(np.abs(self.grid.wavenumbers), axis=0)
        return int(kinf[active].max())


def _require_same_grid(a: _FieldBase, b: _FieldBase) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class SpectralScalarField(_FieldBase):
    """Real scalar field stored as Fourier coefficients, shape ``(n, ..., n)``."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(f"coefficient shape {self.coeffs.shape} != grid shape {self.grid.shape}")

    @classmethod
    def from_samples(cls, grid: TorusGrid, samples: np.ndarray) -> "SpectralScalarField":
        samples = np.asarray(samples, dtype=float)
        if samples.shape != grid.shape:
            raise ValueError(f"sample shape {samples.shape} != grid shape {grid.shape}")
        return cls(grid, _spectra(grid, samples))

    def integral(self) -> float:
        """Exact ``integral f dx`` (the k=0 coefficient)."""
        return float(self.coeffs[(0,) * self.grid.dim].real)


@dataclass(frozen=True, eq=False)
class SpectralVectorField(_FieldBase):
    """Real d-component vector field as Fourier coefficients, shape ``(d, n, ..., n)``.

    Conjugate symmetry ``coeff(-k) = conj(coeff(k))`` holds for every field
    built from real samples and is preserved by all operations in this package
    whose symbols satisfy ``a(-xi) = conj(a(xi))``.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.dim,) + self.grid.shape
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient shape {self.coeffs.shape} != expected {expected}")

    @classmethod
    def from_samples(cls, grid: TorusGrid, samples: np.ndarray) -> "SpectralVectorField":
        samples = np.asarray(samples, dtype=float)
        expected = (grid.dim,) + grid.shape
        if samples.shape != expected:
            raise ValueError(f"sample shape {samples.shape} != expected {expected}")
        return cls(grid, _spectra(grid, samples))

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralVectorField":
        return cls(grid, np.zeros((grid.dim,) + grid.shape, dtype=complex))

    def component(self, j: int) -> SpectralScalarField:
        return SpectralScalarField(self.grid, self.coeffs[j])

    def integral(self) -> np.ndarray:
        """Componentwise ``integral u dx`` (the k=0 coefficients)."""
        return self.coeffs[(slice(None),) + (0,) * self.grid.dim].real.copy()

    def sup_norm(self) -> float:
        return float(np.abs(self.samples()).max())


Field = Union[SpectralScalarField, SpectralVectorField]


def spectral_gradient(u: Field, axis: int) -> Field:
    """Exact partial derivative along ``axis``; Nyquist modes are zeroed."""
    if not 0 <= axis < u.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {u.grid.dim}")
    return u._sibling(u.coeffs * u.grid.derivative_factors[axis])


def divergence(u: SpectralVectorField) -> SpectralScalarField:
    return SpectralScalarField(u.grid, np.sum(u.coeffs * u.grid.derivative_factors, axis=0))


def jacobian_coeffs(u: SpectralVectorField) -> np.ndarray:
    """Coefficients of ``du^i/dx_j``, shape ``(d, d, n, ..., n)`` indexed [i, j]."""
    return u.coeffs[:, None] * u.grid.derivative_factors


def translate(u: Field, shift: np.ndarray) -> Field:
    """Translate a field by ``h``: acts as the phase ``exp(-2*pi*i k.h/L)``."""
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.shape != (u.grid.dim,):
        raise ValueError(f"shift must have {u.grid.dim} components")
    phase_exp = np.tensordot(shift, u.grid.wavenumbers, axes=(0, 0))
    phase = np.exp(-2j * np.pi * phase_exp / u.grid.length)
    return u._sibling(u.coeffs * phase)


# --- alias-free products ----------------------------------------------------
#
# A quadratic term is one padded-grid pass (Orszag's 3/2 rule): its spectra go
# to the 3/2 grid, the algebra runs on real samples there, and one forward
# transform comes back.  Truncation is linear, so the sum of products is
# dealiased as exactly as each product apart.

# Bytes of complex half spectrum per numpy FFT call: a transform's input,
# output and scratch are the largest buffers of a step, so at d=3 a stack is
# transformed in pieces.  At d=1 a whole stack fits in one call.
MAX_TRANSFORM_BYTES = 256 * 1024


def _transform_batch(grid: TorusGrid) -> int:
    return max(1, MAX_TRANSFORM_BYTES // (16 * math.prod(grid.padded_half_shape)))


def padded_samples(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples on the 3/2 grid of a stack of n-grid spectra ``(k, n, ..., n)``.

    Each ``-n/2`` bin is split evenly between ``-n/2`` and ``+n/2`` on every
    axis at once: the Hermitian part of the embedding, so a lone ``-n/2``
    mode contributes its cosine half.  Returns shape ``(k, m, ..., m)``.
    """
    minus, plus, _ = grid.padded_blocks
    scale = 0.5 * math.prod(grid.padded_shape) / grid.length**grid.dim
    batch = _transform_batch(grid)
    out = np.empty((len(coeffs),) + grid.padded_shape)
    for lo in range(0, len(coeffs), batch):
        chunk = coeffs[lo:lo + batch]
        spec = np.zeros((len(chunk),) + grid.padded_half_shape, dtype=complex)
        for dst, src in minus:
            spec[dst] = chunk[src]
        for dst, src in plus:
            spec[dst] += chunk[src]
        spec *= scale
        out[lo:lo + batch] = _irfft(spec, grid.padded_shape)
    return out


def truncate_padded(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """n-grid spectra of a stack of real 3/2-grid samples ``(k, m, ..., m)``.

    The ``+n/2`` partner of each axis is folded into the ``-n/2`` bin before
    truncation, which reproduces what sampling the band-limited product on
    the n grid would do and keeps the result real-valued.  On the last axis
    the fold is rebuilt from the half spectrum by conjugate reflection.
    """
    m, half = grid.padded_shape[0], grid.n // 2
    _, _, band = grid.padded_blocks
    batch = _transform_batch(grid)
    out = np.zeros((len(samples),) + grid.shape, dtype=complex)
    for lo in range(0, len(samples), batch):
        spec = _rfft(samples[lo:lo + batch], grid.dim)
        for axis in range(1, grid.dim):
            lead = (slice(None),) * axis
            spec[lead + (m - half,)] += spec[lead + (half,)]
        for src, dst in band:
            out[lo:lo + batch][dst] = spec[src]
    out = _complete_hermitian(grid, out)
    out *= grid.length**grid.dim / math.prod(grid.padded_shape)
    return out


def _stack(u: Field) -> np.ndarray:
    return u.coeffs.reshape((-1,) + u.grid.shape)


def dealiased_product(f: Field, g: Field) -> Field:
    """Pointwise product of two fields with no aliasing contamination.

    The result equals the exact product of the two band-limited functions
    restricted to the lattice.  Scalar*scalar gives a scalar; any combination
    involving a vector broadcasts to a (componentwise) vector product.
    """
    _require_same_grid(f, g)
    grid = f.grid
    fs, gs = _stack(f), _stack(g)
    padded = padded_samples(grid, np.concatenate([fs, gs]))
    out = truncate_padded(grid, padded[:len(fs)] * padded[len(fs):])
    if isinstance(f, SpectralScalarField) and isinstance(g, SpectralScalarField):
        return SpectralScalarField(grid, out[0])
    return SpectralVectorField(grid, out)


def directional_derivative(v: SpectralVectorField, w: Field) -> Field:
    """Advective derivative ``(v . grad) w`` with dealiased products.

    The padded samples of ``v`` are built once; the gradient of each
    component of ``w`` is transformed only while its output is formed.
    """
    _require_same_grid(v, w)
    grid = v.grid
    vs = padded_samples(grid, v.coeffs)
    ws = _stack(w)
    out = np.empty((len(ws),) + grid.padded_shape)
    for i, wi in enumerate(ws):
        np.einsum("j...,j...->...", vs, padded_samples(grid, wi * grid.derivative_factors),
                  out=out[i])
    return w._sibling(truncate_padded(grid, out).reshape(w.coeffs.shape))


def l2_inner(u: Field, v: Field) -> float:
    """Inner product ``integral u.v dx`` evaluated as a frequency sum."""
    _require_same_grid(u, v)
    return float(np.sum(np.conj(u.coeffs) * v.coeffs).real / u.grid.length**u.grid.dim)
