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
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
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

    @cached_property
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

    @cached_property
    def plan(self) -> "_Plan":
        """Constants of the half-spectrum and padded passes, built on first use."""
        return _Plan(self)

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


# Scalars of the hot passes are numpy scalars: a Python float operand costs
# numpy a promotion on every call, about a microsecond at d=1.  The products
# are the same bits.
_HALF = np.complex128(0.5)


class _Plan:
    """Index tables, factors and scales of the passes on one grid.

    A half spectrum keeps the last-axis bins ``0..n/2`` of an n-grid spectrum
    (bin ``n/2`` holds ``-n/2``); the padded pass works on 3/2-grid half
    spectra, last-axis bins ``0..m/2``.  The tables of the padded pass are
    built on its first use, so sampling alone does not pay for them.
    """

    def __init__(self, grid: TorusGrid) -> None:
        self.grid = grid
        n, d = grid.n, grid.dim
        m, h = (3 * n) // 2, n // 2
        self.half = h + 1
        self.half_shape = (n,) * (d - 1) + (h + 1,)
        self.padded_shape = (m,) * d
        self.padded_half_shape = (m,) * (d - 1) + (m // 2 + 1,)
        self.batch = max(1, MAX_TRANSFORM_BYTES // (16 * math.prod(self.padded_half_shape)))
        self.workers = TRANSFORM_WORKERS
        self.truncate_scale = np.complex128(grid.length**d / math.prod(self.padded_shape))

        # last-axis bins 0 and n/2, each its own reflection on that axis, and
        # the reflection of the leading axes
        flip = -np.arange(n) % n
        self.planes = (Ellipsis, slice(0, h + 1, h))
        self.plane_mirror = (Ellipsis,) + np.ix_(*([flip] * (d - 1))) + (slice(None),)
        # negative last-axis bins -(n/2-1)..-1 as reflections of bins n/2-1..1
        if d == 1:
            self.negative = (Ellipsis, slice(h - 1, 0, -1))
        else:
            self.negative = (Ellipsis,) + np.ix_(*([flip] * (d - 1)), np.arange(h - 1, 0, -1))

    @cached_property
    def factors(self) -> np.ndarray:
        """A view of ``derivative_factors`` on the half lattice, ``(d, n, ..., n/2+1)``."""
        return self.grid.derivative_factors[..., :self.half]

    @cached_property
    def embed(self) -> list:
        """``(padded, n_grid, factor)`` triples embedding half spectra in the 3/2 grid.

        Each ``-n/2`` bin goes to ``-n/2`` (M) and to ``+n/2`` (P) on every
        axis at once, each copy at half weight ``S``; every other bin (B)
        keeps its place.  A padded bin gets the ``-n/2`` copy when all its
        axes are B or M and the ``+n/2`` copy when all are B or P, so a bin
        that is B on every axis gets the same coefficient twice:
        ``x * (2S)``, which is exactly ``(x + x) * S``.  The last axis holds
        no M, and its factor runs along it.
        """
        n, m, h, d = self.grid.n, self.padded_shape[0], self.grid.n // 2, self.grid.dim
        scale = np.complex128(0.5 * math.prod(self.padded_shape) / self.grid.length**d)
        lead = {"B": [(slice(0, h), slice(0, h)), (slice(m - h + 1, m), slice(h + 1, n))],
                "P": [(slice(h, h + 1), slice(h, h + 1))],
                "M": [(slice(m - h, m - h + 1), slice(h, h + 1))]}
        both = np.full(h + 1, 2 * scale)  # complex, so numpy casts nothing per call
        both[h] = scale  # the last axis's P bin
        blocks = []
        for kinds in itertools.product("BPM", repeat=d - 1):
            if "P" in kinds and "M" in kinds:
                continue
            last = slice(0, h) if "M" in kinds else slice(0, h + 1)
            factor = scale if "P" in kinds or "M" in kinds else both
            for pieces in itertools.product(*[lead[k] for k in kinds]):
                dst, src = zip(*pieces, (last, last))
                blocks.append(((Ellipsis,) + dst, (Ellipsis,) + src, factor))
        return blocks

    @cached_property
    def band(self) -> list:
        """``(padded, n_grid)`` slices of the n band of a folded 3/2-grid half
        spectrum: ``-n/2`` at ``-n/2`` on the leading axes, bins ``0..n/2`` on
        the last."""
        n, m, h = self.grid.n, self.padded_shape[0], self.grid.n // 2
        lead = [(slice(0, h), slice(0, h)), (slice(m - h, m), slice(h, n))]
        last = [(slice(0, h + 1), slice(0, h + 1))]
        return [tuple((Ellipsis,) + side for side in zip(*combo))
                for combo in itertools.product(*([lead] * (self.grid.dim - 1) + [last]))]


def _complete_planes(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Make last-axis bins 0 and n/2 of half spectra conjugate-symmetric in place.

    Each plane gets the conjugate of its reflection added: bin 0 must hold
    half of its value on entry, bin ``n/2`` its ``+n/2`` mode (or half of
    the shared ``+-n/2`` bin).
    """
    plan = grid.plan
    planes = half[plan.planes]
    planes += np.conjugate(planes[plan.plane_mirror])
    return half


def _full(grid: TorusGrid, half: np.ndarray, factor: complex = 1.0) -> np.ndarray:
    """Full spectra ``(..., n, ..., n)`` of ``factor`` times half spectra with
    completed planes: the negative last-axis bins are conjugate reflections."""
    plan = grid.plan
    out = np.empty(half.shape[:-1] + (grid.n,), dtype=complex)
    if factor == 1.0:
        out[..., :plan.half] = half
    else:
        np.multiply(half, factor, out=out[..., :plan.half])
    np.conjugate(out[plan.negative], out=out[..., plan.half:])
    return out


def _spectra(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """Spectra of real samples ``(..., n, ..., n)``."""
    half = _rfft(samples, grid.dim)
    half[grid.plan.planes] *= _HALF  # bin 0 is its own reflection, +-n/2 is shared
    half = _complete_planes(grid, half)
    half *= grid.cell_volume
    return _full(grid, half)


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
# transformed in pieces.  At d=1 a whole stack fits in one call.  A grid
# reads it once, when its plan is built.
MAX_TRANSFORM_BYTES = 256 * 1024


# Threads that run the chunks of a split stack, the calling thread included:
# numpy's real transforms release the GIL, so the chunks of one stack
# transform on several cores at once.  Each chunk writes its own rows of an
# output allocated up front and the calling thread finishes the pass, so the
# bits do not depend on the worker count.  A grid reads the count once, when
# its plan is built; a stack that fits one call runs inline and starts no
# thread.
TRANSFORM_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(size: int) -> ThreadPoolExecutor:
    with _pools_lock:
        if size not in _pools:
            _pools[size] = ThreadPoolExecutor(size, thread_name_prefix="epdifflab-transform")
        return _pools[size]


def _run_chunks(plan: _Plan, task, rows: int) -> None:
    """Call ``task(lo, hi)`` on consecutive chunks of at most ``plan.batch`` of
    ``rows`` rows; with more than one chunk, ``plan.workers`` threads take
    chunks from one queue until it is empty.

    A task may call only private helpers: the tracer of the benchmark keeps
    one span stack, which a traced call from a worker thread would corrupt.
    """
    chunks = queue.SimpleQueue()
    for lo in range(0, rows, plan.batch):
        chunks.put((lo, min(lo + plan.batch, rows)))

    def drain() -> None:
        while True:
            try:
                lo, hi = chunks.get_nowait()
            except queue.Empty:
                return
            task(lo, hi)

    helpers = min(plan.workers, chunks.qsize()) - 1
    futures = [_pool(helpers).submit(drain) for _ in range(helpers)]
    drain()
    for future in futures:
        if not future.cancel():  # a helper that has not started by now has nothing to do
            future.result()


def padded_samples(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples on the 3/2 grid of a stack of n-grid spectra ``(k, n, ..., n)``.

    Only last-axis bins ``0..n/2`` are read, so half spectra do as well.
    Each ``-n/2`` bin is split evenly between ``-n/2`` and ``+n/2`` on every
    axis at once: the Hermitian part of the embedding, so a lone ``-n/2``
    mode contributes its cosine half.  Returns shape ``(k, m, ..., m)``.
    """
    plan = grid.plan
    blocks = plan.embed  # built here, not by two threads at once

    def embedded(chunk: np.ndarray) -> np.ndarray:
        spec = np.zeros((len(chunk),) + plan.padded_half_shape, dtype=complex)
        for dst, src, factor in blocks:
            np.multiply(chunk[src], factor, out=spec[dst])
        return _irfft(spec, plan.padded_shape)

    if len(coeffs) <= plan.batch:
        return embedded(coeffs)
    out = np.empty((len(coeffs),) + plan.padded_shape)

    def task(lo: int, hi: int) -> None:
        out[lo:hi] = embedded(coeffs[lo:hi])

    _run_chunks(plan, task, len(coeffs))
    return out


def _truncate_half(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """Half spectra ``(k, n, ..., n/2+1)`` of real 3/2-grid samples ``(k, m, ..., m)``.

    The ``+n/2`` partner of each leading axis is folded into the ``-n/2``
    bin before truncation; on the last axis the fold is rebuilt by conjugate
    reflection when the planes are completed.
    """
    plan = grid.plan
    if grid.dim == 1 and len(samples) <= plan.batch:
        out = _rfft(samples, 1)[:, :plan.half]  # the n band, as a view
    else:
        m, h = plan.padded_shape[0], grid.n // 2
        out = np.empty((len(samples),) + plan.half_shape, dtype=complex)
        band = plan.band

        def task(lo: int, hi: int) -> None:
            spec = _rfft(samples[lo:hi], grid.dim)
            for axis in range(1, grid.dim):
                lead = (slice(None),) * axis
                spec[lead + (m - h,)] += spec[lead + (h,)]
            for src, dst in band:
                out[lo:hi][dst] = spec[src]

        _run_chunks(plan, task, len(samples))
    out[..., 0] *= _HALF  # bin 0 is its own reflection on the last axis
    out = _complete_planes(grid, out)
    out *= plan.truncate_scale
    return out


def truncate_padded(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """n-grid spectra of a stack of real 3/2-grid samples ``(k, m, ..., m)``.

    The ``+n/2`` partner of each axis is folded into the ``-n/2`` bin before
    truncation, which reproduces what sampling the band-limited product on
    the n grid would do and keeps the result real-valued.
    """
    return _full(grid, _truncate_half(grid, samples))


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
    out = np.empty((len(ws),) + grid.plan.padded_shape)
    for i, wi in enumerate(ws):
        np.einsum("j...,j...->...", vs, padded_samples(grid, wi * grid.derivative_factors),
                  out=out[i])
    return w._sibling(truncate_padded(grid, out).reshape(w.coeffs.shape))


def l2_inner(u: Field, v: Field) -> float:
    """Inner product ``integral u.v dx`` evaluated as a frequency sum."""
    _require_same_grid(u, v)
    return float(np.sum(np.conj(u.coeffs) * v.coeffs).real / u.grid.length**u.grid.dim)
