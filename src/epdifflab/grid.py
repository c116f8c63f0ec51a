"""Periodic grids, spectral fields, and FFT calculus on the d-dimensional torus.

Everything downstream (Fourier multipliers, the EPDiff integrator, the
diffeomorphism charts) is built on the primitives in this module: the uniform
lattice on ``[0, L)^d``, forward/inverse discrete Fourier transforms, exact
spectral differentiation, and alias-free pointwise products.

Conventions
-----------
The geodesic equations act on d-component fields only, so the one field type
is :class:`SpectralVectorField`.  Fields are real in physical space and stored
as complex Fourier coefficients.
The coefficient at integer wavenumber ``k`` approximates the continuous
transform over the fundamental domain,

    coeff(k) = integral over [0,L)^d of f(x) exp(-2*pi*i k.x/L) dx,

so a field reconstructs as ``f(x) = L^{-d} sum_k coeff(k) exp(2*pi*i k.x/L)``.
With this normalization differentiation along axis ``j`` multiplies by
``2*pi*i*k_j/L`` (verified against analytic harmonics in the test suite) and
Parseval reads ``(L/n)^d sum_x |f|^2 = L^{-d} sum_k |coeff|^2``.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import numbers
import os
import queue
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy._core._multiarray_umath import c_einsum as _einsum
from numpy.fft import _pocketfft_umath as _pfu

# Every hot contraction calls ``_einsum``, numpy's C kernel: ``np.einsum``
# without ``optimize`` only forwards its arguments to it, through a Python
# wrapper that costs about 0.9 us per call, about what a d=1 contraction
# costs itself.  The kernel is the wrapper's, so the bits are the same;
# ``tests/test_grid.py`` checks them against ``np.einsum`` on every
# contraction of the package.


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
        Side length ``L`` of the periodic box (same along every axis); the
        box volume ``L^d``, the cell volume ``(L/n)^d`` and their reciprocals
        must be finite nonzero floats, since transforms scale by them.
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
        try:
            volumes = (self.length**self.dim, self.cell_volume)
        except OverflowError:
            volumes = (math.inf,)
        if not all(0 < v < math.inf and 1 / v < math.inf for v in volumes):
            raise ValueError(
                f"length {self.length:g} in dimension {self.dim}: the box volume L^d, the cell "
                "volume (L/n)^d and their reciprocals must be finite and nonzero"
            )

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


# Every transform calls numpy's pocketfft gufuncs directly: numpy.fft's
# Python wrapper (``asarray``, dtype and axis checks, a fresh output) costs
# 3-4 us per call, about what a one-row transform at d=1 n=256 costs itself.
# The calls, their order and their factors are those of ``rfftn``/``irfftn``,
# so the bits are theirs; ``tests/test_grid.py`` checks them against the
# public functions.  Every grid length is even (n and 3n/2, n a power of two
# >= 8), so ``rfft_n_even`` is the one forward real transform.

def _rfft(samples: np.ndarray, dim: int, out: np.ndarray | None = None,
          lines: list | None = None) -> np.ndarray:
    """Half spectra of real samples over the last ``dim`` axes, written to
    ``out`` when it is given: the last axis first, then each leading axis in
    place, last to first, as ``rfftn`` does.

    ``lines``, which only the pass objects give, lists per leading axis, in
    that order, the views of ``out`` that its transform covers; the rest of
    ``out`` is left as the earlier axes left it.  By default each transform
    covers all of ``out``.
    """
    if out is None:
        out = np.empty(samples.shape[:-1] + (samples.shape[-1] // 2 + 1,), dtype=complex)
    _pfu.rfft_n_even(samples, 1.0, out=out)
    for axis, views in zip(range(-2, -dim - 1, -1), lines or [[out]] * (dim - 1)):
        for view in views:
            _pfu.fft(view, 1.0, out=view, axes=[(axis,), (), (axis,)])
    return out


def _irfft(half: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None = None,
           work: np.ndarray | None = None, lines: list | None = None) -> np.ndarray:
    """Real samples of shape ``shape`` (last axes) from half spectra, written
    to ``out`` when it is given.

    As in ``irfftn``, the leading axes go first, first to last, into the
    complex ``work`` (shaped like ``half``, made here when not given), and the
    last axis straight into ``out``; each axis is scaled by ``1/size``.

    ``lines``, which only the pass objects give, lists per leading axis the
    ``(input, output)`` views of ``half`` (first axis) or ``work`` (later
    axes) that its transform covers; by default all of them.  The last axis
    reads all of ``work``, so a caller that gives ``lines`` keeps zero what
    they do not write.
    """
    if out is None:
        out = np.empty(half.shape[:-len(shape)] + shape)
    if len(shape) > 1:
        if work is None:
            work = np.empty(half.shape, dtype=complex)
        if lines is None:
            lines = [[(half, work)]] + [[(work, work)]] * (len(shape) - 2)
        for axis, size, pairs in zip(range(-len(shape), -1), shape, lines):
            for src, dst in pairs:
                _pfu.ifft(src, 1 / size, out=dst, axes=[(axis,), (), (axis,)])
        half = work
    _pfu.irfft(half, 1 / shape[-1], out=out)
    return out


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
        # a proxy, so that grid and plan form no cycle: the plan's workspaces
        # are freed as soon as the grid is, not at the next full collection
        self.grid = weakref.proxy(grid)
        self._buffers = threading.local()
        n, d = grid.n, grid.dim
        m, h = (3 * n) // 2, n // 2
        self.half = h + 1
        self.half_shape = (n,) * (d - 1) + (h + 1,)
        self.padded_shape = (m,) * d
        self.padded_half_shape = (m,) * (d - 1) + (m // 2 + 1,)
        self.batch = max(1, MAX_TRANSFORM_BYTES // (16 * math.prod(self.padded_half_shape)))
        self.workers = TRANSFORM_WORKERS if self.batch == 1 else 1
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

    def prepared(self, key, build, *args):
        """This thread's object ``key``, made by ``build(*args)`` on first use
        and kept with the plan.

        Each thread gets its own, so threads never share one; a caller must
        not hand such an object's buffers, or views of them, back to its own
        caller.
        """
        objects = vars(self._buffers)
        if key not in objects:
            objects[key] = build(*args)
        return objects[key]

    def workspace(self, name: str, shape: tuple[int, ...], dtype: type = complex) -> np.ndarray:
        """This thread's buffer ``name`` of rows ``shape[1:]``, at least
        ``shape[0]`` of them, zeroed when made (see :meth:`prepared`).

        A buffer holds as many rows as the largest request so far.  A larger
        request replaces it and rebinds this thread's pass objects, which
        bind views of it, so the smaller buffer is freed at once.
        """
        objects = vars(self._buffers)
        buffer = objects.get(name)
        if buffer is None or len(buffer) < shape[0]:
            stale, buffer = buffer, np.zeros(shape, dtype)
            objects[name] = buffer
            if stale is not None:
                for obj in list(objects.values()):
                    if isinstance(obj, (_Sampling, _Truncation)):
                        obj.bind(self)
        return buffer

    @cached_property
    def factors(self) -> np.ndarray:
        """A view of ``derivative_factors`` on the half lattice, ``(d, n, ..., n/2+1)``."""
        return self.grid.derivative_factors[..., :self.half]

    @cached_property
    def sum_weights(self) -> np.ndarray:
        """``(bins, 1 + d)`` weights of the half-spectrum bins that bound the
        samples of :func:`_samples` by the coefficients they read.

        The inverse real transform reads last-axis bins ``0`` and ``n/2``
        once and every other bin with its conjugate reflection, so a sample
        of a half spectrum ``c`` is at most ``L^-d sum_k w_k |c_k|`` in
        modulus, with ``w`` 1 on those two bins and 2 elsewhere: column 0.
        Column ``1 + j`` is ``w |factors[j]|``, which bounds the samples of
        ``d/dx_j`` as :func:`_jacobian_samples` forms them.
        """
        weight = np.full(self.half_shape, 2.0)
        weight[self.planes] = 1.0
        columns = np.concatenate([weight[None], weight * np.abs(self.factors)])
        return np.ascontiguousarray(columns.reshape(len(columns), -1).T)

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

    @cached_property
    def columns(self) -> tuple[list, list]:
        """``(passes, zeros)``: index tuples of the pruned leading-axis
        transforms of a padded chunk ``(rows, m, ..., m, m/2+1)``, d > 1.

        On a leading axis the embedded bins are ``0..n/2`` and
        ``m-n/2..m-1``; the zero band between them is never embedded and
        never kept.  On the last axis only bins ``0..n/2`` are.  So the
        transform along leading axis ``a`` needs only the columns whose
        later leading axes lie in the embedded bins and whose last axis lies
        in ``0..n/2``: ``passes[a]``, the same columns either way.  The
        inverse reads what those transforms do not write: along each axis
        ``a > 0`` the zero band of ``a``, and the last-axis bins above
        ``n/2``, all of which the last-axis transform reads (numpy's
        ``irfft`` takes its vectorized loop only on full-length lines).
        Those are ``zeros``.
        """
        m, h, d = self.padded_shape[0], self.half - 1, self.grid.dim
        low, every = slice(0, h + 1), slice(None)
        embedded = (low, slice(m - h, m))
        passes = [[(every,) * (a + 2) + later + (low,)
                   for later in itertools.product(embedded, repeat=d - 2 - a)] for a in range(d - 1)]
        zeros = [(every,) * (a + 1) + (slice(h + 1, m - h),) + later + (low,)
                 for a in range(1, d - 1) for later in itertools.product(embedded, repeat=d - 2 - a)]
        zeros.append((Ellipsis, slice(h + 1, None)))
        return passes, zeros


def _full(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Full spectra ``(..., n, ..., n)`` of half spectra with completed planes:
    the negative last-axis bins are conjugate reflections."""
    plan = grid.plan
    out = np.empty(half.shape[:-1] + (grid.n,), dtype=complex)
    out[..., :plan.half] = half
    np.conjugate(out[plan.negative], out=out[..., plan.half:])
    return out


def _spectra(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """Spectra of real samples ``(..., n, ..., n)``."""
    half = _complete_planes(grid, _rfft(samples, grid.dim))
    half *= grid.cell_volume
    return _full(grid, half)


def _complete_planes(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Half spectra ``(..., n, ..., n/2+1)`` whose last-axis planes 0 and n/2
    are made conjugate-symmetric in place, each entry the mean of itself and
    the conjugate of its reflection; returns ``half``.  On planes that are
    already symmetric this is ``x/2 + x/2``, the same values."""
    planes = half[grid.plan.planes]  # last-axis bins 0 and n/2
    planes *= _HALF  # bin 0 is its own reflection, +-n/2 is shared
    planes += np.conjugate(planes[grid.plan.plane_mirror])  # each plane gets its conjugate reflection
    return half


def _samples(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of conjugate-symmetric spectra ``(..., n, ..., n)``, or of
    their half spectra ``(..., n, ..., n/2+1)``: only bins ``0..n/2`` are read."""
    out = _irfft(coeffs[..., :grid.n // 2 + 1], grid.shape)
    out /= grid.cell_volume
    return out


def _require_same_grid(a, b) -> None:
    """The one grid check: operands (fields, multipliers, charts) on two grids
    raise :class:`GridMismatchError`."""
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridMismatchError(f"operands live on different grids: {a.grid} and {b.grid}")


@dataclass(frozen=True, eq=False)
class SpectralVectorField:
    """Real d-component vector field as Fourier coefficients, shape ``(d, n, ..., n)``.

    Conjugate symmetry ``coeff(-k) = conj(coeff(k))`` holds for every field
    built from real samples and is preserved by all operations in this package
    whose symbols satisfy ``a(-xi) = conj(a(xi))``.
    """

    grid: TorusGrid
    coeffs: np.ndarray
    __array_ufunc__ = None  # numpy operands defer to the operators below

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

    def _require_field(self, other) -> None:
        if not isinstance(other, SpectralVectorField):
            raise TypeError(f"cannot combine SpectralVectorField with {type(other).__name__}")
        _require_same_grid(self, other)

    def __add__(self, other: "SpectralVectorField") -> "SpectralVectorField":
        self._require_field(other)
        return SpectralVectorField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralVectorField") -> "SpectralVectorField":
        self._require_field(other)
        return SpectralVectorField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralVectorField":
        if not isinstance(scalar, numbers.Real):  # a field is real: only real factors keep it so
            return NotImplemented
        return SpectralVectorField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def samples(self) -> np.ndarray:
        """Physical-space samples on the grid (real inverse transform)."""
        return _samples(self.grid, self.coeffs)

    def integral(self) -> np.ndarray:
        """Componentwise ``integral u dx`` (the k=0 coefficients)."""
        return self.coeffs[(slice(None),) + (0,) * self.grid.dim].real.copy()

    def sup_norm(self) -> float:
        return float(np.abs(self.samples()).max())

    def max_wavenumber(self) -> int:
        """Largest ``|k|_inf`` carrying a coefficient above 1e-13 of the peak
        (``ValueError`` where a coefficient is NaN or infinite)."""
        mag = np.abs(self.coeffs)
        peak = mag.max()
        if not np.isfinite(peak):
            raise ValueError(f"max_wavenumber needs finite field coefficients, got a peak |coeff| of {peak}")
        if peak == 0.0:
            return 0
        active = np.any(mag > 1e-13 * peak, axis=0)
        kinf = np.max(np.abs(self.grid.wavenumbers), axis=0)
        return int(kinf[active].max())


def _jacobian_samples(u: SpectralVectorField) -> np.ndarray:
    """Samples of ``du^i/dx_j``, shape ``(d, d, n, ..., n)`` indexed [i, j],
    formed on the half spectra that the inverse transform reads."""
    plan = u.grid.plan
    return _samples(u.grid, u.coeffs[:, None, ..., :plan.half] * plan.factors)


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
#
# Every padded pass runs in buffers that persist: each thread that runs a
# chunk keeps an embedding buffer and a complex work buffer and, at d > 1, an
# n-band buffer, each with as many rows as the largest chunk it has run (one
# row is 0.92, 0.92 and 0.28 MB at d=3 n=32), and one _Sampling and one
# _Truncation per chunk height that bind views of them; each thread that runs
# the transport term keeps its prepared pass (epdiff._TransportPass, 18.9 MB
# at d=3 n=32, where its stack is split), and a helper that takes a share of
# a pass's elementwise work writes into that pass and keeps none.  They
# belong to the grid's plan and are freed with the grid.
#
# The embedding buffer is zero outside the embedded bins, since every call
# writes the same bins.  The work buffer is scratch that both directions
# share, and a truncation fills all of it; so before every inverse transform
# a sampling zeroes what its transforms read there and do not write
# (_Plan.columns): the last-axis bins above n/2 and, at d=3, the zero band
# of the second leading axis.
MAX_TRANSFORM_BYTES = 256 * 1024


# Threads that run the padded passes of a grid whose padded row fills a
# transform call by itself, the calling thread included; _Plan.workers gives
# every other grid one, as pool tasks of several rows made a d=2 n=64 step
# slower (BENCH_worker_rule.json).  numpy's real transforms release the GIL,
# so the one-row chunks of a split stack transform on several cores at once,
# each into its own rows of an output allocated up front; the same threads
# share the elementwise work of a split transport pass, each on its own
# planes of the pass's arrays, where ufuncs and the contraction give the
# same bits (epdiff._TransportPass).  A grid reads the count once, when its
# plan is built; a stack that fits one call runs inline and starts no
# thread.  The helpers of every plan with the same count come from one pool
# of count - 1 threads, however many tasks a runner has; _run_tasks is the
# one runner.
TRANSFORM_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(size: int) -> ThreadPoolExecutor:
    with _pools_lock:
        if size not in _pools:
            _pools[size] = ThreadPoolExecutor(size, thread_name_prefix="epdifflab-transform")
        return _pools[size]


def _run_tasks(workers: int, tasks: list) -> None:
    """Call each of ``tasks`` once, taking them from one queue that the
    calling thread and up to ``workers - 1`` helpers of the pool drain; a
    lone task runs inline and submits nothing.

    Each helper runs in a copy of the caller's context, so the numpy error
    state that the caller set (``np.errstate``, a context variable) holds in
    the helpers too.  Every helper has finished before this returns or
    raises, so none writes into an output afterwards; the caller's own
    exception goes first, else the first helper's.

    A task may call only private helpers: the tracer of the benchmark keeps
    one span stack, which a traced call from a helper thread would corrupt.
    """
    pending = queue.SimpleQueue()
    for task in tasks:
        pending.put(task)

    def drain() -> None:
        while True:
            try:
                task = pending.get_nowait()
            except queue.Empty:
                return
            task()

    helpers = min(workers, len(tasks)) - 1
    futures = [_pool(workers - 1).submit(contextvars.copy_context().run, drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # a helper that has not started by now has nothing to do; the rest are waited for
        errors = [future.exception() for future in futures if not future.cancel()]
    for error in errors:
        if error is not None:
            raise error


def _run_chunks(plan: _Plan, build: type, src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Run this thread's ``build(plan, rows)`` object (:class:`_Sampling` or
    :class:`_Truncation`) on consecutive chunks of at most ``plan.batch`` rows
    of ``src``, each into its rows of ``out``: a stack that fits one call
    inline, a larger one as a task per chunk of :func:`_run_tasks`."""
    rows, batch = len(src), plan.batch
    if rows <= batch:
        return plan.prepared((build, rows), build, plan, rows)(src, out)
    plan.embed, plan.band, plan.columns  # built here, not by two threads at once
    _run_tasks(plan.workers, [partial(_run_chunks, plan, build, src[lo:lo + batch], out[lo:lo + batch])
                              for lo in range(0, rows, batch)])
    return out


# The two directions of the padded pass on one chunk of ``rows`` rows and one
# thread.  Each binds every view a call touches, in this thread's workspaces,
# when it is built, and again when a larger chunk replaces a workspace
# (_Plan.workspace); it keeps no reference to the plan or the grid, which
# keep it.  At d > 1 its transforms cover only the lines of _Plan.columns,
# which give the bytes of the whole transform on every line the pass reads.
# A call looks up ``_rfft``/``_irfft`` as globals of this module, so a
# wrapper set on the module (a counter) sees every call.

class _Sampling:
    """Real 3/2-grid samples of ``rows`` half spectra: a call embeds the rows
    ``src`` in this thread's ``embed`` workspace, zeroes what its pruned
    transforms read in the ``work`` workspace and do not write (a truncation
    may have filled it), and inverse transforms into ``out``."""

    def __init__(self, plan: _Plan, rows: int) -> None:
        self.rows, self.shape = rows, plan.padded_shape
        self.bind(plan)

    def bind(self, plan: _Plan) -> None:
        rows, shape = self.rows, (self.rows,) + plan.padded_half_shape
        self.spec = spec = plan.workspace("embed", shape)[:rows]
        self.blocks = [(src, factor, spec[dst]) for dst, src, factor in plan.embed]
        self.work, self.lines, self.zeros = None, None, []
        if len(self.shape) > 1:
            self.work = work = plan.workspace("work", shape)[:rows]
            passes, zeros = plan.columns
            self.lines = [[(spec[index] if a == 0 else work[index], work[index]) for index in columns]
                          for a, columns in enumerate(passes)]
            self.zeros = [work[index] for index in zeros]

    def __call__(self, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        for index, factor, dst in self.blocks:
            np.multiply(src[index], factor, out=dst)
        for zeros in self.zeros:
            zeros.fill(0)
        return _irfft(self.spec, self.shape, out, self.work, self.lines)


class _Truncation:
    """Half spectra ``(rows, n, ..., n/2+1)`` of real 3/2-grid samples: a call
    transforms the rows ``src`` into this thread's ``work`` workspace, folds
    the ``+n/2`` partner of each leading axis into ``-n/2`` (on the last axis,
    completing the planes rebuilds the fold by conjugate reflection), keeps
    the n band (in the ``band`` workspace; a view at d=1), halves bin 0,
    completes the planes and scales into ``out``."""

    def __init__(self, plan: _Plan, rows: int) -> None:
        self.rows, self.dim = rows, len(plan.padded_shape)
        self.plane_mirror, self.scale = plan.plane_mirror, plan.truncate_scale
        self.bind(plan)

    def bind(self, plan: _Plan) -> None:
        m, h, d, rows = plan.padded_shape[0], plan.half - 1, self.dim, self.rows
        self.spec = spec = plan.workspace("work", (rows,) + plan.padded_half_shape)[:rows]
        kept = (Ellipsis, slice(0, h + 1))  # only last-axis bins 0..n/2 are kept, so only they fold
        self.fold = [(spec[lead + (m - h,) + kept], spec[lead + (h,) + kept])
                     for lead in ((slice(None),) * axis for axis in range(1, d))]
        if d == 1:
            band, self.copies, self.lines = spec[:, :plan.half], [], None  # the n band, as a view
        else:
            band = plan.workspace("band", (rows,) + plan.half_shape)[:rows]
            self.copies = [(band[dst], spec[src]) for src, dst in plan.band]
            self.lines = [[spec[index] for index in columns] for columns in reversed(plan.columns[0])]
        self.band, self.bin0, self.planes = band, band[..., 0], band[plan.planes]

    def __call__(self, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        _rfft(src, self.dim, self.spec, self.lines)
        for minus, plus in self.fold:
            np.add(minus, plus, out=minus)
        for dst, kept in self.copies:
            dst[...] = kept
        np.multiply(self.bin0, _HALF, out=self.bin0)  # bin 0 is its own reflection on the last axis
        planes = self.planes  # each plane gets its conjugate reflection
        np.add(planes, np.conjugate(planes[self.plane_mirror]), out=planes)
        return np.multiply(self.band, self.scale, out=out)


def padded_samples(grid: TorusGrid, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples on the 3/2 grid of a stack of half spectra ``(k, n, ..., n/2+1)``.

    Full spectra ``(k, n, ..., n)`` do as well: only last-axis bins
    ``0..n/2`` are read.  Each ``-n/2`` bin is split evenly between ``-n/2``
    and ``+n/2`` on every axis at once: the Hermitian part of the embedding,
    so a lone ``-n/2`` mode contributes its cosine half.  Returns shape
    ``(k, m, ..., m)``, written to ``out`` when it is given, each chunk of
    the stack by its thread's :class:`_Sampling`.
    """
    if out is None:
        out = np.empty((len(coeffs),) + grid.plan.padded_shape)
    return _run_chunks(grid.plan, _Sampling, coeffs, out)


def _truncate_half(grid: TorusGrid, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectra ``(k, n, ..., n/2+1)`` of real 3/2-grid samples ``(k, m, ..., m)``,
    written to ``out`` when it is given, each chunk of the stack by its
    thread's :class:`_Truncation`.

    The ``+n/2`` partner of each axis is folded into the ``-n/2`` bin, which
    reproduces what sampling the band-limited product on the n grid would do
    and keeps the result real-valued; :func:`_full` gives the full spectra.
    """
    if out is None:
        out = np.empty((len(samples),) + grid.plan.half_shape, dtype=complex)
    return _run_chunks(grid.plan, _Truncation, samples, out)


def l2_inner(u: SpectralVectorField, v: SpectralVectorField) -> float:
    """Inner product ``integral u.v dx`` evaluated as a frequency sum."""
    _require_same_grid(u, v)
    return float(np.sum(np.conj(u.coeffs) * v.coeffs).real / u.grid.length**u.grid.dim)
