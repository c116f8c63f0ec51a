"""Derivative tower of a conjugated Fourier multiplier at the identity.

Pulling a multiplier ``A`` back along a diffeomorphism ``phi`` and expanding
around ``phi = id`` produces an operator tower ``A_0 = A``,

    A_{n+1}(u_0, ..., u_{n+1}) = grad_{u_{n+1}}(A_n(u_0, ..., u_n))
                                 - sum_k A_n(u_0, ..., grad_{u_{n+1}} u_k, ..., u_n),

whose Fourier transform is a multilinear convolution against symbol tensors
``a_n``.  This module evaluates the tower three independent ways (operator
recursion, symbol recursion + brute-force convolution) so each can serve as
the oracle for the others, measures the growth envelope of ``a_n``, and
verifies the antisymmetrized frozen-tensor identity behind that envelope.

Inside this module ``B`` frequency tuples are component-major, ``(n+1, dim, B)``,
and so is every tensor, ``(dim, ..., dim, B)``; the public functions take and
return batch-major arrays through one conversion pair.  The operator
recursion stacks the half spectra of ``B`` field tuples batch-major,
``(B, dim, n, ..., n/2+1)`` per slot.

Sign convention: with coefficients of ``exp(+2 pi i k.x/L)`` and the
derivative rule ``d_j <-> 2 pi i k_j / L``, the symbol recursion is

    a_{n+1}(xi_0..xi_{n+1}) = 2 pi i sum_k [a_n(xi_0..xi_n)
                              - a_n(..., xi_k + xi_{n+1}, ...)] (x) xi_k^sharp.

The bracket orientation is fixed numerically by requiring the convolution of
``a_1`` against two fields to reproduce the commutator ``[grad_{u_1}, A] u_0``
(see the oracle tests); the opposite orientation fails that check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import (
    SpectralVectorField,
    TorusGrid,
    _complete_planes,
    _einsum,
    _full,
    _require_same_grid,
    _truncate_half,
    padded_samples,
)
from .operators import FourierMultiplier, apply, _require_conjugate_symmetric
from .symbols import MatrixSymbol, sobolev_weight

MAX_DERIVATIVE_ORDER = 3
CONVOLUTION_GRID_LIMIT = {1: 32, 2: 8}
KERNEL_CHUNK = 1 << 14  # lattice tuples per kernel chunk; bounds the bracket temporaries


class HeadroomError(ValueError):
    """Inputs carry too much bandwidth for an exact derivative-tower evaluation."""


def _check_order(n: int) -> None:
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order limited to {MAX_DERIVATIVE_ORDER}, got {n}")


def _check_tuple(mult: FourierMultiplier, n: int, fields: tuple) -> None:
    """The tuple rule of both evaluators of ``A_n``: ``n+1`` fields, each on
    the multiplier's grid."""
    if len(fields) != n + 1:
        raise ValueError(f"expected {n + 1} fields, got {len(fields)}")
    for f in fields:
        _require_same_grid(f, mult)


# --- operator recursion -------------------------------------------------------

def required_headroom(n: int, kmax: int) -> int:
    """Grid size needed so order-n tower output of |k|<=kmax inputs is exact."""
    return 2 * ((n + 1) * kmax + 1)


def headroom_band(n: int, grid_n: int) -> int:
    """Largest ``kmax`` with ``required_headroom(n, kmax) <= grid_n``."""
    return (grid_n // 2 - 1) // (n + 1)


def apply_An_recursive(mult: FourierMultiplier, n: int, *fields: SpectralVectorField) -> SpectralVectorField:
    """Evaluate ``A_n(u_0, ..., u_n)`` by the operator recursion.

    All products are dealiased, and the inputs must be band-limited with
    enough headroom that no intermediate spectrum leaves the lattice; then the
    result is the exact multilinear operator value (symmetric in
    ``u_1, ..., u_n`` up to roundoff).  The tower runs on half spectra and
    rebuilds the negative last-axis bins once, by conjugate reflection, so
    the multiplier's table must keep ``a(-k) = conj(a(k))`` (``ValueError``
    otherwise); the convolution oracle needs no such rule.
    """
    _check_order(n)
    _check_tuple(mult, n, fields)
    _require_conjugate_symmetric(mult)
    kmax = max(f.max_wavenumber() for f in fields)
    grid_n = mult.grid.n
    if n >= 1 and required_headroom(n, kmax) > grid_n:
        raise HeadroomError(
            f"insufficient band headroom: inputs reach |k|={kmax}, order {n} needs "
            f"grid n >= {required_headroom(n, kmax)} (have {grid_n}); refine the grid "
            f"or band-limit inputs to |k| <= {headroom_band(n, grid_n)}"
        )
    slots = [f.coeffs[None, ..., :mult.grid.plan.half] for f in fields]
    # a table symmetric only to SYMMETRY_GAP leaves the self-reflecting bins
    # of planes 0 and n/2 slightly complex, and _full copies those planes
    half = _complete_planes(mult.grid, _tower(mult, slots)[0])
    return SpectralVectorField(mult.grid, _full(mult.grid, half))


def _tower(mult: FourierMultiplier, slots: list[np.ndarray]) -> np.ndarray:
    """Half spectra of ``A_m`` of ``B`` tuples given as ``m+1`` slots of half
    spectra ``(B, d, n, ..., n/2+1)``.

    With ``*prefix, last = slots``, one level makes one padded pass of
    ``last`` and the gradients of every prefix field, forms
    ``(last . grad) prefix[k]`` there and truncates once; recurses once on
    the ``m+1`` tuples ``(prefix, prefix with slot k moved)`` of every input
    tuple, as one stack; forms ``(last . grad)`` of the plain inner result
    from the padded samples of ``last`` it holds; and subtracts the moved
    terms in slot order.  One recursion takes at most ``plan.batch // d``
    tuples, so on large grids a level walks its variants in turn.  This
    variant loop is the tower's one memory bound: each step of it makes one
    padded pass (:func:`_advect`), of the gradients of at most ``step``
    fields, which :func:`padded_samples` splits by the transform cap.
    """
    *prefix, last = slots
    if not prefix:
        return _einsum("...ij,bj...->bi...", mult.half_table, last)
    grid, m = mult.grid, len(prefix)
    step = max(1, grid.plan.batch // (grid.dim * len(last)))  # variants per recursion
    padded = out = None
    for lo in range(0, m + 1, step):
        hi = min(lo + step, m + 1)
        k0 = max(lo, 1) - 1  # variant v moves slot v - 1
        padded, moved = _advect(grid, prefix[k0:hi - 1], last, padded)
        parts = [[moved[k - k0] if v == k + 1 else prefix[k] for v in range(lo, hi)]
                 for k in range(m)]
        inner = _tower(mult, [p[0] if len(p) == 1 else np.concatenate(p) for p in parts])
        for v, result in enumerate(inner.reshape((hi - lo,) + last.shape), start=lo):
            if v == 0:
                out = _advect(grid, [result], last, padded)[1][0]
            else:
                out -= result
        del inner, result  # freed before the next recursion: 5 MB of peak at d=3 n=32 order 3
    return out


def _advect(
    grid: TorusGrid, fields: list[np.ndarray], last: np.ndarray, padded: np.ndarray | None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dealiased ``(last . grad) field`` for each of ``fields``, half spectra
    ``(B, d, n, ..., n/2+1)`` like the directions ``last``.

    Returns the padded samples of ``last`` with the results.  Pass the
    samples of an earlier call as ``padded``; otherwise those of ``last``
    join the padded pass.  One call makes at most one padded pass and one
    truncation; :func:`_tower` bounds how many fields a call gets.
    """
    plan, d, rows = grid.plan, grid.dim, last.shape[0] * grid.dim
    head = rows if padded is None else 0  # rows of ``last`` in the pass
    stack = np.empty((head + len(fields) * rows * d,) + plan.half_shape, dtype=complex)
    if head:
        stack[:head] = last.reshape((head,) + plan.half_shape)
    grads = stack[head:].reshape((len(fields),) + last.shape[:2] + (d,) + plan.half_shape)
    for field, grad in zip(fields, grads):
        np.multiply(field[:, :, None], plan.factors, out=grad)
    samples = padded_samples(grid, stack)
    if head:  # a copy, so the gradient rows are freed with this pass
        padded = samples[:head].reshape(last.shape[:2] + plan.padded_shape).copy()
    if not fields:
        return padded, []
    sampled = samples[head:].reshape(grads.shape[:4] + plan.padded_shape)
    products = _einsum("bj...,fbij...->fbi...", padded, sampled)
    del stack, grads, samples, sampled  # the pass buffers, freed before the truncation allocates
    spectra = _truncate_half(grid, products.reshape((-1,) + plan.padded_shape))
    return padded, list(spectra.reshape((len(fields),) + last.shape))


# --- symbol recursion ----------------------------------------------------------

def _component_major(xis: np.ndarray) -> np.ndarray:
    """Batch-major tuples ``(..., m, dim)`` as component-major ``(m, dim, B)``."""
    return xis.reshape((-1,) + xis.shape[-2:]).transpose(1, 2, 0)


def _batch_major(tensor: np.ndarray, batch_shape: tuple[int, ...]) -> np.ndarray:
    """Component-major ``(dim, ..., dim, B)`` as batch-major ``batch_shape + (dim, ..., dim)``."""
    return np.moveaxis(tensor, -1, 0).reshape(batch_shape + tensor.shape[:-1])


def symbol_an(symbol: MatrixSymbol, n: int, xis: np.ndarray) -> np.ndarray:
    """Symbol tensor ``a_n`` at frequency tuples.

    ``xis`` has shape ``(..., n+1, dim)``; the result has shape
    ``(..., dim, dim, ..., dim)`` with ``n+2`` trailing ``dim`` axes ordered as
    [output, slot of u_0, ..., slot of u_n].  ``a_0`` is the symbol itself;
    each step multiplies by ``2 pi i`` and one frequency covector.
    """
    _check_order(n)
    xis = np.asarray(xis, dtype=float)
    if xis.ndim < 2 or xis.shape[-2] != n + 1 or xis.shape[-1] != symbol.dim:
        raise ValueError(f"xis must have shape (..., {n + 1}, {symbol.dim}), got {xis.shape}")

    def leaf(xi: np.ndarray) -> np.ndarray:
        values = symbol(xi.T)
        return (values if values.imag.any() else values.real).transpose(1, 2, 0)

    brackets = _an(leaf, _component_major(xis))
    return (2j * np.pi) ** n * _batch_major(brackets, xis.shape[:-2])


def _shift_difference(f: Callable[[np.ndarray], np.ndarray], tuples: np.ndarray, length: float = 1.0) -> np.ndarray:
    """``sum_k [f(prefix) - f(prefix with slot k shifted by the last point)] (x) xi_k``.

    ``tuples`` is component-major ``(m+1, dim, B)``, its first ``m`` points
    the prefix, each in units of ``1/length``; ``f`` maps an ``(m, dim, B)``
    prefix to a ``(..., B)`` tensor, and each term appends the covector
    ``xi_k = prefix[k] / length`` as a new component axis before ``B``.
    """
    m = len(tuples) - 1
    prefix, last = tuples[:m], tuples[m]
    plain = f(prefix)
    out = None
    for k in range(m):
        shifted = prefix.copy()
        shifted[k] += last
        term = (plain - f(shifted))[..., None, :] * (prefix[k] / length)
        if out is None:
            out = term
        else:
            out += term
    return out


def _an(leaf: Callable[[np.ndarray], np.ndarray], tuples: np.ndarray, length: float = 1.0) -> np.ndarray:
    """Bracket tensor ``a_n / (2 pi i)^n`` at ``(n+1, dim, B)`` tuples, component-major.

    ``leaf`` maps a ``(dim, B)`` block of points to the symbol's ``(dim, dim, B)``
    values there (float64 when they are real); the result is the layout that
    :class:`ConvolutionKernel` stores.
    """
    if len(tuples) == 1:
        return leaf(tuples[0])
    return _shift_difference(lambda prefix: _an(leaf, prefix, length), tuples, length)


# --- brute-force convolution oracle --------------------------------------------

def check_oracle_cost(grid: TorusGrid) -> None:
    """Raise ``ValueError`` unless the oracle's ``(n^dim)^(order+1)`` lattice tuples
    stay few and its factors ``L^(-order dim)``, order <= 2, are finite."""
    dim, n = grid.dim, grid.n
    limit = CONVOLUTION_GRID_LIMIT.get(dim)
    if limit is None or n > limit:
        allowed = " or ".join(f"n <= {m} in dimension {d}" for d, m in CONVOLUTION_GRID_LIMIT.items())
        raise ValueError(
            f"convolution oracle cost guard: grid n = {n} in dimension {dim}; allowed: {allowed}"
        )
    try:
        for order in (1, 2):
            grid.length ** (-order * dim)  # float pow raises on overflow
    except OverflowError:
        raise ValueError(
            f"convolution oracle: length {grid.length:g} overflows its factor L^(-{order * dim})"
        ) from None


_Chunk = tuple[np.ndarray, np.ndarray, np.ndarray]  # (idx, tensor, lin) of a kernel chunk


def _pair(a: np.ndarray) -> np.ndarray:
    """``a`` with a lone entry on its last (tuple) axis repeated, so that a
    lone live tuple runs numpy's vector loops: numpy rounds a one-element
    complex product, such as the outer product of a lone d=1 tuple,
    differently from its vector loop.  The brackets need no pair: they
    multiply complex values only by real covectors, which every loop rounds
    alike."""
    return a.repeat(2, axis=-1) if a.shape[-1] == 1 else a


class ConvolutionKernel:
    """Symbol table and live-tuple brackets for the brute-force oracle.

    Every point the recursion evaluates the symbol at is a partial sum of
    ``n+1`` lattice wavenumbers divided by ``L``, so the build evaluates the
    symbol once, on the integer box ``[-(n+1) N/2, (n+1) (N/2 - 1)]^dim`` of
    such sums (``N`` points per axis), and each leaf of the bracket recursion
    :func:`_an` is a ``take`` from that table.  The build enumerates no
    tuples.  An apply lists the live tuples, those with a nonzero
    coefficient in every input whose total wavenumber stays on the lattice,
    in the order of the flat range ``0 .. modes^(n+1)``, and groups them by
    the ``KERNEL_CHUNK``-long slice of that range they fall in.  Each group,
    a triple of :attr:`chunks`, holds the field indices ``idx`` ``(n+1, B)``
    of its tuples, the brackets ``a_n / (2 pi i)^n`` stored component-major
    as ``(dim, dim^(n+1), B)`` (float64 for a real symbol, complex128
    otherwise), and the flat output mode ``lin`` of each tuple.  The apply
    contracts the gathered fields' outer product against each group,
    scatters with one ``bincount`` per group and multiplies once by
    ``(2 pi i)^n L^(-n dim)``.  The groups of the last live pattern are kept,
    so an apply whose inputs have the same nonzero modes builds no brackets;
    :attr:`chunks` is empty after the build.  Fields must be finite
    (``ValueError`` otherwise), since a dropped tuple would hide a ``0 * inf``.
    """

    def __init__(self, mult: FourierMultiplier, n: int):
        grid = mult.grid
        if not 1 <= n <= 2:
            raise ValueError("convolution oracle limited to 1 <= n <= 2")
        check_oracle_cost(grid)
        self.mult = mult
        self.n = n
        d = grid.dim
        low = -(n + 1) * (grid.n // 2)
        width = (n + 1) * (grid.n - 1) + 1
        box = np.indices((width,) * d).reshape(d, -1) + low
        values = mult.symbol(box.T / grid.length)
        table = np.ascontiguousarray((values if values.imag.any() else values.real).transpose(1, 2, 0))

        def leaf(points: np.ndarray) -> np.ndarray:
            pos = points[0] - low
            for row in points[1:]:
                pos = pos * width + (row - low)
            return table.take(pos, axis=-1)

        self._leaf = leaf
        # the nonzero-mode masks of the last apply's inputs, as bytes, and its groups
        self._live: tuple[bytes, list[_Chunk]] = (b"", [])

    @property
    def chunks(self) -> list[_Chunk]:
        """The ``(idx, tensor, lin)`` groups of the last apply's live tuples."""
        return self._live[1]

    def _live_chunks(self, nonzero: list[np.ndarray]) -> list[_Chunk]:
        """The groups of the lattice tuples whose slot ``k`` takes a mode of
        ``nonzero[k]`` (sorted flat mode indices)."""
        grid, n = self.mult.grid, self.n
        d, half, modes = grid.dim, grid.n // 2, grid.n**grid.dim
        kvecs = grid.wavenumbers.reshape(d, modes)
        # flat indices and total wavenumbers of the trailing slots' tuples, in flat order
        tail, ktail = np.zeros(1, dtype=np.int64), np.zeros((d, 1), dtype=np.int64)
        for nz in nonzero[1:]:
            tail = (tail[:, None] * modes + nz).ravel()
            ktail = (ktail[:, :, None] + kvecs[:, None, nz]).reshape(d, -1)
        # one leading index at a time, so a dense pattern's temporaries stay small
        flat = [np.empty(0, dtype=np.int64)]
        for i in nonzero[0]:
            ktot = ktail + kvecs[:, i, None]
            flat.append(i * modes**n + tail[((ktot >= -half) & (ktot < half)).all(axis=0)])
        flat = np.concatenate(flat)
        bounds = np.searchsorted(flat, range(KERNEL_CHUNK, modes ** (n + 1), KERNEL_CHUNK))
        chunks = []
        for group in np.split(flat, bounds):
            if not group.size:
                continue
            idx = np.array(np.unravel_index(group, (modes,) * (n + 1)))
            tuples = np.stack([axis_k[idx] for axis_k in kvecs], axis=1)  # (n+1, d, B)
            tensor = _an(self._leaf, tuples, grid.length).reshape(d, d ** (n + 1), -1)
            lin = np.ravel_multi_index(tuple(tuples.sum(axis=0) % grid.n), grid.shape)
            chunks.append((idx, tensor, lin))
        return chunks

    def apply(self, *fields: SpectralVectorField) -> SpectralVectorField:
        grid = self.mult.grid
        _check_tuple(self.mult, self.n, fields)
        d = grid.dim
        modes = grid.n**d
        coeffs = [f.coeffs.reshape(d, modes) for f in fields]
        if not all(np.isfinite(c).all() for c in coeffs):
            raise ValueError("convolution oracle needs finite field coefficients")
        # a tuple with an all-zero mode in some input adds +-0 to its bin, and a
        # bincount sum (from +0, never -0) keeps its bits, so only live tuples
        # are contracted
        nonzero = [c.any(axis=0) for c in coeffs]
        pattern, chunks = self._live
        key = b"".join(nonzero)
        if key != pattern:
            chunks = self._live_chunks([np.flatnonzero(nz) for nz in nonzero])
            self._live = key, chunks
        re = np.zeros((d, modes))
        im = np.zeros((d, modes))
        for idx, tensor, lin in chunks:
            idx, tensor = _pair(idx), _pair(tensor)  # a lone tuple is contracted as a pair
            outer = coeffs[0].take(idx[0], axis=1)  # (d, B)
            for c, i in zip(coeffs[1:], idx[1:]):
                outer = (outer[:, None] * c.take(i, axis=1)).reshape(-1, idx.shape[1])
            vals = _einsum("okB,kB->oB", tensor, outer)[:, :len(lin)]
            for o in range(d):
                re[o] += np.bincount(lin, vals[o].real, modes)
                im[o] += np.bincount(lin, vals[o].imag, modes)
        out = (re + 1j * im) * ((2j * np.pi) ** self.n * grid.length ** (-self.n * d))
        return SpectralVectorField(grid, out.reshape((d,) + grid.shape))


@functools.lru_cache(maxsize=8)  # a kernel keeps its last live pattern's brackets, ~18 MB when dense
def convolution_kernel(mult: FourierMultiplier, n: int) -> ConvolutionKernel:
    """Build (or fetch) the cached brute-force kernel for ``A_n`` on this grid."""
    return ConvolutionKernel(mult, n)


def apply_An_convolution(
    mult: FourierMultiplier, n: int, *fields: SpectralVectorField
) -> SpectralVectorField:
    """Evaluate ``A_n`` as a brute-force multilinear lattice convolution.

    Sums ``a_n(k_0/L, ..., k_n/L)[u_0^(k_0), ..., u_n^(k_n)]`` over every
    lattice tuple with ``k_0 + ... + k_n`` still on the lattice.  Dense inputs
    make all ``(modes)^(n+1)`` tuples live, so tiny grids only; this is the
    independent oracle for :func:`apply_An_recursive`, not a production path.
    The kernel is cached per (multiplier, order): it builds the brackets of
    the live tuples only, those with a nonzero coefficient in every input
    (for band-limited inputs, far fewer), and keeps them, so further inputs
    with the same nonzero modes pay only the contraction.
    """
    if n == 0 and len(fields) == 1:
        return apply(mult, fields[0])
    return convolution_kernel(mult, n).apply(*fields)


# --- growth envelope ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CnEstimate:
    """Measured envelope ratio for ``a_n`` over a sampled tuple set."""

    n: int
    xi_max: float
    max_ratio: float
    per_radius: np.ndarray
    radii: np.ndarray
    sampling: str

    def report_lines(self, prefix: str = "") -> list[str]:
        return [
            f"{prefix}n: {self.n}",
            f"{prefix}xi_max: {self.xi_max:g}",
            f"{prefix}max_ratio: {self.max_ratio:.17g}",
            f"{prefix}sampling: {self.sampling}",
        ]


def _master_radii(xi_max: float) -> np.ndarray:
    # fixed dyadic-in-log grid so the sample set for a smaller xi_max nests
    # inside the one for a larger xi_max
    j_lo, j_hi = -16, int(math.floor(8 * math.log10(xi_max)) + 1e-9)
    return 10.0 ** (np.arange(j_lo, j_hi + 1) / 8.0)


def estimate_Cn(
    symbol: MatrixSymbol,
    n: int,
    xi_max: float = 1e3,
    seed: int = 0,
) -> CnEstimate:
    """Max of ``|a_n|`` against its product-of-weights envelope over sampled tuples.

    The envelope is ``prod_k lam(1, xi_k) * sum_{J subset {1..n}} lam(r-1,
    xi_0 + sum_{j in J} xi_j)``.  Tuples are drawn log-radially up to
    ``xi_max`` with random directions (and mixed per-factor radii for half the
    draws), 16 per radius; the radius grid nests across ``xi_max`` values so
    refinement stability is measured on nested sample sets.
    """
    _check_order(n)
    radii = _master_radii(xi_max)
    d = symbol.dim
    subsets = [list(J) for size in range(n + 1) for J in itertools.combinations(range(1, n + 1), size)]
    tuples_per_radius = 16
    scales, dirs = np.ones((2, len(radii), tuples_per_radius, n + 1, d))
    mixed = tuples_per_radius // 2
    for j in range(len(radii)):
        rng = np.random.default_rng(seed * 100_003 + j)
        dirs[j] = rng.standard_normal((tuples_per_radius, n + 1, d))
        dirs[j] /= np.linalg.norm(dirs[j], axis=-1, keepdims=True)
        scales[j, :mixed] = 10.0 ** rng.uniform(-2.0, 0.0, size=(mixed, n + 1, 1))
    # every radius in one batch, radius-major
    xis = (radii[:, None, None, None] * scales * dirs).reshape(-1, n + 1, d)
    an = symbol_an(symbol, n, xis)
    num = np.sqrt(np.sum(np.abs(an) ** 2, axis=tuple(range(1, an.ndim))))
    envelope = np.prod(sobolev_weight(1.0, xis), axis=-1)
    tail = np.zeros(len(xis))
    for J in subsets:
        pt = xis[:, 0, :] + (xis[:, J, :].sum(axis=1) if J else 0.0)
        tail += sobolev_weight(symbol.order - 1.0, pt)
    per_radius = (num / (envelope * tail)).reshape(len(radii), tuples_per_radius).max(axis=1)
    sampling = (
        f"{len(radii)} log radii (10^(j/8)) in [1e-2, {xi_max:g}], "
        f"{tuples_per_radius} direction tuples per radius (half mixed-radius), seed {seed}"
    )
    return CnEstimate(
        n=n,
        xi_max=xi_max,
        max_ratio=float(per_radius.max()),
        per_radius=per_radius,
        radii=radii,
        sampling=sampling,
    )


# --- frozen tensors and the recursion identity ----------------------------------

def _permutation_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _t_frozen(
    a_xi: np.ndarray, nn: int, positions: tuple[int, ...], frozen: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """Rank-(nn+2) tensor ``a(xi) (x) c_1 (x) ... (x) c_nn`` with frozen slots.

    ``a_xi`` holds the symbol at the running points ``xi`` ``(dim, B)``, as
    ``(dim, dim, B)``.  Covector slot ``p`` (1-based) carries ``frozen[i]``
    (of ``(r, dim, B)``) when ``p == positions[i]`` and ``xi`` otherwise.
    """
    out = a_xi
    for slot in range(1, nn + 1):
        vec = frozen[positions.index(slot)] if slot in positions else xi
        out = out[..., None, :] * vec
    return out


def _s_tensor_scaled(
    symbol: MatrixSymbol, nn: int, positions: tuple[int, ...], frozen: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, float]:
    """Component-major ``s_nn`` and the largest magnitude among its terms.

    A term's point depends only on its free subset, so the symbol is
    evaluated once per subset and shared by every frozen permutation.
    """
    r = len(positions)
    if len(frozen) != r or len(free) != nn - r + 1:
        raise ValueError("frozen/free argument counts do not match nn and positions")
    base_sum = frozen.sum(axis=0)
    subsets = [J for size in range(nn - r + 2) for J in itertools.combinations(range(nn - r + 1), size)]
    points = [base_sum + (free[list(J)].sum(axis=0) if J else 0.0) for J in subsets]
    values = [symbol(pt.T).transpose(1, 2, 0) for pt in points]
    out = None
    scale = 0.0
    for perm in itertools.permutations(range(r)):
        sign = _permutation_sign(perm)
        frozen_perm = frozen[list(perm)]
        for J, pt, a_pt in zip(subsets, points, values):
            term = _t_frozen(a_pt, nn, positions, frozen_perm, pt)
            scale = max(scale, float(np.abs(term).max()))
            signed = sign * (-1) ** len(J) * term
            out = signed if out is None else out + signed
    return out, scale


def s_tensor(
    symbol: MatrixSymbol,
    nn: int,
    positions: tuple[int, ...],
    frozen: np.ndarray,
    free: np.ndarray,
) -> np.ndarray:
    """Alternating-sum tensor ``s_nn`` over frozen-argument permutations and
    free-argument subsets; skew-symmetric in the frozen block, symmetric in
    the free block."""
    tensor, _ = _s_tensor_scaled(symbol, nn, positions, _component_major(frozen), _component_major(free))
    return _batch_major(tensor, frozen.shape[:-2])


def _rec_tensor_scaled(
    symbol: MatrixSymbol, nn: int, positions: tuple[int, ...], xis: np.ndarray
) -> tuple[np.ndarray, float, tuple[np.ndarray, float]]:
    """``Rec(s_nn)`` at ``(nn+2, dim, B)`` tuples and its term scale, with
    :func:`_s_tensor_scaled` at the plain tuple ``xis[:nn+1]``, which the
    recursion evaluates first."""
    r = len(positions)
    scale, plain = 0.0, None

    def minus_s(args: np.ndarray) -> np.ndarray:
        # Rec(s) = -shift_difference(s) = shift_difference(-s); negating each s
        # keeps the bits of s(shifted) - s(plain), zero signs included
        nonlocal scale, plain
        tensor, term_scale = _s_tensor_scaled(symbol, nn, positions, args[:r], args[r:])
        scale = max(scale, term_scale)
        if plain is None:
            plain = tensor, term_scale
        return -tensor

    out = _shift_difference(minus_s, xis)
    return out, scale * float(np.abs(xis).max()), plain


def rec_tensor(symbol: MatrixSymbol, nn: int, positions: tuple[int, ...], xis: np.ndarray) -> np.ndarray:
    """Apply the shift-difference recursion operator to ``s_nn`` at tuples
    ``(xi_0, ..., xi_{nn+1})`` of shape ``(..., nn+2, dim)``."""
    tensor, _, _ = _rec_tensor_scaled(symbol, nn, positions, _component_major(xis))
    return _batch_major(tensor, xis.shape[:-2])


@dataclass(frozen=True)
class SnIdentityReport:
    """Both-sides evaluation of the frozen-tensor recursion identity."""

    n: int
    dim: int
    passed: bool
    max_rel_error: float
    cases: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def report_lines(self, prefix: str = "") -> list[str]:
        lines = [
            f"{prefix}n: {self.n}",
            f"{prefix}dim: {self.dim}",
            f"{prefix}verdict: {'pass' if self.passed else 'fail'}",
            f"{prefix}max_rel_error: {self.max_rel_error:.3e}",
        ]
        for key in sorted(self.cases):
            lines.append(f"{prefix}{key}: {self.cases[key]:.3e}")
        for note in self.notes:
            lines.append(f"{prefix}note: {note}")
        return lines


def verify_sn_identity(symbol: MatrixSymbol, n: int, num_tuples: int = 100, seed: int = 0) -> SnIdentityReport:
    """Check ``Rec(s_n) = -s_{n+1} - s_{n+1}^{...,n+1}`` on random tuples.

    Also checks the stated symmetries (skew in the frozen block, symmetric in
    the free block) and records the measured sign relating ``a_1`` to
    ``2 pi i s_1^1`` under this package's transform convention.  The report
    passes when every relative error is at most 1e-10.
    """
    _check_order(n)
    if symbol.dim > 2:
        raise ValueError("identity check limited to dim <= 2 (tensor storage guard)")
    rng = np.random.default_rng(seed)
    d = symbol.dim
    cases: dict[str, float] = {}
    notes: list[str] = []

    def compare(lhs, rhs, term_scale):
        # relative to the result magnitude when the identity is non-trivial;
        # when both sides cancel to machine zero (in d=1 the fully
        # antisymmetrized tensors are exact zeros) measure against the
        # cancellation magnitude, where a wrong sign would still show as O(1)
        result_scale = max(np.abs(lhs).max(), np.abs(rhs).max())
        if result_scale <= 1e-12 * term_scale:
            return float(np.abs(lhs - rhs).max() / max(term_scale, 1e-300))
        return float(np.abs(lhs - rhs).max() / result_scale)

    for r in range(1, n + 1):
        for positions in itertools.combinations(range(1, n + 1), r):
            tag = f"r{r}_p{'_'.join(map(str, positions))}"
            xis = _component_major(rng.normal(0.0, 2.0, size=(num_tuples, n + 2, d)))
            lhs, scale_l, (s_plain, sc1) = _rec_tensor_scaled(symbol, n, positions, xis)
            rhs1, scale_1 = _s_tensor_scaled(symbol, n + 1, positions, xis[:r], xis[r:])
            frozen_second = xis[[*range(r), n + 1]]
            rhs2, scale_2 = _s_tensor_scaled(symbol, n + 1, positions + (n + 1,), frozen_second, xis[r : n + 1])
            cases[f"identity_{tag}"] = compare(lhs, -rhs1 - rhs2, max(scale_l, scale_1, scale_2))

            # skew symmetry in the frozen block, symmetry in the free block
            blocks = (xis[:r], xis[r : n + 1])
            for kind, b, sign in (("skew", 0, -1.0), ("sym", 1, 1.0)):
                if len(blocks[b]) < 2:
                    continue
                swapped = list(blocks)
                swapped[b] = blocks[b][[1, 0, *range(2, len(blocks[b]))]]
                s_swap, sc2 = _s_tensor_scaled(symbol, n, positions, *swapped)
                cases[f"{kind}_{tag}"] = compare(s_plain, sign * s_swap, max(sc1, sc2))
    worst = max(cases.values(), default=0.0)

    # measured relation between a_1 and s_1^1 under this transform convention
    pair = rng.normal(0.0, 2.0, size=(8, 2, d))
    a1 = symbol_an(symbol, 1, pair)
    s11 = s_tensor(symbol, 1, (1,), pair[:, :1, :], pair[:, 1:, :])
    plus = np.abs(a1 - 2j * np.pi * s11).max()
    minus = np.abs(a1 + 2j * np.pi * s11).max()
    rel_sign = "+" if plus < minus else "-"
    notes.append(
        f"measured a_1 = {rel_sign}2*pi*i * s_1^1 (commutator-oracle-fixed bracket orientation)"
    )

    return SnIdentityReport(
        n=n, dim=d, passed=worst <= 1e-10, max_rel_error=worst, cases=cases, notes=notes
    )
