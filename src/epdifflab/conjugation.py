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
return batch-major arrays through one conversion pair.

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
    directional_derivative,
)
from .operators import FourierMultiplier, apply
from .symbols import MatrixSymbol, sobolev_weight

MAX_DERIVATIVE_ORDER = 3
CONVOLUTION_GRID_LIMIT = {1: 32, 2: 8}
KERNEL_CHUNK = 1 << 14  # lattice tuples per kernel chunk; bounds the build temporaries


class HeadroomError(ValueError):
    """Inputs carry too much bandwidth for an exact derivative-tower evaluation."""


# --- operator recursion -------------------------------------------------------

def required_headroom(n: int, kmax: int) -> int:
    """Grid size needed so order-n tower output of |k|<=kmax inputs is exact."""
    return 2 * ((n + 1) * kmax + 1)


def apply_An_recursive(mult: FourierMultiplier, n: int, *fields: SpectralVectorField) -> SpectralVectorField:
    """Evaluate ``A_n(u_0, ..., u_n)`` by the operator recursion.

    All products are dealiased, and the inputs must be band-limited with
    enough headroom that no intermediate spectrum leaves the lattice; then the
    result is the exact multilinear operator value (symmetric in
    ``u_1, ..., u_n`` up to roundoff).
    """
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order limited to {MAX_DERIVATIVE_ORDER}, got {n}")
    if len(fields) != n + 1:
        raise ValueError(f"expected {n + 1} fields, got {len(fields)}")
    kmax = max(f.max_wavenumber() for f in fields)
    grid_n = mult.grid.n
    if n >= 1 and required_headroom(n, kmax) > grid_n:
        raise HeadroomError(
            f"insufficient band headroom: inputs reach |k|={kmax}, order {n} needs "
            f"grid n >= {required_headroom(n, kmax)} (have {grid_n}); refine the grid "
            f"or band-limit inputs to |k| <= {(grid_n // 2 - 1) // (n + 1)}"
        )
    return _tower(mult, list(fields))


def _tower(mult: FourierMultiplier, us: list[SpectralVectorField]) -> SpectralVectorField:
    if len(us) == 1:
        return apply(mult, us[0])
    prefix, last = us[:-1], us[-1]
    out = directional_derivative(last, _tower(mult, prefix))
    for k in range(len(prefix)):
        modified = list(prefix)
        modified[k] = directional_derivative(last, modified[k])
        out = out - _tower(mult, modified)
    return out


def commutator_A1(mult: FourierMultiplier, u0: SpectralVectorField, u1: SpectralVectorField) -> SpectralVectorField:
    """Direct form of the first derivative, ``[grad_{u_1}, A] u_0``."""
    return directional_derivative(u1, apply(mult, u0)) - apply(mult, directional_derivative(u1, u0))


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
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order limited to {MAX_DERIVATIVE_ORDER}, got {n}")
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

def check_oracle_cost(dim: int, n: int) -> None:
    """Raise ``ValueError`` unless the oracle's ``(n^dim)^(order+1)`` lattice tuples stay few."""
    limit = CONVOLUTION_GRID_LIMIT.get(dim)
    if limit is None or n > limit:
        allowed = " or ".join(f"n <= {m} in dimension {d}" for d, m in CONVOLUTION_GRID_LIMIT.items())
        raise ValueError(
            f"convolution oracle cost guard: grid n = {n} in dimension {dim}; allowed: {allowed}"
        )


class ConvolutionKernel:
    """Precomputed lattice tuples and symbol tensors for the brute-force oracle.

    The tensor values depend only on the multiplier and the order, so one
    kernel serves any number of input tuples.  Every point the recursion
    evaluates the symbol at is a partial sum of ``n+1`` lattice wavenumbers
    divided by ``L``, so the symbol is evaluated once, on the integer box
    ``[-(n+1) N/2, (n+1) (N/2 - 1)]^dim`` of such sums (``N`` points per
    axis), and each leaf of the bracket recursion :func:`_an` is a ``take``
    from that table.  The tuples are those of the flat range
    ``0 .. modes^(n+1)`` whose total wavenumber stays on the lattice, in
    chunks of that range ``KERNEL_CHUNK`` long.  Each chunk holds the field indices ``idx`` ``(n+1, B)`` of its tuples, the brackets
    ``a_n / (2 pi i)^n`` stored component-major as ``(dim, dim^(n+1), B)``
    (float64 for a real symbol, complex128 otherwise), and the flat output
    mode ``lin`` of each tuple.  Applying it contracts the gathered fields'
    outer product against each chunk, scatters with ``bincount`` and
    multiplies once by ``(2 pi i)^n L^(-n dim)``.
    """

    def __init__(self, mult: FourierMultiplier, n: int):
        grid = mult.grid
        if not 1 <= n <= 2:
            raise ValueError("convolution oracle limited to 1 <= n <= 2")
        check_oracle_cost(grid.dim, grid.n)
        self.mult = mult
        self.n = n
        d = grid.dim
        modes = grid.n**d
        half = grid.n // 2
        kvecs = grid.wavenumbers.reshape(d, modes)
        low = -(n + 1) * half
        width = (n + 1) * (grid.n - 1) + 1
        box = np.indices((width,) * d).reshape(d, -1) + low
        values = mult.symbol(box.T / grid.length)
        table = np.ascontiguousarray((values if values.imag.any() else values.real).transpose(1, 2, 0))

        def leaf(points: np.ndarray) -> np.ndarray:
            pos = points[0] - low
            for row in points[1:]:
                pos = pos * width + (row - low)
            return table.take(pos, axis=-1)

        # flat tuple index -> inside-the-lattice mask, one broadcast per axis
        shape = (modes,) * (n + 1)
        inside = np.ones(shape, dtype=bool)
        for axis_k in kvecs:
            ktot = sum(axis_k.reshape((modes,) + (1,) * (n - slot)) for slot in range(n + 1))
            inside &= (ktot >= -half) & (ktot < half)
        flat = np.flatnonzero(inside)
        bounds = np.searchsorted(flat, range(KERNEL_CHUNK, inside.size, KERNEL_CHUNK))
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for chunk in np.split(flat, bounds):
            if not chunk.size:
                continue
            idx = np.array(np.unravel_index(chunk, shape))
            tuples = np.stack([axis_k[idx] for axis_k in kvecs], axis=1)  # (n+1, d, B)
            tensor = _an(leaf, tuples, grid.length).reshape(d, d ** (n + 1), -1)
            lin = np.ravel_multi_index(tuple(tuples.sum(axis=0) % grid.n), grid.shape)
            self.chunks.append((idx, tensor, lin))

    def apply(self, *fields: SpectralVectorField) -> SpectralVectorField:
        grid = self.mult.grid
        if len(fields) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} fields, got {len(fields)}")
        for f in fields:
            if f.grid != grid:
                raise ValueError("all fields must live on the multiplier's grid")
        d = grid.dim
        modes = grid.n**d
        coeffs = [f.coeffs.reshape(d, modes) for f in fields]
        re = np.zeros((d, modes))
        im = np.zeros((d, modes))
        for idx, tensor, lin in self.chunks:
            outer = coeffs[0].take(idx[0], axis=1)  # (d, B)
            for c, i in zip(coeffs[1:], idx[1:]):
                outer = (outer[:, None] * c.take(i, axis=1)).reshape(-1, len(lin))
            vals = np.einsum("okB,kB->oB", tensor, outer)
            for o in range(d):
                re[o] += np.bincount(lin, vals[o].real, modes)
                im[o] += np.bincount(lin, vals[o].imag, modes)
        out = (re + 1j * im) * ((2j * np.pi) ** self.n * grid.length ** (-self.n * d))
        return SpectralVectorField(grid, out.reshape((d,) + grid.shape))


@functools.lru_cache(maxsize=8)  # a kernel reaches ~18 MB; keep the cache small
def convolution_kernel(mult: FourierMultiplier, n: int) -> ConvolutionKernel:
    """Build (or fetch) the cached brute-force kernel for ``A_n`` on this grid."""
    return ConvolutionKernel(mult, n)


def apply_An_convolution(
    mult: FourierMultiplier, n: int, *fields: SpectralVectorField
) -> SpectralVectorField:
    """Evaluate ``A_n`` as a brute-force multilinear lattice convolution.

    Sums ``a_n(k_0/L, ..., k_n/L)[u_0^(k_0), ..., u_n^(k_n)]`` over every
    lattice tuple with ``k_0 + ... + k_n`` still on the lattice.  The cost is
    ``(modes)^(n+1)``, so tiny grids only; this is the independent oracle for
    :func:`apply_An_recursive`, not a production path.  The symbol tensors are
    cached per (multiplier, order), so repeated inputs pay only a contraction.
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
    tuples_per_radius: int = 16,
    seed: int = 0,
) -> CnEstimate:
    """Max of ``|a_n|`` against its product-of-weights envelope over sampled tuples.

    The envelope is ``prod_k lam(1, xi_k) * sum_{J subset {1..n}} lam(r-1,
    xi_0 + sum_{j in J} xi_j)``.  Tuples are drawn log-radially up to
    ``xi_max`` with random directions (and mixed per-factor radii for half the
    draws); the radius grid nests across ``xi_max`` values so refinement
    stability is measured on nested sample sets.
    """
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order limited to {MAX_DERIVATIVE_ORDER}, got {n}")
    radii = _master_radii(xi_max)
    d = symbol.dim
    subsets = [list(J) for size in range(n + 1) for J in itertools.combinations(range(1, n + 1), size)]
    per_radius = np.zeros(len(radii))
    for j, rho in enumerate(radii):
        rng = np.random.default_rng(seed * 100_003 + j)
        dirs = rng.standard_normal((tuples_per_radius, n + 1, d))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        scales = np.ones((tuples_per_radius, n + 1, 1))
        mixed = tuples_per_radius // 2
        scales[:mixed] = 10.0 ** rng.uniform(-2.0, 0.0, size=(mixed, n + 1, 1))
        xis = rho * scales * dirs
        an = symbol_an(symbol, n, xis)
        num = np.sqrt(np.sum(np.abs(an) ** 2, axis=tuple(range(1, an.ndim))))
        envelope = np.prod(sobolev_weight(1.0, xis), axis=-1)
        tail = np.zeros(tuples_per_radius)
        for J in subsets:
            pt = xis[:, 0, :] + (xis[:, J, :].sum(axis=1) if J else 0.0)
            tail += sobolev_weight(symbol.order - 1.0, pt)
        per_radius[j] = float((num / (envelope * tail)).max())
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
    symbol: MatrixSymbol, nn: int, positions: tuple[int, ...], frozen: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """Rank-(nn+2) tensor ``a(xi) (x) c_1 (x) ... (x) c_nn`` with frozen slots.

    Covector slot ``p`` (1-based) carries ``frozen[i]`` (of ``(r, dim, B)``)
    when ``p == positions[i]`` and the running points ``xi`` ``(dim, B)`` otherwise.
    """
    out = symbol(xi.T).transpose(1, 2, 0)
    for slot in range(1, nn + 1):
        vec = frozen[positions.index(slot)] if slot in positions else xi
        out = out[..., None, :] * vec
    return out


def _s_tensor_scaled(
    symbol: MatrixSymbol, nn: int, positions: tuple[int, ...], frozen: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, float]:
    """Component-major ``s_nn`` and the largest magnitude among its terms."""
    r = len(positions)
    if len(frozen) != r or len(free) != nn - r + 1:
        raise ValueError("frozen/free argument counts do not match nn and positions")
    base_sum = frozen.sum(axis=0)
    out = None
    scale = 0.0
    for perm in itertools.permutations(range(r)):
        sign = _permutation_sign(perm)
        frozen_perm = frozen[list(perm)]
        for size in range(nn - r + 2):
            for J in itertools.combinations(range(nn - r + 1), size):
                pt = base_sum + (free[list(J)].sum(axis=0) if J else 0.0)
                term = _t_frozen(symbol, nn, positions, frozen_perm, pt)
                scale = max(scale, float(np.abs(term).max()))
                signed = sign * (-1) ** size * term
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
) -> tuple[np.ndarray, float]:
    r = len(positions)
    scale = 0.0

    def minus_s(args: np.ndarray) -> np.ndarray:
        # Rec(s) = -shift_difference(s) = shift_difference(-s); negating each s
        # keeps the bits of s(shifted) - s(plain), zero signs included
        nonlocal scale
        tensor, term_scale = _s_tensor_scaled(symbol, nn, positions, args[:r], args[r:])
        scale = max(scale, term_scale)
        return -tensor

    out = _shift_difference(minus_s, xis)
    return out, scale * float(np.abs(xis).max())


def rec_tensor(symbol: MatrixSymbol, nn: int, positions: tuple[int, ...], xis: np.ndarray) -> np.ndarray:
    """Apply the shift-difference recursion operator to ``s_nn`` at tuples
    ``(xi_0, ..., xi_{nn+1})`` of shape ``(..., nn+2, dim)``."""
    tensor, _ = _rec_tensor_scaled(symbol, nn, positions, _component_major(xis))
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


def verify_sn_identity(
    symbol: MatrixSymbol, n: int, num_tuples: int = 100, seed: int = 0, tol: float = 1e-10
) -> SnIdentityReport:
    """Check ``Rec(s_n) = -s_{n+1} - s_{n+1}^{...,n+1}`` on random tuples.

    Also checks the stated symmetries (skew in the frozen block, symmetric in
    the free block) and records the measured sign relating ``a_1`` to
    ``2 pi i s_1^1`` under this package's transform convention.
    """
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order limited to {MAX_DERIVATIVE_ORDER}, got {n}")
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
            lhs, scale_l = _rec_tensor_scaled(symbol, n, positions, xis)
            rhs1, scale_1 = _s_tensor_scaled(symbol, n + 1, positions, xis[:r], xis[r:])
            frozen_second = xis[[*range(r), n + 1]]
            rhs2, scale_2 = _s_tensor_scaled(symbol, n + 1, positions + (n + 1,), frozen_second, xis[r : n + 1])
            cases[f"identity_{tag}"] = compare(lhs, -rhs1 - rhs2, max(scale_l, scale_1, scale_2))

            # skew symmetry in the frozen block, symmetry in the free block
            blocks = (xis[:r], xis[r : n + 1])
            swaps = [(kind, b, sign) for kind, b, sign in (("skew", 0, -1.0), ("sym", 1, 1.0))
                     if len(blocks[b]) >= 2]
            if swaps:
                s_plain, sc1 = _s_tensor_scaled(symbol, n, positions, *blocks)
            for kind, b, sign in swaps:
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
        n=n, dim=d, passed=worst <= tol, max_rel_error=worst, cases=cases, notes=notes
    )
