"""Fourier multipliers acting on spectral fields, with norms and inner products.

A multiplier applies its matrix symbol diagonally in frequency:
``(a(D) u)^(k) = a(k/L) u^(k)``.  Elliptic multipliers additionally carry a
precomputed inverse table, so inversion in the time loop costs one
matrix-vector product per mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .grid import GridMismatchError, SpectralVectorField, TorusGrid
from .symbols import ClassCertificate, MatrixSymbol, check_ellipticity, sobolev_weight


class EllipticityError(ValueError):
    """A symbol failed the checks an inverse table is built behind."""


@dataclass(frozen=True, eq=False)
class FourierMultiplier:
    """Matrix symbol tabulated on a grid's frequency lattice.

    ``table`` holds ``a(k/L)`` with shape ``(n, ..., n, d, d)``; ``inv_table``
    is present only when the symbol's ellipticity certificate passed, and then
    satisfies ``table @ inv_table = I`` to 1e-13 at every mode.
    """

    symbol: MatrixSymbol
    grid: TorusGrid
    table: np.ndarray
    inv_table: Optional[np.ndarray] = None
    ellipticity: Optional[ClassCertificate] = None

    @classmethod
    def build(cls, symbol: MatrixSymbol, grid: TorusGrid) -> "FourierMultiplier":
        """Tabulate a symbol on the lattice without inverting it."""
        if symbol.dim != grid.dim:
            raise ValueError(f"symbol dim {symbol.dim} != grid dim {grid.dim}")
        pts = grid.frequency_points()
        table = symbol(pts).reshape(grid.shape + (grid.dim, grid.dim))
        return cls(symbol=symbol, grid=grid, table=table)

    @classmethod
    def build_elliptic(
        cls, symbol: MatrixSymbol, grid: TorusGrid, xi_max: float = 1e3
    ) -> "FourierMultiplier":
        """Tabulate an elliptic symbol together with its inverse table.

        Runs the ellipticity certificate first (out to ``xi_max``; lattice
        -sampled symbols should cap this at the represented band); a failing
        symbol is rejected, so ``apply_inverse`` is only ever available behind
        a passed check.  A table that overflows on the lattice fails the
        residual check, without a floating-point warning.
        """
        cert = check_ellipticity(symbol, xi_max=xi_max)
        if not cert.verdict:
            raise EllipticityError(f"symbol '{symbol.name}' failed the ellipticity check")
        with np.errstate(over="ignore", invalid="ignore"):
            base = cls.build(symbol, grid)
            inv = np.linalg.inv(base.table)
            resid = np.abs(base.table @ inv - np.eye(grid.dim)).max()
        if not resid <= 1e-13:
            raise EllipticityError(f"inverse table residual {resid:.3g} exceeds 1e-13")
        return cls(symbol=symbol, grid=grid, table=base.table, inv_table=inv, ellipticity=cert)

    @property
    def invertible(self) -> bool:
        return self.inv_table is not None

    @cached_property
    def half_inv_table(self) -> np.ndarray:
        """A view of ``inv_table`` on the last-axis bins ``0..n/2`` that half spectra keep."""
        lead = (slice(None),) * (self.grid.dim - 1)
        return self.inv_table[lead + (slice(0, self.grid.plan.half),)]


def apply(mult: FourierMultiplier, u: SpectralVectorField) -> SpectralVectorField:
    """Apply ``a(D)``: multiply each coefficient vector by the tabulated matrix."""
    if u.grid != mult.grid:
        raise GridMismatchError("field and multiplier live on different grids")
    out = np.einsum("...ij,j...->i...", mult.table, u.coeffs)
    return SpectralVectorField(u.grid, out)


def _require_inverse(mult: FourierMultiplier, w: SpectralVectorField) -> None:
    if mult.inv_table is None:
        raise ValueError("multiplier has no inverse table (not built as elliptic)")
    if w.grid is not mult.grid and w.grid != mult.grid:
        raise GridMismatchError("field and multiplier live on different grids")


def apply_inverse(mult: FourierMultiplier, w: SpectralVectorField) -> SpectralVectorField:
    """Apply ``a(D)^-1``; available only for multipliers built elliptic."""
    _require_inverse(mult, w)
    out = np.einsum("...ij,j...->i...", mult.inv_table, w.coeffs)
    return SpectralVectorField(w.grid, out)


def _apply_inverse_half(
    mult: FourierMultiplier, w: SpectralVectorField, out: np.ndarray
) -> np.ndarray:
    """Write the half spectra ``(d, n, ..., n/2+1)`` of ``a(D)^-1 w`` to ``out``,
    with the checks of :func:`apply_inverse`."""
    _require_inverse(mult, w)
    half = w.coeffs[..., :w.grid.plan.half]
    return np.einsum("...ij,j...->i...", mult.half_inv_table, half, out=out)


def sobolev_norm(u: SpectralVectorField, q: float) -> float:
    """Discrete H^q norm: frequency sum with weight ``(1 + |2 pi k/L|^2)^(q/2)``.

    ``q = 0`` recovers the L^2 norm (Parseval); the norm is monotone in ``q``.
    Diagnostics quoting constants should remember the companion plain
    ``(1 + |k/L|^2)^(q/2)`` convention differs by powers of ``2 pi``.
    """
    grid = u.grid
    weight = sobolev_weight(q, grid.frequency_points()).reshape(grid.shape)
    total = np.sum(weight**2 * np.sum(np.abs(u.coeffs) ** 2, axis=0))
    return float(np.sqrt(total / grid.length**grid.dim))


def inner_product(mult: FourierMultiplier, u: SpectralVectorField, v: SpectralVectorField) -> float:
    """Metric pairing ``integral (A u) . v dx`` for Hermitian positive definite ``A``."""
    if not (mult.symbol.hermitian and mult.symbol.positive_definite):
        raise ValueError("inner products need a Hermitian positive definite symbol")
    if u.grid != mult.grid or v.grid != mult.grid:
        raise GridMismatchError("fields and multiplier live on different grids")
    au = np.einsum("...ij,j...->i...", mult.table, u.coeffs)
    total = np.sum(np.conj(v.coeffs) * au).real
    return float(total / mult.grid.length**mult.grid.dim)


def sobolev_multiplier(s: float, grid: TorusGrid) -> FourierMultiplier:
    """Convenience: the inertia operator ``(1 - Laplacian)^s`` on a grid, invertible."""
    from .symbols import sobolev_symbol

    return FourierMultiplier.build_elliptic(sobolev_symbol(s, grid.dim), grid)
