"""Fourier multipliers acting on spectral fields, with Sobolev norms.

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

from .grid import SpectralVectorField, TorusGrid, _einsum, _require_same_grid
from .symbols import (
    SYMMETRY_GAP,
    MatrixSymbol,
    _diagonal,
    _positive_diagonal,
    _relative_gap,
    check_ellipticity,
    sobolev_weight,
)


class EllipticityError(ValueError):
    """A symbol failed the checks an inverse table is built behind."""


@dataclass(frozen=True, eq=False)
class FourierMultiplier:
    """Matrix symbol tabulated on a grid's frequency lattice.

    ``table`` holds ``a(k/L)`` with shape ``(n, ..., n, d, d)``; ``inv_table``
    is present only when the symbol's ellipticity certificate passed, and then
    satisfies ``table @ inv_table = I`` to 1e-13 at every mode.  On a positive
    real diagonal table, such as the inertia operator ``(1 - Laplacian)^s``'s,
    ``inv_table`` is the entrywise reciprocal, with the bytes that
    ``np.linalg.inv`` gives.
    """

    symbol: MatrixSymbol
    grid: TorusGrid
    table: np.ndarray
    inv_table: Optional[np.ndarray] = None

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
        a passed check.

        The table picks how it is inverted (:func:`_inverse_table`): a
        positive real diagonal one, as every ``sobolev`` table is, entrywise
        as ``1 / a`` on the diagonal and ``+0`` elsewhere, any other by
        ``np.linalg.inv``.  Either way ``table @ inv_table = I`` must hold to
        1e-13 (on the entrywise route ``|a (1/a) - 1|``), so a table that
        overflows on the lattice fails the residual check, without a
        floating-point warning.  A table singular at some mode is rejected
        with that mode's wavenumber ``k``.
        """
        cert = check_ellipticity(symbol, xi_max=xi_max)
        if not cert.verdict:
            raise EllipticityError(f"symbol '{symbol.name}' failed the ellipticity check")
        with np.errstate(over="ignore", invalid="ignore"):
            table = cls.build(symbol, grid).table
        inv, resid = _inverse_table(table, grid)
        if not resid <= 1e-13:
            raise EllipticityError(f"inverse table residual {resid:.3g} exceeds 1e-13")
        return cls(symbol=symbol, grid=grid, table=table, inv_table=inv)

    @cached_property
    def _symmetry_error(self) -> Optional[str]:
        """:func:`conjugate_symmetry_error` of the table, evaluated once per multiplier."""
        return conjugate_symmetry_error(self.table, self.grid)

    # Half tables are contiguous copies: at d >= 2 einsum runs 3-5 times
    # slower on the strided view of a full table, with the same bits.
    @cached_property
    def half_table(self) -> np.ndarray:
        """``table`` on the last-axis bins ``0..n/2`` that half spectra keep."""
        return np.ascontiguousarray(self.table[..., :self.grid.plan.half, :, :])

    @cached_property
    def half_inv_table(self) -> np.ndarray:
        """``inv_table`` on the last-axis bins ``0..n/2``."""
        return np.ascontiguousarray(self.inv_table[..., :self.grid.plan.half, :, :])


def _inverse_table(table: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, float]:
    """The inverse of a lattice table and the residual of ``table @ inv = I``.

    A positive real diagonal table (:func:`_positive_diagonal`) is inverted
    entrywise, any other by ``np.linalg.inv``; a table that ``np.linalg.inv``
    finds singular raises :class:`EllipticityError` naming the first such mode.
    A non-finite table gives a NaN residual, without a floating-point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        diag = _positive_diagonal(table)
        if diag is not None:
            inv = np.zeros(table.shape, dtype=table.dtype)
            inv_diag = np.divide(1.0, diag, out=_diagonal(inv))
            # both imaginary parts are +0, so a (1/a) is real (nan where a is inf)
            gap = np.multiply(diag.real, inv_diag.real)
            gap -= 1.0
            return inv, np.abs(gap, out=gap).max()
        try:
            inv = np.linalg.inv(table)
        except np.linalg.LinAlgError:
            k = grid.wavenumbers[(slice(None),) + _first_singular(table, grid)]
            raise EllipticityError(f"table is singular at k={k.tolist()}") from None
        return inv, np.abs(table @ inv - np.eye(grid.dim)).max()


def _first_singular(table: np.ndarray, grid: TorusGrid) -> tuple:
    """Index in ``grid.shape`` of the first mode, in C order, whose matrix
    ``np.linalg.inv`` rejects as singular; the table must have one."""
    flat = table.reshape((-1,) + table.shape[-2:])
    lo, hi = 0, len(flat)  # flat[:lo] inverts, flat[:hi] does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.inv(flat[:mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return np.unravel_index(lo, grid.shape)


def conjugate_symmetry_error(table: np.ndarray, grid: TorusGrid) -> Optional[str]:
    """Where a lattice table ``(n, ..., n, d, d)`` breaks ``a(-k) = conj(a(k))``
    by more than ``SYMMETRY_GAP`` (relative), or ``None``.

    That is what keeps real fields real.  The padded passes of the RK4
    stages and of the operator recursion read half spectra only, and the RK4
    step rebuilds every negative last-axis bin by conjugate reflection, so a
    table that breaks it would act through entries no pass reads.
    """
    flip = -np.arange(grid.n) % grid.n
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite table fails later checks
        rel = _relative_gap(table, np.conj(table[np.ix_(*([flip] * grid.dim))]))
    if not rel.max() > SYMMETRY_GAP:
        return None
    worst = np.unravel_index(np.argmax(rel), grid.shape)
    k = grid.wavenumbers[(slice(None),) + worst]
    return f"breaks a(-k) = conj(a(k)): relative gap {rel.max():.3g} at k={k.tolist()}"


def _require_conjugate_symmetric(mult: FourierMultiplier) -> None:
    """Raise ``ValueError`` before a half-spectrum pass with a table that
    breaks ``a(-k) = conj(a(k))``."""
    if mult._symmetry_error is not None:
        raise ValueError(f"multiplier of symbol '{mult.symbol.name}' {mult._symmetry_error}")


def apply(mult: FourierMultiplier, u: SpectralVectorField) -> SpectralVectorField:
    """Apply ``a(D)``: multiply each coefficient vector by the tabulated matrix."""
    _require_same_grid(u, mult)
    out = _einsum("...ij,j...->i...", mult.table, u.coeffs)
    return SpectralVectorField(u.grid, out)


def _require_inverse(mult: FourierMultiplier, w: SpectralVectorField) -> None:
    if mult.inv_table is None:
        raise ValueError("multiplier has no inverse table (not built as elliptic)")
    _require_same_grid(w, mult)


def apply_inverse(mult: FourierMultiplier, w: SpectralVectorField) -> SpectralVectorField:
    """Apply ``a(D)^-1``; available only for multipliers built elliptic."""
    _require_inverse(mult, w)
    out = _einsum("...ij,j...->i...", mult.inv_table, w.coeffs)
    return SpectralVectorField(w.grid, out)


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


def sobolev_multiplier(s: float, grid: TorusGrid) -> FourierMultiplier:
    """Convenience: the inertia operator ``(1 - Laplacian)^s`` on a grid, invertible."""
    from .symbols import sobolev_symbol

    return FourierMultiplier.build_elliptic(sobolev_symbol(s, grid.dim), grid)
