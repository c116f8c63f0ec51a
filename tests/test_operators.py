"""Tests for multiplier application, inversion, Sobolev norms, inner products."""

import numpy as np
import pytest

from epdifflab.grid import GridMismatchError, SpectralVectorField, TorusGrid, l2_inner
from epdifflab.operators import (
    EllipticityError,
    FourierMultiplier,
    _inverse_table,
    _positive_diagonal,
    apply,
    apply_inverse,
    sobolev_multiplier,
    sobolev_norm,
)
from epdifflab.symbols import shear_laplacian_symbol, sobolev_symbol

from test_grid import band_limited, imag_residual, spectral_gradient, translate

FOUR_PI_SQ = 4 * np.pi**2


def inner_product(mult, u, v):
    """Metric pairing ``integral (A u) . v dx`` for Hermitian positive definite ``A``."""
    if not (mult.symbol.hermitian and mult.symbol.positive_definite):
        raise ValueError("inner products need a Hermitian positive definite symbol")
    return l2_inner(v, apply(mult, u))


@pytest.fixture(scope="module")
def grid1():
    return TorusGrid(1, 64)


@pytest.fixture(scope="module")
def lam2(grid1):
    return sobolev_multiplier(1.0, grid1)


class TestApply:
    def test_identity_symbol(self, grid1):
        ident = FourierMultiplier.build(sobolev_symbol(0.0, 1), grid1)
        u = band_limited(grid1, 20, seed=0)
        out = apply(ident, u)
        assert np.abs(out.coeffs - u.coeffs).max() < 1e-14

    def test_camassa_holm_inertia_on_harmonic(self, grid1, lam2):
        # 1 - d2/dx2 applied to sin(2 pi x) gives (1 + 4 pi^2) sin(2 pi x)
        x = grid1.coordinates[0]
        u = SpectralVectorField.from_samples(grid1, np.sin(2 * np.pi * x)[None])
        out = apply(lam2, u).samples()
        expected = (1 + FOUR_PI_SQ) * np.sin(2 * np.pi * x)
        assert np.abs(out[0] - expected).max() < 1e-11

    def test_second_derivative_oracle(self, grid1, lam2):
        # compare against u - u'' computed by spectral differentiation
        u = band_limited(grid1, 20, seed=1)
        direct = u - spectral_gradient(spectral_gradient(u, 0), 0)
        out = apply(lam2, u)
        assert np.abs(out.coeffs - direct.coeffs).max() < 1e-11 * np.abs(direct.coeffs).max()

    def test_multipliers_commute(self, grid1):
        a = sobolev_multiplier(0.7, grid1)
        b = sobolev_multiplier(1.3, grid1)
        u = band_limited(grid1, 25, seed=2)
        ab = apply(a, apply(b, u))
        ba = apply(b, apply(a, u))
        assert np.abs(ab.coeffs - ba.coeffs).max() < 1e-13 * np.abs(ab.coeffs).max()

    def test_realness_preserved(self, grid1, lam2):
        u = band_limited(grid1, 30, seed=3)
        assert imag_residual(apply(lam2, u)) < 1e-11

    def test_grid_mismatch(self, lam2):
        for other in (TorusGrid(1, 32), TorusGrid(1, 64, length=2.0)):
            u = band_limited(other, 4)
            with pytest.raises(GridMismatchError):
                apply(lam2, u)
            with pytest.raises(GridMismatchError):
                apply_inverse(lam2, u)


class TestInverse:
    def test_identity(self, grid1):
        ident = sobolev_multiplier(0.0, grid1)
        u = band_limited(grid1, 10, seed=4)
        assert np.abs(apply_inverse(ident, u).coeffs - u.coeffs).max() < 1e-14

    def test_round_trip(self, grid1, lam2):
        u = band_limited(grid1, 30, seed=5)
        w = apply(lam2, u)
        back = apply_inverse(lam2, w)
        assert np.abs(back.coeffs - u.coeffs).max() < 1e-12 * np.abs(u.coeffs).max()
        again = apply(lam2, apply_inverse(lam2, w))
        assert np.abs(again.coeffs - w.coeffs).max() < 1e-12 * np.abs(w.coeffs).max()

    def test_harmonic_value(self, grid1, lam2):
        x = grid1.coordinates[0]
        w = SpectralVectorField.from_samples(
            grid1, ((1 + FOUR_PI_SQ) * np.sin(2 * np.pi * x))[None]
        )
        u = apply_inverse(lam2, w).samples()
        assert np.abs(u[0] - np.sin(2 * np.pi * x)).max() < 1e-12

    def test_unavailable_without_ellipticity(self, grid1):
        plain = FourierMultiplier.build(sobolev_symbol(1.0, 1), grid1)
        u = band_limited(grid1, 5, seed=6)
        with pytest.raises(ValueError, match="inverse"):
            apply_inverse(plain, u)

    def test_non_elliptic_rejected(self):
        grid = TorusGrid(2, 16)
        with pytest.raises(ValueError, match="ellipticity"):
            FourierMultiplier.build_elliptic(shear_laplacian_symbol(1.0), grid)


def _lapack_bytes(table):
    """``np.linalg.inv(table)`` as bytes, or the exception type it raises."""
    try:
        return np.linalg.inv(table).tobytes()
    except np.linalg.LinAlgError as exc:
        return type(exc)


class TestInverseRoutes:
    """The entrywise route must give the bytes ``np.linalg.inv`` gives on
    every table it takes, and leave every other table to ``np.linalg.inv``."""

    @pytest.mark.parametrize("dim,sizes", [(1, (16, 64, 256, 1024)), (2, (8, 32, 64)), (3, (8, 16, 32))])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_sobolev_tables_take_the_entrywise_route_with_lapack_bytes(self, dim, sizes, s):
        for n in sizes:
            mult = sobolev_multiplier(s, TorusGrid(dim, n))
            assert _positive_diagonal(mult.table) is not None
            assert mult.inv_table.tobytes() == _lapack_bytes(mult.table)

    @pytest.mark.parametrize("dim,n", [(1, 4096), (2, 64), (3, 16)])
    def test_random_positive_diagonals_take_the_entrywise_route_with_lapack_bytes(self, dim, n):
        grid = TorusGrid(dim, n)
        rng = np.random.default_rng(dim)
        table = np.zeros(grid.shape + (dim, dim), dtype=complex)
        for i in range(dim):
            table[..., i, i] = 10.0 ** rng.uniform(-300, 300, grid.shape)
        assert _positive_diagonal(table) is not None
        inv, resid = _inverse_table(table, grid)
        assert inv.tobytes() == _lapack_bytes(table) and resid <= 1e-13

    @pytest.mark.parametrize("entry", ["negative", "complex", "minus_zero_imag", "nan", "off_diagonal"])
    def test_other_tables_keep_lapack_bytes(self, entry):
        grid = TorusGrid(2, 8)
        table = sobolev_multiplier(1.0, grid).table.copy()
        mode = table[1, 2]
        if entry == "negative":
            mode[0, 0] *= -1
        elif entry == "complex":
            mode[1, 1] += 0.5j
        elif entry == "minus_zero_imag":
            mode[0, 0] = complex(mode[0, 0].real, -0.0)
        elif entry == "nan":
            mode[1, 1] = np.nan
        else:  # positive definite Hermitian at every mode
            table[..., 0, 1] = table[..., 1, 0] = 0.25 * table[..., 0, 0]
        assert _positive_diagonal(table) is None
        inv, resid = _inverse_table(table, grid)
        assert inv.tobytes() == _lapack_bytes(table)
        assert (resid <= 1e-13) == (entry != "nan")

    def test_infinite_entry_gives_a_nan_residual_without_a_warning(self):
        # a table that overflows on the lattice; inf * 0 is nan
        grid = TorusGrid(2, 8)
        table = sobolev_multiplier(1.0, grid).table.copy()
        table[1, 2, 0, 0] = np.inf
        assert _positive_diagonal(table) is not None
        inv, resid = _inverse_table(table, grid)
        assert np.isnan(resid)
        assert inv.tobytes() == _lapack_bytes(table)

    def test_singular_table_names_its_first_singular_mode(self):
        grid = TorusGrid(2, 8)
        table = sobolev_multiplier(1.0, grid).table.copy()
        table[5, 3, 1, 1] = table[1, 2, 0, 0] = 0.0
        assert _positive_diagonal(table) is None
        assert _lapack_bytes(table) is np.linalg.LinAlgError
        with pytest.raises(EllipticityError, match=r"singular at k=\[1, 2\]"):
            _inverse_table(table, grid)


class TestSobolevNorm:
    def test_zero_field(self, grid1):
        assert sobolev_norm(SpectralVectorField.zero(grid1), 1.5) == 0.0

    def test_l2_of_unit_harmonic(self, grid1):
        x = grid1.coordinates[0]
        u = SpectralVectorField.from_samples(grid1, np.sin(2 * np.pi * x)[None])
        assert sobolev_norm(u, 0.0) == pytest.approx(1 / np.sqrt(2), rel=1e-13)

    def test_single_mode_weight(self, grid1):
        x = grid1.coordinates[0]
        u = SpectralVectorField.from_samples(grid1, np.sin(2 * np.pi * x)[None])
        expected = np.sqrt(1 + FOUR_PI_SQ) / np.sqrt(2)
        assert sobolev_norm(u, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_monotone_in_q(self, grid1):
        u = band_limited(grid1, 20, seed=7)
        norms = [sobolev_norm(u, q) for q in (0.0, 0.5, 1.0, 1.5, 2.5)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_norm_zero_is_l2(self, grid1):
        u = band_limited(grid1, 20, seed=8)
        assert sobolev_norm(u, 0.0) == pytest.approx(np.sqrt(l2_inner(u, u)), rel=1e-13)


class TestInnerProduct:
    def test_positive_definite(self, grid1, lam2):
        for seed in range(5):
            u = band_limited(grid1, 15, seed=seed)
            assert inner_product(lam2, u, u) > 0

    def test_identity_gives_l2_pairing(self, grid1):
        ident = sobolev_multiplier(0.0, grid1)
        u = band_limited(grid1, 10, seed=9)
        v = band_limited(grid1, 10, seed=10)
        assert inner_product(ident, u, v) == pytest.approx(l2_inner(u, v), rel=1e-12)

    def test_symmetry_and_bilinearity(self, grid1, lam2):
        u = band_limited(grid1, 10, seed=11)
        v = band_limited(grid1, 10, seed=12)
        w = band_limited(grid1, 10, seed=13)
        assert inner_product(lam2, u, v) == pytest.approx(inner_product(lam2, v, u), rel=1e-12)
        lhs = inner_product(lam2, u + 2.0 * w, v)
        rhs = inner_product(lam2, u, v) + 2.0 * inner_product(lam2, w, v)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_squared_norm(self, grid1):
        s = 1.25
        mult = sobolev_multiplier(s, grid1)
        u = band_limited(grid1, 20, seed=14)
        assert inner_product(mult, u, u) == pytest.approx(sobolev_norm(u, s) ** 2, rel=1e-12)

    def test_physical_quadrature_agreement(self, grid1, lam2):
        # Parseval oracle: frequency sum vs physical-space quadrature of (Au).v
        u = band_limited(grid1, 12, seed=15)
        v = band_limited(grid1, 12, seed=16)
        au = apply(lam2, u)
        quad = np.sum(au.samples() * v.samples()) * grid1.cell_volume
        assert inner_product(lam2, u, v) == pytest.approx(quad, rel=1e-12)

    def test_indefinite_rejected(self, grid1):
        plain = FourierMultiplier.build(
            shear_laplacian_symbol(1.0), TorusGrid(2, 16)
        )
        u = band_limited(TorusGrid(2, 16), 4, seed=17)
        with pytest.raises(ValueError):
            inner_product(plain, u, u)


class TestOperatorInvariants:
    def test_l2_symmetry(self, grid1, lam2):
        u = band_limited(grid1, 18, seed=18)
        v = band_limited(grid1, 18, seed=19)
        lhs = l2_inner(apply(lam2, u), v)
        rhs = l2_inner(u, apply(lam2, v))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_translation_commutes(self, grid1, lam2):
        u = band_limited(grid1, 20, seed=20)
        h = np.array([5 * grid1.spacing])
        a = apply(lam2, translate(u, h))
        b = translate(apply(lam2, u), h)
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-13 * np.abs(a.coeffs).max()

    def test_gradient_commutes(self, grid1, lam2):
        u = band_limited(grid1, 20, seed=21)
        a = apply(lam2, spectral_gradient(u, 0))
        b = spectral_gradient(apply(lam2, u), 0)
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-13 * np.abs(a.coeffs).max()

    def test_isomorphism_norm_equivalence(self):
        # for elliptic A of order r:  c |u|_{H^q} <= |A u|_{H^{q-r}} <= C |u|_{H^q}
        grid = TorusGrid(1, 64)
        s = 0.9
        mult = sobolev_multiplier(s, grid)
        q, r = 2.0, 2 * s
        ratios = []
        for seed in range(100):
            u = band_limited(grid, 28, seed=100 + seed)
            ratios.append(sobolev_norm(apply(mult, u), q - r) / sobolev_norm(u, q))
        lo, hi = min(ratios), max(ratios)
        assert np.isfinite(hi) and lo > 0
        assert hi / lo < 50  # measured spread stays modest for this symbol

    def test_2d_apply_matrix_symbol(self):
        grid = TorusGrid(2, 16)
        mult = FourierMultiplier.build(shear_laplacian_symbol(0.5), grid)
        u = band_limited(grid, 4, seed=22)
        out = apply(mult, u)
        # manual per-mode contraction oracle
        expected = np.zeros_like(u.coeffs)
        lap = FOUR_PI_SQ * np.sum(grid.frequencies**2, axis=0)
        expected[0] = lap * (u.coeffs[0] + 0.5 * u.coeffs[1])
        expected[1] = lap * u.coeffs[1]
        assert np.abs(out.coeffs - expected).max() < 1e-12 * max(np.abs(expected).max(), 1)
