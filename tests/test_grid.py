"""Tests for the torus grid, transforms, differentiation, and dealiased products."""

import functools
import itertools

import numpy as np
import pytest
from numpy.fft import _pocketfft_umath as pfu

from epdifflab import conjugation, lagrangian, operators
from epdifflab import epdiff as epdiff_module
from epdifflab import grid as grid_module
from epdifflab.epdiff import EulerState, _transport_pass, euler_rhs, step_rk4
from epdifflab.grid import (
    GridMismatchError,
    SpectralVectorField,
    TorusGrid,
    _full,
    _irfft,
    _jacobian_samples,
    _require_same_grid,
    _rfft,
    _samples,
    _truncate_half,
    l2_inner,
    padded_samples,
)
from epdifflab.operators import sobolev_multiplier


def band_limited(grid, kmax, seed=0):
    """Random real vector field with |k|_inf <= kmax."""
    rng = np.random.default_rng(seed)
    u = SpectralVectorField.from_samples(grid, rng.standard_normal((grid.dim,) + grid.shape))
    keep = np.max(np.abs(grid.wavenumbers), axis=0) <= kmax
    return SpectralVectorField(grid, u.coeffs * keep)


def imag_residual(u):
    """Sup of the imaginary part of the complex inverse transform; ~0 for real fields."""
    axes = tuple(range(1, u.grid.dim + 1))
    complex_samples = np.fft.ifftn(u.coeffs / u.grid.cell_volume, axes=axes)
    return float(np.abs(complex_samples.imag).max())


# Spectral calculus that only the tests use, written on the package's padded
# passes, derivative symbols and grid check.

def spectral_gradient(u, axis):
    """Exact partial derivative along ``axis``; Nyquist modes are zeroed."""
    return SpectralVectorField(u.grid, u.coeffs * u.grid.derivative_factors[axis])


def translate(u, shift):
    """Translate a field by ``h``: the phase ``exp(-2 pi i k.h / L)``."""
    phase = np.tensordot(np.atleast_1d(np.asarray(shift, dtype=float)), u.grid.wavenumbers,
                         axes=(0, 0))
    return SpectralVectorField(u.grid, u.coeffs * np.exp(-2j * np.pi * phase / u.grid.length))


def dealiased_product(f, g):
    """Componentwise pointwise product in one padded pass."""
    _require_same_grid(f, g)
    d = f.grid.dim
    padded = padded_samples(f.grid, np.concatenate([f.coeffs, g.coeffs]))
    return SpectralVectorField(f.grid, _full(f.grid, _truncate_half(f.grid, padded[:d] * padded[d:])))


def directional_derivative(v, w):
    """Advective derivative ``(v . grad) w`` with dealiased products: ``v`` is
    sampled once, the gradient of each component of ``w`` per output row."""
    _require_same_grid(v, w)
    grid = v.grid
    vs = padded_samples(grid, v.coeffs)
    out = np.empty((grid.dim,) + grid.plan.padded_shape)
    for i, wi in enumerate(w.coeffs):
        np.einsum("j...,j...->...", vs, padded_samples(grid, wi * grid.derivative_factors),
                  out=out[i])
    return SpectralVectorField(grid, _full(grid, _truncate_half(grid, out)))


def momentum_transport(v, m):
    """Transport term ``(v . grad) m + (grad v)^T m + (div v) m``, dealiased:
    one call of the Eulerian transport pass."""
    _require_same_grid(v, m)
    grid, half = v.grid, v.grid.plan.half
    transport = _transport_pass(grid, False)
    transport.v[...] = v.coeffs[..., :half]
    out = transport(m.coeffs[..., :half], np.empty((grid.dim,) + grid.plan.half_shape, dtype=complex))
    return SpectralVectorField(grid, _full(grid, out))


class TestTorusGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusGrid(4, 16)
        with pytest.raises(ValueError):
            TorusGrid(1, 6)
        with pytest.raises(ValueError):
            TorusGrid(1, 24)  # not a power of two
        with pytest.raises(ValueError):
            TorusGrid(1, 16, -1.0)

    def test_sample_points(self):
        g = TorusGrid(2, 8, 2.0)
        assert g.coordinates.shape == (2, 8, 8)
        assert g.coordinates[0, 3, 0] == pytest.approx(3 * 2.0 / 8)

    def test_lattice_bijective_and_nyquist(self):
        g = TorusGrid(1, 16)
        k = g.wavenumbers[0]
        assert sorted(k.tolist()) == list(range(-8, 8))
        assert g.nyquist_mask.sum() == 1
        assert k[g.nyquist_mask][0] == -8


class TestTransforms:
    def test_constant_field(self):
        g = TorusGrid(1, 16, 3.0)
        u = SpectralVectorField.from_samples(g, np.full((1, 16), 2.5))
        assert u.coeffs[0, 0] == pytest.approx(2.5 * 3.0)
        assert np.abs(u.coeffs[0, 1:]).max() < 1e-13

    def test_single_harmonic(self):
        L = 2.0
        g = TorusGrid(1, 16, L)
        x = g.coordinates[0]
        u = SpectralVectorField.from_samples(g, np.sin(2 * np.pi * x / L)[None])
        expected = L / 2j
        assert u.coeffs[0, 1] == pytest.approx(expected, abs=1e-13)
        assert u.coeffs[0, -1] == pytest.approx(np.conj(expected), abs=1e-13)
        others = np.abs(u.coeffs[0, 2:-1]).max()
        assert others < 1e-13

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 32), (3, 16)])
    def test_round_trip_and_parseval(self, dim, n):
        g = TorusGrid(dim, n, 1.7)
        rng = np.random.default_rng(dim)
        samples = rng.standard_normal((dim,) + g.shape)
        u = SpectralVectorField.from_samples(g, samples)
        back = u.samples()
        assert np.abs(back - samples).max() < 1e-12 * np.abs(samples).max()
        phys = np.sum(samples**2) * g.cell_volume
        spec = np.sum(np.abs(u.coeffs) ** 2) / g.length**dim
        assert phys == pytest.approx(spec, rel=1e-12)

    def test_conjugate_symmetry(self):
        g = TorusGrid(2, 16)
        u = band_limited(g, 7, seed=3)
        assert imag_residual(u) < 1e-13

    def test_shape_mismatch_rejected(self):
        g = TorusGrid(1, 16)
        with pytest.raises(ValueError):
            SpectralVectorField.from_samples(g, np.zeros((1, 8)))
        with pytest.raises(ValueError):
            SpectralVectorField.from_samples(g, np.zeros((2, 16)))


# Every (dim, n) the package is run and benchmarked on
GRIDS = [(1, 2**j) for j in range(3, 11)] + [(2, 2**j) for j in range(3, 8)] + [(3, 16), (3, 32)]


@pytest.mark.parametrize("dim,n", GRIDS)
def test_transforms_match_numpy_fft(dim, n):
    """``_rfft``/``_irfft`` call numpy's pocketfft gufuncs directly; their bytes
    are those of the public ``rfft``/``irfft``/``rfftn``/``irfftn``, on the n
    grid and on the 3/2 grid, for one row and for a stack, into fresh arrays
    and into row slices of larger ones, as the padded passes write them.  A
    numpy release that changes those private gufuncs fails here."""
    rng = np.random.default_rng(n + dim)
    axes = tuple(range(-dim, 0))
    for length in (n, 3 * n // 2):
        assert length % 2 == 0, "_rfft uses rfft_n_even, the gufunc of even lengths"
        shape = (length,) * dim
        half_shape = shape[:-1] + (length // 2 + 1,)
        for rows in (1, 3):
            samples = rng.standard_normal((rows,) + shape)
            half = rng.standard_normal((rows,) + half_shape) + 1j * rng.standard_normal((rows,) + half_shape)
            if dim == 1:
                forward, inverse = np.fft.rfft(samples), np.fft.irfft(half, n=length)
            else:
                forward, inverse = np.fft.rfftn(samples, axes=axes), np.fft.irfftn(half, s=shape, axes=axes)
            spectra = np.empty((rows + 2,) + half_shape, dtype=complex)
            values = np.empty((rows + 2,) + shape)
            work = np.empty((rows,) + half_shape, dtype=complex)
            assert _rfft(samples, dim).tobytes() == forward.tobytes()
            _rfft(samples, dim, spectra[1:rows + 1])
            assert spectra[1:rows + 1].tobytes() == forward.tobytes()
            assert _irfft(half, shape).tobytes() == inverse.tobytes()
            _irfft(half, shape, values[1:rows + 1], work if dim > 1 else None)
            assert values[1:rows + 1].tobytes() == inverse.tobytes()
            # a half spectrum read as a view of full-length last axes, as _samples reads it
            full = np.concatenate([half, half[..., 1:-1]], axis=-1)
            assert _irfft(full[..., :length // 2 + 1], shape).tobytes() == inverse.tobytes()


@pytest.mark.parametrize("dim,n", [(dim, n) for dim, n in GRIDS if dim > 1])
def test_gufuncs_on_column_subsets_give_the_whole_bytes(dim, n):
    """At d > 1 the padded passes call numpy's pocketfft gufuncs on strided
    column subsets of a 3/2-grid half spectrum (``axes=``), in place and out
    of place, and write zeros in place of the lines they skip, which the
    whole transform would fill with transformed zeros.  Both must give the
    bytes of the whole transforms on every line that is read: the embedded
    bins ``0..n/2`` and ``m-n/2..m-1`` of the leading axes, ``0..n/2`` of the
    last.  A numpy release that breaks either fails here."""
    m, h = 3 * n // 2, n // 2
    rng = np.random.default_rng(n + dim)
    shape = (2,) + (m,) * (dim - 1) + (m // 2 + 1,)
    low, embedded = slice(0, h + 1), (slice(0, h + 1), slice(m - h, m))

    def columns(axis):  # along leading axis ``axis``: later leading axes embedded, last axis low
        return [(slice(None),) * (dim + axis + 2) + later + (low,)
                for later in itertools.product(embedded, repeat=-axis - 2)]

    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for axis, gufunc in itertools.product(range(-dim, -1), (pfu.fft, pfu.ifft)):
        axes = [(axis,), (), (axis,)]
        whole = np.empty(shape, dtype=complex)
        gufunc(spec, 1 / m, out=whole, axes=axes)
        for index in columns(axis):
            apart, inplace = np.empty(shape, dtype=complex), spec.copy()
            gufunc(spec[index], 1 / m, out=apart[index], axes=axes)
            gufunc(inplace[index], 1 / m, out=inplace[index], axes=axes)
            assert apart[index].tobytes() == inplace[index].tobytes() == whole[index].tobytes()

    # the inverse of an embedded spectrum: transformed zero lines, or zeros
    embed = np.zeros(shape, dtype=complex)
    for later in itertools.product(embedded, repeat=dim - 1):
        block = embed[(slice(None),) + later + (low,)]
        block[...] = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
    whole, skipped = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    whole_out, skipped_out = np.empty((2,) + (m,) * dim), np.empty((2,) + (m,) * dim)
    skipped[...] = np.nan  # what no view writes must be zeroed, not left
    skipped[..., h + 1:] = 0
    if dim == 3:
        skipped[:, :, h + 1:m - h, low] = 0
    for axis in range(-dim, -1):
        src = embed if axis == -dim else whole
        pfu.ifft(src, 1 / m, out=whole, axes=[(axis,), (), (axis,)])
        for index in columns(axis):
            src = embed if axis == -dim else skipped
            pfu.ifft(src[index], 1 / m, out=skipped[index], axes=[(axis,), (), (axis,)])
    pfu.irfft(whole, 1 / m, out=whole_out)
    pfu.irfft(skipped, 1 / m, out=skipped_out)
    assert skipped_out.tobytes() == whole_out.tobytes()


# The contractions of the package: multiplier products (apply, apply_inverse,
# the stage velocity and the spray), the transport pass's sums over [v, m]
# rows, the tower's multiplier product and advective sums, and the oracle's
# kernel contraction.
CONTRACTIONS = {"...ij,j...->i...", "k...,k...->...", "...ij,bj...->bi...",
                "bj...,fbij...->fbi...", "okB,kB->oB"}
# grids the oracle's brute-force kernel runs on (conjugation.CONVOLUTION_GRID_LIMIT)
ORACLE_GRIDS = {1: 16, 2: 8}


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 16)])
def test_einsum_kernel_gives_the_bytes_of_np_einsum(dim, n, monkeypatch):
    """Every hot contraction calls ``grid._einsum``, numpy's C kernel, which
    ``np.einsum`` without ``optimize`` only forwards to.  Each of its calls
    in a step, a right-hand side, the spray, the multipliers, the tower and
    the oracle is replayed through ``np.einsum`` on the same operands and
    into the same output view, and the bytes must match: full and half
    tables, the pass's own rows, strided views of full spectra, the padded
    rows the pass binds (fused at d <= 2, split at d=3 n=16).  A numpy
    release that changes either function fails here."""
    assert grid_module._einsum is np._core.einsumfunc.c_einsum
    seen = set()

    def checked(subscripts, *operands, out=None):
        seen.add(subscripts)
        if out is None:
            expected = np.einsum(subscripts, *operands)
            got = grid_module._einsum(subscripts, *operands)
        else:
            expected = np.einsum(subscripts, *operands, out=out).copy()
            got = grid_module._einsum(subscripts, *operands, out=out)
        assert got.tobytes() == expected.tobytes()
        return got

    for module in (epdiff_module, lagrangian, operators, conjugation):
        monkeypatch.setattr(module, "_einsum", checked)
    # a pass binds _CONTRACT when it is built: on the new grids below
    monkeypatch.setattr(epdiff_module, "_CONTRACT", functools.partial(checked, "k...,k...->..."))
    grid = TorusGrid(dim, n)
    mult = sobolev_multiplier(2.0, grid)
    u = band_limited(grid, conjugation.headroom_band(1, n), seed=dim)
    state = EulerState.from_velocity(mult, u)
    step_rk4(mult, state, 0.5 * state.cfl)
    euler_rhs(mult, state.m)
    operators.apply_inverse(mult, state.m)
    lagrangian.spray_at_identity(mult, u)
    conjugation.apply_An_recursive(mult, 1, u, band_limited(grid, conjugation.headroom_band(1, n), seed=9))
    expected = CONTRACTIONS - {"okB,kB->oB"}
    if dim in ORACLE_GRIDS:
        small = TorusGrid(dim, ORACLE_GRIDS[dim])
        fields = [band_limited(small, conjugation.headroom_band(1, small.n), seed=s) for s in (1, 2)]
        conjugation.ConvolutionKernel(sobolev_multiplier(2.0, small), 1).apply(*fields)
        expected = CONTRACTIONS
    assert seen == expected


class TestGradient:
    def test_constant_is_zero(self):
        g = TorusGrid(1, 16)
        u = SpectralVectorField.from_samples(g, np.ones((1, 16)))
        du = spectral_gradient(u, 0)
        assert np.abs(du.coeffs).max() < 1e-13

    def test_single_harmonic(self):
        L = 1.5
        g = TorusGrid(1, 32, L)
        x = g.coordinates[0]
        u = SpectralVectorField.from_samples(g, np.sin(2 * np.pi * x / L)[None])
        du = spectral_gradient(u, 0).samples()
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert np.abs(du[0] - expected).max() < 1e-12

    def test_mixed_partials_commute(self):
        g = TorusGrid(2, 32)
        u = band_limited(g, 10, seed=1)
        dxy = spectral_gradient(spectral_gradient(u, 0), 1)
        dyx = spectral_gradient(spectral_gradient(u, 1), 0)
        scale = np.abs(dxy.coeffs).max()
        assert np.abs(dxy.coeffs - dyx.coeffs).max() < 1e-13 * scale

    def test_nyquist_zeroed(self):
        g = TorusGrid(1, 16)
        coeffs = np.zeros((1, 16), dtype=complex)
        coeffs[0, 8] = 1.0  # pure Nyquist mode
        u = SpectralVectorField(g, coeffs)
        assert np.abs(spectral_gradient(u, 0).coeffs).max() == 0.0

    def test_divergence_free_mode(self):
        g = TorusGrid(2, 16)
        y = g.coordinates[1]
        samples = np.stack([np.sin(2 * np.pi * y), np.zeros(g.shape)])
        u = SpectralVectorField.from_samples(g, samples)
        div = np.sum(u.coeffs * g.derivative_factors, axis=0)
        assert np.abs(div).max() < 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
    def test_jacobian_samples_same_bits_as_full_spectra(self, dim, n):
        # the Jacobian is formed on half spectra only: the bits of sampling
        # the full-spectrum Jacobian d_j u^i
        g = TorusGrid(dim, n)
        u = SpectralVectorField.from_samples(g, np.random.default_rng(dim).standard_normal((dim,) + g.shape))
        got = _jacobian_samples(u)
        assert got.shape == (dim, dim) + g.shape
        assert got.tobytes() == _samples(g, u.coeffs[:, None] * g.derivative_factors).tobytes()


class TestDealiasedProduct:
    def test_identity_element(self):
        g = TorusGrid(1, 32)
        f = band_limited(g, 15, seed=2)
        one = SpectralVectorField.from_samples(g, np.ones((1,) + g.shape))
        prod = dealiased_product(f, one)
        assert np.abs(prod.coeffs - f.coeffs).max() < 1e-13 * np.abs(f.coeffs).max()

    def test_double_angle(self):
        g = TorusGrid(1, 32)
        x = g.coordinates[0]
        k = 5
        s = SpectralVectorField.from_samples(g, np.sin(2 * np.pi * k * x)[None])
        prod = dealiased_product(s, s).samples()[0]
        expected = 0.5 - 0.5 * np.cos(4 * np.pi * k * x)
        assert np.abs(prod - expected).max() < 1e-13

    def test_oversampled_oracle(self):
        coarse = TorusGrid(1, 32)
        fine = TorusGrid(1, 128)
        rng = np.random.default_rng(7)
        kmax = 15  # full coarse band short of Nyquist
        cf = np.zeros((1, 32), dtype=complex)
        cg = np.zeros((1, 32), dtype=complex)
        for k in range(1, kmax + 1):
            for c in (cf, cg):
                z = rng.standard_normal() + 1j * rng.standard_normal()
                c[0, k] = z
                c[0, -k] = np.conj(z)
        cf[0, 0] = rng.standard_normal()
        cg[0, 0] = rng.standard_normal()
        f32 = SpectralVectorField(coarse, cf)
        g32 = SpectralVectorField(coarse, cg)

        # same functions on the fine grid, product taken pointwise there (alias
        # free since 2*kmax < 64), then truncated to the coarse band
        def lift(c):
            out = np.zeros((1, 128), dtype=complex)
            out[0, : kmax + 1] = c[0, : kmax + 1]
            out[0, -kmax:] = c[0, -kmax:]
            return SpectralVectorField(fine, out)

        exact = SpectralVectorField.from_samples(fine, lift(cf).samples() * lift(cg).samples())
        got = dealiased_product(f32, g32)
        trunc = np.concatenate([exact.coeffs[0, :16], exact.coeffs[0, -16:]])
        # the coarse lattice's -16 bin carries the +-16 pair of the true product
        trunc[16] += exact.coeffs[0, 16]
        assert np.abs(got.coeffs[0] - trunc).max() < 1e-12 * np.abs(trunc).max()

    def test_grid_mismatch(self):
        f = band_limited(TorusGrid(1, 32), 4)
        g = band_limited(TorusGrid(1, 64), 4)
        with pytest.raises(GridMismatchError):
            dealiased_product(f, g)

    def test_2d_scalar_vector(self):
        g = TorusGrid(2, 16)
        u = band_limited(g, 3, seed=4)
        # the scalar factor as a field with the same samples in each component
        scalar = 1.0 + 0.3 * np.cos(2 * np.pi * g.coordinates[0])
        s = SpectralVectorField.from_samples(g, np.stack([scalar, scalar]))
        prod = dealiased_product(s, u)
        expected = s.samples() * u.samples()
        assert np.abs(prod.samples() - expected).max() < 1e-12


class TestTranslation:
    def test_lattice_shift_matches_roll(self):
        g = TorusGrid(1, 32)
        u = band_limited(g, 15, seed=5)
        h = 3 * g.spacing
        shifted = translate(u, [h])
        # translate by h sends samples at x to values u(x - h)
        rolled = np.roll(u.samples(), 3, axis=-1)
        assert np.abs(shifted.samples() - rolled).max() < 1e-12

    def test_directional_derivative_constant_advection(self):
        g = TorusGrid(1, 64)
        v = SpectralVectorField.from_samples(g, np.full((1, 64), 2.0))
        w = band_limited(g, 10, seed=6)
        adv = directional_derivative(v, w)
        expected = 2.0 * spectral_gradient(w, 0).coeffs
        assert np.abs(adv.coeffs - expected).max() < 1e-12 * np.abs(expected).max()


def test_l2_inner_matches_quadrature():
    g = TorusGrid(2, 16, 1.3)
    u = band_limited(g, 5, seed=8)
    v = band_limited(g, 5, seed=9)
    quad = np.sum(u.samples() * v.samples()) * g.cell_volume
    assert l2_inner(u, v) == pytest.approx(quad, rel=1e-12)


class TestFieldArithmetic:
    @pytest.mark.parametrize("op", [lambda u, v: u + v, lambda u, v: u - v, l2_inner],
                             ids=["add", "sub", "l2_inner"])
    def test_other_grid_rejected(self, op):
        u = band_limited(TorusGrid(1, 16), 4)
        # same shape, other box: only the grid check tells them apart
        v = band_limited(TorusGrid(1, 16, length=2.0), 4)
        with pytest.raises(GridMismatchError):
            op(u, v)

    @pytest.mark.parametrize("other", [1.0, np.zeros((1, 16), dtype=complex)],
                             ids=["float", "array"])
    def test_non_field_rejected(self, other):
        u = band_limited(TorusGrid(1, 16), 4)
        with pytest.raises(TypeError):
            u + other
        with pytest.raises(TypeError):
            u - other

    @pytest.mark.parametrize("other", ["field", 1j, np.complex128(1j), np.full((1, 16), 2.0)],
                             ids=["field", "complex", "numpy_complex", "array"])
    def test_non_real_factor_rejected(self, other):
        # a field times a field would hold an object array of nested fields,
        # and a complex factor would make a field that is no longer real
        u = band_limited(TorusGrid(1, 16), 4)
        other = u if isinstance(other, str) else other
        with pytest.raises(TypeError):
            u * other
        with pytest.raises(TypeError):
            other * u
        for factor in (2.0, 2, np.float64(2), np.int64(2)):
            for product in (factor * u, u * factor):
                assert product.coeffs.dtype == complex
                assert np.array_equal(product.coeffs, u.coeffs * 2.0)
