"""Tests for the derivative tower: operator recursion, symbol tensors, oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from epdifflab.conjugation import (
    KERNEL_CHUNK,
    ConvolutionKernel,
    HeadroomError,
    _master_radii,
    _t_frozen,
    apply_An_convolution,
    apply_An_recursive,
    convolution_kernel,
    estimate_Cn,
    headroom_band,
    rec_tensor,
    required_headroom,
    s_tensor,
    symbol_an,
    verify_sn_identity,
)
from epdifflab.epdiff import bandlimited_draw
from epdifflab import conjugation
from epdifflab import grid as grid_module
from epdifflab.grid import GridMismatchError, SpectralVectorField, TorusGrid, _complete_planes, _full
from epdifflab.operators import FourierMultiplier, apply, sobolev_multiplier
from epdifflab.symbols import MatrixSymbol, scalar_symbol, shear_laplacian_symbol, sobolev_symbol, sobolev_weight

from test_grid import band_limited, directional_derivative


def headroom_field(grid, n_order, seed):
    return band_limited(grid, headroom_band(n_order, grid.n), seed=seed)


def per_product_tower(mult, us):
    """The operator recursion one product at a time: each directional
    derivative samples its direction field and gradients on its own."""
    if len(us) == 1:
        return apply(mult, us[0])
    prefix, last = us[:-1], us[-1]
    out = directional_derivative(last, per_product_tower(mult, prefix))
    for k in range(len(prefix)):
        modified = list(prefix)
        modified[k] = directional_derivative(last, modified[k])
        out = out - per_product_tower(mult, modified)
    return out


def commutator_A1(mult, u0, u1):
    """Direct form of the first derivative, ``[grad_{u_1}, A] u_0``."""
    return directional_derivative(u1, apply(mult, u0)) - apply(mult, directional_derivative(u1, u0))


def rel_diff(a, b):
    scale = max(np.abs(a.coeffs).max(), np.abs(b.coeffs).max(), 1e-300)
    return np.abs(a.coeffs - b.coeffs).max() / scale


def hermitian_complex_symbol():
    """Complex Hermitian d=2 symbol ``sobolev_weight(2, xi) [[1, 0.1i], [-0.1i, 1]]``."""
    mat = np.array([[1.0, 0.1j], [-0.1j, 1.0]])
    return MatrixSymbol(
        dim=2, order=2.0, eval_fn=lambda xi: sobolev_weight(2.0, xi)[..., None, None] * mat,
        hermitian=True, positive_definite=True, name="hermitian_complex",
    )


def sine_complex_symbol(b, name):
    """Complex Hermitian d=2 symbol ``sobolev_weight(2, xi) I + b(xi_1) [[0, i], [-i, 0]]``."""
    def eval_fn(xi):
        off = 1j * b(xi[..., 0])
        out = sobolev_weight(2.0, xi)[..., None, None] * np.eye(2, dtype=complex)
        out[..., 0, 1] += off
        out[..., 1, 0] -= off
        return out

    return MatrixSymbol(dim=2, order=2.0, eval_fn=eval_fn, hermitian=True, positive_definite=True, name=name)


def conjugate_symmetric_complex_symbol(n):
    """:func:`sine_complex_symbol` with ``b = 0.1 sin(2 pi xi_1 / n)``: odd, and
    zero on the Nyquist planes of an n grid of unit length, so its table
    keeps ``a(-k) = conj(a(k))`` bit for bit.  ``np.sin`` gives
    ``sin(-pi) = -1.2e-16``, so ``b`` is set to 0 there."""
    return sine_complex_symbol(
        lambda xi1: np.where(np.abs(xi1) == n / 2, 0.0, 0.1 * np.sin(2 * np.pi * xi1 / n)),
        "conjugate_symmetric_complex")


def per_level_an(symbol, n, xis):
    """Symbol recursion that multiplies by ``2 pi i`` at every level; ``xis`` is ``(B, n+1, d)``."""
    if n == 0:
        return symbol(xis[:, 0])
    plain = per_level_an(symbol, n - 1, xis[:, :n])
    out = 0.0
    for k in range(n):
        shifted = xis[:, :n].copy()
        shifted[:, k] += xis[:, n]
        bracket = plain - per_level_an(symbol, n - 1, shifted)
        covector = xis[:, k].reshape((len(xis),) + (1,) * (bracket.ndim - 1) + (-1,))
        out = out + bracket[..., None] * covector
    return 2j * np.pi * out


def add_at_contraction(mult, n, *fields):
    """Brute-force lattice sum with B-major complex ``symbol_an`` tensors, one
    ``(n+2)``-operand einsum per chunk and an ``np.add.at`` scatter."""
    grid = mult.grid
    d, modes, half = grid.dim, grid.n**grid.dim, grid.n // 2
    kvecs = grid.wavenumbers.reshape(d, modes).T
    coeff = [f.coeffs.reshape(d, modes).T for f in fields]
    letters = "abc"[: n + 1]
    contraction = f"Bo{letters}," + ",".join(f"B{c}" for c in letters) + "->Bo"
    out = np.zeros((modes, d), dtype=complex)
    total, chunk = modes ** (n + 1), 1 << 14
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        idx = np.array([(flat // modes**(n - axis)) % modes for axis in range(n + 1)])
        ktot = kvecs[idx].sum(axis=0)
        inside = np.all((ktot >= -half) & (ktot < half), axis=-1)
        idx = idx[:, inside]
        an = symbol_an(mult.symbol, n, np.moveaxis(kvecs[idx], 0, 1) / grid.length)
        lin = np.ravel_multi_index(tuple((ktot[inside] % grid.n).T), grid.shape)
        np.add.at(out, lin, np.einsum(contraction, an, *(coeff[i][idx[i]] for i in range(n + 1))))
    out *= grid.length ** (-n * d)
    return SpectralVectorField(grid, out.T.reshape((d,) + grid.shape))


def batch_major_chunks(mult, n):
    """Kernel chunks built as before the symbol table: the flat tuple range in
    ``KERNEL_CHUNK`` slices, filtered to the lattice, with a batch-major bracket
    recursion that evaluates the symbol at every leaf."""
    def brackets(xis):  # (B, m+1, d) -> (B, d, ..., d)
        m = xis.shape[1] - 1
        if m == 0:
            values = mult.symbol(xis[:, 0])
            return values if values.imag.any() else values.real
        prefix, last = xis[:, :m], xis[:, m]
        plain = brackets(prefix)
        out = None
        for k in range(m):
            shifted = prefix.copy()
            shifted[:, k] += last
            bracket = plain - brackets(shifted)
            covector = prefix[:, k].reshape((len(xis),) + (1,) * (bracket.ndim - 1) + (-1,))
            term = bracket[..., None] * covector
            out = term if out is None else out + term
        return out

    grid = mult.grid
    d, modes, half = grid.dim, grid.n**grid.dim, grid.n // 2
    kvecs = grid.wavenumbers.reshape(d, modes).T
    chunks = []
    total = modes ** (n + 1)
    for start in range(0, total, KERNEL_CHUNK):
        idx = np.array(np.unravel_index(np.arange(start, min(start + KERNEL_CHUNK, total)), (modes,) * (n + 1)))
        ks = kvecs[idx]
        ktot = ks.sum(axis=0)
        inside = np.all((ktot >= -half) & (ktot < half), axis=-1)
        if not np.any(inside):
            continue
        idx = idx[:, inside]
        xis = np.moveaxis(ks[:, inside], 0, 1) / grid.length
        tensor = np.ascontiguousarray(brackets(xis).reshape(len(xis), d, d ** (n + 1)).transpose(1, 2, 0))
        lin = np.ravel_multi_index(tuple((ktot[inside] % grid.n).T), grid.shape)
        chunks.append((idx, tensor, lin))
    return chunks


def box_sentinel_symbol(grid, order, evaluations):
    """``sobolev_symbol(1.0, 2)``'s values, raising at any point ``k/L`` outside
    the integer box ``[-(order+1) n/2, (order+1) (n/2 - 1)]^2``; records the
    size of every evaluation."""
    low, high = -(order + 1) * (grid.n // 2), (order + 1) * (grid.n // 2 - 1)

    def eval_fn(xi):
        k = np.rint(xi * grid.length)
        if k.min() < low or k.max() > high:
            raise AssertionError(f"symbol evaluated at k = {k.min():g}..{k.max():g}, outside [{low}, {high}]")
        evaluations.append(len(xi))
        return sobolev_weight(2.0, xi)[..., None, None] * np.eye(2)

    return MatrixSymbol(dim=2, order=2.0, eval_fn=eval_fn, hermitian=True,
                        positive_definite=True, name="box_sentinel")


def all_tuple_apply(kernel, *fields):
    """``ConvolutionKernel.apply`` contracting every lattice tuple of every chunk."""
    grid = kernel.mult.grid
    d, modes = grid.dim, grid.n**grid.dim
    coeffs = [f.coeffs.reshape(d, modes) for f in fields]
    re = np.zeros((d, modes))
    im = np.zeros((d, modes))
    for idx, tensor, lin in kernel.chunks:
        outer = coeffs[0].take(idx[0], axis=1)
        for c, i in zip(coeffs[1:], idx[1:]):
            outer = (outer[:, None] * c.take(i, axis=1)).reshape(-1, len(lin))
        vals = np.einsum("okB,kB->oB", tensor, outer)
        for o in range(d):
            re[o] += np.bincount(lin, vals[o].real, modes)
            im[o] += np.bincount(lin, vals[o].imag, modes)
    out = (re + 1j * im) * ((2j * np.pi) ** kernel.n * grid.length ** (-kernel.n * d))
    return SpectralVectorField(grid, out.reshape((d,) + grid.shape))


def per_radius_loop(symbol, n, xi_max, tuples_per_radius=16, seed=0):
    """``estimate_Cn(...).per_radius`` with one ``symbol_an`` call per radius."""
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
    return per_radius


def assert_same_bits(a, b):
    assert a.coeffs.dtype == b.coeffs.dtype and np.array_equal(a.coeffs, b.coeffs)
    assert a.coeffs.tobytes() == b.coeffs.tobytes()  # zero signs included


class TestOperatorRecursion:
    def test_identity_multiplier_gives_zero(self):
        grid = TorusGrid(1, 32)
        mult = sobolev_multiplier(0.0, grid)
        u0 = headroom_field(grid, 1, 0)
        u1 = headroom_field(grid, 1, 1)
        out = apply_An_recursive(mult, 1, u0, u1)
        assert np.abs(out.coeffs).max() < 1e-12 * np.abs(u0.coeffs).max()

    def test_n1_equals_commutator(self):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.0, grid)
        u0 = headroom_field(grid, 1, 2)
        u1 = headroom_field(grid, 1, 3)
        rec = apply_An_recursive(mult, 1, u0, u1)
        direct = commutator_A1(mult, u0, u1)
        assert rel_diff(rec, direct) < 1e-12

    def test_n2_iterated_commutator_form(self):
        # A_2(u0,u1,u2) = ([D_{u2},[D_{u1},A]] - [D_{D_{u2}u1}, A]) u0
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(0.75, grid)
        u0 = headroom_field(grid, 2, 4)
        u1 = headroom_field(grid, 2, 5)
        u2 = headroom_field(grid, 2, 6)
        rec = apply_An_recursive(mult, 2, u0, u1, u2)

        def inner(v, w):  # [D_v, A] w
            return commutator_A1(mult, w, v)

        term1 = directional_derivative(u2, inner(u1, u0)) - inner(u1, directional_derivative(u2, u0))
        term2 = inner(directional_derivative(u2, u1), u0)
        direct = term1 - term2
        assert rel_diff(rec, direct) < 1e-11

    def test_symmetric_in_trailing_arguments(self):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.25, grid)
        u0 = headroom_field(grid, 2, 7)
        u1 = headroom_field(grid, 2, 8)
        u2 = headroom_field(grid, 2, 9)
        a = apply_An_recursive(mult, 2, u0, u1, u2)
        b = apply_An_recursive(mult, 2, u0, u2, u1)
        assert rel_diff(a, b) < 1e-11

    def test_headroom_guard(self):
        grid = TorusGrid(1, 16)
        mult = sobolev_multiplier(1.0, grid)
        wide = band_limited(grid, 7, seed=10)
        with pytest.raises(HeadroomError, match="band-limit inputs"):
            apply_An_recursive(mult, 2, wide, wide, wide)
        assert required_headroom(2, 7) == 44

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_non_finite_field_rejected(self, dim, n, bad):
        # the headroom guard reads the largest live wavenumber, which a NaN or
        # inf coefficient leaves undefined: the error names the coefficients,
        # not numpy's reduction over no live bin
        mult = sobolev_multiplier(1.0, TorusGrid(dim, n))
        coeffs = headroom_field(mult.grid, 1, 93).coeffs.copy()
        coeffs[(0,) + (1,) * dim] = bad
        u = SpectralVectorField(mult.grid, coeffs)
        with pytest.raises(ValueError, match="finite field coefficients"):
            apply_An_recursive(mult, 1, u, u)

    def test_n3_symmetry_and_guard(self):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.0, grid)
        us = [headroom_field(grid, 3, 40 + i) for i in range(4)]
        a = apply_An_recursive(mult, 3, *us)
        b = apply_An_recursive(mult, 3, us[0], us[2], us[3], us[1])
        assert rel_diff(a, b) < 1e-10
        with pytest.raises(ValueError, match="limited"):
            apply_An_recursive(mult, 4, *(us + [us[0]]))

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("dim,n,symbol", [
        (1, 32, sobolev_symbol(1.0, 1)),
        (2, 16, sobolev_symbol(1.5, 2)),
        (2, 16, conjugate_symmetric_complex_symbol(16)),
    ])
    def test_same_bits_as_per_product_recursion(self, dim, n, symbol, order):
        mult = FourierMultiplier.build(symbol, TorusGrid(dim, n))
        us = [headroom_field(mult.grid, order, 60 + 10 * order + i) for i in range(order + 1)]
        assert_same_bits(apply_An_recursive(mult, order, *us), per_product_tower(mult, us))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [8, 16])
    def test_table_symmetric_to_the_gap_gives_a_reflected_result(self, n, order, monkeypatch):
        # b = 0.1 sin(2 pi xi_1 / n) straight from np.sin: sin(-pi) = -1.2e-16,
        # so the table breaks a(-k) = conj(a(k)) on the kx = -n/2 plane by
        # 2.4e-17, within SYMMETRY_GAP.  The tower reads bins 0..n/2 only and
        # reflects once, so its negative last-axis bins are reflections, not
        # the table's own values there (two entries differ by 6e-34), and it
        # completes planes 0 and n/2, whose self-reflecting bins would
        # otherwise carry imaginary parts of 1e-34
        mult = FourierMultiplier.build(
            sine_complex_symbol(lambda xi1: 0.1 * np.sin(2 * np.pi * xi1 / n), "sine_complex"),
            TorusGrid(2, n))
        plane = mult.table[n // 2]  # kx = -n/2, its own reflection
        assert (plane[-np.arange(n) % n] != np.conj(plane)).any()
        us = [headroom_field(mult.grid, order, 70 + i) for i in range(order + 1)]
        got = apply_An_recursive(mult, order, *us).coeffs
        flip = -np.arange(n) % n
        reflected = np.conj(got[:, flip][:, :, flip])
        own = np.logical_and.outer(flip == np.arange(n), flip == np.arange(n))  # k = -k
        assert got[:, ~own].tobytes() == reflected[:, ~own].tobytes()
        assert np.array_equal(got[:, own], got[:, own].real)  # conj(x) = x up to the sign of 0
        half = mult.grid.plan.half
        reference = _complete_planes(mult.grid, per_product_tower(mult, us).coeffs[..., :half].copy())
        assert got[..., :half].tobytes() == reference.tobytes()
        if n ** (2 * order + 2) <= 256**2:  # the oracle's tuples
            monkeypatch.setitem(conjugation.CONVOLUTION_GRID_LIMIT, 2, n)
            oracle = apply_An_convolution(mult, order, *us)
            assert rel_diff(SpectralVectorField(mult.grid, got), oracle) <= 1e-10

    @pytest.mark.parametrize("per_call", [1, 2, 5])
    @pytest.mark.parametrize("dim,n,order", [(1, 32, 3), (2, 16, 2), (3, 16, 2)])
    def test_same_bits_when_passes_are_split(self, dim, n, order, per_call, monkeypatch):
        # a small transform cap makes each level walk its variants and fields
        # in chunks, as on large grids
        m = (3 * n) // 2
        monkeypatch.setattr(grid_module, "MAX_TRANSFORM_BYTES",
                            per_call * 16 * m ** (dim - 1) * (m // 2 + 1))
        mult = sobolev_multiplier(1.0, TorusGrid(dim, n))  # a new grid reads the cap
        assert mult.grid.plan.batch == per_call
        us = [headroom_field(mult.grid, order, 90 + i) for i in range(order + 1)]
        assert_same_bits(apply_An_recursive(mult, order, *us), per_product_tower(mult, us))

    @pytest.mark.parametrize("dim,n,order", [(1, 16, 1), (1, 16, 2), (1, 16, 3), (2, 8, 1), (2, 8, 2)])
    def test_two_padded_passes_per_level(self, dim, n, order, monkeypatch):
        # on the oracle grids every level fits one pass each way: 2n padded
        # samplings and 2n truncations per call
        calls = {"padded_samples": 0, "_truncate_half": 0}

        def counting(name):
            fn = getattr(conjugation, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        mult = sobolev_multiplier(1.0, TorusGrid(dim, n))
        us = [headroom_field(mult.grid, order, 120 + i) for i in range(order + 1)]
        for name in calls:
            monkeypatch.setattr(conjugation, name, counting(name))
        apply_An_recursive(mult, order, *us)
        assert calls == {"padded_samples": 2 * order, "_truncate_half": 2 * order}

    def test_one_pass_per_advection_3d(self, monkeypatch):
        # d=3 n=8: the top level advects both prefix fields in one pass, and
        # only the level below walks its variants; a second splitter once
        # gave each top-level field its own pass (6 samplings, 5 truncations)
        calls = {"padded_samples": 0, "_truncate_half": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        mult = sobolev_multiplier(1.0, TorusGrid(3, 8))
        us = [headroom_field(mult.grid, 2, 160 + i) for i in range(3)]
        for name in calls:
            monkeypatch.setattr(conjugation, name, counting(name, getattr(conjugation, name)))
        got = apply_An_recursive(mult, 2, *us)
        assert calls == {"padded_samples": 5, "_truncate_half": 4}
        monkeypatch.undo()
        assert_same_bits(got, per_product_tower(mult, us))

    def test_memory_peak_3d(self, monkeypatch):
        # d=3 n=32 splits every pass; the per-product recursion peaked at about
        # 20 MB of traced allocations at order 2, and the stacked levels stay
        # within twice that
        monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 2)
        mult = sobolev_multiplier(1.0, TorusGrid(3, 32))
        us = [headroom_field(mult.grid, 2, 150 + i) for i in range(3)]
        apply_An_recursive(mult, 2, *us)  # plan tables and thread pool
        tracemalloc.start()
        try:
            apply_An_recursive(mult, 2, *us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestSymbolRecursion:
    def test_constant_symbol_vanishes(self):
        const = scalar_symbol(lambda xi: np.full(np.asarray(xi).shape[:-1], 3.0), 0.0, 1)
        xis = np.random.default_rng(0).normal(size=(10, 2, 1))
        assert np.abs(symbol_an(const, 1, xis)).max() < 1e-14
        xis3 = np.random.default_rng(1).normal(size=(10, 3, 1))
        assert np.abs(symbol_an(const, 2, xis3)).max() < 1e-14

    def test_n1_closed_form(self):
        # a_1(xi0, xi1) = 2 pi i (a(xi0) - a(xi0+xi1)) xi0 in one dimension,
        # the bracket orientation fixed by the operator-convolution oracle
        sym = sobolev_symbol(1.0, 1)  # order-2 weight
        xi0, xi1 = 1.0, 1.0
        val = symbol_an(sym, 1, np.array([[[xi0], [xi1]]]))[0, 0, 0, 0]
        lam = lambda x: sobolev_weight(2.0, np.array([[x]]))[0]
        expected = 2j * np.pi * (lam(1.0) - lam(2.0)) * xi0
        assert val == pytest.approx(expected, rel=1e-14)

    def test_permutation_symmetry(self):
        sym = sobolev_symbol(1.5, 2)
        rng = np.random.default_rng(3)
        xis = rng.normal(size=(20, 3, 2))
        a = symbol_an(sym, 2, xis)
        b = symbol_an(sym, 2, xis[:, [0, 2, 1], :])
        # swapping xi_1, xi_2 also swaps their covector slots
        assert np.abs(a - np.swapaxes(b, -1, -2)).max() < 1e-11 * np.abs(a).max()

    def test_batch_shape(self):
        sym = sobolev_symbol(1.0, 2)
        xis = np.zeros((4, 5, 3, 2))
        out = symbol_an(sym, 2, xis)
        assert out.shape == (4, 5, 2, 2, 2, 2)

    def test_n3_permutation_symmetry(self):
        sym = sobolev_symbol(0.75, 2)
        rng = np.random.default_rng(8)
        xis = rng.normal(size=(12, 4, 2))
        a = symbol_an(sym, 3, xis)  # axes: batch, out, X0, X1, X2, X3
        b = symbol_an(sym, 3, xis[:, [0, 3, 1, 2], :])
        # b's slots carry (xi0, xi3, xi1, xi2); realign them with a's
        realigned = np.moveaxis(b, (3, 4, 5), (5, 3, 4))
        assert np.abs(a - realigned).max() < 1e-10 * np.abs(a).max()

    @pytest.mark.parametrize("symbol", [sobolev_symbol(1.5, 2), hermitian_complex_symbol()],
                             ids=["sobolev", "hermitian_complex"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_level_recursion(self, symbol, n):
        # the 2 pi i factors are applied once, after the bracket recursion
        xis = np.random.default_rng(40 + n).normal(0.0, 2.0, size=(16, n + 1, 2))
        ref = per_level_an(symbol, n, xis)
        assert np.abs(symbol_an(symbol, n, xis) - ref).max() <= 1e-14 * np.abs(ref).max()


class TestConvolutionOracle:
    def test_n0_is_plain_apply(self):
        grid = TorusGrid(1, 16)
        mult = sobolev_multiplier(1.0, grid)
        u = band_limited(grid, 5, seed=11)
        conv = apply_An_convolution(mult, 0, u)
        assert rel_diff(conv, apply(mult, u)) < 1e-14

    def test_oracle_equivalence_n1_d1(self):
        grid = TorusGrid(1, 16)
        mult = sobolev_multiplier(1.0, grid)
        u0 = headroom_field(grid, 1, 12)
        u1 = headroom_field(grid, 1, 13)
        conv = apply_An_convolution(mult, 1, u0, u1)
        rec = apply_An_recursive(mult, 1, u0, u1)
        assert rel_diff(conv, rec) < 1e-10

    def test_oracle_equivalence_n2_d1(self):
        grid = TorusGrid(1, 16)
        mult = sobolev_multiplier(0.75, grid)
        us = [headroom_field(grid, 2, 14 + i) for i in range(3)]
        conv = apply_An_convolution(mult, 2, *us)
        rec = apply_An_recursive(mult, 2, *us)
        assert rel_diff(conv, rec) < 1e-9

    def test_oracle_equivalence_n1_d2(self):
        grid = TorusGrid(2, 8)
        mult = sobolev_multiplier(1.0, grid)
        u0 = headroom_field(grid, 1, 17)
        u1 = headroom_field(grid, 1, 18)
        conv = apply_An_convolution(mult, 1, u0, u1)
        rec = apply_An_recursive(mult, 1, u0, u1)
        assert rel_diff(conv, rec) < 1e-10

    def test_oracle_equivalence_matrix_symbol(self):
        # non-scalar symbol: the operator recursion knows nothing about the
        # matrix structure, so this pins the tensor slot ordering
        grid = TorusGrid(2, 8)
        mult = FourierMultiplier.build(shear_laplacian_symbol(0.8), grid)
        u0 = headroom_field(grid, 1, 21)
        u1 = headroom_field(grid, 1, 22)
        conv = apply_An_convolution(mult, 1, u0, u1)
        rec = apply_An_recursive(mult, 1, u0, u1)
        assert rel_diff(conv, rec) < 1e-10

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("symbol", [
        sobolev_symbol(1.5, 2), shear_laplacian_symbol(0.8), conjugate_symmetric_complex_symbol(8),
    ], ids=["sobolev", "shear", "conjugate_symmetric_complex"])
    def test_recursion_matches_oracle_to_roundoff(self, symbol, order):
        # on headroom inputs both evaluators are exact, so they agree to
        # roundoff, complex matrix symbols included
        mult = FourierMultiplier.build(symbol, TorusGrid(2, 8))
        us = [headroom_field(mult.grid, order, 170 + 10 * order + i) for i in range(order + 1)]
        assert rel_diff(apply_An_recursive(mult, order, *us), apply_An_convolution(mult, order, *us)) <= 1e-13

    @pytest.mark.parametrize("order", [1, 2])
    def test_recursion_rejects_table_breaking_conjugate_symmetry(self, order, monkeypatch):
        # the padded passes read half spectra, so such a table once gave the
        # recursion a 9e-2 (order 1) and 0.29 (order 2) relative error
        mult = FourierMultiplier.build(hermitian_complex_symbol(), TorusGrid(2, 8))
        us = [headroom_field(mult.grid, order, 200 + i) for i in range(order + 1)]
        with monkeypatch.context() as patch:
            patch.setattr(conjugation, "padded_samples", None)  # no pass may start
            with pytest.raises(ValueError, match=r"breaks a\(-k\) = conj\(a\(k\)\)"):
                apply_An_recursive(mult, order, *us)
        # the oracle has no such rule
        assert rel_diff(apply_An_convolution(mult, order, *us), add_at_contraction(mult, order, *us)) <= 1e-13

    def test_kernel_cache(self):
        grid = TorusGrid(1, 8)
        mults = [sobolev_multiplier(1.0, grid) for _ in range(9)]
        first = convolution_kernel(mults[0], 1)
        assert convolution_kernel(mults[0], 1) is first
        assert convolution_kernel(mults[1], 1) is not first
        for mult in mults[1:]:
            convolution_kernel(mult, 1)
        assert convolution_kernel.cache_info().currsize <= 8
        assert convolution_kernel(mults[0], 1) is not first  # evicted, rebuilt

    @pytest.mark.parametrize("dim,n,order", [(1, 16, 1), (1, 16, 2), (2, 8, 1), (2, 8, 2)])
    def test_kernel_matches_add_at_contraction(self, dim, n, order):
        grid = TorusGrid(dim, n)
        mult = sobolev_multiplier(1.0, grid)
        kernel = ConvolutionKernel(mult, order)
        assert all(tensor.dtype == np.float64 for _, tensor, _ in kernel.chunks)
        us = [band_limited(grid, n // 2, seed=30 + i) for i in range(order + 1)]
        assert rel_diff(kernel.apply(*us), add_at_contraction(mult, order, *us)) <= 1e-13

    @pytest.mark.parametrize("order", [1, 2])
    def test_complex_symbol_kernel_matches_add_at_contraction(self, order):
        grid = TorusGrid(2, 8)
        mult = FourierMultiplier.build(hermitian_complex_symbol(), grid)
        kernel = ConvolutionKernel(mult, order)
        assert all(tensor.dtype == np.complex128 for _, tensor, _ in kernel.chunks)
        us = [band_limited(grid, 4, seed=35 + i) for i in range(order + 1)]
        assert rel_diff(kernel.apply(*us), add_at_contraction(mult, order, *us)) <= 1e-13

    @pytest.mark.parametrize("dim,n,order", [(1, 16, 1), (1, 16, 2), (2, 8, 1), (2, 8, 2)])
    def test_kernel_chunks_bit_identical_to_batch_major_build(self, dim, n, order):
        # at L = 1 every partial sum k/L is exact, so the table and the leaf
        # evaluations see the same points
        mult = sobolev_multiplier(1.0, TorusGrid(dim, n))
        chunks = ConvolutionKernel(mult, order).chunks
        reference = batch_major_chunks(mult, order)
        assert len(chunks) == len(reference)
        for got, want in zip(chunks, reference):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dim,n,order", [(1, 16, 2), (2, 8, 1), (2, 8, 2)])
    def test_kernel_matches_add_at_contraction_at_length_2pi(self, dim, n, order):
        # (k_0 + k_1)/L and k_0/L + k_1/L differ in the last bits here
        grid = TorusGrid(dim, n, 2 * np.pi)
        mult = sobolev_multiplier(1.0, grid)
        us = [band_limited(grid, n // 2, seed=50 + i) for i in range(order + 1)]
        kernel = ConvolutionKernel(mult, order)
        assert rel_diff(kernel.apply(*us), add_at_contraction(mult, order, *us)) <= 1e-13

    @pytest.mark.parametrize("order", [1, 2])
    def test_symbol_evaluated_once_on_the_reachable_box(self, order):
        grid = TorusGrid(2, 8, 2 * np.pi)
        evaluations = []
        mult = FourierMultiplier.build(box_sentinel_symbol(grid, order, evaluations), grid)
        evaluations.clear()
        kernel = ConvolutionKernel(mult, order)
        assert evaluations == [((order + 1) * (grid.n - 1) + 1) ** 2]
        plain = ConvolutionKernel(sobolev_multiplier(1.0, grid), order)
        for got, want in zip(kernel.chunks, plain.chunks):
            assert got[1].tobytes() == want[1].tobytes()

    def test_kernel_build_memory(self):
        mult = sobolev_multiplier(1.0, TorusGrid(2, 8))
        tracemalloc.start()
        try:
            ConvolutionKernel(mult, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**20

    @pytest.mark.parametrize("dim,n,order", [(1, 16, 1), (1, 16, 2), (2, 8, 1), (2, 8, 2)])
    def test_live_tuples_keep_every_bit(self, dim, n, order):
        # acceptance-1 headroom draws (few live tuples) and dense draws (all live)
        mult = sobolev_multiplier(1.0, TorusGrid(dim, n))
        kernel = convolution_kernel(mult, order)
        rng = np.random.default_rng(60 + 10 * order + dim)
        for kmax in [(n // 2 - 1) // (order + 1)] * 3 + [n // 2]:
            fields = [bandlimited_draw(mult.grid, kmax, rng) for _ in range(order + 1)]
            assert_same_bits(kernel.apply(*fields), all_tuple_apply(kernel, *fields))

    @pytest.mark.parametrize("order", [1, 2])
    def test_live_tuples_keep_every_bit_complex_symbol(self, order):
        grid = TorusGrid(2, 8)
        kernel = ConvolutionKernel(FourierMultiplier.build(hermitian_complex_symbol(), grid), order)
        rng = np.random.default_rng(70 + order)
        for kmax in ((grid.n // 2 - 1) // (order + 1), grid.n // 2):
            fields = [bandlimited_draw(grid, kmax, rng) for _ in range(order + 1)]
            assert_same_bits(kernel.apply(*fields), all_tuple_apply(kernel, *fields))

    @pytest.mark.parametrize("order", [1, 2])
    def test_lone_live_tuple_keeps_every_bit(self, order):
        # one mode per field leaves one live tuple, the case where numpy's
        # complex product rounds differently on a single pair
        grid = TorusGrid(1, 16)
        kernel = convolution_kernel(sobolev_multiplier(1.0, grid), order)
        rng = np.random.default_rng(80 + order)
        for _ in range(10):
            fields = []
            for slot in range(order + 1):
                coeffs = np.zeros((1,) + grid.shape, dtype=complex)
                coeffs[0, slot + 1] = complex(*rng.standard_normal(2))
                fields.append(SpectralVectorField(grid, coeffs))
            assert_same_bits(kernel.apply(*fields), all_tuple_apply(kernel, *fields))

    def test_zero_field_gives_exact_zeros(self):
        mult = sobolev_multiplier(1.0, TorusGrid(2, 8))
        kernel = convolution_kernel(mult, 2)
        u = headroom_field(mult.grid, 2, 90)
        zero = SpectralVectorField(mult.grid, np.zeros_like(u.coeffs))
        for fields in ((zero, u, u), (u, u, zero)):
            out = kernel.apply(*fields)
            assert not out.coeffs.any()
            assert_same_bits(out, all_tuple_apply(kernel, *fields))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, bad):
        # 0 * inf is NaN in the all-tuple sum, so dropping dead tuples would hide it
        mult = sobolev_multiplier(1.0, TorusGrid(1, 16))
        u = headroom_field(mult.grid, 1, 91)
        coeffs = u.coeffs.copy()
        coeffs[0, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            convolution_kernel(mult, 1).apply(u, SpectralVectorField(mult.grid, coeffs))

    def test_cost_guard(self):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.0, grid)
        u = band_limited(grid, 3, seed=19)
        with pytest.raises(ValueError, match="cost guard"):
            apply_An_convolution(mult, 1, u, u)


@pytest.mark.parametrize("evaluate", [apply_An_recursive, apply_An_convolution],
                         ids=["recursive", "convolution"])
@pytest.mark.parametrize("order", [0, 1])
def test_fields_on_another_grid_rejected(evaluate, order):
    # same n, other box: the lattice shapes agree, so only the grid check
    # keeps the multiplier's box off these fields
    mult = sobolev_multiplier(1.0, TorusGrid(1, 16))
    on_grid = [headroom_field(mult.grid, 1, seed) for seed in range(order + 1)]
    stray = headroom_field(TorusGrid(1, 16, length=2.0), 1, 9)
    for k in range(order + 1):  # the stray field in each slot
        with pytest.raises(GridMismatchError):
            evaluate(mult, order, *on_grid[:k], stray, *on_grid[k + 1:])


@pytest.mark.parametrize("evaluate", [apply_An_recursive, apply_An_convolution],
                         ids=["recursive", "convolution"])
def test_wrong_number_of_fields_rejected(evaluate):
    mult = sobolev_multiplier(1.0, TorusGrid(1, 16))
    u = headroom_field(mult.grid, 1, 3)
    for fields in ([u], [u, u, u]):
        with pytest.raises(ValueError, match=f"expected 2 fields, got {len(fields)}"):
            evaluate(mult, 1, *fields)


class TestEnvelope:
    def test_constant_symbol_ratio_zero(self):
        const = scalar_symbol(lambda xi: np.ones(np.asarray(xi).shape[:-1]), 0.0, 1)
        est = estimate_Cn(const, 1, xi_max=100.0)
        assert est.max_ratio == 0.0

    def test_sobolev_ratio_bounded(self):
        r = 2.0
        est = estimate_Cn(sobolev_symbol(r / 2, 1), 1, xi_max=1e3)
        assert 0 < est.max_ratio <= 2 * np.pi * r

    def test_refinement_stable(self):
        for s in (0.5, 1.0, 1.5, 2.0):
            sym = sobolev_symbol(s, 1)
            for n in (1, 2):
                lo = estimate_Cn(sym, n, xi_max=500.0).max_ratio
                hi = estimate_Cn(sym, n, xi_max=1000.0).max_ratio
                assert hi >= lo * (1 - 1e-12)  # nested sample sets
                assert (hi - lo) / lo < 0.05


    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("xi_max", [500.0, 1000.0])
    def test_one_batch_matches_per_radius_loop(self, dim, n, xi_max):
        sym = sobolev_symbol(1.0, dim)
        got = estimate_Cn(sym, n, xi_max=xi_max, seed=4).per_radius
        want = per_radius_loop(sym, n, xi_max, seed=4)
        assert got.tobytes() == want.tobytes()


class TestFrozenTensors:
    def test_s11_closed_form(self):
        sym = sobolev_symbol(1.5, 1)
        rng = np.random.default_rng(5)
        xis = rng.normal(size=(50, 2, 1))
        s = s_tensor(sym, 1, (1,), xis[:, :1, :], xis[:, 1:, :])
        a = sym(xis[:, 0, :])
        a_sum = sym(xis[:, 0, :] + xis[:, 1, :])
        expected = (a - a_sum)[..., None] * xis[:, None, None, 0, :]
        assert np.abs(s - expected).max() < 1e-12 * np.abs(expected).max()

    def test_s2_12_wedge_antisymmetry(self):
        sym = sobolev_symbol(1.0, 2)
        rng = np.random.default_rng(6)
        xis = rng.normal(size=(30, 3, 2))
        s = s_tensor(sym, 2, (1, 2), xis[:, :2, :], xis[:, 2:, :])
        swapped = s_tensor(sym, 2, (1, 2), xis[:, [1, 0], :], xis[:, 2:, :])
        assert np.abs(s + swapped).max() < 1e-12 * np.abs(s).max()
        # explicit wedge form
        a_diff = sym(xis[:, 0] + xis[:, 1]) - sym(xis[:, 0] + xis[:, 1] + xis[:, 2])
        wedge = (
            xis[:, 0, :, None] * xis[:, 1, None, :] - xis[:, 1, :, None] * xis[:, 0, None, :]
        )
        expected = a_diff[..., :, :, None, None] * wedge[:, None, None, :, :]
        assert np.abs(s - expected).max() < 1e-12 * np.abs(expected).max()

    def test_t_frozen_example(self):
        # t_2^1(c)(xi) = a(xi) (x) c (x) xi, component-major: frozen (r, dim, B), xi (dim, B)
        sym = sobolev_symbol(1.0, 1)
        frozen = np.array([[[2.0]]])
        xi = np.array([[3.0]])
        out = _t_frozen(sym(xi.T).transpose(1, 2, 0), 2, (1,), frozen, xi)
        assert out.shape == (1, 1, 1, 1, 1)
        a_val = sym(xi)[0, 0, 0]
        assert out[0, 0, 0, 0, 0] == pytest.approx(a_val * 2.0 * 3.0)

    def test_t_frozen_slots_in_order(self):
        # t_3^2(c)(xi) = a(xi) (x) xi (x) c (x) xi over a batch of d = 2 points
        sym = sobolev_symbol(1.0, 2)
        rng = np.random.default_rng(8)
        frozen, xi = rng.normal(size=(1, 2, 5)), rng.normal(size=(2, 5))
        out = _t_frozen(sym(xi.T).transpose(1, 2, 0), 3, (2,), frozen, xi)
        expected = np.einsum("Bij,kB,lB,mB->ijklmB", sym(xi.T), xi, frozen[0], xi)
        assert out.shape == (2, 2, 2, 2, 2, 5)
        assert np.abs(out - expected).max() < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("n,dim", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_rec_tensor_is_the_identity_rhs(self, n, dim):
        # Rec(s_n) = -s_{n+1} - s_{n+1}^{..., n+1}, through the public batch-major functions
        sym = sobolev_symbol(1.5, dim)
        rng = np.random.default_rng(40 + 10 * n + dim)
        xis = rng.normal(0.0, 2.0, size=(20, n + 2, dim))
        rec = rec_tensor(sym, n, (1,), xis)
        assert rec.shape == (20,) + (dim,) * (n + 3)
        rhs = -s_tensor(sym, n + 1, (1,), xis[:, :1], xis[:, 1:])
        rhs -= s_tensor(sym, n + 1, (1, n + 1), xis[:, [0, n + 1]], xis[:, 1 : n + 1])
        assert np.abs(rec - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_rec_tensor_batch_shape(self):
        sym = sobolev_symbol(1.5, 2)
        xis = np.random.default_rng(9).normal(size=(3, 4, 3, 2))
        rec = rec_tensor(sym, 1, (1,), xis)
        assert rec.shape == (3, 4) + (2,) * 4
        row = rec_tensor(sym, 1, (1,), xis[1])
        assert np.abs(rec[1] - row).max() <= 1e-14 * np.abs(row).max()

    @pytest.mark.parametrize("n,dim", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_identity_on_random_tuples(self, n, dim):
        sym = sobolev_symbol(1.5, dim)  # order 3 weight
        report = verify_sn_identity(sym, n, num_tuples=100, seed=n * 10 + dim)
        assert report.passed, report.cases
        assert report.max_rel_error <= 1e-10

    def test_sign_note_recorded(self):
        report = verify_sn_identity(sobolev_symbol(1.0, 1), 1, num_tuples=10)
        assert any("a_1" in note for note in report.notes)
        assert any("+2*pi*i" in note for note in report.notes)

    def test_identity_for_matrix_symbol(self):
        for n in (1, 2):
            report = verify_sn_identity(shear_laplacian_symbol(0.7), n, num_tuples=50, seed=n)
            assert report.passed, report.cases

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_sn_identity(sobolev_symbol(1.0, 1), 4)
        with pytest.raises(ValueError):
            verify_sn_identity(sobolev_symbol(1.0, 3), 1)
