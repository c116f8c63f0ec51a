"""Tests for the derivative tower: operator recursion, symbol tensors, oracles."""

import tracemalloc

import numpy as np
import pytest

from epdifflab.conjugation import (
    KERNEL_CHUNK,
    ConvolutionKernel,
    HeadroomError,
    _t_frozen,
    apply_An_convolution,
    apply_An_recursive,
    commutator_A1,
    convolution_kernel,
    estimate_Cn,
    rec_tensor,
    required_headroom,
    s_tensor,
    symbol_an,
    verify_sn_identity,
)
from epdifflab.grid import SpectralVectorField, TorusGrid, directional_derivative
from epdifflab.operators import FourierMultiplier, apply, sobolev_multiplier
from epdifflab.symbols import MatrixSymbol, scalar_symbol, sobolev_symbol, sobolev_weight

from test_grid import band_limited


def headroom_field(grid, n_order, seed):
    kmax = (grid.n // 2 - 1) // (n_order + 1)
    return band_limited(grid, kmax, seed=seed)


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

    def test_n3_symmetry_and_guard(self):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.0, grid)
        us = [headroom_field(grid, 3, 40 + i) for i in range(4)]
        a = apply_An_recursive(mult, 3, *us)
        b = apply_An_recursive(mult, 3, us[0], us[2], us[3], us[1])
        assert rel_diff(a, b) < 1e-10
        with pytest.raises(ValueError, match="limited"):
            apply_An_recursive(mult, 4, *(us + [us[0]]))


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
        from epdifflab.symbols import shear_laplacian_symbol

        grid = TorusGrid(2, 8)
        mult = FourierMultiplier.build(shear_laplacian_symbol(0.8), grid)
        u0 = headroom_field(grid, 1, 21)
        u1 = headroom_field(grid, 1, 22)
        conv = apply_An_convolution(mult, 1, u0, u1)
        rec = apply_An_recursive(mult, 1, u0, u1)
        assert rel_diff(conv, rec) < 1e-10

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

    def test_cost_guard(self):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.0, grid)
        u = band_limited(grid, 3, seed=19)
        with pytest.raises(ValueError, match="cost guard"):
            apply_An_convolution(mult, 1, u, u)


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
        out = _t_frozen(sym, 2, (1,), frozen, xi)
        assert out.shape == (1, 1, 1, 1, 1)
        a_val = sym(xi)[0, 0, 0]
        assert out[0, 0, 0, 0, 0] == pytest.approx(a_val * 2.0 * 3.0)

    def test_t_frozen_slots_in_order(self):
        # t_3^2(c)(xi) = a(xi) (x) xi (x) c (x) xi over a batch of d = 2 points
        sym = sobolev_symbol(1.0, 2)
        rng = np.random.default_rng(8)
        frozen, xi = rng.normal(size=(1, 2, 5)), rng.normal(size=(2, 5))
        out = _t_frozen(sym, 3, (2,), frozen, xi)
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
        from epdifflab.symbols import shear_laplacian_symbol

        for n in (1, 2):
            report = verify_sn_identity(shear_laplacian_symbol(0.7), n, num_tuples=50, seed=n)
            assert report.passed, report.cases

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_sn_identity(sobolev_symbol(1.0, 1), 4)
        with pytest.raises(ValueError):
            verify_sn_identity(sobolev_symbol(1.0, 3), 1)
