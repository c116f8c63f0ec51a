"""The padded-grid evaluator of quadratic terms against independent references.

The real-transform passes are checked first against complex transforms:
sampling and transforming fields, and embedding spectra whose ``-n/2`` bins
sit on two or more axes at once, where only the Hermitian part of the
embedding reproduces the real part of the complex inverse transform.

Band-limited data (``|k| <= n/3``) is checked against the exact product:
plain samples multiplied on a 2n grid, where products of such data do not
alias, then restricted to the n band.  Full-band noise has Nyquist content,
where "exact" depends on conventions, so it is checked against the
one-product-at-a-time rule the evaluator replaced: each product padded to the
3/2 grid on its own, the real part of each inverse transform kept, and the
``+n/2`` bin folded into ``-n/2`` after each forward transform.
"""

import tracemalloc

import numpy as np
import pytest

from epdifflab import grid as grid_module
from epdifflab.epdiff import momentum_transport
from epdifflab.grid import (
    SpectralVectorField,
    TorusGrid,
    directional_derivative,
    divergence,
    padded_samples,
)
from epdifflab.lagrangian import spray_at_identity
from epdifflab.operators import apply, apply_inverse, sobolev_multiplier

TOL = 1e-13
# The spray cancels terms of size a(k)|u|^2 against each other, so its
# roundoff grows with the range of the symbol a.  The H^1 symbol on the 2*pi
# box stays below ~1e3 on these grids; a larger range would measure the
# conditioning of the spray, not the evaluation rule.
LENGTH = 2 * np.pi
SOBOLEV_ORDER = 1.0
CASES = ((1, 64), (2, 32), (3, 16))


def _noise(grid, seed, kmax=None):
    rng = np.random.default_rng(seed)
    u = SpectralVectorField.from_samples(grid, rng.standard_normal((grid.dim,) + grid.shape))
    if kmax is None:
        return u
    keep = np.max(np.abs(grid.wavenumbers), axis=0) <= kmax
    return SpectralVectorField(grid, u.coeffs * keep)


def _axes(dim):
    return tuple(range(-dim, 0))


def _mirror(coeffs, dim):
    """Values at ``-k`` of a stack of n-grid spectra."""
    n = coeffs.shape[-1]
    flip = -np.arange(n) % n
    return coeffs[(Ellipsis,) + np.ix_(*([flip] * dim))]


def _band(n, m):
    half = n // 2
    return np.concatenate([np.arange(half), np.arange(m - half, m)])


def _fold_and_restrict(spec, n, dim):
    """Fold ``+n/2`` into ``-n/2`` along each axis, then keep the n band."""
    m = spec.shape[-1]
    half = n // 2
    spec = spec.copy()
    for axis in range(spec.ndim - dim, spec.ndim):
        plus = np.take(spec, half, axis=axis)
        index = [slice(None)] * spec.ndim
        index[axis] = m - half
        spec[tuple(index)] += plus
    return spec[(Ellipsis,) + np.ix_(*([_band(n, m)] * dim))]


def _grad(coeffs, grid, axis):
    factor = 2j * np.pi * grid.wavenumbers[axis] / grid.length
    return coeffs * np.where(grid.nyquist_mask, 0.0, factor)


# --- exact products on the 2n grid --------------------------------------------

class FineGrid:
    """Samples on the 2n grid of band-limited n-grid spectra, and the way back."""

    def __init__(self, grid):
        self.grid = grid
        self.fine = TorusGrid(grid.dim, 2 * grid.n, grid.length)

    def samples(self, coeffs):
        lifted = np.zeros(coeffs.shape[:-self.grid.dim] + self.fine.shape, dtype=complex)
        lifted[(Ellipsis,) + np.ix_(*([_band(self.grid.n, self.fine.n)] * self.grid.dim))] = coeffs
        return SpectralVectorField(self.fine, lifted.reshape((-1,) + self.fine.shape)).samples()

    def restrict(self, samples):
        spec = SpectralVectorField.from_samples(self.fine, samples).coeffs
        return SpectralVectorField(self.grid, _fold_and_restrict(spec, self.grid.n, self.grid.dim))


def exact_directional(v, w):
    fg = FineGrid(v.grid)
    vs = fg.samples(v.coeffs)
    out = sum(vs[j] * fg.samples(_grad(w.coeffs, v.grid, j)) for j in range(v.grid.dim))
    return fg.restrict(out)


def exact_transport(v, m):
    grid = v.grid
    d = grid.dim
    fg = FineGrid(grid)
    vs, ms = fg.samples(v.coeffs), fg.samples(m.coeffs)
    dv = [fg.samples(_grad(v.coeffs, grid, j)) for j in range(d)]  # dv[j][i] = d_j v^i
    dm = [fg.samples(_grad(m.coeffs, grid, j)) for j in range(d)]
    div = sum(dv[j][j] for j in range(d))
    out = np.stack([
        sum(vs[j] * dm[j][i] + dv[i][j] * ms[j] for j in range(d)) + div * ms[i]
        for i in range(d)
    ])
    return fg.restrict(out)


# --- the rule the evaluator replaced, one product at a time --------------------

def old_product(f, g, grid):
    """Dealiased product of two scalar spectra, as each product was once taken."""
    n, m, dim = grid.n, (3 * grid.n) // 2, grid.dim
    vol = grid.length**dim
    band = np.ix_(*([_band(n, m)] * dim))

    def padded(c):
        spec = np.zeros((m,) * dim, dtype=complex)
        spec[band] = c
        return np.fft.ifftn(spec * m**dim).real / vol

    return _fold_and_restrict(np.fft.fftn(padded(f) * padded(g)) / m**dim * vol, n, dim)


def old_directional(v, w):
    grid = v.grid
    out = np.zeros_like(w.coeffs)
    for i in range(len(w.coeffs)):
        for j in range(grid.dim):
            out[i] += old_product(v.coeffs[j], _grad(w.coeffs[i], grid, j), grid)
    return SpectralVectorField(grid, out)


def old_transport(v, m):
    grid = v.grid
    div = divergence(v).coeffs
    out = old_directional(v, m).coeffs
    for i in range(grid.dim):
        for j in range(grid.dim):
            out[i] += old_product(_grad(v.coeffs[j], grid, i), m.coeffs[j], grid)
        out[i] += old_product(div, m.coeffs[i], grid)
    return SpectralVectorField(grid, out)


def spray_from(mult, u, directional, transport):
    return apply_inverse(mult, apply(mult, directional(u, u)) - transport(u, apply(mult, u)))


# --- real transforms against complex ones ------------------------------------

def _full_band_samples(grid, seed):
    return np.random.default_rng(seed).standard_normal((grid.dim,) + grid.shape)


def old_padded_samples(grid, coeffs):
    """Each spectrum embedded with ``-n/2`` at ``-n/2``, real part of the complex inverse."""
    n, m, dim = grid.n, (3 * grid.n) // 2, grid.dim
    spec = np.zeros(coeffs.shape[:-dim] + (m,) * dim, dtype=complex)
    spec[(Ellipsis,) + np.ix_(*([_band(n, m)] * dim))] = coeffs
    return np.fft.ifftn(spec, axes=_axes(dim)).real * m**dim / grid.length**dim


def _max_rel(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("dim,n", CASES)
def test_samples_match_complex_inverse(dim, n):
    grid = TorusGrid(dim, n, LENGTH)
    coeffs = np.fft.fftn(_full_band_samples(grid, 7), axes=_axes(dim)) * grid.cell_volume
    ref = np.fft.ifftn(coeffs / grid.cell_volume, axes=_axes(dim)).real
    assert _max_rel(SpectralVectorField(grid, coeffs).samples(), ref) <= TOL


@pytest.mark.parametrize("dim,n", CASES)
def test_from_samples_matches_complex_forward(dim, n):
    grid = TorusGrid(dim, n, LENGTH)
    samples = _full_band_samples(grid, 8)
    ref = np.fft.fftn(samples, axes=_axes(dim)) * grid.cell_volume
    assert _max_rel(SpectralVectorField.from_samples(grid, samples).coeffs, ref) <= TOL


@pytest.mark.parametrize("dim,n", CASES)
def test_from_samples_exactly_conjugate_symmetric(dim, n):
    grid = TorusGrid(dim, n, LENGTH)
    coeffs = SpectralVectorField.from_samples(grid, _full_band_samples(grid, 9)).coeffs
    assert np.array_equal(coeffs, np.conj(_mirror(coeffs, dim)))


@pytest.mark.parametrize("dim,n", CASES)
def test_padded_samples_full_band(dim, n):
    grid = TorusGrid(dim, n, LENGTH)
    coeffs = SpectralVectorField.from_samples(grid, _full_band_samples(grid, 10)).coeffs
    assert _max_rel(padded_samples(grid, coeffs), old_padded_samples(grid, coeffs)) <= TOL


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_padded_samples_nyquist_corners(dim, n):
    # Supported only where two or more axes sit at -n/2.  Halving each
    # Nyquist plane axis by axis gets these modes wrong by O(1); the Hermitian
    # part of the embedding matches the real part of the complex inverse.
    grid = TorusGrid(dim, n, LENGTH)
    at_nyquist = np.sum(grid.wavenumbers == -(n // 2), axis=0)
    coeffs = SpectralVectorField.from_samples(grid, _full_band_samples(grid, 11)).coeffs
    corners = coeffs * (at_nyquist >= 2)
    assert np.abs(corners).max() > 0
    assert _max_rel(padded_samples(grid, corners), old_padded_samples(grid, corners)) <= TOL


# --- the checks ----------------------------------------------------------------

def _rel(got, ref):
    return float(np.abs(got.coeffs - ref.coeffs).max() / np.abs(ref.coeffs).max())


def _three_terms(grid, u, v, directional, transport):
    mult = sobolev_multiplier(SOBOLEV_ORDER, grid)
    return [
        (momentum_transport(u, v), transport(u, v)),
        (directional_derivative(u, v), directional(u, v)),
        (spray_at_identity(mult, u), spray_from(mult, u, directional, transport)),
    ]


@pytest.mark.parametrize("dim,n", CASES)
def test_band_limited_matches_exact_product(dim, n):
    grid = TorusGrid(dim, n, LENGTH)
    u, v = _noise(grid, 1, kmax=n // 3), _noise(grid, 2, kmax=n // 3)
    for got, ref in _three_terms(grid, u, v, exact_directional, exact_transport):
        assert _rel(got, ref) <= TOL


@pytest.mark.parametrize("dim,n", CASES)
@pytest.mark.parametrize("per_call", [None, 1, 2])
def test_full_band_matches_one_product_rule(dim, n, per_call, monkeypatch):
    # per_call caps the padded half spectra per transform call, so that stacks
    # are split into single calls and into pairs with a remainder
    grid = TorusGrid(dim, n, LENGTH)
    if per_call is not None:
        m = (3 * n) // 2
        monkeypatch.setattr(grid_module, "MAX_TRANSFORM_BYTES",
                            per_call * 16 * m ** (dim - 1) * (m // 2 + 1))
    u, v = _noise(grid, 3), _noise(grid, 4)
    for got, ref in _three_terms(grid, u, v, old_directional, old_transport):
        assert _rel(got, ref) <= TOL


def test_transport_memory_peak_3d():
    # The padded working set of one transport at d=3, n=32 is bounded by the
    # per-component evaluation and the per-call transform cap (about 20 MiB);
    # without the cap the whole stack is sampled at once, near 100 MiB.
    grid = TorusGrid(3, 32)
    u, v = _noise(grid, 5), _noise(grid, 6)
    momentum_transport(u, v)  # fills the grid's cached index and factor tables
    tracemalloc.start()
    try:
        momentum_transport(u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 2**20
