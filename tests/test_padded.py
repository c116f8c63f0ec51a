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

The RK4 stages run on half spectra; a test-local copy of the full-spectrum
stage they replaced (``apply_inverse``, the transport term on full spectra,
and the completion of every negative bin at once) must give the same bits,
step after step.

A stack split into several transform calls runs its chunks on worker
threads; the passes and the steps must give the same bits for every worker
count, and a stack that fits one call must start no thread.
"""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from epdifflab import grid as grid_module
from epdifflab.epdiff import (
    EulerState,
    euler_rhs,
    momentum_transport,
    peakon_pair,
    random_bandlimited,
    step_rk4,
)
from epdifflab.grid import (
    GridMismatchError,
    SpectralVectorField,
    TorusGrid,
    directional_derivative,
    divergence,
    padded_samples,
    truncate_padded,
)
from epdifflab.lagrangian import spray_at_identity
from epdifflab.operators import FourierMultiplier, apply, apply_inverse, sobolev_multiplier
from epdifflab.symbols import sobolev_symbol

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


def test_transport_memory_peak_3d(monkeypatch):
    # The padded working set of one transport at d=3, n=32 is bounded by the
    # per-component evaluation and the per-call transform cap (about 20 MiB);
    # without the cap the whole stack is sampled at once, near 100 MiB.  Two
    # threads transform chunks at once; tracemalloc traces every thread.
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 2)
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


# --- the full-spectrum stage the half-spectrum stages replaced ------------------
#
# Copied from the evaluator before its stages ran on half spectra: the same
# transform batches, embedding blocks and operation order, so every result
# must match bit for bit.

def _batch(grid):
    m = (3 * grid.n) // 2
    return max(1, grid_module.MAX_TRANSFORM_BYTES // (16 * m ** (grid.dim - 1) * (m // 2 + 1)))


def _blocks(grid, plus, plus_last):
    n, m = grid.n, (3 * grid.n) // 2

    def pairs(p):
        h = n // 2 + p
        return (slice(0, h), slice(0, h)), (slice(m - n + h, m), slice(h, n))

    axes = [pairs(plus)] * (grid.dim - 1) + [pairs(plus_last)[:1]]
    return [tuple((Ellipsis,) + side for side in zip(*combo))
            for combo in itertools.product(*axes)]


def full_padded_samples(grid, coeffs):
    m, dim = (3 * grid.n) // 2, grid.dim
    scale = 0.5 * math.prod((m,) * dim) / grid.length**dim
    out = np.empty((len(coeffs),) + (m,) * dim)
    for lo in range(0, len(coeffs), _batch(grid)):
        chunk = coeffs[lo:lo + _batch(grid)]
        spec = np.zeros((len(chunk),) + (m,) * (dim - 1) + (m // 2 + 1,), dtype=complex)
        for dst, src in _blocks(grid, False, False):
            spec[dst] = chunk[src]
        for dst, src in _blocks(grid, True, True):
            spec[dst] += chunk[src]
        spec *= scale
        if dim == 1:
            out[lo:lo + _batch(grid)] = np.fft.irfft(spec, n=m)
        else:
            out[lo:lo + _batch(grid)] = np.fft.irfftn(spec, s=(m,) * dim, axes=_axes(dim))
    return out


def complete_all_bins(grid, out):
    """The old completion: halve bin 0, then add the conjugate reflection of everything."""
    out[..., 0] *= 0.5
    mirrored = _mirror(out, grid.dim)
    out += np.conjugate(mirrored, out=mirrored)
    return out


def full_truncate_padded(grid, samples):
    n, m, dim = grid.n, (3 * grid.n) // 2, grid.dim
    out = np.zeros((len(samples),) + grid.shape, dtype=complex)
    for lo in range(0, len(samples), _batch(grid)):
        chunk = samples[lo:lo + _batch(grid)]
        spec = np.fft.rfft(chunk) if dim == 1 else np.fft.rfftn(chunk, axes=_axes(dim))
        for axis in range(1, dim):
            lead = (slice(None),) * axis
            spec[lead + (m - n // 2,)] += spec[lead + (n // 2,)]
        for src, dst in _blocks(grid, False, True):
            out[lo:lo + _batch(grid)][dst] = spec[src]
    out = complete_all_bins(grid, out)
    out *= grid.length**dim / math.prod((m,) * dim)
    return out


def full_from_samples(grid, samples):
    out = np.zeros(samples.shape, dtype=complex)
    rfft = np.fft.rfft(samples) if grid.dim == 1 else np.fft.rfftn(samples, axes=_axes(grid.dim))
    out[..., :grid.n // 2 + 1] = rfft
    out[..., grid.n // 2] *= 0.5
    out = complete_all_bins(grid, out)
    out *= grid.cell_volume
    return out


def full_transport(v, m):
    grid, d = v.grid, v.grid.dim
    factors = grid.derivative_factors

    def gradients(i):
        out = np.empty((2 * d,) + grid.shape, dtype=complex)
        np.multiply(m.coeffs[i], factors, out=out[:d])
        np.multiply(v.coeffs, factors[i], out=out[d:])
        return out

    shared = [v.coeffs, m.coeffs, divergence(v).coeffs[None]]
    fused = 2 * d + 1 + 2 * d * d <= _batch(grid)
    padded = full_padded_samples(
        grid, np.concatenate(shared + ([gradients(i) for i in range(d)] if fused else [])))
    ms, div = padded[d:2 * d], padded[2 * d]
    out = np.empty((d,) + ((3 * grid.n) // 2,) * d)
    for i in range(d):
        lo = 2 * d * (i + 1) + 1
        grads = padded[lo:lo + 2 * d] if fused else full_padded_samples(grid, gradients(i))
        np.einsum("k...,k...->...", padded[:2 * d], grads, out=out[i])
        out[i] += div * ms[i]
    return SpectralVectorField(grid, full_truncate_padded(grid, out))


def full_step_rk4(mult, state, dt):
    def rhs(m):
        return -1.0 * full_transport(apply_inverse(mult, m), m)

    m = state.m
    k1 = rhs(m)
    k2 = rhs(m + (dt / 2) * k1)
    k3 = rhs(m + (dt / 2) * k2)
    k4 = rhs(m + dt * k3)
    m_new = m + (dt / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return EulerState.from_momentum(mult, m_new, t=state.t + dt)


def _assert_same_trajectory(mult, u, dt, steps):
    half = full = EulerState.from_velocity(mult, u)
    for _ in range(steps):
        half, full = step_rk4(mult, half, dt), full_step_rk4(mult, full, dt)
        assert np.array_equal(half.m.coeffs, full.m.coeffs)
        assert np.array_equal(half.u.coeffs, full.u.coeffs)
    assert half.t == full.t


def test_peakon_steps_match_full_spectrum_stage():
    # the Camassa-Holm blow-up datum of configs/peakon_blowup.ini
    grid = TorusGrid(1, 256)
    mult = sobolev_multiplier(1.0, grid)
    _assert_same_trajectory(mult, peakon_pair(grid, 0.5, 0.3, 0.08), 1e-3, 50)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_steps_match_full_spectrum_stage(dim, n):
    # full-band data with Nyquist content; at d=2 n=32 the whole stack is one
    # transform call, at d=3 n=16 it goes in pairs and gradients go apart
    grid = TorusGrid(dim, n)
    mult = sobolev_multiplier(1.5, grid)
    _assert_same_trajectory(mult, random_bandlimited(grid, n // 2, seed=12), 1e-4, 2)


@pytest.mark.parametrize("dim,n", CASES)
def test_truncate_and_from_samples_match_old_completion(dim, n):
    grid = TorusGrid(dim, n, LENGTH)
    m = (3 * n) // 2
    padded = np.random.default_rng(13).standard_normal((dim + 1,) + (m,) * dim)
    assert np.array_equal(truncate_padded(grid, padded), full_truncate_padded(grid, padded))
    samples = _full_band_samples(grid, 14)
    got = SpectralVectorField.from_samples(grid, samples).coeffs
    assert np.array_equal(got, full_from_samples(grid, samples))


def test_euler_rhs_keeps_the_checks_of_apply_inverse():
    grid = TorusGrid(1, 32)
    m = _noise(grid, 15)
    with pytest.raises(ValueError, match="no inverse table"):
        euler_rhs(FourierMultiplier.build(sobolev_symbol(1.0, 1), grid), m)
    with pytest.raises(GridMismatchError):
        euler_rhs(sobolev_multiplier(1.0, TorusGrid(1, 64)), m)


# --- worker threads ----------------------------------------------------------------

def _threaded_results(dim, n, workers, per_call, monkeypatch):
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", workers)
    if per_call is not None:
        m = (3 * n) // 2
        monkeypatch.setattr(grid_module, "MAX_TRANSFORM_BYTES",
                            per_call * 16 * m ** (dim - 1) * (m // 2 + 1))
    grid = TorusGrid(dim, n)  # a new grid builds its plan with the patched constants
    assert grid.plan.workers == workers
    coeffs = _noise(grid, 16).coeffs
    stack = np.concatenate([coeffs, coeffs[::-1], coeffs[:1]])  # odd: pairs leave a remainder
    padded = padded_samples(grid, stack)
    mult = sobolev_multiplier(1.5, grid)
    state = EulerState.from_velocity(mult, random_bandlimited(grid, n // 2, seed=17))
    for _ in range(2):
        state = step_rk4(mult, state, 1e-4)
    return padded, truncate_padded(grid, padded), state.m.coeffs, state.u.coeffs


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("per_call", [None, 1, 2])
def test_same_bits_for_every_worker_count(dim, n, per_call, monkeypatch):
    # per_call None keeps the default cap: one call at d=2 n=32, pairs at
    # d=3 n=16; 1 and 2 force single fields and pairs with a remainder
    ref = _threaded_results(dim, n, 1, per_call, monkeypatch)
    for workers in (2, 3):
        got = _threaded_results(dim, n, workers, per_call, monkeypatch)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_chunks_under_frequent_thread_switches(monkeypatch):
    # more threads than cores, switching every microsecond: a chunk taken
    # twice or lost from the queue would change the bits
    n, m = 16, 24
    monkeypatch.setattr(grid_module, "MAX_TRANSFORM_BYTES", 16 * m * m * (m // 2 + 1))
    results = []
    for workers in (1, 4):
        monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", workers)
        grid = TorusGrid(3, n)
        stack = np.concatenate([_noise(grid, seed).coeffs for seed in range(20, 27)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results.append([padded_samples(grid, stack) for _ in range(5)])
        finally:
            sys.setswitchinterval(interval)
    for got in results[1]:
        assert np.array_equal(got, results[0][0])


def test_split_stack_starts_the_pool(monkeypatch):
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 2)
    monkeypatch.setattr(grid_module, "_pools", {})
    grid = TorusGrid(3, 16)
    assert grid.plan.batch < grid.dim  # so the three components take two calls
    padded_samples(grid, _noise(grid, 18).coeffs)
    assert list(grid_module._pools) == [1]  # the calling thread and one helper


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 16)])
def test_one_call_stacks_start_no_thread(dim, n, monkeypatch):
    # d=1 and the small grids of the oracle checks keep their inline path
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 2)
    monkeypatch.setattr(grid_module, "_pools", {})
    grid = TorusGrid(dim, n)
    mult = sobolev_multiplier(1.0, grid)
    euler_rhs(mult, apply(mult, _noise(grid, 19)))
    assert grid_module._pools == {}
