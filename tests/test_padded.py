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

The RK4 steps run on half spectra, stages and their combination alike; a
test-local copy of the full-spectrum step they replaced (``apply_inverse``,
the transport term on full spectra, the completion of every negative bin at
once in every stage, and full-spectrum stage arithmetic) must give the same
bits, step after step, also at the substeps of the peakon run's halting
phase.  Each stage input goes into a buffer the step names (the Eulerian
transport pass's own rows, a buffer of the spray's step); a test-local copy
of the RK4 step on fresh arrays must give the same bits for both solvers.

The spray takes its advective term from the transport pass; a test-local
copy of the two passes it replaced (``directional_derivative`` and then
``momentum_transport``) must give the same bits at d=1.

A stack split into several transform calls runs its chunks on worker
threads, and a split transport pass whose padded row fills a call shares
its elementwise work between them; the passes and the steps must give the
same bits for every worker count, and a stack that fits one call must
start no thread.  The helpers keep the caller's numpy error state, and a
failing chunk returns only once every helper has stopped writing.  Split passes
transform in per-thread workspaces of the grid's plan: two threads calling
one grid at once must each get the serial bits, in arrays of their own.  The
sampling and truncation objects the plan keeps per stack height must bind
views of those workspaces and go with the grid, and no chunk may call a
public function off the calling thread.
"""

import gc
import inspect
import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from epdifflab import epdiff as epdiff_module
from epdifflab import grid as grid_module
from epdifflab.epdiff import (
    EulerState,
    euler_rhs,
    integrate,
    gaussian_blob,
    peakon_pair,
    random_bandlimited,
    step_rk4,
)
from epdifflab.grid import (
    GridMismatchError,
    SpectralVectorField,
    TorusGrid,
    _full,
    _truncate_half,
    padded_samples,
)
from epdifflab import lagrangian as lagrangian_module
from epdifflab.lagrangian import DiffeoChart, GeodesicState, integrate_geodesic, spray_at_identity, spray_rhs
from epdifflab.operators import FourierMultiplier, apply, apply_inverse, sobolev_multiplier
from epdifflab.symbols import sobolev_symbol

from test_grid import directional_derivative, momentum_transport

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
    div = np.sum(v.coeffs * grid.derivative_factors, axis=0)
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


# the grids where the padded pass skips lines (d > 1), with one and several
# transform calls per stack
PRUNED_CASES = ((2, 8), (2, 64), (3, 16), (3, 32))


@pytest.mark.parametrize("dim,n", CASES + PRUNED_CASES)
def test_padded_samples_full_band(dim, n):
    # at d > 1 the pass transforms only the lines that can be nonzero: the
    # bytes must still be those of irfftn on the whole embedded spectrum
    grid = TorusGrid(dim, n, LENGTH)
    coeffs = SpectralVectorField.from_samples(grid, _full_band_samples(grid, 10)).coeffs
    got = padded_samples(grid, coeffs)
    assert _max_rel(got, old_padded_samples(grid, coeffs)) <= TOL
    assert got.tobytes() == full_padded_samples(grid, coeffs).tobytes()


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_padded_samples_nyquist_corners(dim, n):
    # Supported only where two or more axes sit at -n/2.  Halving each
    # Nyquist plane axis by axis gets these modes wrong by O(1); the Hermitian
    # part of the embedding matches the real part of the complex inverse.
    # The corners sit at both ends of the zero band that the pass skips.
    grid = TorusGrid(dim, n, LENGTH)
    at_nyquist = np.sum(grid.wavenumbers == -(n // 2), axis=0)
    coeffs = SpectralVectorField.from_samples(grid, _full_band_samples(grid, 11)).coeffs
    corners = coeffs * (at_nyquist >= 2)
    assert np.abs(corners).max() > 0
    got = padded_samples(grid, corners)
    assert _max_rel(got, old_padded_samples(grid, corners)) <= TOL
    assert got.tobytes() == full_padded_samples(grid, corners).tobytes()


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


def test_warm_transport_memory_peak_3d(monkeypatch):
    # once the plan's workspaces and the thread's transport pass exist, a
    # transport allocates only its half and full outputs (3.2 MiB); 22 MiB
    # before workspaces, 6.4 MiB before the pass owned its buffers
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 2)
    grid = TorusGrid(3, 32)
    u, v = _noise(grid, 5), _noise(grid, 6)
    momentum_transport(u, v)
    tracemalloc.start()
    try:
        momentum_transport(u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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

    shared = [v.coeffs, m.coeffs, np.sum(v.coeffs * grid.derivative_factors, axis=0)[None]]
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


def _assert_same_trajectory(mult, state, dt, steps):
    # bytes, not values: a zero of the other sign would pass np.array_equal
    half = full = state
    for _ in range(steps):
        half, full = step_rk4(mult, half, dt), full_step_rk4(mult, full, dt)
        assert half.m.coeffs.tobytes() == full.m.coeffs.tobytes()
        assert half.u.coeffs.tobytes() == full.u.coeffs.tobytes()
    assert half.t == full.t


def _peakon(grid, mult):
    # the Camassa-Holm blow-up datum of configs/peakon_blowup.ini
    return EulerState.from_velocity(mult, peakon_pair(grid, 0.5, 0.3, 0.08))


def test_peakon_steps_match_full_spectrum_stage():
    grid = TorusGrid(1, 256)
    mult = sobolev_multiplier(1.0, grid)
    _assert_same_trajectory(mult, _peakon(grid, mult), 1e-3, 50)


@pytest.fixture(scope="module")
def late_peakon():
    grid = TorusGrid(1, 256)
    mult = sobolev_multiplier(1.0, grid)
    late = integrate(mult, _peakon(grid, mult), 0.92, 1e-3, cadence=10**9)
    assert late.status == "completed" and late.final_state.sup_gradient > 10
    return mult, late.final_state


@pytest.mark.parametrize("doublings", [3, 6])
def test_peakon_substeps_match_full_spectrum_stage_near_the_halt(late_peakon, doublings):
    # past t = 0.9 the peakon runs steepen toward the halt of
    # configs/peakon_blowup.ini, where the CFL guard cuts the step to dt/2^k
    # and the bits of every substep decide t*
    mult, state = late_peakon
    _assert_same_trajectory(mult, state, 1e-3 / 2**doublings, 20)


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (3, 16), (3, 32)])
def test_steps_match_full_spectrum_stage(dim, n):
    # full-band data with Nyquist content; at d=2 n=32 the whole stack is one
    # transform call, at d=3 n=16 it goes in pairs and gradients go apart, at
    # d=2 n=64 in threes and at d=3 n=32 one field per call
    grid = TorusGrid(dim, n)
    mult = sobolev_multiplier(1.5, grid)
    _assert_same_trajectory(
        mult, EulerState.from_velocity(mult, random_bandlimited(grid, n // 2, seed=12)), 1e-4, 2)


# (_rfft, _irfft) calls per step: one each way per stage where the stack fits
# one call, and at d=3 n=32 one per padded field (3 forward, 7 + 3 x 6 inverse)
TRANSFORMS_PER_STEP = {(1, 256): (4, 4), (2, 32): (4, 4), (3, 32): (12, 100)}


# Where a call of numpy's public np.einsum shows: the function itself, and the
# kernel its Python wrapper looks up on every call, which a partial bound to
# np.einsum reaches too.  The package calls that kernel directly (grid._einsum).
PUBLIC_EINSUM = [(np, "einsum"), (np._core.einsumfunc, "c_einsum")]


def _count_calls(monkeypatch, targets):
    """Calls of each ``(module, name)`` of ``targets`` by name, counted from
    now on; split passes transform on worker threads, so a lock guards them."""
    calls, lock = {}, threading.Lock()
    for module, name in targets:
        calls[name] = 0

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            with lock:
                calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("dim,n", list(TRANSFORMS_PER_STEP))
def test_step_reflects_once(dim, n, monkeypatch):
    # the stages and their combination run on half spectra; only the new
    # momentum gets its negative bins, and the stages transform as before;
    # every contraction calls numpy's einsum kernel, not np.einsum
    grid = TorusGrid(dim, n)
    mult = sobolev_multiplier(1.5, grid)
    state = EulerState.from_velocity(mult, random_bandlimited(grid, n // 4, seed=21))
    state.cfl  # the guard's inverse transform of u, outside the count
    calls = _count_calls(monkeypatch, [
        (grid_module, "_rfft"), (grid_module, "_irfft"), (epdiff_module, "_full"),
        (epdiff_module, "_rhs_half"), (epdiff_module, "euler_rhs"), *PUBLIC_EINSUM])
    step_rk4(mult, state, 1e-4)
    rfft, irfft = TRANSFORMS_PER_STEP[dim, n]
    assert calls == {"_rfft": rfft, "_irfft": irfft, "_full": 1, "_rhs_half": 4, "euler_rhs": 0,
                     "einsum": 0, "c_einsum": 0}


def fresh_rk4(rhs, y, dt, stage):
    """The RK4 step before each stage input went into a buffer its caller
    names: ``stage`` is ignored, every array is fresh, and so the Eulerian
    transport pass copies each stage input into its rows."""
    k = np.empty((4,) + y.shape, dtype=y.dtype)
    stage = np.empty_like(k[0])
    rhs(y, k[0])
    for i, h in enumerate((np.float64(dt / 2), np.float64(dt / 2), np.float64(dt)), start=1):
        np.multiply(k[i - 1], h, out=stage)
        np.add(y, stage, out=stage)
        rhs(stage, k[i])
    k1, k2, k3, k4 = k
    np.multiply(k2, np.float64(2.0), out=stage)
    np.add(k1, stage, out=stage)
    np.multiply(k3, np.float64(2.0), out=k3)
    np.add(stage, k3, out=stage)
    np.add(stage, k4, out=stage)
    np.multiply(stage, np.float64(dt / 6), out=stage)
    return np.add(y, stage, out=stage)


def _stage_datum(dim, n):
    grid = TorusGrid(dim, n)
    mult = sobolev_multiplier(1.0 if dim == 1 else 1.5, grid)
    u = peakon_pair(grid, 0.5, 0.3, 0.08) if dim == 1 else random_bandlimited(grid, n // 4, seed=23)
    return mult, u


# (dim, n of the Eulerian steps, n of the geodesic steps): at d=3 the
# geodesic runs on n=8, where its stack is split as at n=16, since a stage's
# quintic splines cost about 80 ms at d=3 n=16
STAGE_CASES = [(1, 256, 256), (2, 32, 32), (3, 16, 8)]


@pytest.mark.parametrize("dim,n,chart_n", STAGE_CASES)
def test_stage_buffers_keep_the_bytes(dim, n, chart_n, monkeypatch):
    # the Eulerian step writes each stage input into the transport pass's own
    # rows and the spray into a buffer of its step; both must give the bits
    # of fresh stage arrays, step after step (split passes at d=3)
    mult, u = _stage_datum(dim, n)
    state = EulerState.from_velocity(mult, u)
    dt = 0.25 * state.cfl
    chart_mult, chart_u = _stage_datum(dim, chart_n)
    chart = GeodesicState(DiffeoChart.identity(chart_mult.grid), chart_u)

    def runs():
        states = [state]
        for _ in range(3):
            states.append(step_rk4(mult, states[-1], dt))
        return states, integrate_geodesic(chart_mult, chart, 3e-3, 1e-3, snapshot_cadence=1)

    steps, charts = runs()
    monkeypatch.setattr(epdiff_module, "_rk4", fresh_rk4)
    monkeypatch.setattr(lagrangian_module, "_rk4", fresh_rk4)
    fresh_steps, fresh_charts = runs()
    for new, old in zip(steps[1:], fresh_steps[1:], strict=True):
        assert new.m.coeffs.tobytes() == old.m.coeffs.tobytes()
        assert new.u.coeffs.tobytes() == old.u.coeffs.tobytes()
    assert len(charts) == 4
    for new, old in zip(charts, fresh_charts, strict=True):
        assert new.phi.f.coeffs.tobytes() == old.phi.f.coeffs.tobytes()
        assert new.v.coeffs.tobytes() == old.v.coeffs.tobytes()
        assert new.t == old.t


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32), (3, 16)])
def test_spray_stage_calls_no_public_einsum(dim, n, monkeypatch):
    mult, u = _stage_datum(dim, n)
    calls = _count_calls(monkeypatch, PUBLIC_EINSUM)
    spray_rhs(mult, GeodesicState(DiffeoChart.identity(mult.grid), u))
    assert calls == {"einsum": 0, "c_einsum": 0}


@pytest.mark.parametrize("dim,n", CASES)
def test_truncate_and_from_samples_match_old_completion(dim, n):
    grid = TorusGrid(dim, n, LENGTH)
    m = (3 * n) // 2
    padded = np.random.default_rng(13).standard_normal((dim + 1,) + (m,) * dim)
    assert np.array_equal(_full(grid, _truncate_half(grid, padded)), full_truncate_padded(grid, padded))
    samples = _full_band_samples(grid, 14)
    got = SpectralVectorField.from_samples(grid, samples).coeffs
    assert np.array_equal(got, full_from_samples(grid, samples))


# --- the two-pass spray the one-pass spray replaced -------------------------------

def two_pass_spray(mult, u):
    return apply_inverse(mult, apply(mult, directional_derivative(u, u))
                         - momentum_transport(u, apply(mult, u)))


@pytest.mark.parametrize("datum", ["peakon", "blob"])
def test_spray_matches_two_passes_1d(datum):
    grid = TorusGrid(1, 256)
    u = peakon_pair(grid, 0.5, 0.3, 0.08) if datum == "peakon" else gaussian_blob(grid, 0.25, 0.1)
    for s in (1.0, 1.5):
        mult = sobolev_multiplier(s, grid)
        assert np.array_equal(spray_at_identity(mult, u).coeffs, two_pass_spray(mult, u).coeffs)


def test_spray_1d_is_one_padded_pass(monkeypatch):
    grid = TorusGrid(1, 256)
    mult = sobolev_multiplier(1.5, grid)
    u = gaussian_blob(grid, 0.25, 0.1)
    calls = _count_calls(monkeypatch, [(grid_module, "_rfft"), (grid_module, "_irfft")])
    spray_at_identity(mult, u)
    assert calls == {"_rfft": 1, "_irfft": 1}


@pytest.mark.parametrize("per_call", [None, 4, 3])
def test_1d_pass_samples_div_v_once(per_call, monkeypatch):
    # at d=1 div v is d_0 v^0, the same product of the same spectra, so the
    # pass reads it from that gradient's samples: a fused stage samples
    # [v, m, d_0 m, d_0 v] in one call of 4 rows, a split one [v, m] and
    # then the gradients.  The bits are those of full_transport, which
    # samples div v as a row of its own: 4 rows per call fuse the new stack
    # and split the old one, 3 split both.
    n = 256
    if per_call is not None:
        monkeypatch.setattr(grid_module, "MAX_TRANSFORM_BYTES", per_call * 16 * ((3 * n) // 4 + 1))
    grid = TorusGrid(1, n)  # a new grid builds its plan with the patched size
    mult = sobolev_multiplier(1.0, grid)
    u = peakon_pair(grid, 0.5, 0.3, 0.08)
    m = apply(mult, u)
    rows = []
    irfft = grid_module._irfft

    def counted(half, *args):
        rows.append(len(half))
        return irfft(half, *args)
    monkeypatch.setattr(grid_module, "_irfft", counted)
    half = epdiff_module._rhs_half(mult, epdiff_module._transport_pass(grid, False),
                                   m.coeffs[..., :grid.plan.half],
                                   np.empty((1, grid.plan.half), dtype=complex))
    spray = spray_at_identity(mult, u)
    assert rows == ([2, 2] * 2 if per_call == 3 else [4] * 2)
    monkeypatch.setattr(grid_module, "_irfft", irfft)
    expected = -1.0 * full_transport(apply_inverse(mult, m), m)
    assert half.tobytes() == expected.coeffs[..., :grid.plan.half].tobytes()
    two_pass = apply_inverse(mult, apply(mult, directional_derivative(u, u)) - full_transport(u, m))
    assert spray.coeffs.tobytes() == two_pass.coeffs.tobytes()


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (3, 16)])
def test_spray_matches_two_passes_every_worker_count(dim, n, monkeypatch):
    # d=2 n=32 samples the gradients in the shared call, d=2 n=64 and d=3
    # n=16 one component at a time; d=3 n=16 splits its stacks into pairs
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", workers)
        grid = TorusGrid(dim, n, LENGTH)  # a new grid builds its plan with the patched count
        mult = sobolev_multiplier(SOBOLEV_ORDER, grid)
        u = _noise(grid, 20)
        got = spray_at_identity(mult, u)
        assert _rel(got, two_pass_spray(mult, u)) <= TOL
        results.append(got.coeffs)
    for got in results[1:]:
        assert np.array_equal(got, results[0])


def test_euler_rhs_keeps_the_checks_of_apply_inverse():
    grid = TorusGrid(1, 32)
    m = _noise(grid, 15)
    with pytest.raises(ValueError, match="no inverse table"):
        euler_rhs(FourierMultiplier.build(sobolev_symbol(1.0, 1), grid), m)
    with pytest.raises(GridMismatchError):
        euler_rhs(sobolev_multiplier(1.0, TorusGrid(1, 64)), m)


def test_step_keeps_the_checks_of_apply_inverse():
    # the stages skip the checks, so the step runs them once, up front
    grid = TorusGrid(1, 32)
    state = EulerState(t=0.0, m=_noise(grid, 15), u=_noise(grid, 16))
    dt = 1e-3 * state.cfl
    with pytest.raises(ValueError, match="no inverse table"):
        step_rk4(FourierMultiplier.build(sobolev_symbol(1.0, 1), grid), state, dt)
    with pytest.raises(GridMismatchError):
        step_rk4(sobolev_multiplier(1.0, TorusGrid(1, 64)), state, dt)


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
    transport = epdiff_module._transport_pass(grid, False)
    # one padded row per call: the split passes share their elementwise work
    assert (transport.run is not epdiff_module._run) == (workers > 1 and grid.plan.batch == 1)
    rhs = epdiff_module._rhs_half(mult, transport, state.m.coeffs[..., :grid.plan.half],
                                  np.empty((dim,) + grid.plan.half_shape, dtype=complex))
    return (padded, _full(grid, _truncate_half(grid, padded)), state.m.coeffs, state.u.coeffs, rhs,
            spray_at_identity(mult, state.u).coeffs)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("per_call", [None, 1, 2])
def test_same_bits_for_every_worker_count(dim, n, per_call, monkeypatch):
    # per_call None keeps the default cap: one call at d=2 n=32, pairs at
    # d=3 n=16; 1 and 2 force single fields and pairs with a remainder.  With
    # single fields the transport passes of the steps, the right-hand side
    # and the spray share their elementwise work, and three workers cut the
    # n planes of the spectra unevenly
    ref = [a.tobytes() for a in _threaded_results(dim, n, 1, per_call, monkeypatch)]
    for workers in (2, 3):
        assert [a.tobytes() for a in _threaded_results(dim, n, workers, per_call, monkeypatch)] == ref


@pytest.mark.parametrize("workers", [1, 2])
def test_helpers_keep_the_callers_error_state(workers, monkeypatch):
    # numpy's error state is a context variable, which a thread does not
    # inherit: the helpers run in a copy of the caller's context, so an
    # overflow (and the inf - inf of the transforms) that the caller ignores
    # warns on no thread
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", workers)
    grid = TorusGrid(3, 16)
    assert grid.plan.batch < grid.dim  # so the three rows take two calls
    stack = np.full((grid.dim,) + grid.plan.half_shape, 1e308, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a helper's warning is raised to the caller
        with np.errstate(all="ignore"):
            padded = padded_samples(grid, stack)
    assert not np.isfinite(padded).all()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_chunk_waits_for_the_helpers(workers, monkeypatch):
    # the calling thread's chunk raises while a helper's chunk still runs:
    # the exception comes out only once that chunk has written, so nothing
    # writes into the output afterwards
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", workers)
    grid = TorusGrid(3, 16)
    caller, started, written = threading.get_ident(), threading.Event(), []

    class Chunk:
        def __init__(self, plan, rows):
            pass

        def __call__(self, src, out):
            if threading.get_ident() == caller:
                started.wait(5 if workers > 1 else 0)  # until a helper runs the other chunk
                raise RuntimeError("chunk failed")
            started.set()
            time.sleep(0.2)
            out[...] = src
            written.append(len(src))

    src = np.ones((2 * grid.plan.batch,) + grid.plan.half_shape, dtype=complex)
    out = np.zeros_like(src)
    with pytest.raises(RuntimeError, match="chunk failed"):
        grid_module._run_chunks(grid.plan, Chunk, src, out)
    seen = list(written), out.tobytes()
    time.sleep(0.3)
    assert (written, out.tobytes()) == seen
    assert written == ([grid.plan.batch] if workers > 1 else [])


def _whole_transforms(monkeypatch):
    """Make the pass objects transform every line of the padded grid, as the
    padded pass did before it skipped the zero band and the unkept bins."""
    rfft, irfft = grid_module._rfft, grid_module._irfft
    monkeypatch.setattr(grid_module, "_rfft",
                        lambda samples, dim, out=None, lines=None: rfft(samples, dim, out))
    monkeypatch.setattr(grid_module, "_irfft",
                        lambda half, shape, out=None, work=None, lines=None: irfft(half, shape, out, work))


@pytest.mark.parametrize("dim,n", PRUNED_CASES)
@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_pass_gives_the_bytes_of_whole_transforms(dim, n, workers, monkeypatch):
    # stacks of batch + h rows for every chunk height h: two chunks, on two
    # threads with two workers.  Each sampling follows a truncation, which
    # fills the work buffer that both directions share, on the one thread
    # when there is one worker: a sampling that leaves a stale zero band or
    # stale last-axis bins there fails here.
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", workers)
    results = []
    for whole in (False, True):
        if whole:
            _whole_transforms(monkeypatch)
        grid = TorusGrid(dim, n)  # a new grid builds its plan with the patched count
        batch, m = grid.plan.batch, (3 * n) // 2
        stack = np.concatenate([_noise(grid, 24).coeffs] * (2 * batch // dim + 1))[:2 * batch]
        samples = np.random.default_rng(25).standard_normal((2 * batch,) + (m,) * dim)
        passes = []
        for height in range(1, batch + 1):
            passes.append(_full(grid, _truncate_half(grid, samples[:batch + height])))
            passes.append(padded_samples(grid, stack[:batch + height]))
        results.append(passes)
    for pruned, whole in zip(*results):
        assert pruned.tobytes() == whole.tobytes()


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


def test_one_pool_per_worker_count(monkeypatch):
    # a d=3 n=32 step splits stacks into chunks of one row, so a pass takes
    # 1 to 3 helpers: one pool per helper count once left pools of 2 and 3
    # threads, 5 where at most 3 run at once
    def transform_threads():
        return {t for t in threading.enumerate() if t.name.startswith("epdifflab-transform")}

    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 4)
    monkeypatch.setattr(grid_module, "_pools", {})
    before = transform_threads()
    grid = TorusGrid(3, 32)
    mult = sobolev_multiplier(2.0, grid)
    step_rk4(mult, EulerState.from_velocity(mult, _noise(grid, 40, kmax=4)), 0.01)
    assert list(grid_module._pools) == [3]
    assert len(transform_threads() - before) == 3


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 16), (2, 32)])
def test_one_call_stacks_start_no_thread(dim, n, monkeypatch):
    # d=1, the small grids of the oracle checks and the fused d=2 n=32 pass
    # keep their inline path: a right-hand side and a step submit nothing
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 2)
    monkeypatch.setattr(grid_module, "_pools", {})
    grid = TorusGrid(dim, n)
    assert epdiff_module._transport_pass(grid, False).fused
    mult = sobolev_multiplier(1.0, grid)
    state = EulerState.from_velocity(mult, _noise(grid, 19))
    euler_rhs(mult, state.m)
    step_rk4(mult, state, 0.5 * state.cfl)
    assert grid_module._pools == {}


def test_two_threads_on_one_grid(monkeypatch):
    # two callers of one grid at once, each alternating two momenta, while
    # the pool's helper takes chunks of both: each calling thread has its own
    # workspaces, and no result is a view of one, so every result held to the
    # end still has the serial bits
    n, m = 16, 24
    monkeypatch.setattr(grid_module, "MAX_TRANSFORM_BYTES", 2 * 16 * m * m * (m // 2 + 1))
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 2)
    grid = TorusGrid(3, n)  # stacks of 7, 6, 5 and 3 rows go in pairs, most with a remainder
    mult = sobolev_multiplier(1.5, grid)
    momenta = [apply(mult, _noise(grid, seed)) for seed in (30, 31)]
    stacks = [np.concatenate([mm.coeffs, mm.coeffs[:2]]) for mm in momenta]
    serial = [(euler_rhs(mult, mm).coeffs.tobytes(), padded_samples(grid, stack).tobytes())
              for mm, stack in zip(momenta, stacks)]

    def run(k):
        held = []
        for r in range(6):
            j = (k + r) % 2
            held.append((j, euler_rhs(mult, momenta[j]).coeffs, padded_samples(grid, stacks[j])))
        return held

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as callers:
            results = [f.result(timeout=120) for f in [callers.submit(run, k) for k in range(2)]]
    finally:
        sys.setswitchinterval(interval)
    for held in results:
        for j, rhs, padded in held:
            assert (rhs.tobytes(), padded.tobytes()) == serial[j]


def test_two_threads_step_one_grid_1d():
    # the one-call path: each calling thread runs the transport passes it
    # built on the grid, and no stage result is a view of a pass buffer, so
    # every step held to the end still has the serial bits
    grid = TorusGrid(1, 256)
    mult = sobolev_multiplier(1.0, grid)
    states = [_peakon(grid, mult), EulerState.from_velocity(mult, gaussian_blob(grid, 0.25, 0.1))]
    dt = 0.5 * min(state.cfl for state in states)
    serial = [(new.m.coeffs.tobytes(), new.u.coeffs.tobytes())
              for new in (step_rk4(mult, state, dt) for state in states)]

    def run(k):
        return [(j, step_rk4(mult, states[j], dt)) for j in ((k + r) % 2 for r in range(40))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as callers:
            results = [f.result(timeout=120) for f in [callers.submit(run, k) for k in range(2)]]
    finally:
        sys.setswitchinterval(interval)
    for held in results:
        for j, new in held:
            assert (new.m.coeffs.tobytes(), new.u.coeffs.tobytes()) == serial[j]


def test_workspaces_go_with_the_grid(monkeypatch):
    # the plan and its transport passes refer to the grid by a proxy, and the
    # sampling and truncation objects the plan keeps refer to neither, so no
    # reference cycle keeps a dropped grid's workspaces alive until the next
    # full collection
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 1)
    grid = TorusGrid(3, 16)
    padded_samples(grid, _noise(grid, 18).coeffs)  # three fields in two calls
    momentum_transport(_noise(grid, 19), _noise(grid, 20))
    passes = [obj for obj in vars(grid.plan._buffers).values()
              if isinstance(obj, (grid_module._Sampling, grid_module._Truncation))]
    assert {type(obj) for obj in passes} == {grid_module._Sampling, grid_module._Truncation}
    buffers = [weakref.ref(grid.plan.workspace("embed", (grid.plan.batch,) + grid.plan.padded_half_shape)),
               weakref.ref(epdiff_module._transport_pass(grid, False).padded)]
    buffers += [weakref.ref(obj) for obj in passes]
    del passes
    gc.disable()
    try:
        del grid
        assert [buffer() for buffer in buffers] == [None] * len(buffers)
    finally:
        gc.enable()


def _owners(value, found):
    """The arrays that own the memory of every array reachable from ``value``
    through attributes, lists, tuples and dicts, by id."""
    if isinstance(value, np.ndarray):
        while isinstance(value.base, np.ndarray):
            value = value.base
        found[id(value)] = value
    elif isinstance(value, (list, tuple)):
        for item in value:
            _owners(item, found)
    elif isinstance(value, dict):
        _owners(list(value.values()), found)
    elif hasattr(value, "__dict__"):
        _owners(vars(value), found)
    return found


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
def test_pass_objects_share_the_workspaces(dim, n):
    # one sampling and one truncation object per stack height, each binding
    # views of this thread's workspaces: however many heights a grid sees,
    # its padded-pass arrays stay within three chunk-sized buffers (embedding,
    # work and n band), where a copy per height would grow with the heights
    grid = TorusGrid(dim, n)
    plan = grid.plan
    stack = _noise(grid, 22).coeffs
    stack = np.concatenate([stack] * (plan.batch // dim + 1))
    for rows in range(1, plan.batch + 1):
        _full(grid, _truncate_half(grid, padded_samples(grid, stack[:rows])))
    kept = vars(plan._buffers)
    assert {(grid_module._Sampling, rows) in kept and (grid_module._Truncation, rows) in kept
            for rows in range(1, plan.batch + 1)} == {True}
    chunk = 16 * plan.batch * math.prod(plan.padded_half_shape)
    assert sum(owner.nbytes for owner in _owners(kept, {}).values()) <= 3 * chunk


def test_split_pass_tasks_call_no_public_function(monkeypatch):
    # the benchmark's tracer wraps every public function and keeps one span
    # stack, which a call from a helper thread would corrupt: with the chunks
    # of every split pass on two threads, each public grid function, wrapped
    # under every name that binds it, must run on the calling thread only
    n, m = 8, 12
    monkeypatch.setattr(grid_module, "MAX_TRANSFORM_BYTES", 2 * 16 * m * (m // 2 + 1))
    monkeypatch.setattr(grid_module, "TRANSFORM_WORKERS", 2)
    monkeypatch.setattr(grid_module, "_pools", {})
    threads = []
    binders = [module for name, module in sys.modules.items()
               if name == "epdifflab" or name.startswith("epdifflab.")]
    for name, fn in list(vars(grid_module).items()):
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != grid_module.__name__:
            continue

        def wrapped(*args, _fn=fn, **kwargs):
            threads.append(threading.get_ident())
            return _fn(*args, **kwargs)
        for module in binders:
            for bound, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, bound, wrapped)
    grid = TorusGrid(2, n)  # pairs of rows per transform call
    assert grid.plan.batch == 2
    mult = sobolev_multiplier(1.5, grid)
    momentum = apply(mult, _noise(grid, 23))
    stack = np.concatenate([momentum.coeffs, momentum.coeffs[:1]])  # three rows: a pair and one
    _full(grid, _truncate_half(grid, padded_samples(grid, stack)))
    euler_rhs(mult, momentum)
    assert list(grid_module._pools) == [1]  # split passes: a helper was asked to take chunks
    assert len(threads) > 2 and set(threads) == {threading.get_ident()}
