"""Property tests of the coefficient bounds behind the CFL guard and the
blow-up threshold (``EulerState.bounds``): the floor never exceeds the CFL
limit the samples give, the ceiling never falls below their sup|grad u|, and
a bound that cannot hold decides nothing, without a warning."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from epdifflab.epdiff import GUARD_MARGIN, EulerState, bandlimited_draw  # noqa: E402
from epdifflab.grid import SpectralVectorField, TorusGrid  # noqa: E402

GRIDS = [(1, 8), (1, 64), (2, 8), (2, 16), (3, 8)]
LENGTHS = [1.0, 2 * np.pi, 0.01, 100.0]
PROPERTY = settings(max_examples=80, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _state(grid, coeffs):
    u = SpectralVectorField(grid, coeffs)
    return EulerState(t=0.0, m=u, u=u)  # the guards read u only


def assert_bounds_hold(state):
    floor, ceiling = state.bounds
    assert floor <= state.cfl
    assert ceiling >= state.sup_gradient


grids = st.tuples(st.sampled_from(GRIDS), st.sampled_from(LENGTHS)).map(
    lambda spec: TorusGrid(spec[0][0], spec[0][1], spec[1]))
scales = st.floats(-6, 6).map(lambda e: 10.0**e)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(grid=grids, scale=scales, seed=seeds, data=st.data())
def test_bounds_hold_on_band_limited_draws(grid, scale, seed, data):
    kmax = data.draw(st.integers(0, grid.n // 2), label="kmax")
    u = bandlimited_draw(grid, kmax, np.random.default_rng(seed))
    assert_bounds_hold(_state(grid, scale * u.coeffs))


@PROPERTY
@given(grid=grids, scale=scales, seed=seeds)
def test_bounds_hold_on_any_complex_spectrum(grid, scale, seed):
    # no conjugate symmetry: the transform drops the imaginary parts of
    # last-axis bins 0 and n/2, which the weight 1 there still covers
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    coeffs = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert_bounds_hold(_state(grid, coeffs))


@PROPERTY
@given(grid=grids, scale=scales, seed=seeds)
def test_bounds_hold_where_attained(grid, scale, seed):
    # positive real coefficients, c(k) = c(-k): every term of the bound adds
    # up at the origin, a grid point, so the floor sits within the margin
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.1, 1.0, (grid.dim,) + grid.shape)
    flip = np.ix_(*[-np.arange(grid.n) % grid.n] * grid.dim)
    state = _state(grid, scale * (values + values[(slice(None),) + flip]).astype(complex))
    assert_bounds_hold(state)
    assert state.bounds[0] >= state.cfl / (1 + 2 * GUARD_MARGIN)


@pytest.mark.parametrize("dim,n", GRIDS)
def test_lone_nyquist_mode(dim, n):
    # its derivative factor is zero, so the exact gradient and the ceiling are
    grid = TorusGrid(dim, n)
    coeffs = np.zeros((dim,) + grid.shape, dtype=complex)
    coeffs[(dim - 1,) + (n // 2,) * dim] = 3.0
    state = _state(grid, coeffs)
    assert_bounds_hold(state)
    assert state.bounds[1] == state.sup_gradient == 0.0


@pytest.mark.parametrize("dim,n", GRIDS)
def test_zero_field(dim, n):
    state = _state(TorusGrid(dim, n), np.zeros((dim,) + (n,) * dim, dtype=complex))
    assert state.bounds == (np.inf, 0.0)
    assert (state.cfl, state.sup_gradient) == (np.inf, 0.0)
    assert not state.exceeds_cfl(1e300) and not state.exceeds_gradient(0.0)


@pytest.mark.parametrize("dim,n", GRIDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(1.0, -np.inf)])
def test_non_finite_coefficients_decide_nothing(dim, n, bad):
    # a bin with a derivative factor of zero (k = 0) and one without
    grid = TorusGrid(dim, n)
    for index in [(0,) * (dim + 1), (dim - 1,) + (1,) * dim]:
        coeffs = np.zeros((dim,) + grid.shape, dtype=complex)
        coeffs[index] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor, ceiling = _state(grid, coeffs).bounds
        assert np.isnan(floor) and np.isnan(ceiling)


def test_sums_outside_the_deciding_range_decide_nothing():
    grid = TorusGrid(1, 16)
    coeffs = np.zeros((1, 16), dtype=complex)
    coeffs[0, 1] = coeffs[0, -1] = 1e-300
    assert all(np.isnan(_state(grid, coeffs).bounds))
    coeffs[0, 1] = coeffs[0, -1] = 1e300
    assert all(np.isnan(_state(grid, coeffs).bounds))
    coeffs[0, 1] = coeffs[0, -1] = 1e308 + 1e308j  # finite, but the sums overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.isnan(_state(grid, coeffs).bounds))
