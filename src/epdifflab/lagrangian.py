"""Discrete diffeomorphisms and the Lagrangian form of the geodesic flow.

A chart is ``phi = id + f`` with periodic displacement ``f`` and everywhere
positive Jacobian determinant.  Composition ``u o phi`` is evaluated by
periodic quintic B-spline interpolation of grid samples (error O(n^-6) for
smooth fields), inversion by damped Newton iteration on the displacement with
a fixed-point fallback, warm-started from the previous RK4 stage's inverse
inside :func:`integrate_geodesic`.  Prefilters and evaluations call scipy's
spline kernels (``scipy.ndimage._nd_image``) directly, with the arguments of
``ndimage``'s public wrappers: one filter call per spatial axis for a whole
stack of components, one evaluation call per component, each written into
one preallocated array.  A chart samples ``f`` and ``df`` in one inverse
transform.  The spray at the identity shares the Eulerian transport pass
and runs on half spectra, with one conjugate reflection at the end; a stage
of :func:`spray_rhs` makes 5 inverse and 4 forward transform calls.  The
Lagrangian solver built on these is cross-validation machinery for the
Eulerian one: composition and interpolation error accumulates, so the
Eulerian path stays authoritative for long runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.ndimage import _nd_image

from .grid import SpectralVectorField, TorusGrid, _einsum, _full, _require_same_grid, _samples
from .epdiff import _rk4, _transport_pass, step_count
from .operators import (
    FourierMultiplier,
    apply,
    sobolev_norm,
    _require_conjugate_symmetric,
    _require_inverse,
)

SPLINE_ORDER = 5
# scipy.ndimage's code for mode="grid-wrap" (_ni_support._extend_mode_to_code):
# the spline kernels are called directly, as ndimage's wrappers call them
_GRID_WRAP = 5
INVERT_MAX_ITER = 50
INVERT_TOL = 1e-10  # times the box length


class ChartError(ValueError):
    """Displacement does not define an orientation-preserving chart."""


class InversionError(RuntimeError):
    """Newton iteration for the inverse chart failed to converge."""


def _spline_filter(samples: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Prefilter each component of grid samples; shape ``(components, n, ..., n)``.

    One kernel call per spatial axis filters the whole stack, the first from
    ``samples`` into the output and the rest in place, as
    ``ndimage.spline_filter`` does for each component.
    """
    components = samples.reshape((-1,) + grid.shape)
    out = np.empty(components.shape)
    for axis in range(1, grid.dim + 1):
        _nd_image.spline_filter1d(components, SPLINE_ORDER, axis, out, _GRID_WRAP)
        components = out
    return out


def _eval_filtered(filtered: np.ndarray, points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Evaluate each prefiltered component at physical points of shape (d, ...).

    The kernel call of ``ndimage.map_coordinates(..., prefilter=False)``,
    with ``cval`` 0 and no padding, without its wrapper.
    """
    coords = (points * (grid.n / grid.length)).reshape(grid.dim, -1)
    out = np.empty((len(filtered), coords.shape[1]))
    for c, o in zip(filtered, out):
        _nd_image.geometric_transform(c, None, coords, None, None, o, SPLINE_ORDER, _GRID_WRAP,
                                      0.0, 0, None, None)
    return out.reshape((len(filtered),) + points.shape[1:])


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of ``d x d`` matrices in the leading two axes, shape ``(d, d, ...)``.

    Closed form for ``d`` in {1, 2, 3}, the dimensions a grid accepts.
    """
    if len(m) == 1:
        return m[0, 0]
    if len(m) == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def _solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cramer's rule for ``m x = b``, with ``m`` of shape ``(d, d, ...)`` and ``b`` of ``(d, ...)``.

    A singular or non-finite ``m`` gives a non-finite ``x``, without a warning.
    """
    x = np.empty(b.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = _det(m)
        for i in range(len(m)):
            replaced = m.copy()
            replaced[:, i] = b
            x[i] = _det(replaced) / det
    return x


@dataclass(frozen=True, eq=False)
class DiffeoChart:
    """Diffeomorphism ``phi = id + f`` with cached Jacobian data.

    Construction fails unless ``det(I + df) > 0`` everywhere on the grid; the
    Jacobian field is always recomputed spectrally from ``f``.
    """

    f: SpectralVectorField

    def __post_init__(self) -> None:
        if not self.min_det > 0.0:  # also rejects a non-finite chart (nan det)
            raise ChartError(f"chart is not orientation preserving: min det = {self.min_det:.3g}")

    @property
    def grid(self) -> TorusGrid:
        return self.f.grid

    @cached_property
    def _chart_samples(self) -> np.ndarray:
        """Samples of ``f`` and of ``df`` (row-major ``(i, j)``), shape
        ``(d + d*d, n, ..., n)``: one inverse transform of their half spectra."""
        grid, d = self.grid, self.grid.dim
        plan = grid.plan
        half = self.f.coeffs[..., :plan.half]
        stack = np.empty((d + d * d,) + plan.half_shape, dtype=complex)
        stack[:d] = half
        np.multiply(half[:, None], plan.factors, out=stack[d:].reshape((d, d) + plan.half_shape))
        return _samples(grid, stack)

    @cached_property
    def displacement_samples(self) -> np.ndarray:
        return self._chart_samples[:self.grid.dim]

    @cached_property
    def jacobian_samples(self) -> np.ndarray:
        """Samples of ``d phi = I + df``, shape ``(d, d, n, ..., n)``."""
        grid, d = self.grid, self.grid.dim
        jacobian = self._chart_samples[d:].reshape((d, d) + grid.shape)
        return jacobian + np.eye(d).reshape(d, d, *([1] * d))

    @cached_property
    def det_samples(self) -> np.ndarray:
        """Pointwise ``det(I + df)`` on the grid (spectral derivatives)."""
        with np.errstate(invalid="ignore"):  # a non-finite chart gives nan; min_det rejects it
            return _det(self.jacobian_samples)

    @property
    def min_det(self) -> float:
        return float(self.det_samples.min())

    @cached_property
    def positions(self) -> np.ndarray:
        """Images ``phi(x_j) = x_j + f(x_j)``, shape ``(d, n, ..., n)``."""
        return self.grid.coordinates + self.displacement_samples

    @cached_property
    def _filtered_displacement(self) -> np.ndarray:
        return _spline_filter(self.displacement_samples, self.grid)

    @cached_property
    def _filtered_jacobian(self) -> np.ndarray:
        return _spline_filter(self.jacobian_samples, self.grid)

    @classmethod
    def identity(cls, grid: TorusGrid) -> "DiffeoChart":
        return cls(SpectralVectorField.zero(grid))

    @classmethod
    def from_displacement_samples(cls, grid: TorusGrid, samples: np.ndarray) -> "DiffeoChart":
        return cls(SpectralVectorField.from_samples(grid, samples))

    def displacement_at(self, points: np.ndarray) -> np.ndarray:
        """Spline-interpolated ``f`` at physical points, shape (d, ...)."""
        return _eval_filtered(self._filtered_displacement, points, self.grid)

    def jacobian_at(self, points: np.ndarray) -> np.ndarray:
        """Spline-interpolated ``d phi`` at physical points, shape (..., d, d)."""
        d, lead = self.grid.dim, points.ndim - 1
        flat = _eval_filtered(self._filtered_jacobian, points, self.grid)  # row-major (i, j)
        return flat.reshape((d, d) + points.shape[1:]).transpose(*range(2, 2 + lead), 0, 1)


def compose(u: SpectralVectorField, phi: DiffeoChart) -> SpectralVectorField:
    """Right translation ``u o phi``: evaluate ``u`` at the chart's images.

    Uses periodic quintic spline interpolation of the grid samples; exact to
    interpolation order for band-limited fields.
    """
    _require_same_grid(u, phi)
    samples = u.samples()
    vals = _eval_filtered(_spline_filter(samples, u.grid), phi.positions, u.grid)
    return SpectralVectorField.from_samples(u.grid, vals.reshape(samples.shape))


def invert(phi: DiffeoChart, start: Optional[np.ndarray] = None) -> DiffeoChart:
    """Inverse chart by damped Newton on the displacement.

    Solves ``y + f(y) = x`` per grid point, interpolating ``f`` and ``df``
    with periodic splines; falls back to a fixed-point update whenever the
    Newton step fails to reduce the residual.  Converged when
    ``sup |phi(phi^-1(x)) - x| <= 1e-10 L``.

    Newton starts from the first fixed-point sweep ``y = x - f(x)``, or from
    ``x + start`` when ``start`` holds the displacement samples of an
    approximate inverse, shape ``(d, n, ..., n)``.  A warm start that fails
    to converge, or whose inverse is not orientation preserving, is dropped
    and the cold start runs, so every failure is the cold start's.
    """
    if start is not None:
        try:
            return _newton_inverse(phi, start)
        except (InversionError, ChartError):
            pass
    return _newton_inverse(phi, -phi.displacement_samples)


def _newton_inverse(phi: DiffeoChart, start: np.ndarray) -> DiffeoChart:
    """:func:`invert`'s iteration from the inverse displacement samples ``start``."""
    grid = phi.grid
    x = grid.coordinates.reshape(grid.dim, -1)
    y = x + start.reshape(grid.dim, -1)
    tol = INVERT_TOL * grid.length

    def residual(y_arr: np.ndarray) -> np.ndarray:
        return y_arr + phi.displacement_at(y_arr) - x

    res = residual(y)
    res_norm = np.abs(res).max()
    for _ in range(INVERT_MAX_ITER):
        if res_norm <= tol:
            break
        step = _solve(phi.jacobian_at(y).transpose(1, 2, 0), res)  # (N, d, d) -> (d, d, N)
        improved = False
        if np.isfinite(step).all():  # a singular Jacobian goes to the fallback
            damping = 1.0
            for _ in range(5):
                y_try = y - step if damping == 1.0 else y - damping * step  # 1.0 * step is step
                res_try = residual(y_try)
                norm_try = np.abs(res_try).max()
                if norm_try < res_norm:
                    y, res, res_norm = y_try, res_try, norm_try
                    improved = True
                    break
                damping *= 0.5
        if not improved:
            y_try = x - phi.displacement_at(y)  # fixed-point fallback
            res_try = residual(y_try)
            norm_try = np.abs(res_try).max()
            if not norm_try < res_norm:  # also stops at a non-finite residual
                raise InversionError(
                    f"inverse chart stalled at residual {res_norm:.3g} (tol {tol:.3g})"
                )
            y, res, res_norm = y_try, res_try, norm_try
    else:
        raise InversionError(
            f"inverse chart did not converge in {INVERT_MAX_ITER} iterations "
            f"(residual {res_norm:.3g}, tol {tol:.3g})"
        )
    g = (y - x).reshape((grid.dim,) + grid.shape)
    return DiffeoChart.from_displacement_samples(grid, g)


def distance_dq(phi1: DiffeoChart, phi2: DiffeoChart, q: float) -> float:
    """Chart distance: H^q gap of the maps plus sup gap of inverse Jacobians.

    ``d_q(phi1, phi2) = |phi1 - phi2|_{H^q} + |det(d phi1)^-1 - det(d phi2)^-1|_inf``;
    symmetric, zero on the diagonal, and a metric on valid charts.
    """
    _require_same_grid(phi1, phi2)
    hq = sobolev_norm(phi1.f - phi2.f, q)
    inv_gap = np.abs(1.0 / phi1.det_samples - 1.0 / phi2.det_samples).max()
    return float(hq + inv_gap)


# --- geodesic spray -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeodesicState:
    """Chart and chart-velocity pair ``(phi, v)`` at time ``t``."""

    phi: DiffeoChart
    v: SpectralVectorField
    t: float = 0.0

    def __post_init__(self) -> None:
        _require_same_grid(self.phi, self.v)

    def eulerian_velocity(self) -> SpectralVectorField:
        """Right logarithmic derivative ``u = v o phi^-1``, computed once per state."""
        return self._eulerian_velocity

    @cached_property
    def _eulerian_velocity(self) -> SpectralVectorField:
        return compose(self.v, invert(self.phi))


def spray_at_identity(mult: FourierMultiplier, u: SpectralVectorField) -> SpectralVectorField:
    """Quadratic spray ``S(u) = A^-1([A, grad_u] u - (grad u)^T A u - (div u) A u)``.

    Collected as ``A^-1(A (u . grad) u - T(u, A u))``, with ``T(v, m)`` the
    transport term ``(v . grad) m + (grad v)^T m + (div v) m``.  Both
    quadratic terms come from one padded-grid pass, the transport pass of the
    Eulerian solver: at d=1 one inverse and one forward transform call.
    ``A u``, the pass and both multiplier products run on half spectra
    (last-axis bins ``0..n/2``), and the negative bins of ``S(u)`` are
    rebuilt once, by conjugate reflection, as in :func:`~epdifflab.epdiff.euler_rhs`.
    The pass treats ``A u`` as a real field, so the table must keep
    ``a(-k) = conj(a(k))`` (``ValueError`` before any pass otherwise).
    """
    _require_inverse(mult, u)
    _require_conjugate_symmetric(mult)
    grid, d, plan = u.grid, u.grid.dim, u.grid.plan
    spray_pass = _transport_pass(grid, True)
    u_half = spray_pass.v
    u_half[...] = u.coeffs[..., :plan.half]
    m = _einsum("...ij,j...->i...", mult.half_table, u_half)
    terms = spray_pass(m, np.empty((2 * d,) + plan.half_shape, dtype=complex))
    transport, advection = terms[:d], terms[d:]
    momentum = _einsum("...ij,j...->i...", mult.half_table, advection) - transport
    return SpectralVectorField(grid, _full(grid, _einsum("...ij,j...->i...", mult.half_inv_table, momentum)))


def spray_rhs(mult: FourierMultiplier, state: GeodesicState, start: Optional[np.ndarray] = None):
    """Right-hand side ``(d phi/dt, dv/dt) = (v, (S(u)) o phi)`` with ``u = v o phi^-1``.

    Returns ``(d phi/dt, dv/dt, phi^-1)``; ``start`` is passed to :func:`invert`,
    and the returned inverse's displacement samples can start the next call.
    """
    inverse = invert(state.phi, start)
    dv = compose(spray_at_identity(mult, compose(state.v, inverse)), state.phi)
    return state.v, dv, inverse


def integrate_geodesic(
    mult: FourierMultiplier,
    state: GeodesicState,
    t_end: float,
    dt: float,
    snapshot_cadence: Optional[int] = None,
) -> list[GeodesicState]:
    """Fixed-step RK4 on the chart/velocity pair; returns snapshots ending at t_end.

    Chart validity (positive Jacobian determinant) is enforced at every stage;
    a degenerating chart raises :class:`ChartError` and inversion failures
    propagate.  Each stage's inverse chart starts from the previous stage's,
    which lies O(dt) away; the first stage of a call starts cold.
    """
    n_steps = step_count(state.t, t_end, dt)
    grid = state.phi.grid

    def chart_state(y: np.ndarray, t: float) -> GeodesicState:
        """The state of a stacked ``(f, v)`` array of shape ``(2, d, n, ..., n)``."""
        return GeodesicState(phi=DiffeoChart(SpectralVectorField(grid, y[0])),
                             v=SpectralVectorField(grid, y[1]), t=t)

    start = None  # displacement samples of the last stage's inverse chart

    def rhs(y: np.ndarray, out: np.ndarray) -> None:
        nonlocal start
        dphi, dv, inverse = spray_rhs(mult, chart_state(y, 0.0), start)
        start = inverse.displacement_samples
        out[0], out[1] = dphi.coeffs, dv.coeffs

    out = [state]
    y = np.stack([state.phi.f.coeffs, state.v.coeffs])
    for step in range(1, n_steps + 1):
        y = _rk4(rhs, y, dt, np.empty_like(y))
        if step == n_steps or (snapshot_cadence and step % snapshot_cadence == 0):
            out.append(chart_state(y, state.t + step * dt))
    return out


def lagrangian_energy(mult: FourierMultiplier, state: GeodesicState) -> float:
    """Kinetic energy through the chart: ``(1/2) integral (A_phi v . v) J_phi dx``.

    Evaluates ``A_phi v = (A (v o phi^-1)) o phi`` by composition and pairs it
    against ``v`` under the Jacobian-weighted quadrature; agrees with the
    Eulerian energy up to interpolation error.
    """
    a_phi_v = compose(apply(mult, state.eulerian_velocity()), state.phi)
    integrand = np.sum(a_phi_v.samples() * state.v.samples(), axis=0) * state.phi.det_samples
    return 0.5 * float(integrand.sum() * state.phi.grid.cell_volume)


# --- regularity probe -----------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """Max growth of each tracked Sobolev norm along a trajectory."""

    ratios: dict[float, float]
    passed: bool


def regularity_probe(diag_series: Sequence, q_list: Sequence[float]) -> RegularityReport:
    """Track ``max_t |u(t)|_{H^q'} / |u(0)|_{H^q'}`` for each probe order.

    Ratios of at most 1e3 witness preservation of spatial regularity along the
    flow; the zero field reports unit ratios by the 0/0 -> 1 convention.
    """
    if not diag_series:
        raise ValueError("empty trajectory")
    ratios: dict[float, float] = {}
    for q in q_list:
        initial = diag_series[0].sobolev_norms[q]
        peak = max(d.sobolev_norms[q] for d in diag_series)
        if initial == 0.0:
            ratios[q] = 1.0 if peak == 0.0 else float("inf")
        else:
            ratios[q] = peak / initial
    passed = all(np.isfinite(r) and r <= 1e3 for r in ratios.values())
    return RegularityReport(ratios=ratios, passed=passed)
