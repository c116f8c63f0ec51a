"""Discrete diffeomorphisms and the Lagrangian form of the geodesic flow.

A chart is ``phi = id + f`` with periodic displacement ``f`` and everywhere
positive Jacobian determinant.  Composition ``u o phi`` is evaluated by
periodic quintic B-spline interpolation of grid samples (error O(n^-6) for
smooth fields), inversion by damped Newton iteration on the displacement with
a fixed-point fallback, warm-started from the previous RK4 stage's inverse
inside :func:`integrate_geodesic`.  The Lagrangian solver built on these is
cross-validation machinery for the Eulerian one: composition and
interpolation error accumulates, so the Eulerian path stays authoritative for
long runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .grid import (
    Field,
    SpectralVectorField,
    TorusGrid,
    directional_derivative,
    jacobian_coeffs,
    _samples,
)
from .epdiff import _rk4, momentum_transport, step_count
from .operators import FourierMultiplier, apply, apply_inverse, sobolev_norm

SPLINE_ORDER = 5
INVERT_MAX_ITER = 50
INVERT_TOL = 1e-10  # times the box length


class ChartError(ValueError):
    """Displacement does not define an orientation-preserving chart."""


class InversionError(RuntimeError):
    """Newton iteration for the inverse chart failed to converge."""


def _spline_filter(samples: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Prefilter each component of grid samples; shape ``(components, n, ..., n)``."""
    return np.stack([ndimage.spline_filter(c, order=SPLINE_ORDER, mode="grid-wrap")
                     for c in samples.reshape((-1,) + grid.shape)])


def _eval_filtered(filtered: np.ndarray, points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Evaluate each prefiltered component at physical points of shape (d, ...)."""
    coords = (points * (grid.n / grid.length)).reshape(grid.dim, -1)
    return np.stack([ndimage.map_coordinates(c, coords, order=SPLINE_ORDER, mode="grid-wrap",
                                             prefilter=False).reshape(points.shape[1:])
                     for c in filtered])


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
    def displacement_samples(self) -> np.ndarray:
        return self.f.samples()

    @cached_property
    def jacobian_samples(self) -> np.ndarray:
        """Samples of ``d phi = I + df``, shape ``(d, d, n, ..., n)``."""
        grid = self.grid
        df = _samples(grid, jacobian_coeffs(self.f))
        return df + np.eye(grid.dim).reshape(grid.dim, grid.dim, *([1] * grid.dim))

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
        d = self.grid.dim
        flat = _eval_filtered(self._filtered_jacobian, points, self.grid)  # row-major (i, j)
        return np.moveaxis(flat.reshape(d, d, *points.shape[1:]), (0, 1), (-2, -1))


def compose(u: Field, phi: DiffeoChart) -> Field:
    """Right translation ``u o phi``: evaluate ``u`` at the chart's images.

    Uses periodic quintic spline interpolation of the grid samples; exact to
    interpolation order for band-limited fields.
    """
    if u.grid != phi.grid:
        raise ChartError("field and chart live on different grids")
    samples = u.samples()
    vals = _eval_filtered(_spline_filter(samples, u.grid), phi.positions, u.grid)
    return type(u).from_samples(u.grid, vals.reshape(samples.shape))


def compose_diffeo(phi: DiffeoChart, psi: DiffeoChart) -> DiffeoChart:
    """Chart composition ``phi o psi``; displacement ``f_psi + f_phi o psi``."""
    pulled = compose(phi.f, psi)
    return DiffeoChart(psi.f + pulled)


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
        jac = np.moveaxis(phi.jacobian_at(y), (-2, -1), (0, 1))  # (d, d, N)
        step = _solve(jac, res)
        improved = False
        if np.isfinite(step).all():  # a singular Jacobian goes to the fallback
            damping = 1.0
            for _ in range(5):
                y_try = y - damping * step
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
    if phi1.grid != phi2.grid:
        raise ChartError("charts live on different grids")
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
        if self.phi.grid != self.v.grid:
            raise ChartError("chart and velocity grids differ")

    def eulerian_velocity(self) -> SpectralVectorField:
        """Right logarithmic derivative ``u = v o phi^-1``, computed once per state."""
        return self._eulerian_velocity

    @cached_property
    def _eulerian_velocity(self) -> SpectralVectorField:
        return compose(self.v, invert(self.phi))


def spray_at_identity(mult: FourierMultiplier, u: SpectralVectorField) -> SpectralVectorField:
    """Quadratic spray ``S(u) = A^-1([A, grad_u] u - (grad u)^T A u - (div u) A u)``.

    Collected as ``A^-1(A (u . grad) u - momentum_transport(u, A u))``.
    """
    return apply_inverse(mult, apply(mult, directional_derivative(u, u))
                         - momentum_transport(u, apply(mult, u)))


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

    def rhs(y: np.ndarray) -> np.ndarray:
        nonlocal start
        dphi, dv, inverse = spray_rhs(mult, chart_state(y, 0.0), start)
        start = inverse.displacement_samples
        return np.stack([dphi.coeffs, dv.coeffs])

    out = [state]
    y = np.stack([state.phi.f.coeffs, state.v.coeffs])
    for step in range(1, n_steps + 1):
        y = _rk4(rhs, y, dt)
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
    bound: float
    passed: bool


def regularity_probe(diag_series: Sequence, q_list: Sequence[float], bound: float = 1e3) -> RegularityReport:
    """Track ``max_t |u(t)|_{H^q'} / |u(0)|_{H^q'}`` for each probe order.

    Bounded ratios witness preservation of spatial regularity along the flow;
    the zero field reports unit ratios by the 0/0 -> 1 convention.
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
    passed = all(np.isfinite(r) and r <= bound for r in ratios.values())
    return RegularityReport(ratios=ratios, bound=bound, passed=passed)
