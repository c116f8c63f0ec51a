"""Eulerian EPDiff integration: momentum transport under an inertia operator.

The geodesic flow of a right-invariant metric with inertia operator ``A``
reduces to the momentum equation

    m_t + (u . grad) m + (grad u)^T m + (div u) m = 0,      m = A u.

Momentum is the prognostic variable; velocity is recovered diagonally through
the inverse multiplier table.  The integrator is fixed-step classical RK4
behind a CFL guard (with power-of-two substepping when the guard bites), so
conservation diagnostics stay interpretable: energy and total momentum are
recomputed from the state at every emission, never accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import (
    SpectralVectorField,
    TorusGrid,
    jacobian_coeffs,
    l2_inner,
    padded_samples,
    _full,
    _samples,
    _truncate_half,
)
from .operators import FourierMultiplier, apply, apply_inverse, sobolev_norm, _apply_inverse_half

MAX_SUBSTEP_DOUBLINGS = 12
CFL_FRACTION = 0.5
_MINUS_ONE = np.complex128(-1.0)  # a numpy scalar: see grid._HALF


class CFLError(ValueError):
    """Requested step violates the advective CFL guard."""


@dataclass(frozen=True, eq=False)
class EulerState:
    """Momentum and derived velocity at one instant; ``apply(A, u) = m`` exactly."""

    t: float
    m: SpectralVectorField
    u: SpectralVectorField

    @classmethod
    def from_velocity(cls, mult: FourierMultiplier, u: SpectralVectorField, t: float = 0.0):
        return cls(t=t, m=apply(mult, u), u=u)

    @classmethod
    def from_momentum(cls, mult: FourierMultiplier, m: SpectralVectorField, t: float = 0.0):
        return cls(t=t, m=m, u=apply_inverse(mult, m))

    @cached_property
    def cfl(self) -> float:
        """:func:`cfl_limit` of ``u``, evaluated once per state: an outer step
        of :func:`integrate` and the first RK4 substep of each try share it."""
        return cfl_limit(self.u)


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Conserved and monitored quantities, recomputed from the state."""

    t: float
    energy: float
    total_momentum: np.ndarray
    sup_velocity_gradient: float
    sobolev_norms: dict[float, float] = field(default_factory=dict)


def sup_velocity_gradient(u: SpectralVectorField) -> float:
    """Max over the grid and all components of ``|du^i/dx_j|``."""
    grads = _samples(u.grid, jacobian_coeffs(u))
    return float(np.abs(grads).max())


def diagnostics(
    mult: FourierMultiplier, state: EulerState, norm_orders: Sequence[float] = ()
) -> Diagnostics:
    energy = 0.5 * l2_inner(state.m, state.u)
    return Diagnostics(
        t=state.t,
        energy=energy,
        total_momentum=state.m.integral(),
        sup_velocity_gradient=sup_velocity_gradient(state.u),
        sobolev_norms={q: sobolev_norm(state.u, q) for q in norm_orders},
    )


# --- the right-hand side -------------------------------------------------------

def momentum_transport(v: SpectralVectorField, m: SpectralVectorField) -> SpectralVectorField:
    """Transport term ``(v . grad) m + (grad v)^T m + (div v) m``, dealiased."""
    grid, d = v.grid, v.grid.dim
    stack = _transport_stack(grid)
    stack[:d] = v.coeffs[..., :grid.plan.half]
    stack[d:2 * d] = m.coeffs[..., :grid.plan.half]
    return SpectralVectorField(grid, _full(grid, _transport_half(grid, stack)))


def _transport_stack(grid: TorusGrid) -> np.ndarray:
    """Stack of half spectra ``(k, n, ..., n/2+1)`` for :func:`_transport_half`.

    ``[v, m, div v]`` go to the 3/2 grid once; per output component ``i`` only
    ``d_j m^i`` and ``d_i v^j`` do, which bounds the padded working set.  When
    the whole stack fits in one transform call, it goes in one call, and the
    gradients are part of it.
    """
    d = grid.dim
    rows = 2 * d + 1 + 2 * d * d
    if rows > grid.plan.batch:
        rows = 2 * d + 1
    return np.empty((rows,) + grid.plan.half_shape, dtype=complex)


def _transport_half(grid: TorusGrid, stack: np.ndarray) -> np.ndarray:
    """Half spectra of the transport term; ``stack`` from :func:`_transport_stack`
    holds the half spectra of ``v`` and then ``m`` in its first ``2d`` rows."""
    plan = grid.plan
    d = grid.dim
    factors = plan.factors
    v, m = stack[:d], stack[d:2 * d]

    def gradients(i: int, out: np.ndarray) -> np.ndarray:
        # [d_j m^i, d_i v^j] pairs with [v^j, m^j]: the first two terms at once
        np.multiply(m[i], factors, out=out[:d])
        np.multiply(v, factors[i], out=out[d:])
        return out

    div_v = stack[2 * d]  # d_j v^j summed over j in the order grid.divergence sums
    np.multiply(v[0], factors[0], out=div_v)
    for j in range(1, d):
        div_v += v[j] * factors[j]
    fused = len(stack) > 2 * d + 1
    if fused:
        for i in range(d):
            gradients(i, stack[2 * d * (i + 1) + 1:2 * d * (i + 2) + 1])
    padded = padded_samples(grid, stack)
    ms, div = padded[d:2 * d], padded[2 * d]
    out = np.empty((d,) + plan.padded_shape)
    for i in range(d):
        # unless fused, one component's padded gradients at a time, freed after use
        lo = 2 * d * (i + 1) + 1
        np.einsum("k...,k...->...", padded[:2 * d],
                  padded[lo:lo + 2 * d] if fused else
                  padded_samples(grid, gradients(i, np.empty_like(stack[:2 * d]))),
                  out=out[i])
        out[i] += div * ms[i]
    return _truncate_half(grid, out)


def euler_rhs(mult: FourierMultiplier, m: SpectralVectorField) -> SpectralVectorField:
    """Momentum tendency ``dm/dt = -[(u.grad) m + (grad u)^T m + (div u) m]``.

    ``u`` and the transport term are formed on half spectra; the negative
    last-axis bins are rebuilt once, by conjugate reflection.
    """
    grid, d = m.grid, m.grid.dim
    stack = _transport_stack(grid)
    _apply_inverse_half(mult, m, out=stack[:d])
    stack[d:2 * d] = m.coeffs[..., :grid.plan.half]
    return SpectralVectorField(grid, _full(grid, _transport_half(grid, stack), _MINUS_ONE))


def ad_transpose(
    mult: FourierMultiplier, v: SpectralVectorField, u: SpectralVectorField
) -> SpectralVectorField:
    """Metric adjoint of the adjoint action:
    ``A^-1[(v . grad) A u + (grad v)^T A u + (div v) A u]``."""
    if not mult.invertible:
        raise ValueError("ad_transpose needs an invertible (elliptic) multiplier")
    return apply_inverse(mult, momentum_transport(v, apply(mult, u)))


def arnold_B(
    mult: FourierMultiplier, u: SpectralVectorField, v: SpectralVectorField
) -> SpectralVectorField:
    """Symmetrized bilinear operator of the Euler equation ``u_t = -B(u, u)``."""
    return 0.5 * (ad_transpose(mult, u, v) + ad_transpose(mult, v, u))


# --- time stepping ---------------------------------------------------------------

def cfl_limit(u: SpectralVectorField) -> float:
    """Largest step allowed by the guard ``dt * sup|u| <= 0.5 * spacing``."""
    sup = u.sup_norm()
    if sup == 0.0:
        return np.inf
    return CFL_FRACTION * u.grid.spacing / sup


def step_rk4(mult: FourierMultiplier, state: EulerState, dt: float) -> EulerState:
    """One classical RK4 step in momentum form; enforces the CFL guard."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > state.cfl * (1 + 1e-12):
        raise CFLError(
            f"dt={dt:g} violates the guard dt*sup|u| <= {CFL_FRACTION}*spacing "
            f"(limit {state.cfl:g})"
        )
    grid, m = state.m.grid, state.m.coeffs

    def stage(k: np.ndarray, h: float) -> np.ndarray:
        return euler_rhs(mult, SpectralVectorField(grid, m + k * h)).coeffs

    k1 = euler_rhs(mult, state.m).coeffs
    k2 = stage(k1, dt / 2)
    k3 = stage(k2, dt / 2)
    k4 = stage(k3, dt)
    m_new = m + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (dt / 6)
    return EulerState.from_momentum(mult, SpectralVectorField(grid, m_new), t=state.t + dt)


@dataclass(frozen=True, eq=False)
class IntegrationResult:
    """Trajectory summary: diagnostics stream plus the halt reason."""

    status: str  # completed | gradient_threshold | dt_underflow | nan_abort
    final_state: EulerState
    diagnostics: list[Diagnostics]
    t_halt: Optional[float] = None
    dt: float = 0.0

    @property
    def blown_up(self) -> bool:
        return self.status in ("gradient_threshold", "dt_underflow")


def integrate(
    mult: FourierMultiplier,
    state: EulerState,
    t_end: float,
    dt: float,
    cadence: int = 1,
    norm_orders: Sequence[float] = (),
    grad_threshold: Optional[float] = None,
    callback: Optional[Callable[[Diagnostics], None]] = None,
) -> IntegrationResult:
    """March to ``t_end`` with fixed outer step ``dt``, emitting diagnostics.

    Each outer step is split into ``2^j`` RK4 substeps when the CFL guard
    requires it; if the substep underflows (``j`` beyond
    ``MAX_SUBSTEP_DOUBLINGS``) the run halts with a blow-up style verdict.
    Crossing ``grad_threshold`` (checked every outer step) halts likewise, and
    any non-finite coefficient aborts with the last good state.
    """
    if dt <= 0 or t_end <= state.t:
        raise ValueError("need dt > 0 and t_end > start time")
    cadence = max(int(cadence), 1)
    n_steps = int(round((t_end - state.t) / dt))
    if n_steps < 1 or abs(state.t + n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be a positive integer number of steps away")

    diags = [diagnostics(mult, state, norm_orders)]
    if callback:
        callback(diags[0])
    if grad_threshold is not None and diags[0].sup_velocity_gradient > grad_threshold:
        return IntegrationResult("gradient_threshold", state, diags, t_halt=state.t, dt=dt)

    def emit_final(st: EulerState) -> None:
        if diags[-1].t != st.t:
            d = diagnostics(mult, st, norm_orders)
            diags.append(d)
            if callback:
                callback(d)

    t0 = state.t
    for step in range(1, n_steps + 1):
        limit = state.cfl
        doublings = 0
        while dt / 2**doublings > limit and doublings <= MAX_SUBSTEP_DOUBLINGS:
            doublings += 1
        new_state = None
        while new_state is None:
            if doublings > MAX_SUBSTEP_DOUBLINGS:
                emit_final(state)
                return IntegrationResult("dt_underflow", state, diags, t_halt=state.t, dt=dt)
            trial = state
            try:
                for _ in range(2**doublings):
                    trial = step_rk4(mult, trial, dt / 2**doublings)
                    if not np.isfinite(trial.m.coeffs).all():
                        emit_final(state)
                        return IntegrationResult("nan_abort", state, diags, t_halt=state.t, dt=dt)
            except CFLError:
                doublings += 1  # sup|u| grew inside the step; retry finer
                continue
            new_state = trial
        state = EulerState(t=t0 + step * dt, m=new_state.m, u=new_state.u)

        emit = step % cadence == 0 or step == n_steps
        grad_now = None
        if grad_threshold is not None:
            grad_now = sup_velocity_gradient(state.u)
        if emit or (grad_now is not None and grad_now > grad_threshold):
            d = diagnostics(mult, state, norm_orders)
            diags.append(d)
            if callback:
                callback(d)
            if grad_threshold is not None and d.sup_velocity_gradient > grad_threshold:
                return IntegrationResult("gradient_threshold", state, diags, t_halt=state.t, dt=dt)
    return IntegrationResult("completed", state, diags, dt=dt)


def default_blowup_threshold(initial: EulerState) -> float:
    """Scale-aware default: a thousandfold growth over the initial gradient."""
    return 1e3 * (sup_velocity_gradient(initial.u) + 1.0)


@dataclass(frozen=True)
class BlowupVerdict:
    kind: str  # "none" or "gradient_blowup"
    t_star: Optional[float] = None
    t_star_refined: Optional[float] = None
    confirmed: Optional[bool] = None

    def summary(self) -> str:
        if self.kind == "none":
            return "none"
        out = f"t={self.t_star:.17g}"
        if self.confirmed is not None:
            out += f" confirmed={self.confirmed}"
        return out


def detect_blowup(
    result: IntegrationResult,
    refined: Optional[IntegrationResult] = None,
    rel_window: float = 0.05,
) -> BlowupVerdict:
    """Blow-up verdict from a trajectory, confirmed against a dt-halved rerun.

    The verdict time is the first diagnostic time at which the gradient
    threshold was crossed; with a refined trajectory supplied, the verdict is
    confirmed when the refined crossing lands within ``rel_window`` of it.
    """
    if not result.blown_up:
        return BlowupVerdict(kind="none")
    t_star = result.t_halt
    if refined is None:
        return BlowupVerdict(kind="gradient_blowup", t_star=t_star)
    if not refined.blown_up:
        return BlowupVerdict(kind="gradient_blowup", t_star=t_star, confirmed=False)
    t_ref = refined.t_halt
    confirmed = abs(t_ref - t_star) <= rel_window * abs(t_star)
    return BlowupVerdict(
        kind="gradient_blowup", t_star=t_star, t_star_refined=t_ref, confirmed=confirmed
    )


# --- initial data menu ------------------------------------------------------------

def _periodic_bump(grid: TorusGrid, center: np.ndarray, width: float) -> np.ndarray:
    """Smooth periodic bump: product over axes of exp(kappa (cos(2 pi (x-c)/L) - 1)).

    ``kappa = (L / (2 pi width))^2`` matches a Gaussian of the given width at
    the peak while staying exactly periodic.
    """
    kappa = (grid.length / (2 * np.pi * width)) ** 2
    out = np.ones(grid.shape)
    for axis in range(grid.dim):
        theta = 2 * np.pi * (grid.coordinates[axis] - center[axis]) / grid.length
        out *= np.exp(kappa * (np.cos(theta) - 1.0))
    return out


def gaussian_blob(
    grid: TorusGrid,
    amplitude: float = 0.25,
    width: float = 0.1,
    center: Optional[Sequence[float]] = None,
    component: int = 0,
) -> SpectralVectorField:
    """Localized velocity bump along one component: the smooth-benchmark datum."""
    if center is None:
        center = [grid.length / 2] * grid.dim
    samples = np.zeros((grid.dim,) + grid.shape)
    samples[component] = amplitude * _periodic_bump(grid, np.asarray(center, dtype=float), width)
    return SpectralVectorField.from_samples(grid, samples)


def peakon_pair(
    grid: TorusGrid,
    amplitude: float = 0.5,
    separation: float = 0.25,
    width: float = 0.05,
) -> SpectralVectorField:
    """Odd colliding-bump pair: positive bump moving right meets its mirror.

    Antisymmetric about the box center in axis 0, the smoothed stand-in for a
    peakon-antipeakon collision; under low-order inertia the slope at the
    symmetry point steepens toward finite-time gradient blow-up.
    """
    mid = grid.length / 2
    left = [mid] * grid.dim
    right = [mid] * grid.dim
    left[0] = mid - separation / 2
    right[0] = mid + separation / 2
    samples = np.zeros((grid.dim,) + grid.shape)
    samples[0] = amplitude * (
        _periodic_bump(grid, np.asarray(left), width) - _periodic_bump(grid, np.asarray(right), width)
    )
    return SpectralVectorField.from_samples(grid, samples)


def random_bandlimited(
    grid: TorusGrid,
    kmax: int,
    norm_order: float = 1.5,
    target_norm: float = 1.0,
    seed: int = 0,
) -> SpectralVectorField:
    """Random real field supported on ``|k|_inf <= kmax`` with prescribed H^q norm."""
    rng = np.random.default_rng(seed)
    u = SpectralVectorField.from_samples(grid, rng.standard_normal((grid.dim,) + grid.shape))
    keep = np.max(np.abs(grid.wavenumbers), axis=0) <= kmax
    trimmed = SpectralVectorField(grid, u.coeffs * keep)
    current = sobolev_norm(trimmed, norm_order)
    if current == 0.0:
        raise ValueError("degenerate random draw produced the zero field")
    return (target_norm / current) * trimmed
