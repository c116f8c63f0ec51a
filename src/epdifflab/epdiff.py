"""Eulerian EPDiff integration: momentum transport under an inertia operator.

The geodesic flow of a right-invariant metric with inertia operator ``A``
reduces to the momentum equation

    m_t + (u . grad) m + (grad u)^T m + (div u) m = 0,      m = A u.

Momentum is the prognostic variable; velocity is recovered diagonally through
the inverse multiplier table.  The integrator is fixed-step classical RK4
behind a CFL guard, with power-of-two substepping when the guard bites: a
step whose guard bites part-way keeps its accepted substeps and finishes its
interval at half the substep.  The guard and the blow-up threshold read a
bound from the coefficients first (``sup|u| <= L^-d sum_k w_k |u_k|``, and
``|xi_j(k)|`` more per term for ``du^i/dx_j``), one small matrix product per
state, and sample on the grid only when the bound cannot decide; every
decision is the one the samples give.  An RK4 step runs its stages and their
combination on half spectra (last-axis bins ``0..n/2``, all a stage reads);
the step, not the stage, rebuilds the negative bins of the new momentum by
conjugate reflection.  Conservation diagnostics stay interpretable:
energy and total momentum are recomputed from the state at every emission,
never accumulated, and the first time the energy drifts past
``RESOLVED_ENERGY_DRIFT`` is recorded as ``resolved_until``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import (
    SpectralVectorField,
    TorusGrid,
    l2_inner,
    padded_samples,
    _Sampling,
    _Truncation,
    _einsum,
    _full,
    _jacobian_samples,
    _run_tasks,
    _truncate_half,
)
from .operators import (
    FourierMultiplier,
    apply,
    apply_inverse,
    sobolev_norm,
    _require_conjugate_symmetric,
    _require_inverse,
)

MAX_SUBSTEP_DOUBLINGS = 12
CFL_FRACTION = 0.5
# Most outer steps a run may take: the shipped configs take at most 8000, and
# 10^7 RK4 steps at d=1, n=256 take about an hour.
MAX_STEPS = 10**7
# Relative energy drift beyond which a trajectory no longer counts as resolved
# (the tolerance of the energy-conservation acceptance check).
RESOLVED_ENERGY_DRIFT = 1e-6
# Relative gap between the blow-up times at dt and at dt/2 within which a
# verdict counts as confirmed (the 5% rule of the blow-up acceptance check).
BLOWUP_CONFIRM_WINDOW = 0.05
# Relative margin of the guards' coefficient bounds over the samples they
# bound.  By the normwise error bound of the FFT, a computed sample differs
# from its exact value by at most about log2(N) sqrt(N) eps times the sum that
# bounds it (N the grid points; 1e-10 at N = 2^30); the bound's own sum of at
# most N non-negative terms rounds by at most N eps relative (1.2e-7 at
# N = 2^30), and each scaling by a few eps.  1e-6 covers all of them.
GUARD_MARGIN = 1e-6
# A bound decides only where its sums and its ceilings lie in this range:
# below it, rounding in the subnormal range is absolute, not relative; above
# it, a transform may overflow where the sum does not.
_DECIDING = (2.0**-900, 2.0**900)
# numpy scalars, as in grid: a Python float operand costs a promotion per call
_MINUS_ONE = np.complex128(-1.0)
_TWO = np.float64(2.0)
_CONTRACT = partial(_einsum, "k...,k...->...")


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
        """:func:`cfl_limit` of ``u``, evaluated once per state, and only
        where :attr:`bounds` cannot decide a guard."""
        return cfl_limit(self.u)

    @cached_property
    def sup_gradient(self) -> float:
        """:func:`sup_velocity_gradient` of ``u``, evaluated once per state:
        :func:`diagnostics`, :func:`default_blowup_threshold` and the
        threshold checks that :attr:`bounds` cannot decide share it."""
        return sup_velocity_gradient(self.u)

    @cached_property
    def bounds(self) -> tuple[float, float]:
        """``(cfl_floor, gradient_ceiling)`` from the coefficients of ``u``,
        with ``cfl_floor <= cfl`` and ``gradient_ceiling >= sup_gradient``;
        each is NaN where it decides nothing (see :func:`_guard_ceilings`)."""
        sup, gradient = _guard_ceilings(self.u)
        return (math.inf if sup == 0.0 else CFL_FRACTION * self.u.grid.spacing / sup), gradient

    def exceeds_cfl(self, dt: float, slack: float = 1.0) -> bool:
        """``dt > cfl * slack`` for ``slack >= 1``; :attr:`cfl` is sampled
        only when ``dt`` is not within the floor of :attr:`bounds`."""
        return not dt <= self.bounds[0] and dt > self.cfl * slack

    def exceeds_gradient(self, threshold: float) -> bool:
        """``sup_gradient > threshold``; :attr:`sup_gradient` is sampled only
        when the ceiling of :attr:`bounds` is not within ``threshold``."""
        return not self.bounds[1] <= threshold and self.sup_gradient > threshold

    @cached_property
    def energy(self) -> float:
        """Kinetic energy ``0.5 <m, u>``, evaluated once per state."""
        return 0.5 * l2_inner(self.m, self.u)


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
    return float(np.abs(_jacobian_samples(u)).max())


def _guard_ceilings(u: SpectralVectorField) -> tuple[float, float]:
    """Ceilings of :meth:`~epdifflab.grid.SpectralVectorField.sup_norm` and of
    :func:`sup_velocity_gradient`, read off the half spectra of ``u`` that
    their samples come from: ``L^-d sum_k w_k |u^i_k|`` and
    ``L^-d sum_k w_k |xi_j(k)| |u^i_k|``, the largest over ``i`` and ``j``,
    times ``1 + GUARD_MARGIN``; the weights are ``plan.sum_weights``.

    A ceiling outside ``_DECIDING``, or one whose sum lies outside it, is
    NaN, which decides nothing: so is every ceiling of a field with a
    non-finite coefficient, and no ``RuntimeWarning`` is raised for it.
    A zero sum gives the exact ceiling 0 (see :func:`_ceiling`).
    """
    grid = u.grid
    plan = grid.plan
    with np.errstate(all="ignore"):
        sums = np.abs(u.coeffs[..., :plan.half]).reshape(grid.dim, -1) @ plan.sum_weights
    # numpy's max over the components keeps a NaN (a lone one needs none); a
    # non-finite coefficient leaves every column of its component non-finite,
    # so Python's max over the gradients does too
    sup, *gradients = (sums[0] if len(sums) == 1 else sums.max(axis=0)).tolist()
    scale = (1 + GUARD_MARGIN) / grid.length**grid.dim
    return _ceiling(sup, scale), _ceiling(max(gradients), scale)


def _ceiling(total: float, scale: float) -> float:
    """``total * scale`` where it decides, else NaN.  A zero ``total`` is
    exact, since each of its terms rounded to 0: for ``sup|u|`` each
    ``|c| w`` with ``w >= 1``, so every coefficient is 0; for a gradient
    each ``|c| w |xi|``, and then so did each real product of ``c * xi`` in
    the samples' spectrum, as a computed ``|c|`` is at least both parts of
    ``c``."""
    if total == 0.0:
        return 0.0
    ceiling = total * scale
    low, high = _DECIDING
    return ceiling if low <= total <= high and low <= ceiling <= high else math.nan


def diagnostics(state: EulerState, norm_orders: Sequence[float] = ()) -> Diagnostics:
    return Diagnostics(
        t=state.t,
        energy=state.energy,
        total_momentum=state.m.integral(),
        sup_velocity_gradient=state.sup_gradient,
        sobolev_norms={q: sobolev_norm(state.u, q) for q in norm_orders},
    )


# --- the right-hand side -------------------------------------------------------

def _transport_pass(grid: TorusGrid, advection: bool) -> "_TransportPass":
    """This thread's transport pass on ``grid``, built on its first use."""
    plan = grid.plan
    return plan.prepared(("transport", advection), _TransportPass, plan.grid, advection)


class _TransportPass:
    """Half spectra of the transport term ``(v . grad) m + (grad v)^T m +
    (div v) m``, dealiased, on one grid and thread.

    A call reads the half spectra ``(d, n, ..., n/2+1)`` of ``v`` from the
    rows :attr:`v`, which its caller writes, and those of ``m`` from its
    argument, and writes the transport term to ``out``.  A caller may
    write ``m`` into the rows :attr:`m` and pass them; the call then copies
    nothing.

    ``[v, m, div v]`` go to the 3/2 grid once; per output component ``i``
    only ``d_j m^i`` and ``d_i v^j`` do, which bounds the padded working set.
    At d=1 ``div v`` is ``d_0 v^0``, the same product of the same spectra,
    so the pass reads it from that gradient's samples and does not sample
    it twice.
    When the whole stack fits in one transform call (``fused``), it goes in
    one call, the gradients are part of it, and one forward call comes back;
    otherwise the stack, then each component's gradients, go through the
    split passes of :func:`padded_samples` and :func:`_truncate_half`.  A
    split pass forms component 0's gradients with ``div v``, and each later
    component's with the products of the one before it (:attr:`phases`),
    which read none of them.

    With ``advection``, ``d`` more rows follow: ``(v . grad) v^j``, the sum
    over ``i`` of ``v^i d_i v^j``, formed from the padded samples of ``v``
    and of its gradients that the transport term samples anyway.  All ``2d``
    rows share one truncation.

    The pass owns its n-grid stack, its padded samples and its products, and
    binds every view of them that a call reads or writes here, so a call runs
    only the ufuncs of the pass.  The way to the 3/2 grid and back is
    grid's: when fused, this thread's :class:`~epdifflab.grid._Sampling` of
    the stack and :class:`~epdifflab.grid._Truncation` of the product rows,
    the bits of the pass on fresh arrays.  It refers to its grid by the
    plan's proxy, so the grid's plan, which keeps it, forms no cycle with it.

    A split pass whose padded row fills a transform call by itself
    (``plan.batch == 1``: d=3 n=32, d=2 n=128) runs ``div v``, the
    gradients and the products as ``plan.workers`` shares (at most ``n``),
    the tasks of :func:`~epdifflab.grid._run_tasks`.  Share ``j`` of ``w``
    writes planes ``P j // w`` to ``P (j + 1) // w`` along the first grid
    axis of every array an operation writes (``P`` its planes: ``n`` on the
    spectra, ``3n/2`` on the padded rows), and reads only those planes,
    whichever thread takes it: the calling thread and the pool's helpers
    take shares from one queue.  A helper runs the views bound here and
    keeps no pass of its own.  Elsewhere the calling thread runs them all.
    """

    def __init__(self, grid: TorusGrid, advection: bool) -> None:
        plan = grid.plan
        d = grid.dim
        factors = plan.factors
        self.grid = grid
        head = 2 * d + (d > 1)  # [v, m, div v] rows; at d=1 div v is a gradient row
        self.fused = fused = head + 2 * d * d <= plan.batch
        rows = head + (2 * d * d if fused else 0)
        self.stack = stack = np.empty((rows,) + plan.half_shape, dtype=complex)
        self.v, self.m = v, m = stack[:d], stack[d:2 * d]

        # div v: d_j v^j summed over j in order, as np.sum(v * factors, axis=0) sums
        self.spectral = []
        if d > 1:
            div_v = stack[2 * d]
            term = np.empty(plan.half_shape, dtype=complex)
            self.spectral = [(np.multiply, v[0], factors[0], div_v)]
            for j in range(1, d):
                self.spectral += [(np.multiply, v[j], factors[j], term), (np.add, div_v, term, div_v)]

        def gradients(i: int, out: np.ndarray) -> list:
            # [d_j m^i, d_i v^j] pairs with [v^j, m^j]: the first two terms at once
            return [(np.multiply, m[i], factors, out[:d]), (np.multiply, v, factors[i], out[d:])]

        padded_shape = plan.padded_shape
        self.padded = padded = np.empty((rows,) + padded_shape)
        if not fused:
            # one component's gradients at a time, in one buffer each side
            self.gradients = np.empty((2 * d,) + plan.half_shape, dtype=complex)
            self.padded_gradients = np.empty((2 * d,) + padded_shape)

        k = 2 * d if advection else d
        self.products = out = np.empty((k,) + padded_shape)
        scratch = np.empty((d if advection else 1,) + padded_shape)
        ms, adv = padded[d:2 * d], out[d:]
        products = []
        for i in range(d):
            lo = head + 2 * d * i
            grads = padded[lo:lo + 2 * d] if fused else self.padded_gradients
            div = padded[2 * d] if d > 1 else grads[1]  # at d=1, the samples of d_0 v^0
            ops = [(_CONTRACT, padded[:2 * d], grads, out[i]),
                   (np.multiply, div, ms[i], scratch[0]), (np.add, out[i], scratch[0], out[i])]
            if advection:  # grads[d + j] samples d_i v^j
                if i == 0:
                    ops.append((np.multiply, padded[0], grads[d:], adv))
                else:
                    ops += [(np.multiply, padded[i], grads[d:], scratch), (np.add, adv, scratch, adv)]
            products.append(ops)

        if fused:
            for i in range(d):
                self.spectral += gradients(i, stack[head + 2 * d * i:head + 2 * d * (i + 1)])
            self.sampling = plan.prepared((_Sampling, rows), _Sampling, plan, rows)
            self.truncation = plan.prepared((_Truncation, k), _Truncation, plan, k)
            self.run, self.phases = _run, [[op for ops in products for op in ops]]
        else:
            # component i's gradients are sampled before phase i, which forms
            # its products and the next component's gradients; component 0's
            # go with div v.  Where a padded row fills a transform call by
            # itself, the workers share all of it.
            self.spectral += gradients(0, self.gradients)
            phases = [ops + (gradients(i + 1, self.gradients) if i + 1 < d else [])
                      for i, ops in enumerate(products)]
            shares = min(plan.workers, grid.n) if plan.batch == 1 else 1
            self.run = _run if shares == 1 else partial(_run_tasks, plan.workers)
            self.spectral = _slabs(self.spectral, shares, d)
            self.phases = [_slabs(ops, shares, d) for ops in phases]

    def __call__(self, m: np.ndarray, out: np.ndarray) -> np.ndarray:
        grid = self.grid
        if m is not self.m:
            self.m[...] = m
        self.run(self.spectral)
        if self.fused:
            self.sampling(self.stack, self.padded)
            _run(self.phases[0])
            return self.truncation(self.products, out)
        padded_samples(grid, self.stack, self.padded)
        for phase in self.phases:
            padded_samples(grid, self.gradients, self.padded_gradients)
            self.run(phase)
        return _truncate_half(grid, self.products, out)


def _run(ops: list) -> None:
    """Run bound ``(function, a, b, out)`` operations in order."""
    for function, a, b, out in ops:
        function(a, b, out=out)


def _slabs(ops: list, shares: int, dim: int) -> list:
    """``ops`` itself for one share; else one task per share, which runs
    ``ops`` on that share's slab of whole planes of every operand along its
    first grid axis (axis ``ndim - dim``), the slabs cut evenly up to a
    plane.  The operands of one operation have the same grid shape, so each
    share reads only the planes it and the operations before it in that
    share write."""
    if shares == 1:
        return ops

    def slab(x: np.ndarray, j: int) -> np.ndarray:
        axis = x.ndim - dim
        planes = x.shape[axis]
        return x[(slice(None),) * axis + (slice(planes * j // shares, planes * (j + 1) // shares),)]
    return [partial(_run, [(function, slab(a, j), slab(b, j), slab(out, j)) for function, a, b, out in ops])
            for j in range(shares)]


def euler_rhs(mult: FourierMultiplier, m: SpectralVectorField) -> SpectralVectorField:
    """Momentum tendency ``dm/dt = -[(u.grad) m + (grad u)^T m + (div u) m]``.

    ``u`` and the transport term are formed on half spectra; the negative
    last-axis bins are rebuilt once, by conjugate reflection, so the table
    must keep ``a(-k) = conj(a(k))`` (``ValueError`` otherwise).
    """
    _require_inverse(mult, m)
    _require_conjugate_symmetric(mult)
    grid = m.grid
    out = np.empty((grid.dim,) + grid.plan.half_shape, dtype=complex)
    half = _rhs_half(mult, _transport_pass(grid, False), m.coeffs[..., :grid.plan.half], out)
    return SpectralVectorField(grid, _full(grid, half))


def _rhs_half(mult: FourierMultiplier, transport: _TransportPass, m: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Half spectra ``(d, n, ..., n/2+1)`` of :func:`euler_rhs` from those of
    ``m``, written to ``out`` by ``transport``, this thread's transport pass
    on the grid of ``mult``; ``m`` may be the pass's rows ``transport.m``.
    The caller runs the checks of :func:`euler_rhs`."""
    _einsum("...ij,j...->i...", mult.half_inv_table, m, out=transport.v)  # u, in the pass's rows
    transport(m, out)
    return np.multiply(out, _MINUS_ONE, out=out)


# --- time stepping ---------------------------------------------------------------

def cfl_limit(u: SpectralVectorField) -> float:
    """Largest step allowed by the guard ``dt * sup|u| <= 0.5 * spacing``."""
    sup = u.sup_norm()
    if sup == 0.0:
        return np.inf
    return CFL_FRACTION * u.grid.spacing / sup


def step_rk4(mult: FourierMultiplier, state: EulerState, dt: float) -> EulerState:
    """One classical RK4 step in momentum form; enforces the CFL guard.

    Every stage, and the combination of the stages, runs on the half spectra
    of ``m`` (last-axis bins ``0..n/2``), which are all a stage reads.  The
    step rebuilds the negative bins of the new momentum once, by conjugate
    reflection.  Conjugation commutes exactly with sums and with products by
    a real step, so for a conjugate-symmetric ``m`` (which a table with
    ``a(-k) = conj(a(k))`` keeps so) these are the bits that combining the
    full spectra would give; a table that breaks the rule raises
    ``ValueError``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if state.exceeds_cfl(dt, 1 + 1e-12):
        raise CFLError(
            f"dt={dt:g} violates the guard dt*sup|u| <= {CFL_FRACTION}*spacing "
            f"(limit {state.cfl:g})"
        )
    _require_inverse(mult, state.m)
    _require_conjugate_symmetric(mult)
    grid = state.m.grid
    transport = _transport_pass(grid, False)
    m_new = _rk4(partial(_rhs_half, mult, transport), state.m.coeffs[..., :grid.plan.half], dt,
                 transport.m)
    return EulerState.from_momentum(mult, SpectralVectorField(grid, _full(grid, m_new)), t=state.t + dt)


def _rk4(rhs: Callable[[np.ndarray, np.ndarray], object], y: np.ndarray, dt: float,
         stage: np.ndarray) -> np.ndarray:
    """One classical RK4 step of ``y' = rhs(y)`` on arrays (both geodesic solvers).

    ``rhs(y, out)`` writes the tendency at ``y`` to ``out``.  Each stage
    input ``y + k * h`` is written to ``stage``, an array shaped like ``y``
    that the caller names (the Eulerian step names the rows its transport
    pass reads), and ``rhs`` is called on it.  The four tendencies and the
    combination are written in place, in arrays of this call, in the operand
    order of ``y + k1 * (dt/2)`` and
    ``y + (k1 + k2 * 2 + k3 * 2 + k4) * (dt/6)``, so the bits are those of
    the expressions; the new ``y`` is a fresh array.
    """
    k = np.empty((4,) + y.shape, dtype=y.dtype)
    rhs(y, k[0])
    for i, h in enumerate((np.float64(dt / 2), np.float64(dt / 2), np.float64(dt)), start=1):
        np.multiply(k[i - 1], h, out=stage)
        np.add(y, stage, out=stage)
        rhs(stage, k[i])
    k1, k2, k3, k4 = k
    total = np.multiply(k2, _TWO)
    np.add(k1, total, out=total)
    np.multiply(k3, _TWO, out=k3)
    np.add(total, k3, out=total)
    np.add(total, k4, out=total)
    np.multiply(total, np.float64(dt / 6), out=total)
    return np.add(y, total, out=total)


@dataclass(frozen=True, eq=False)
class IntegrationResult:
    """Trajectory summary: diagnostics stream plus the halt reason.

    ``resolved_until`` is the first outer-step time whose energy drifted from
    the initial energy by more than ``RESOLVED_ENERGY_DRIFT`` (relative), or
    ``None``; ``substeps`` counts the RK4 substeps taken and ``retries`` the
    CFL guard's rejections.
    """

    status: str  # completed | gradient_threshold | dt_underflow | nan_abort
    final_state: EulerState
    diagnostics: list[Diagnostics]
    t_halt: Optional[float] = None
    resolved_until: Optional[float] = None
    substeps: int = 0
    retries: int = 0

    @property
    def blown_up(self) -> bool:
        return self.status in ("gradient_threshold", "dt_underflow")


def step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of fixed steps ``dt`` from ``t0`` to ``t_end``, which must be a
    positive integer of at most ``MAX_STEPS``."""
    if dt <= 0 or t_end <= t0:
        raise ValueError("need dt > 0 and t_end > start time")
    ratio = (t_end - t0) / dt
    if not ratio <= MAX_STEPS:  # before round(), which overflows on inf
        raise ValueError(f"(t_end - t0)/dt = {ratio:.3g} exceeds the longest run, {MAX_STEPS} steps")
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(t0 + n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be a positive integer number of steps away")
    return n_steps


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

    Each outer step starts with ``2^j`` RK4 substeps, ``j`` the fewest the
    CFL guard allows at its start.  When the guard rejects a substep inside
    the step, the accepted substeps are kept and the rest of the interval is
    run at half the substep; once ``j`` exceeds ``MAX_SUBSTEP_DOUBLINGS`` the
    run halts with a blow-up style verdict (``dt_underflow``).  Crossing
    ``grad_threshold`` (checked every outer step) halts likewise, and any
    non-finite coefficient aborts (``nan_abort``).  Both ``dt_underflow`` and
    ``nan_abort`` return the state from the start of the step, with
    ``t_halt`` at that time.  The energy is checked after every outer step
    for ``resolved_until``.
    """
    cadence = max(int(cadence), 1)
    n_steps = step_count(state.t, t_end, dt)

    diags: list[Diagnostics] = []
    resolved_until = None
    substeps = retries = 0

    def emit(st: EulerState) -> Diagnostics:
        diags.append(diagnostics(st, norm_orders))
        if callback:
            callback(diags[-1])
        return diags[-1]

    def result(status: str, st: EulerState, t_halt: Optional[float] = None) -> IntegrationResult:
        return IntegrationResult(status, st, diags, t_halt=t_halt, resolved_until=resolved_until,
                                 substeps=substeps, retries=retries)

    def halt(status: str, st: EulerState) -> IntegrationResult:
        if diags[-1].t != st.t:
            emit(st)
        return result(status, st, st.t)

    first = emit(state)
    if grad_threshold is not None and first.sup_velocity_gradient > grad_threshold:
        return result("gradient_threshold", state, state.t)
    e0 = first.energy

    t0 = state.t
    half = state.m.grid.plan.half
    for step in range(1, n_steps + 1):
        doublings = 0
        while state.exceeds_cfl(dt / 2**doublings) and doublings <= MAX_SUBSTEP_DOUBLINGS:
            doublings += 1
        trial = state
        left = 2**doublings  # substeps of size dt / 2**doublings still to take
        while left:
            if doublings > MAX_SUBSTEP_DOUBLINGS:
                return halt("dt_underflow", state)
            try:
                trial = step_rk4(mult, trial, dt / 2**doublings)
            except CFLError:
                retries += 1  # sup|u| grew inside the step; finish it finer
                left *= 2
                doublings += 1
                continue
            substeps += 1
            left -= 1
            if not np.isfinite(trial.m.coeffs[..., :half]).all():  # the rest mirrors it
                return halt("nan_abort", state)
        state = EulerState(t=t0 + step * dt, m=trial.m, u=trial.u)

        if resolved_until is None:
            drift = abs(state.energy - e0)
            if drift > RESOLVED_ENERGY_DRIFT * abs(e0):
                resolved_until = state.t
        crossed = grad_threshold is not None and state.exceeds_gradient(grad_threshold)
        if crossed or step % cadence == 0 or step == n_steps:
            emit(state)
            if crossed:
                return result("gradient_threshold", state, state.t)
    return result("completed", state)


def default_blowup_threshold(initial: EulerState) -> float:
    """Scale-aware default: a thousandfold growth over the initial gradient."""
    return 1e3 * (initial.sup_gradient + 1.0)


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


def detect_blowup(result: IntegrationResult, refined: Optional[IntegrationResult] = None) -> BlowupVerdict:
    """Blow-up verdict from a trajectory, confirmed against a dt-halved rerun.

    The verdict time is the first diagnostic time at which the gradient
    threshold was crossed; with a refined trajectory supplied, the verdict is
    confirmed when the refined crossing lands within ``BLOWUP_CONFIRM_WINDOW``
    of it (relative).
    """
    if not result.blown_up:
        return BlowupVerdict(kind="none")
    t_star = result.t_halt
    if refined is None:
        return BlowupVerdict(kind="gradient_blowup", t_star=t_star)
    if not refined.blown_up:
        return BlowupVerdict(kind="gradient_blowup", t_star=t_star, confirmed=False)
    t_ref = refined.t_halt
    confirmed = abs(t_ref - t_star) <= BLOWUP_CONFIRM_WINDOW * abs(t_star)
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
) -> SpectralVectorField:
    """Localized velocity bump along the first component: the smooth-benchmark datum."""
    if center is None:
        center = [grid.length / 2] * grid.dim
    samples = np.zeros((grid.dim,) + grid.shape)
    samples[0] = amplitude * _periodic_bump(grid, np.asarray(center, dtype=float), width)
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


def bandlimited_draw(grid: TorusGrid, kmax: int, rng: np.random.Generator) -> SpectralVectorField:
    """Standard-normal samples from ``rng`` with every mode above ``|k|_inf = kmax`` removed."""
    u = SpectralVectorField.from_samples(grid, rng.standard_normal((grid.dim,) + grid.shape))
    keep = np.max(np.abs(grid.wavenumbers), axis=0) <= kmax
    return SpectralVectorField(grid, u.coeffs * keep)


def random_bandlimited(
    grid: TorusGrid,
    kmax: int,
    norm_order: float = 1.5,
    target_norm: float = 1.0,
    seed: int = 0,
) -> SpectralVectorField:
    """Random real field supported on ``|k|_inf <= kmax`` with prescribed H^q norm."""
    trimmed = bandlimited_draw(grid, kmax, np.random.default_rng(seed))
    current = sobolev_norm(trimmed, norm_order)
    if current == 0.0:
        raise ValueError("degenerate random draw produced the zero field")
    return (target_norm / current) * trimmed
