"""Tests for the Eulerian EPDiff machinery and its conservation structure."""

import math

import numpy as np
import pytest

import epdifflab.epdiff as epdiff_module
from epdifflab.epdiff import (
    MAX_SUBSTEP_DOUBLINGS,
    CFLError,
    EulerState,
    default_blowup_threshold,
    detect_blowup,
    diagnostics,
    euler_rhs,
    gaussian_blob,
    integrate,
    peakon_pair,
    random_bandlimited,
    step_count,
    step_rk4,
    sup_velocity_gradient,
)
from epdifflab.grid import GridMismatchError, SpectralVectorField, TorusGrid, _full, l2_inner
from epdifflab.lagrangian import spray_at_identity
from epdifflab.operators import (
    FourierMultiplier,
    apply,
    apply_inverse,
    conjugate_symmetry_error,
    sobolev_multiplier,
    sobolev_norm,
)
from epdifflab.symbols import MatrixSymbol, sobolev_weight

from test_conjugation import hermitian_complex_symbol
from test_grid import (
    band_limited,
    dealiased_product,
    directional_derivative,
    imag_residual,
    momentum_transport,
    spectral_gradient,
)

FOUR_PI_SQ = 4 * np.pi**2


def ad_transpose(mult, v, u):
    """Metric adjoint of the adjoint action:
    ``A^-1[(v . grad) A u + (grad v)^T A u + (div v) A u]``."""
    return apply_inverse(mult, momentum_transport(v, apply(mult, u)))


def arnold_B(mult, u, v):
    """Symmetrized bilinear operator of the Euler equation ``u_t = -B(u, u)``."""
    return 0.5 * (ad_transpose(mult, u, v) + ad_transpose(mult, v, u))


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 128)


@pytest.fixture(scope="module")
def ch(grid):
    # s=1 in one dimension: the Camassa-Holm inertia operator
    return sobolev_multiplier(1.0, grid)


def lie_bracket(v, w):
    out = directional_derivative(v, w)
    return out - directional_derivative(w, v)


class TestAdTranspose:
    def test_zero_direction(self, grid, ch):
        u = band_limited(grid, 20, seed=0)
        out = ad_transpose(ch, SpectralVectorField.zero(grid), u)
        assert np.abs(out.coeffs).max() < 1e-14

    def test_duality_with_bracket(self, grid, ch):
        # pairing <A ad(v)^T u, w>_{L2} must equal -<A u, [v, w]>_{L2}
        u = band_limited(grid, 15, seed=1)
        v = band_limited(grid, 15, seed=2)
        w = band_limited(grid, 15, seed=3)
        lhs = l2_inner(apply(ch, ad_transpose(ch, v, u)), w)
        rhs = -l2_inner(apply(ch, u), lie_bracket(v, w))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_camassa_holm_reduction(self, grid, ch):
        # d=1: ad(u)^T u = A^-1(u m_x + 2 u_x m) with m = A u
        x = grid.coordinates[0]
        u = SpectralVectorField.from_samples(grid, np.cos(2 * np.pi * x)[None])
        m = apply(ch, u)
        ux = spectral_gradient(u, 0)
        mx = spectral_gradient(m, 0)
        # single harmonic: products are alias-free, build the expected field
        expected_rhs = SpectralVectorField.from_samples(
            grid, (u.samples() * mx.samples() + 2 * ux.samples() * m.samples())
        )
        expected = apply_inverse(ch, expected_rhs)
        got = ad_transpose(ch, u, u)
        assert np.abs(got.coeffs - expected.coeffs).max() < 1e-11 * np.abs(expected.coeffs).max()

    def test_bilinear(self, grid, ch):
        u = band_limited(grid, 10, seed=4)
        v = band_limited(grid, 10, seed=5)
        w = band_limited(grid, 10, seed=6)
        lhs = ad_transpose(ch, v, u + 2.0 * w)
        rhs = ad_transpose(ch, v, u) + 2.0 * ad_transpose(ch, v, w)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-11 * np.abs(lhs.coeffs).max()


class TestArnoldB:
    def test_symmetric(self, grid, ch):
        u = band_limited(grid, 12, seed=7)
        v = band_limited(grid, 12, seed=8)
        buv = arnold_B(ch, u, v)
        bvu = arnold_B(ch, v, u)
        assert np.abs(buv.coeffs - bvu.coeffs).max() < 1e-12 * np.abs(buv.coeffs).max()

    def test_diagonal_matches_ad_transpose(self, grid, ch):
        u = band_limited(grid, 12, seed=9)
        assert np.abs(arnold_B(ch, u, u).coeffs - ad_transpose(ch, u, u).coeffs).max() < 1e-12

    def test_polarization(self, grid, ch):
        u = band_limited(grid, 12, seed=10)
        v = band_limited(grid, 12, seed=11)
        lhs = arnold_B(ch, u + v, u + v) - arnold_B(ch, u, u) - arnold_B(ch, v, v)
        rhs = 2.0 * arnold_B(ch, u, v)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-11 * np.abs(rhs.coeffs).max()


class TestEulerRHS:
    def test_zero(self, grid, ch):
        out = euler_rhs(ch, SpectralVectorField.zero(grid))
        assert np.abs(out.coeffs).max() == 0.0

    def test_single_mode_hand_expansion(self, grid, ch):
        # u = cos(2 pi x): dm/dt = -(u m_x + 2 u_x m) = 3 pi (1 + 4 pi^2) sin(4 pi x)
        x = grid.coordinates[0]
        u = SpectralVectorField.from_samples(grid, np.cos(2 * np.pi * x)[None])
        m = apply(ch, u)
        rhs = euler_rhs(ch, m).samples()
        expected = 3 * np.pi * (1 + FOUR_PI_SQ) * np.sin(4 * np.pi * x)
        assert np.abs(rhs[0] - expected).max() < 1e-10 * np.abs(expected).max()

    def test_m_form_matches_u_form(self, grid, ch):
        u = band_limited(grid, 15, seed=12)
        m = apply(ch, u)
        m_form = euler_rhs(ch, m)
        u_form = -1.0 * apply(ch, ad_transpose(ch, u, u))
        assert np.abs(m_form.coeffs - u_form.coeffs).max() < 1e-11 * np.abs(m_form.coeffs).max()

    def test_divergence_free_mode_drops_div_term(self):
        grid = TorusGrid(2, 32)
        mult = sobolev_multiplier(1.0, grid)
        y = grid.coordinates[1]
        u = SpectralVectorField.from_samples(
            grid, np.stack([np.sin(2 * np.pi * y), np.zeros(grid.shape)])
        )
        m = apply(mult, u)
        full = momentum_transport(u, m)
        # manual sum without the (div u) m term
        partial = directional_derivative(u, m)
        jac = u.coeffs[:, None] * grid.derivative_factors  # d_j u^i, indexed [i, j]
        extra = np.zeros_like(partial.coeffs)
        for i in range(2):
            # row i of (grad u)^T m: the products d_i u^j m^j, summed over j
            extra[i] = dealiased_product(SpectralVectorField(grid, jac[:, i]), m).coeffs.sum(axis=0)
        manual = partial + SpectralVectorField(grid, extra)
        assert np.abs(full.coeffs - manual.coeffs).max() < 1e-12 * np.abs(full.coeffs).max()

    @pytest.mark.parametrize("dim,n", [(1, 64), (1, 256), (2, 16), (2, 32), (3, 8), (3, 16)])
    def test_energy_identity_holds_without_the_nyquist_planes(self, dim, n):
        # dE/dt = sum Re(conj(u_k) dm_k/dt), up to L^-d, vanishes for a
        # Galerkin truncation.  The tendency writes the Nyquist planes, where
        # the derivative factors are 0 and products of Nyquist modes alias: on
        # full-band draws the sum vanishes to round-off once the Nyquist planes
        # of m and of its tendency are 0, and not otherwise
        grid = TorusGrid(dim, n)
        for s in (0.5, 1.0, 2.0):
            mult = sobolev_multiplier(s, grid)
            for seed in range(4):
                rng = np.random.default_rng(seed)
                full = apply(mult, SpectralVectorField.from_samples(grid, rng.standard_normal((dim,) + grid.shape)))
                for zeroed in (True, False):
                    m = SpectralVectorField(grid, np.where(grid.nyquist_mask, 0, full.coeffs)) if zeroed else full
                    u, rate = apply_inverse(mult, m).coeffs, euler_rhs(mult, m).coeffs
                    if zeroed:
                        rate = np.where(grid.nyquist_mask, 0, rate)
                    ratio = abs(np.sum((np.conj(u) * rate).real)) / np.sum(np.abs(u) * np.abs(rate))
                    assert ratio <= 1e-12 if zeroed else ratio >= 1e-6, (s, seed, zeroed, ratio)

    def test_transport_rejects_fields_on_two_grids(self):
        # the spray's transport pass runs on the grid of u, so a multiplier
        # on a grid of another length must be rejected before it
        u = band_limited(TorusGrid(1, 32), 5, seed=1)
        mult = sobolev_multiplier(1.0, TorusGrid(1, 32, length=2.0))
        with pytest.raises(GridMismatchError):
            spray_at_identity(mult, u)


class TestStepping:
    def test_zero_stays_zero(self, grid, ch):
        st = EulerState.from_velocity(ch, SpectralVectorField.zero(grid))
        res = integrate(ch, st, 0.1, 0.01)
        assert np.abs(res.final_state.m.coeffs).max() == 0.0
        assert res.status == "completed"

    def test_zero_steps_rejected(self, grid, ch):
        st = EulerState.from_velocity(ch, SpectralVectorField.zero(grid))
        with pytest.raises(ValueError):
            integrate(ch, st, 0.1, np.inf)

    def test_cfl_guard(self, grid, ch):
        st = EulerState.from_velocity(ch, gaussian_blob(grid, amplitude=1.0))
        with pytest.raises(CFLError):
            step_rk4(ch, st, 1.0)

    def test_table_breaking_conjugate_symmetry_rejected(self):
        # the stages read half spectra and the step rebuilds the rest by
        # conjugate reflection, which such a table does not commute with
        g = TorusGrid(2, 8)
        mult = FourierMultiplier.build_elliptic(hermitian_complex_symbol(), g)
        st = EulerState.from_velocity(mult, band_limited(g, 2, seed=3))
        for call in (lambda: euler_rhs(mult, st.m), lambda: step_rk4(mult, st, 1e-3)):
            with pytest.raises(ValueError, match=r"breaks a\(-k\) = conj\(a\(k\)\)"):
                call()

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_step_velocity_reads_every_bin(self, dim, n):
        # the new state's velocity is apply_inverse on the full momentum: on a
        # table conjugate-symmetric only to SYMMETRY_GAP, half spectra and one
        # reflection would give the bits of neither u nor the energy, since
        # l2_inner sums all n bins and a reflected bin is inv_table(-k) m(-k)
        # only where the table is symmetric bit for bit
        def eval_fn(xi):
            w = sobolev_weight(1.5, xi) * (1 + 1e-14 * (xi[..., 0] > 0))
            return w[..., None, None] * np.eye(dim)

        symbol = MatrixSymbol(dim=dim, order=1.5, eval_fn=eval_fn, hermitian=True,
                              positive_definite=True, name="nearly_conjugate_symmetric")
        g = TorusGrid(dim, n)
        mult = FourierMultiplier.build_elliptic(symbol, g)
        assert conjugate_symmetry_error(mult.table, g) is None  # accepted by the step
        new = step_rk4(mult, EulerState.from_velocity(mult, random_bandlimited(g, n // 4, seed=3)), 1e-3)
        assert new.u.coeffs.tobytes() == apply_inverse(mult, new.m).coeffs.tobytes()
        m_half = new.m.coeffs[..., :g.plan.half]
        u_half = SpectralVectorField(g, _full(g, np.einsum("...ij,j...->i...", mult.half_inv_table, m_half)))
        assert 0.5 * l2_inner(new.m, u_half) != new.energy

    @staticmethod
    def _count(monkeypatch, *names):
        """The arguments of each call of the ``epdiff`` functions ``names``,
        kept, so that two calls on one live field are seen as such."""
        calls = {name: [] for name in names}
        for name in names:
            fn = getattr(epdiff_module, name)

            def counted(*args, _name=name, _fn=fn):
                calls[_name].append(args)
                return _fn(*args)
            monkeypatch.setattr(epdiff_module, name, counted)
        return calls

    def test_cfl_limit_once_per_state(self, grid, ch, monkeypatch):
        # the coefficient bound settles every guard of this run, so the grid
        # is never sampled for sup|u|
        calls = self._count(monkeypatch, "cfl_limit", "step_rk4", "_guard_ceilings")
        st = EulerState.from_velocity(ch, gaussian_blob(grid, amplitude=0.2))
        res = integrate(ch, st, 0.05, 5e-3)
        assert res.status == "completed"
        assert {name: len(args) for name, args in calls.items()} == \
            {"cfl_limit": 0, "step_rk4": 10, "_guard_ceilings": 10}

    def test_cfl_limit_once_per_state_where_the_bound_cannot_decide(self, grid, ch, monkeypatch):
        # dt at the exact limit of the start: the bound of this centred bump
        # is attained at its peak, so its floor lies just below dt there,
        # and so it does for every later state of this run
        calls = self._count(monkeypatch, "cfl_limit", "step_rk4")
        st = EulerState.from_velocity(ch, gaussian_blob(grid, amplitude=0.2))
        dt = st.cfl
        assert st.bounds[0] < dt
        res = integrate(ch, st, 10 * dt, dt)
        assert res.status == "completed"
        assert (res.substeps, res.retries) == (10, 0)
        assert {name: len(args) for name, args in calls.items()} == {"cfl_limit": 10, "step_rk4": 10}
        fields = [u for u, in calls["cfl_limit"]]
        assert len({id(u) for u in fields}) == len(fields)

    def test_sup_gradient_once_per_state(self, grid, ch, monkeypatch):
        # the default threshold and each emission sample the gradient; the
        # coefficient bound settles every threshold check
        calls = self._count(monkeypatch, "sup_velocity_gradient")["sup_velocity_gradient"]
        st = EulerState.from_velocity(ch, gaussian_blob(grid, amplitude=0.2))
        threshold = default_blowup_threshold(st)
        res = integrate(ch, st, 0.05, 5e-3, cadence=2, grad_threshold=threshold)
        assert res.status == "completed"
        assert len(calls) == 1 + 5
        assert [d.sup_velocity_gradient for d in res.diagnostics] == [sup_velocity_gradient(u) for u, in calls]

    def test_sup_gradient_once_per_state_where_the_bound_cannot_decide(self, grid, ch, monkeypatch):
        # a threshold between every state's gradient and its ceiling: each
        # check samples, and the emissions of those states share the samples
        calls = self._count(monkeypatch, "sup_velocity_gradient")["sup_velocity_gradient"]
        st = EulerState.from_velocity(ch, gaussian_blob(grid, amplitude=0.2))
        threshold = 1.3
        assert st.sup_gradient < threshold < st.bounds[1]
        calls.clear()
        res = integrate(ch, st, 0.05, 5e-3, cadence=2, grad_threshold=threshold)
        assert res.status == "completed"
        assert len(calls) == 10
        fields = [u for u, in calls]
        assert len({id(u) for u in fields}) == len(fields)
        emitted = [d.sup_velocity_gradient for d in res.diagnostics[1:]]
        assert emitted == [sup_velocity_gradient(u) for u in fields[1::2]]

    def test_energy_and_momentum_conservation_short(self, grid):
        mult = sobolev_multiplier(1.5, grid)
        st = EulerState.from_velocity(mult, gaussian_blob(grid, amplitude=0.25, width=0.1))
        res = integrate(mult, st, 0.25, 1e-3, cadence=50)
        e = [d.energy for d in res.diagnostics]
        p = [d.total_momentum[0] for d in res.diagnostics]
        assert max(abs(x - e[0]) for x in e) / e[0] < 1e-8
        assert max(abs(x - p[0]) for x in p) < 1e-12

    def test_state_velocity_consistency_along_flow(self, grid):
        mult = sobolev_multiplier(1.5, grid)
        st = EulerState.from_velocity(mult, gaussian_blob(grid, amplitude=0.2))
        res = integrate(mult, st, 0.05, 5e-3)
        final = res.final_state
        resid = apply(mult, final.u).coeffs - final.m.coeffs
        assert np.abs(resid).max() < 1e-12 * np.abs(final.m.coeffs).max()

    def test_rk4_self_convergence(self):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.5, grid)
        st = EulerState.from_velocity(mult, gaussian_blob(grid, amplitude=0.25, width=0.12))
        T, dt = 0.5, 0.02

        def final(dt_):
            return integrate(mult, st, T, dt_, cadence=10**9).final_state.m.coeffs

        ref = final(dt / 8)
        ratio = np.abs(final(dt) - ref).max() / np.abs(final(dt / 2) - ref).max()
        assert 14 <= ratio <= 18

    def test_resolution_robustness(self):
        # halving dt and doubling n moves E(t=1) by < 1e-8 relative
        def energy_at(n, dt):
            g = TorusGrid(1, n)
            mult = sobolev_multiplier(1.5, g)
            st = EulerState.from_velocity(mult, gaussian_blob(g, amplitude=0.2, width=0.15))
            res = integrate(mult, st, 1.0, dt, cadence=10**9)
            return res.diagnostics[-1].energy

        coarse = energy_at(64, 2e-3)
        fine = energy_at(128, 1e-3)
        assert abs(fine - coarse) / abs(coarse) < 1e-8

    def test_3d_short_run_conserves(self):
        grid3 = TorusGrid(3, 16)
        mult = sobolev_multiplier(1.5, grid3)
        u0 = gaussian_blob(grid3, amplitude=0.1, width=0.2)
        st = EulerState.from_velocity(mult, u0)
        res = integrate(mult, st, 0.05, 5e-3, cadence=2)
        assert res.status == "completed"
        e = [d.energy for d in res.diagnostics]
        p = [d.total_momentum for d in res.diagnostics]
        assert max(abs(x - e[0]) for x in e) / e[0] < 1e-8
        assert max(float(np.abs(x - p[0]).max()) for x in p) < 1e-12

    def test_2d_conservation_short(self):
        grid2 = TorusGrid(2, 32)
        mult = sobolev_multiplier(1.5, grid2)
        u0 = gaussian_blob(grid2, amplitude=0.2, width=0.15)
        st = EulerState.from_velocity(mult, u0)
        res = integrate(mult, st, 0.1, 2e-3, cadence=10)
        assert res.status == "completed"
        e = [d.energy for d in res.diagnostics]
        p = [d.total_momentum for d in res.diagnostics]
        assert max(abs(x - e[0]) for x in e) / e[0] < 1e-8
        assert max(float(np.abs(x - p[0]).max()) for x in p) < 1e-12
        assert imag_residual(res.final_state.u) < 1e-10

    def test_diagnostics_cadence_and_fields(self, grid):
        mult = sobolev_multiplier(1.5, grid)
        st = EulerState.from_velocity(mult, gaussian_blob(grid, amplitude=0.2))
        res = integrate(mult, st, 0.05, 5e-3, cadence=2, norm_orders=(1.5,))
        times = [d.t for d in res.diagnostics]
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.05)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(1.5 in d.sobolev_norms for d in res.diagnostics)


@pytest.fixture(scope="module")
def ch_blowup_runs():
    """Shared colliding-bump runs under the H^1 metric at two thresholds."""
    grid = TorusGrid(1, 256)
    ch = sobolev_multiplier(1.0, grid)
    st = EulerState.from_velocity(ch, peakon_pair(grid, 0.5, 0.3, 0.08))
    thr = default_blowup_threshold(st)
    coarse = integrate(ch, st, 8.0, 1e-3, cadence=200, grad_threshold=thr)
    refined = integrate(ch, st, 8.0, 5e-4, cadence=400, grad_threshold=thr)
    doubled = integrate(ch, st, 8.0, 1e-3, cadence=200, grad_threshold=2 * thr)
    return coarse, refined, doubled


class TestBlowup:
    def test_smooth_run_reports_none(self, grid):
        mult = sobolev_multiplier(2.0, grid)
        st = EulerState.from_velocity(mult, gaussian_blob(grid, amplitude=0.1, width=0.2))
        res = integrate(mult, st, 1.0, 5e-3, grad_threshold=default_blowup_threshold(st))
        assert res.status == "completed"
        assert detect_blowup(res).kind == "none"
        assert res.resolved_until is None

    def test_peakon_pair_is_odd(self, grid):
        u = peakon_pair(grid, amplitude=0.5, separation=0.3, width=0.08)
        samples = u.samples()[0]
        mirrored = -np.roll(samples[::-1], 1)  # oddness about the box center
        assert np.abs(samples - mirrored).max() < 1e-12

    def test_ch_blowup_detected_and_confirmed(self, ch_blowup_runs):
        coarse, refined, _ = ch_blowup_runs
        verdict = detect_blowup(coarse, refined)
        assert verdict.kind == "gradient_blowup"
        assert verdict.t_star is not None and 0 < verdict.t_star < 8.0
        assert verdict.confirmed

    def test_threshold_sensitivity(self, ch_blowup_runs):
        # doubling the threshold moves the verdict time by < 5%
        coarse, _, doubled = ch_blowup_runs
        assert abs(doubled.t_halt - coarse.t_halt) / coarse.t_halt < 0.05

    def test_resolution_lost_before_the_halt(self, ch_blowup_runs):
        for res in ch_blowup_runs:
            assert res.resolved_until is not None and 0 < res.resolved_until < res.t_halt
            assert res.retries > 0

    def test_bounds_decide_as_the_samples_do(self, ch_blowup_runs, monkeypatch):
        # the runs at dt and dt/2 halt at dt_underflow after CFL retries;
        # with the floor at 0 and the ceiling at inf every guard and every
        # threshold check samples the grid, and the runs keep their bits
        coarse, refined, _ = ch_blowup_runs
        grid = TorusGrid(1, 256)
        ch = sobolev_multiplier(1.0, grid)
        st = EulerState.from_velocity(ch, peakon_pair(grid, 0.5, 0.3, 0.08))
        thr = default_blowup_threshold(st)
        monkeypatch.setattr(epdiff_module, "_guard_ceilings", undecided)
        for res, dt, cadence in ((coarse, 1e-3, 200), (refined, 5e-4, 400)):
            assert res.status == "dt_underflow" and res.retries > 0
            assert_same_run(integrate(ch, st, 8.0, dt, cadence=cadence, grad_threshold=thr), res)

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_bounds_decide_as_the_samples_do_short(self, dim, n, monkeypatch):
        # a run whose guard bites until it halts at dt_underflow, and one
        # that crosses its threshold, each with and without the bounds
        grid = TorusGrid(dim, n)
        mult = sobolev_multiplier(1.0, grid)
        st = EulerState.from_velocity(mult, random_bandlimited(grid, n // 4, norm_order=1.0, seed=5))
        runs = [(1.9 * st.cfl, None), (0.5 * st.cfl, 1.3 * st.sup_gradient)]
        results = [integrate(mult, st, 8 * dt, dt, cadence=3, grad_threshold=thr) for dt, thr in runs]
        assert [res.status for res in results] == ["dt_underflow", "gradient_threshold"]
        monkeypatch.setattr(epdiff_module, "_guard_ceilings", undecided)
        for (dt, thr), res in zip(runs, results):
            assert_same_run(integrate(mult, st, 8 * dt, dt, cadence=3, grad_threshold=thr), res)


def undecided(u):
    """Ceilings that decide nothing: the CFL floor is 0 and the gradient ceiling inf."""
    return math.inf, math.inf


def assert_same_run(a, b):
    assert (a.status, a.t_halt, a.resolved_until, a.substeps, a.retries) == \
        (b.status, b.t_halt, b.resolved_until, b.substeps, b.retries)
    assert_same_diagnostics(a.diagnostics, b.diagnostics)
    assert a.final_state.t == b.final_state.t
    assert a.final_state.m.coeffs.tobytes() == b.final_state.m.coeffs.tobytes()


def restart_integrate(mult, state, t_end, dt, cadence=1, norm_orders=(), grad_threshold=None):
    """Reference loop that restarts an outer step with twice the substeps on a CFLError.

    ``integrate`` must match it bit for bit on steps that the guard never
    rejects.  Returns ``(status, final state, diagnostics)``.
    """
    n_steps = step_count(state.t, t_end, dt)
    diags = [diagnostics(state, norm_orders)]
    t0 = state.t
    for step in range(1, n_steps + 1):
        doublings = 0
        while dt / 2**doublings > state.cfl and doublings <= MAX_SUBSTEP_DOUBLINGS:
            doublings += 1
        new_state = None
        while new_state is None:
            if doublings > MAX_SUBSTEP_DOUBLINGS:
                return "dt_underflow", state, diags
            trial = state
            try:
                for _ in range(2**doublings):
                    trial = epdiff_module.step_rk4(mult, trial, dt / 2**doublings)
            except CFLError:
                doublings += 1
                continue
            new_state = trial
        state = EulerState(t=t0 + step * dt, m=new_state.m, u=new_state.u)
        crossed = grad_threshold is not None and sup_velocity_gradient(state.u) > grad_threshold
        if step % cadence == 0 or step == n_steps or crossed:
            diags.append(diagnostics(state, norm_orders))
            if crossed:
                return "gradient_threshold", state, diags
    return "completed", state, diags


def assert_same_diagnostics(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.t, x.energy, x.sup_velocity_gradient) == (y.t, y.energy, y.sup_velocity_gradient)
        assert np.array_equal(x.total_momentum, y.total_momentum)
        assert x.sobolev_norms == y.sobolev_norms


class StepCalls:
    """Counts ``step_rk4`` calls (numbered from 1) and records the sizes taken;
    ``fail(n)`` makes call ``n`` raise CFLError and ``poison(n)`` makes its
    result non-finite."""

    def __init__(self):
        self.n = 0
        self.sizes = []
        self.fail = self.poison = lambda n: False

    def reset(self):
        self.n = 0
        self.sizes = []


@pytest.fixture
def step_calls(monkeypatch):
    calls = StepCalls()
    real = epdiff_module.step_rk4

    def counted(mult, state, dt):
        calls.n += 1
        if calls.fail(calls.n):
            raise CFLError("forced rejection")
        out = real(mult, state, dt)
        calls.sizes.append(dt)
        if calls.poison(calls.n):
            return EulerState(t=out.t, m=np.nan * out.m, u=out.u)
        return out

    monkeypatch.setattr(epdiff_module, "step_rk4", counted)
    return calls


class TestSubstepPolicy:
    @pytest.mark.parametrize("case", ["gaussian_blob", "peakon"])
    def test_no_retry_matches_restart_loop(self, case):
        grid = TorusGrid(1, 256)
        if case == "gaussian_blob":  # configs/gaussian_blob.ini
            mult = sobolev_multiplier(1.5, grid)
            st = EulerState.from_velocity(mult, gaussian_blob(grid, 0.25, 0.1))
            kwargs = dict(cadence=100, norm_orders=(1.5, 2.5))
            t_end = 1.0
        else:  # the first 800 steps of configs/peakon_blowup.ini
            mult = sobolev_multiplier(1.0, grid)
            st = EulerState.from_velocity(mult, peakon_pair(grid, 0.5, 0.3, 0.08))
            kwargs = dict(cadence=200, norm_orders=(1.0,), grad_threshold=default_blowup_threshold(st))
            t_end = 0.8
        res = integrate(mult, st, t_end, 1e-3, **kwargs)
        status, final, diags = restart_integrate(mult, st, t_end, 1e-3, **kwargs)
        assert res.retries == 0 and res.substeps == round(t_end / 1e-3)
        assert res.status == status == "completed"
        assert res.final_state.t == final.t
        assert np.array_equal(res.final_state.m.coeffs, final.m.coeffs)
        assert_same_diagnostics(res.diagnostics, diags)

    def test_guard_rejection_keeps_accepted_substeps(self, step_calls):
        # separating bumps: sup|u| grows, so a step taken at exactly twice the
        # start's CFL limit passes its first half and is rejected in its second
        grid = TorusGrid(1, 128)
        mult = sobolev_multiplier(1.0, grid)
        st = EulerState.from_velocity(mult, peakon_pair(grid, -0.5, 0.3, 0.08))
        dt = 2 * st.cfl
        res = integrate(mult, st, dt, dt)
        assert res.status == "completed"
        assert (res.substeps, res.retries) == (3, 1)
        assert step_calls.n == res.substeps + res.retries
        assert step_calls.sizes == [dt / 2, dt / 4, dt / 4]

        step_calls.reset()
        restart_integrate(mult, st, dt, dt)
        assert res.substeps + res.retries < step_calls.n == 6

        by_hand = st
        for h in (dt / 2, dt / 4, dt / 4):
            by_hand = step_rk4(mult, by_hand, h)
        assert res.final_state.t == dt
        assert np.array_equal(res.final_state.m.coeffs, by_hand.m.coeffs)

    def _blob_run(self, steps):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.5, grid)
        st = EulerState.from_velocity(mult, gaussian_blob(grid, 0.2, 0.15))
        dt = 5e-3
        before = integrate(mult, st, steps * dt, dt).final_state
        return mult, st, dt, before

    def test_dt_underflow_returns_the_state_before_the_step(self, step_calls):
        mult, st, dt, before = self._blob_run(3)
        # step 4: its first substep is rejected, the first half-size substep
        # accepted, and every later substep rejected
        step_calls.reset()
        step_calls.fail = lambda n: n == 4 or n >= 6
        res = integrate(mult, st, 10 * dt, dt)
        assert res.status == "dt_underflow"
        assert (res.substeps, res.retries) == (4, 1 + MAX_SUBSTEP_DOUBLINGS)
        assert res.t_halt == res.final_state.t == 3 * dt
        assert res.diagnostics[-1].t == 3 * dt
        assert np.array_equal(res.final_state.m.coeffs, before.m.coeffs)

    def test_nan_abort_returns_the_state_before_the_step(self, step_calls):
        mult, st, dt, before = self._blob_run(3)
        step_calls.reset()
        step_calls.fail = lambda n: n == 4
        step_calls.poison = lambda n: n == 6
        res = integrate(mult, st, 10 * dt, dt)
        assert res.status == "nan_abort"
        assert (res.substeps, res.retries) == (5, 1)
        assert res.t_halt == res.final_state.t == 3 * dt
        assert np.array_equal(res.final_state.m.coeffs, before.m.coeffs)


class TestInitialData:
    def test_gaussian_blob_is_real_and_localized(self, grid):
        u = gaussian_blob(grid, amplitude=0.3, width=0.04, center=[0.25])
        s = u.samples()[0]
        assert s.max() == pytest.approx(0.3, rel=1e-6)
        antipode = np.argmin(np.abs(grid.coordinates[0] - 0.75))
        assert abs(s[antipode]) < 1e-10  # far side of the box is quiet
        assert imag_residual(u) < 1e-13

    def test_random_bandlimited_norm_and_band(self, grid):
        u = random_bandlimited(grid, kmax=12, norm_order=1.5, target_norm=2.0, seed=3)
        assert sobolev_norm(u, 1.5) == pytest.approx(2.0, rel=1e-12)
        assert u.max_wavenumber() <= 12

    def test_diagnostics_energy_formula(self, grid):
        mult = sobolev_multiplier(1.25, grid)
        u = random_bandlimited(grid, 10, seed=4)
        st = EulerState.from_velocity(mult, u)
        d = diagnostics(st)
        assert d.energy == pytest.approx(0.5 * sobolev_norm(u, 1.25) ** 2, rel=1e-12)
        assert d.sup_velocity_gradient == pytest.approx(sup_velocity_gradient(u))
