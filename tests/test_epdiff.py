"""Tests for the Eulerian EPDiff machinery and its conservation structure."""

import numpy as np
import pytest

from epdifflab.epdiff import (
    CFLError,
    EulerState,
    ad_transpose,
    arnold_B,
    default_blowup_threshold,
    detect_blowup,
    diagnostics,
    euler_rhs,
    gaussian_blob,
    integrate,
    momentum_transport,
    peakon_pair,
    random_bandlimited,
    step_rk4,
    sup_velocity_gradient,
)
from epdifflab.grid import (
    SpectralVectorField,
    TorusGrid,
    directional_derivative,
    l2_inner,
    spectral_gradient,
)
from epdifflab.operators import apply, apply_inverse, sobolev_multiplier, sobolev_norm

from test_grid import band_limited

FOUR_PI_SQ = 4 * np.pi**2


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
        from epdifflab.grid import SpectralScalarField, dealiased_product, jacobian_coeffs

        partial = directional_derivative(u, m)
        jac = jacobian_coeffs(u)
        extra = np.zeros_like(partial.coeffs)
        for i in range(2):
            acc = None
            for j in range(2):
                p = dealiased_product(SpectralScalarField(grid, jac[j, i]), m.component(j))
                acc = p if acc is None else acc + p
            extra[i] = acc.coeffs
        manual = partial + SpectralVectorField(grid, extra)
        assert np.abs(full.coeffs - manual.coeffs).max() < 1e-12 * np.abs(full.coeffs).max()


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

    def test_cfl_limit_once_per_state(self, grid, ch, monkeypatch):
        # the outer step's check and its first RK4 substep share one evaluation
        import epdifflab.epdiff as epdiff_module

        calls = {"cfl_limit": 0, "step_rk4": 0}

        def counted(name):
            fn = getattr(epdiff_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(epdiff_module, name, counted(name))
        st = EulerState.from_velocity(ch, gaussian_blob(grid, amplitude=0.2))
        res = integrate(ch, st, 0.05, 5e-3)
        assert res.status == "completed"
        assert calls == {"cfl_limit": 10, "step_rk4": 10}

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
        assert res.final_state.u.imag_residual() < 1e-10

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


class TestInitialData:
    def test_gaussian_blob_is_real_and_localized(self, grid):
        u = gaussian_blob(grid, amplitude=0.3, width=0.04, center=[0.25])
        s = u.samples()[0]
        assert s.max() == pytest.approx(0.3, rel=1e-6)
        antipode = np.argmin(np.abs(grid.coordinates[0] - 0.75))
        assert abs(s[antipode]) < 1e-10  # far side of the box is quiet
        assert u.imag_residual() < 1e-13

    def test_random_bandlimited_norm_and_band(self, grid):
        u = random_bandlimited(grid, kmax=12, norm_order=1.5, target_norm=2.0, seed=3)
        assert sobolev_norm(u, 1.5) == pytest.approx(2.0, rel=1e-12)
        assert u.max_wavenumber() <= 12

    def test_diagnostics_energy_formula(self, grid):
        mult = sobolev_multiplier(1.25, grid)
        u = random_bandlimited(grid, 10, seed=4)
        st = EulerState.from_velocity(mult, u)
        d = diagnostics(mult, st)
        assert d.energy == pytest.approx(0.5 * sobolev_norm(u, 1.25) ** 2, rel=1e-12)
        assert d.sup_velocity_gradient == pytest.approx(sup_velocity_gradient(u))
