"""Tests for charts, composition, inversion, the spray, and the chart metric."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from epdifflab.conjugation import apply_An_recursive
from epdifflab.epdiff import (
    MAX_STEPS,
    EulerState,
    arnold_B,
    diagnostics,
    gaussian_blob,
    integrate,
)
from epdifflab.grid import (
    SpectralVectorField,
    TorusGrid,
    directional_derivative,
    translate,
)
from epdifflab import lagrangian
from epdifflab.lagrangian import (
    ChartError,
    DiffeoChart,
    GeodesicState,
    InversionError,
    compose,
    compose_diffeo,
    distance_dq,
    integrate_geodesic,
    invert,
    lagrangian_energy,
    regularity_probe,
    spray_at_identity,
    spray_rhs,
    _det,
    _solve,
)
from epdifflab.operators import apply, sobolev_multiplier, sobolev_norm

from test_grid import band_limited


def small_chart(grid, scale=0.02, kmax=3, seed=0):
    f = band_limited(grid, kmax, seed=seed)
    f = (scale / max(f.sup_norm(), 1e-300)) * f
    return DiffeoChart(f)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 128)


class TestCompose:
    def test_identity_chart(self, grid):
        u = band_limited(grid, 20, seed=1)
        out = compose(u, DiffeoChart.identity(grid))
        assert np.abs(out.samples() - u.samples()).max() < 1e-12

    def test_constant_shift_matches_spectral_phase(self, grid):
        h = 0.137
        shift = DiffeoChart.from_displacement_samples(
            grid, np.full((1,) + grid.shape, h)
        )
        u = band_limited(grid, 5, seed=2)  # smooth: interpolation error ~ (k/n)^6
        composed = compose(u, shift)  # u(x + h)
        exact = translate(u, [-h])    # phase shift: u(x + h) done spectrally
        assert np.abs(composed.samples() - exact.samples()).max() < 1e-8

    def test_associativity(self, grid):
        u = band_limited(grid, 5, seed=3)
        phi = small_chart(grid, seed=4)
        psi = small_chart(grid, seed=5)
        a = compose(compose(u, phi), psi)
        b = compose(u, compose_diffeo(phi, psi))
        assert np.abs(a.samples() - b.samples()).max() < 2e-8

    def test_2d_composition(self):
        grid = TorusGrid(2, 32)
        u = band_limited(grid, 2, seed=6)
        phi = small_chart(grid, scale=0.01, kmax=2, seed=7)
        out = compose(u, phi)
        # direct trigonometric evaluation oracle at a few points
        pts = phi.positions.reshape(2, -1)[:, :40]
        k = grid.wavenumbers.reshape(2, -1)
        phases = np.exp(2j * np.pi * (pts.T @ k) / grid.length)
        exact = (phases @ u.coeffs.reshape(2, -1).T).real / grid.length**2
        got = out.samples().reshape(2, -1)[:, :40]
        assert np.abs(got - exact.T).max() < 1e-7


class TestInvert:
    def test_identity(self, grid):
        psi = invert(DiffeoChart.identity(grid))
        assert psi.f.sup_norm() < 1e-12

    def test_constant_shift(self, grid):
        h = 0.21
        phi = DiffeoChart.from_displacement_samples(grid, np.full((1,) + grid.shape, h))
        psi = invert(phi)
        assert np.abs(psi.displacement_samples + h).max() < 1e-10

    def test_round_trip_residual(self, grid):
        phi = small_chart(grid, scale=0.05, kmax=4, seed=8)
        psi = invert(phi)
        pts = psi.positions
        resid = pts + phi.displacement_at(pts) - grid.coordinates
        assert np.abs(resid).max() <= 1e-10 * grid.length

    def test_near_degenerate_still_converges(self, grid):
        x = grid.coordinates[0]
        eps = 0.995 / (2 * np.pi)
        phi = DiffeoChart.from_displacement_samples(grid, (eps * np.sin(2 * np.pi * x))[None])
        assert phi.min_det < 0.01
        psi = invert(phi)
        pts = psi.positions
        resid = pts + phi.displacement_at(pts) - grid.coordinates
        assert np.abs(resid).max() <= 1e-10 * grid.length

    def test_double_inverse(self, grid):
        phi = small_chart(grid, scale=0.04, kmax=3, seed=9)
        back = invert(invert(phi))
        assert np.abs(back.displacement_samples - phi.displacement_samples).max() < 5e-7


class TestWarmStart:
    def test_matches_the_cold_start(self, grid):
        phi = small_chart(grid, scale=0.05, kmax=4, seed=8)
        nearby = DiffeoChart(phi.f + 0.002 * band_limited(grid, 4, seed=20))
        cold = invert(phi)
        warm = invert(phi, invert(nearby).displacement_samples)
        assert np.abs(warm.displacement_samples - cold.displacement_samples).max() <= 1e-12
        for psi in (cold, warm):
            pts = psi.positions
            resid = pts + phi.displacement_at(pts) - grid.coordinates
            assert np.abs(resid).max() <= 1e-10 * grid.length

    def test_failed_warm_start_reruns_cold(self, grid):
        phi = small_chart(grid, scale=0.05, kmax=4, seed=8)
        cold = invert(phi)
        # a non-finite start stalls at once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stalled = invert(phi, np.full((1,) + grid.shape, np.nan))
        assert np.array_equal(stalled.f.coeffs, cold.f.coeffs)

    def test_disoriented_warm_inverse_reruns_cold(self, grid, monkeypatch):
        phi = small_chart(grid, scale=0.05, kmax=4, seed=8)
        cold = invert(phi)
        warm_start = cold.displacement_samples.copy()
        newton = lagrangian._newton_inverse

        def reject_warm(chart, start):
            if start is warm_start:
                raise ChartError("chart is not orientation preserving")
            return newton(chart, start)

        monkeypatch.setattr(lagrangian, "_newton_inverse", reject_warm)
        assert np.array_equal(invert(phi, warm_start).f.coeffs, cold.f.coeffs)

    def test_fewer_spline_passes_on_the_consistency_trajectory(self, monkeypatch):
        # configs/consistency.ini; a cold start made about 1152 residual and
        # 752 Jacobian evaluations over the 400 RK4 stages
        counts = {"displacement_at": 0, "jacobian_at": 0}
        for name in counts:
            method = getattr(DiffeoChart, name)

            def counted(self, points, _method=method, _name=name):
                counts[_name] += 1
                return _method(self, points)

            monkeypatch.setattr(DiffeoChart, name, counted)
        grid = TorusGrid(1, 256)
        mult = sobolev_multiplier(1.5, grid)
        u0 = gaussian_blob(grid, amplitude=0.25, width=0.1)
        integrate_geodesic(mult, GeodesicState(DiffeoChart.identity(grid), u0), 0.1, 1e-3)
        assert counts["displacement_at"] <= 950
        assert counts["jacobian_at"] <= 550

    def test_no_state_outlives_a_run(self):
        # a spray after a warm-started run on another grid has the bits of
        # the same spray in a fresh process
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.5, grid)
        u0 = gaussian_blob(grid, amplitude=0.2, width=0.12)
        integrate_geodesic(mult, GeodesicState(DiffeoChart.identity(grid), u0), 0.01, 5e-3)
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]))
        fresh = subprocess.run(
            [sys.executable, "-c", "from test_lagrangian import spray_digest; print(spray_digest())"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert spray_digest() == fresh


def spray_digest() -> str:
    """Hash of a cold ``spray_rhs`` on a fixed 2-d chart and velocity."""
    grid = TorusGrid(2, 16)
    mult = sobolev_multiplier(1.5, grid)
    phi = DiffeoChart.from_displacement_samples(grid, 0.01 * np.sin(2 * np.pi * grid.coordinates[::-1]))
    _, dv, inverse = spray_rhs(mult, GeodesicState(phi, gaussian_blob(grid, amplitude=0.2, width=0.15)))
    return hashlib.sha256(dv.coeffs.tobytes() + inverse.f.coeffs.tobytes()).hexdigest()


class TestSmallSystems:
    @staticmethod
    def stack(dim, count, seed):
        # diagonally dominant: every determinant is at least 0.6 in modulus
        rng = np.random.default_rng(seed)
        m = np.eye(dim)[:, :, None] + rng.uniform(-0.2, 0.2, (dim, dim, count))
        return m, rng.standard_normal((dim, count))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_det_matches_numpy(self, dim):
        m, _ = self.stack(dim, 1000, seed=dim)
        expected = np.linalg.det(np.moveaxis(m, (0, 1), (-2, -1)))
        assert np.abs(_det(m) / expected - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_solve_matches_numpy(self, dim):
        m, b = self.stack(dim, 1000, seed=10 + dim)
        expected = np.linalg.solve(np.moveaxis(m, (0, 1), (-2, -1)), b.T[..., None])[..., 0].T
        gap = np.linalg.norm(_solve(m, b) - expected, axis=0) / np.linalg.norm(expected, axis=0)
        assert gap.max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_singular_solve_is_non_finite_without_warning(self, dim):
        m, b = self.stack(dim, 4, seed=20 + dim)
        m[:, :, 0] = 0.0  # zero matrix
        m[:, 0, 1] = m[:, -1, 1]  # repeated column (the zero column at d = 1)
        if dim == 1:
            m[0, 0, 1] = 0.0
        m[0, 0, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _solve(m, b)
        assert not np.isfinite(x[:, :3]).all(axis=0).any()
        assert np.isfinite(x[:, 3]).all()

    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_singular_jacobian_takes_the_fixed_point_branch(self, grid, monkeypatch, value):
        # np.linalg.solve raised LinAlgError on a singular Jacobian (exit 1)
        phi = small_chart(grid, scale=0.02, kmax=3, seed=21)
        monkeypatch.setattr(DiffeoChart, "jacobian_at",
                            lambda self, points: np.full(points.shape[1:] + (1, 1), value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = invert(phi)
        pts = psi.positions
        resid = pts + phi.displacement_at(pts) - grid.coordinates
        assert np.abs(resid).max() <= 1e-10 * grid.length


class TestJacobian:
    def test_identity(self, grid):
        assert np.abs(DiffeoChart.identity(grid).det_samples - 1.0).max() < 1e-14

    def test_harmonic_displacement(self, grid):
        x = grid.coordinates[0]
        eps = 0.05
        phi = DiffeoChart.from_displacement_samples(grid, (eps * np.sin(2 * np.pi * x))[None])
        expected = 1 + 2 * np.pi * eps * np.cos(2 * np.pi * x)
        assert np.abs(phi.det_samples - expected).max() < 1e-12

    def test_volume_conservation(self):
        grid = TorusGrid(2, 32)
        phi = small_chart(grid, scale=0.03, kmax=3, seed=10)
        vol = phi.det_samples.sum() * grid.cell_volume
        assert vol == pytest.approx(grid.length**2, rel=1e-10)

    def test_invalid_chart_rejected(self, grid):
        x = grid.coordinates[0]
        eps = 0.25  # 2 pi eps > 1 makes det change sign
        with pytest.raises(ChartError):
            DiffeoChart.from_displacement_samples(grid, (eps * np.sin(2 * np.pi * x))[None])

    def test_non_finite_chart_rejected(self, grid):
        # a nan determinant fails every comparison, so the check must say "> 0"
        f = 0.01 * np.sin(2 * np.pi * grid.coordinates)
        f[0, 3] = np.nan
        with pytest.raises(ChartError, match="min det = nan"):
            DiffeoChart.from_displacement_samples(grid, f)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_non_finite_chart_rejected_without_warning(self, dim, n):
        small = TorusGrid(dim, n)
        f = SpectralVectorField(small, np.zeros((dim,) + small.shape, dtype=complex))
        f.coeffs[(0,) * (dim + 1)] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChartError, match="min det = nan"):
                DiffeoChart(f)


class TestDistance:
    def test_self_distance_zero(self, grid):
        phi = small_chart(grid, seed=11)
        assert distance_dq(phi, phi, 2.0) == 0.0

    def test_symmetry(self, grid):
        a = small_chart(grid, seed=12)
        b = small_chart(grid, seed=13)
        assert distance_dq(a, b, 2.0) == pytest.approx(distance_dq(b, a, 2.0), rel=1e-14)

    def test_constant_shift_pair(self, grid):
        c1, c2 = 0.11, 0.03
        p1 = DiffeoChart.from_displacement_samples(grid, np.full((1,) + grid.shape, c1))
        p2 = DiffeoChart.from_displacement_samples(grid, np.full((1,) + grid.shape, c2))
        # dets are both 1, so only the H^q term contributes: |c1-c2| * L^(d/2)
        assert distance_dq(p1, p2, 1.5) == pytest.approx(abs(c1 - c2), rel=1e-12)

    def test_triangle_inequality_random_triples(self):
        grid = TorusGrid(1, 32)
        charts = [small_chart(grid, scale=0.03, kmax=3, seed=100 + i) for i in range(50)]
        rng = np.random.default_rng(0)
        for _ in range(1000):
            i, j, k = rng.integers(0, len(charts), size=3)
            dij = distance_dq(charts[i], charts[j], 2.0)
            dik = distance_dq(charts[i], charts[k], 2.0)
            dkj = distance_dq(charts[k], charts[j], 2.0)
            assert dij <= dik + dkj + 1e-12


class TestSpray:
    def test_zero_velocity(self, grid):
        mult = sobolev_multiplier(1.5, grid)
        state = GeodesicState(DiffeoChart.identity(grid), SpectralVectorField.zero(grid))
        dphi, dv, _ = spray_rhs(mult, state)
        assert np.abs(dphi.coeffs).max() == 0.0
        assert np.abs(dv.coeffs).max() < 1e-14

    def test_identity_chart_matches_arnold_form(self, grid):
        # at phi = id:  dv/dt = S(u) = grad_u u - B(u, u)
        mult = sobolev_multiplier(1.5, grid)
        u = band_limited(grid, 12, seed=14)
        s = spray_at_identity(mult, u)
        ref = directional_derivative(u, u) - arnold_B(mult, u, u)
        assert np.abs(s.coeffs - ref.coeffs).max() < 1e-11 * np.abs(ref.coeffs).max()

    def test_commutator_term_matches_derivative_tower(self):
        # [A, grad_u] u = -A_1(u, u)
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.0, grid)
        u = band_limited(grid, 15, seed=15)
        commutator = apply(mult, directional_derivative(u, u)) - directional_derivative(
            u, apply(mult, u)
        )
        tower = apply_An_recursive(mult, 1, u, u)
        assert np.abs(commutator.coeffs + tower.coeffs).max() < 1e-10 * np.abs(tower.coeffs).max()

    def test_two_solver_consistency_short(self):
        grid = TorusGrid(1, 128)
        mult = sobolev_multiplier(1.5, grid)
        u0 = gaussian_blob(grid, amplitude=0.2, width=0.12)
        eul = integrate(mult, EulerState.from_velocity(mult, u0), 0.05, 1e-3, cadence=10**9)
        lag = integrate_geodesic(
            mult, GeodesicState(DiffeoChart.identity(grid), u0), 0.05, 1e-3
        )[-1]
        u_lag = lag.eulerian_velocity()
        disc = np.abs(u_lag.samples() - eul.final_state.u.samples()).max()
        assert disc < 1e-6
        e_gap = abs(lagrangian_energy(mult, lag) - eul.diagnostics[-1].energy)
        assert e_gap / eul.diagnostics[-1].energy < 1e-8

    def test_velocity_and_energy_invert_the_chart_once(self, monkeypatch):
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.5, grid)
        state = GeodesicState(DiffeoChart(0.01 * band_limited(grid, 4, seed=3)), band_limited(grid, 4, seed=4))
        calls = []
        cold = lagrangian.invert
        monkeypatch.setattr(lagrangian, "invert", lambda phi, start=None: calls.append(phi) or cold(phi, start))
        u = state.eulerian_velocity()
        lagrangian_energy(mult, state)
        assert state.eulerian_velocity() is u
        assert calls == [state.phi]

    def test_chart_stays_valid_along_geodesic(self):
        grid = TorusGrid(1, 128)
        mult = sobolev_multiplier(1.5, grid)
        u0 = gaussian_blob(grid, amplitude=0.2, width=0.12)
        traj = integrate_geodesic(
            mult, GeodesicState(DiffeoChart.identity(grid), u0), 0.05, 5e-3, snapshot_cadence=2
        )
        assert all(st.phi.min_det > 0 for st in traj)

    def test_matches_the_two_array_rk4_loop(self):
        # the shared RK4 step on the stacked (f, v) array gives the bits of
        # the former loop that stepped f and v as two arrays, each stage's
        # inverse chart starting from the previous stage's
        grid = TorusGrid(1, 64)
        mult = sobolev_multiplier(1.5, grid)
        u0 = gaussian_blob(grid, amplitude=0.2, width=0.12)
        state = GeodesicState(DiffeoChart.identity(grid), u0)
        dt = 5e-3
        traj = integrate_geodesic(mult, state, 5 * dt, dt, snapshot_cadence=2)
        start = None

        def rhs(f, v):
            nonlocal start
            st = GeodesicState(DiffeoChart(SpectralVectorField(grid, f)),
                               SpectralVectorField(grid, v))
            dphi, dv, inverse = spray_rhs(mult, st, start)
            start = inverse.displacement_samples
            return dphi.coeffs, dv.coeffs

        f, v = state.phi.f.coeffs, state.v.coeffs
        expected = [(f, v)]
        for step in range(1, 6):
            k1f, k1v = rhs(f, v)
            k2f, k2v = rhs(f + (dt / 2) * k1f, v + (dt / 2) * k1v)
            k3f, k3v = rhs(f + (dt / 2) * k2f, v + (dt / 2) * k2v)
            k4f, k4v = rhs(f + dt * k3f, v + dt * k3v)
            f = f + (dt / 6) * (k1f + 2 * k2f + 2 * k3f + k4f)
            v = v + (dt / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
            if step == 5 or step % 2 == 0:
                expected.append((f, v))
        assert [st.t for st in traj] == [0.0, 2 * dt, 4 * dt, 5 * dt]
        assert len(traj) == len(expected)
        for st, (f, v) in zip(traj, expected):
            assert np.array_equal(st.phi.f.coeffs, f)
            assert np.array_equal(st.v.coeffs, v)

    def test_zero_steps_rejected(self, grid):
        mult = sobolev_multiplier(1.5, grid)
        state = GeodesicState(DiffeoChart.identity(grid), SpectralVectorField.zero(grid))
        with pytest.raises(ValueError):
            integrate_geodesic(mult, state, 0.1, np.inf)

    def test_step_cap(self, grid):
        # the cap is checked before any step runs
        mult = sobolev_multiplier(1.5, grid)
        state = GeodesicState(DiffeoChart.identity(grid), SpectralVectorField.zero(grid))
        with pytest.raises(ValueError, match="longest run"):
            integrate_geodesic(mult, state, 1.0, 0.5 / MAX_STEPS)

    def test_grid_mismatch_rejected(self, grid):
        other = TorusGrid(1, 64)
        with pytest.raises(ChartError):
            GeodesicState(DiffeoChart.identity(grid), SpectralVectorField.zero(other))


class TestRegularityProbe:
    def test_zero_field_convention(self, grid):
        mult = sobolev_multiplier(1.5, grid)
        st = EulerState.from_velocity(mult, SpectralVectorField.zero(grid))
        res = integrate(mult, st, 0.02, 1e-2, norm_orders=(1.5, 2.5))
        report = regularity_probe(res.diagnostics, (1.5, 2.5))
        assert report.passed
        assert all(r == 1.0 for r in report.ratios.values())

    def test_smooth_run_bounded(self, grid):
        mult = sobolev_multiplier(2.0, grid)
        st = EulerState.from_velocity(mult, gaussian_blob(grid, amplitude=0.1, width=0.2))
        res = integrate(mult, st, 1.0, 5e-3, cadence=20, norm_orders=(2.0, 3.0, 4.0))
        report = regularity_probe(res.diagnostics, (2.0, 3.0, 4.0))
        assert report.passed

    def test_rough_data_norm_diverges_with_resolution_no_gain(self):
        # coefficients ~ weight(q + 1/2, k)^-1 give an H^q-rough field: its
        # H^(q+1) norm grows with n, and the flow does not smooth it away
        q = 2.0
        from epdifflab.symbols import sobolev_weight

        def rough(grid, seed=0):
            rng = np.random.default_rng(seed)
            noise = SpectralVectorField.from_samples(
                grid, rng.standard_normal((grid.dim,) + grid.shape)
            )
            w = sobolev_weight(q + 0.5, grid.frequency_points()).reshape(grid.shape)
            u = SpectralVectorField(grid, noise.coeffs / w)
            return (0.2 / sobolev_norm(u, q)) * u

        u_small = rough(TorusGrid(1, 128))
        u_big = rough(TorusGrid(1, 256))
        r = sobolev_norm(u_big, q + 1.0) / sobolev_norm(u_small, q + 1.0)
        assert r > 1.3  # proxy norm diverges under refinement

        grid = TorusGrid(1, 128)
        mult = sobolev_multiplier(q, grid)
        st = EulerState.from_velocity(mult, u_small)
        res = integrate(mult, st, 0.02, 1e-3, cadence=5, norm_orders=(q, q + 1.0))
        report = regularity_probe(res.diagnostics, (q, q + 1.0))
        hi = report.ratios[q + 1.0]
        assert 0.5 < hi < 10  # stays the same order along the flow: no gain
