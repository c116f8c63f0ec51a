"""Tests for charts, composition, inversion, the spray, and the chart metric."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from epdifflab.conjugation import apply_An_recursive
from epdifflab.epdiff import (
    MAX_STEPS,
    EulerState,
    diagnostics,
    gaussian_blob,
    integrate,
)
from epdifflab.grid import GridMismatchError, SpectralVectorField, TorusGrid, _jacobian_samples
from epdifflab import grid as grid_module
from epdifflab import lagrangian
from epdifflab.lagrangian import (
    ChartError,
    DiffeoChart,
    GeodesicState,
    InversionError,
    compose,
    distance_dq,
    integrate_geodesic,
    invert,
    lagrangian_energy,
    regularity_probe,
    spray_at_identity,
    spray_rhs,
    _det,
    _eval_filtered,
    _solve,
    _spline_filter,
)
from epdifflab.operators import FourierMultiplier, apply, apply_inverse, sobolev_multiplier, sobolev_norm

from test_conjugation import hermitian_complex_symbol
from test_epdiff import arnold_B
from test_grid import band_limited, directional_derivative, momentum_transport, translate


def compose_diffeo(phi, psi):
    """Chart composition ``phi o psi``; displacement ``f_psi + f_phi o psi``."""
    return DiffeoChart(psi.f + compose(phi.f, psi))


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

    def test_matches_the_two_pass_spray(self, monkeypatch):
        # the one-pass spray gives the bits of the former two passes (the
        # advective derivative, then the transport term) along a whole run
        grid = TorusGrid(1, 256)
        mult = sobolev_multiplier(1.5, grid)
        state = GeodesicState(DiffeoChart.identity(grid), gaussian_blob(grid, amplitude=0.25, width=0.1))
        one_pass = integrate_geodesic(mult, state, 0.02, 1e-3)[-1]

        calls = []

        def two_pass_spray(mult, u):
            calls.append(u)
            return apply_inverse(mult, apply(mult, directional_derivative(u, u))
                                 - momentum_transport(u, apply(mult, u)))

        monkeypatch.setattr(lagrangian, "spray_at_identity", two_pass_spray)
        two_pass = integrate_geodesic(mult, state, 0.02, 1e-3)[-1]
        assert len(calls) == 4 * 20
        assert np.array_equal(one_pass.phi.f.coeffs, two_pass.phi.f.coeffs)
        assert np.array_equal(one_pass.v.coeffs, two_pass.v.coeffs)

    def test_table_breaking_conjugate_symmetry_rejected(self, monkeypatch):
        # the transport pass reads half spectra and treats A u as a real
        # field: with such a table the spray once ran silently, its samples
        # complex with an imaginary part 0.15 of their peak
        grid = TorusGrid(2, 16)
        mult = FourierMultiplier.build_elliptic(hermitian_complex_symbol(), grid)
        u = band_limited(grid, 3, seed=4)
        state = GeodesicState(DiffeoChart.identity(grid), u)
        monkeypatch.setattr(lagrangian, "_transport_pass", None)  # no pass may start
        for call in (lambda: spray_at_identity(mult, u), lambda: spray_rhs(mult, state)):
            with pytest.raises(ValueError, match=r"breaks a\(-k\) = conj\(a\(k\)\)"):
                call()

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
        for other in (TorusGrid(1, 64), TorusGrid(grid.dim, grid.n, length=2 * grid.length)):
            with pytest.raises(GridMismatchError):
                GeodesicState(DiffeoChart.identity(grid), SpectralVectorField.zero(other))
            with pytest.raises(GridMismatchError):
                compose(SpectralVectorField.zero(other), DiffeoChart.identity(grid))
            with pytest.raises(GridMismatchError):
                distance_dq(DiffeoChart.identity(other), DiffeoChart.identity(grid), 1.0)


class TestKernels:
    # _spline_filter and _eval_filtered call scipy.ndimage's private C
    # kernels with the arguments its public wrappers pass: a scipy whose
    # kernel signatures or mode codes change fails here

    CASES = [(1, 256), (2, 32), (3, 16)]

    @staticmethod
    def stack(dim, n, seed):
        grid = TorusGrid(dim, n, 2.0)
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((dim + 1,) + grid.shape)
        # points on [-1.5 L, 2.5 L): outside the box on both sides, so the wrap is exercised
        points = grid.length * rng.uniform(-1.5, 2.5, (dim, 7, 5))
        return grid, samples, points

    @pytest.mark.parametrize("dim,n", CASES)
    def test_filter_same_bytes_as_ndimage(self, dim, n):
        grid, samples, _ = self.stack(dim, n, seed=30 + dim)
        expected = np.stack([ndimage.spline_filter(c, order=5, mode="grid-wrap") for c in samples])
        got = _spline_filter(samples, grid)
        assert got.shape == samples.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim,n", CASES)
    def test_evaluation_same_bytes_as_ndimage(self, dim, n):
        grid, samples, points = self.stack(dim, n, seed=40 + dim)
        filtered = _spline_filter(samples, grid)
        coords = points * (grid.n / grid.length)
        expected = np.stack([ndimage.map_coordinates(c, coords, order=5, mode="grid-wrap", prefilter=False)
                             for c in filtered])
        got = _eval_filtered(filtered, points, grid)
        assert got.shape == (dim + 1,) + points.shape[1:]
        assert got.tobytes() == expected.tobytes()


# Run in a fresh interpreter with an output directory as argv[1]: prints, as
# JSON, whether scipy.ndimage is loaded after each step, the exit code of each
# CLI run, and whether the kernels compose reaches are scipy.ndimage._nd_image.
SCIPY_LOAD_SCRIPT = """
import json, sys
from pathlib import Path

loaded, exits = {}, {}

def note(step):
    loaded[step] = [module in sys.modules for module in ("scipy.ndimage", "concurrent.futures")]

import epdifflab
note("import epdifflab")
import epdifflab.cli
note("import epdifflab.cli")
import numpy as np
from epdifflab import cli, lagrangian
from epdifflab.conjugation import apply_An_recursive, headroom_band
from epdifflab.epdiff import EulerState, bandlimited_draw, gaussian_blob, step_rk4
from epdifflab.grid import TorusGrid
from epdifflab.operators import sobolev_multiplier

for dim, n in ((1, 64), (2, 16)):
    mult = sobolev_multiplier(1.5, TorusGrid(dim, n))
    state = EulerState.from_velocity(mult, gaussian_blob(mult.grid, amplitude=0.2, width=0.15))
    step_rk4(mult, state, 0.5 * state.cfl)
    note(f"step_rk4 d={dim}")
mult = sobolev_multiplier(1.0, TorusGrid(2, 8))
rng = np.random.default_rng(0)
apply_An_recursive(mult, 2, *[bandlimited_draw(mult.grid, headroom_band(2, 8), rng) for _ in range(3)])
note("apply_An_recursive")
out = Path(sys.argv[1])
for config in sorted(out.glob("*.ini")):
    exits[config.stem] = cli.main(["run", str(config), "--output-dir", str(out / config.stem), "--quiet"])
    note(f"cli {config.stem}")
grid = mult.grid
phi = lagrangian.DiffeoChart.from_displacement_samples(grid, 0.01 * np.sin(2 * np.pi * grid.coordinates[::-1]))
lagrangian.compose(gaussian_blob(grid, amplitude=0.2, width=0.15), phi)
note("compose")
import scipy.ndimage
print(json.dumps({"loaded": loaded, "exits": exits,
                  "kernels": lagrangian._spline_kernels() is scipy.ndimage._nd_image}))
"""


def test_scipy_loads_on_the_first_spline_pass(tmp_path):
    # the Eulerian solver, the tower and the audits run on numpy alone; only
    # a spline pass of the Lagrangian solver imports scipy.ndimage.  None of
    # these grids starts the transform pool, so concurrent.futures comes
    # only with scipy
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("symbol_audit", "shear_audit", "conjugation_audit"):
        (tmp_path / f"{name}.ini").write_text((configs / f"{name}.ini").read_text())
    blob = (configs / "gaussian_blob.ini").read_text()
    blob = blob.replace("t_end = 1.0", "t_end = 0.002").replace("cadence = 100", "cadence = 1")
    assert "t_end = 0.002" in blob and "cadence = 1\n" in blob
    (tmp_path / "gaussian_blob.ini").write_text(blob)
    src = Path(lagrangian.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run([sys.executable, "-c", SCIPY_LOAD_SCRIPT, str(tmp_path)],
                           env=env, capture_output=True, text=True, check=True)
    report = json.loads(fresh.stdout.splitlines()[-1])
    assert report["exits"] == {"conjugation_audit": 0, "gaussian_blob": 0, "shear_audit": 0,
                               "symbol_audit": 0}
    steps = ["import epdifflab", "import epdifflab.cli", "step_rk4 d=1", "step_rk4 d=2", "apply_An_recursive",
             "cli conjugation_audit", "cli gaussian_blob", "cli shear_audit", "cli symbol_audit"]
    assert report["loaded"] == {**dict.fromkeys(steps, [False, False]), "compose": [True, True]}
    assert report["kernels"] is True


class TestChartSamples:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_same_bytes_as_one_transform_each(self, dim, n):
        # f and df share one inverse transform: the bits of sampling each alone
        grid = TorusGrid(dim, n)
        f = SpectralVectorField.from_samples(grid, np.random.default_rng(dim).standard_normal((dim,) + grid.shape))
        phi = DiffeoChart(1e-4 * f)  # full band, Nyquist modes included
        jacobian = _jacobian_samples(phi.f) + np.eye(dim).reshape(dim, dim, *([1] * dim))
        assert phi.displacement_samples.tobytes() == phi.f.samples().tobytes()
        assert phi.jacobian_samples.tobytes() == jacobian.tobytes()
        assert phi.det_samples.tobytes() == _det(jacobian).tobytes()
        assert phi.positions.tobytes() == (grid.coordinates + phi.f.samples()).tobytes()


# (_rfft, _irfft) calls of a warm spray_rhs stage: the chart and the inverse
# chart one inverse transform each, then compose, spray, compose one each way,
# and the inverse chart's spectra one forward transform
TRANSFORMS_PER_STAGE = {(1, 256): (4, 5), (2, 32): (4, 5)}


@pytest.mark.parametrize("dim,n", list(TRANSFORMS_PER_STAGE))
def test_stage_transforms(dim, n, monkeypatch):
    grid = TorusGrid(dim, n)
    mult = sobolev_multiplier(1.5, grid)
    u0 = gaussian_blob(grid, amplitude=0.25, width=0.1)
    *_, before, state = integrate_geodesic(mult, GeodesicState(DiffeoChart.identity(grid), u0),
                                           4e-3, 2e-3, snapshot_cadence=1)
    warm = invert(before.phi).displacement_samples
    calls = {"_rfft": 0, "_irfft": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(grid_module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(grid_module, name, counted)
    # a new chart per stage, as integrate_geodesic builds one
    spray_rhs(mult, GeodesicState(DiffeoChart(state.phi.f), state.v), warm)
    assert (calls["_rfft"], calls["_irfft"]) == TRANSFORMS_PER_STAGE[dim, n]


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
