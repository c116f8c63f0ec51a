"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE k (name): PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream) and asserts the
criterion, including its runtime budget where one is stated.
"""

import time

import numpy as np
import pytest

from epdifflab.conjugation import (
    apply_An_recursive,
    convolution_kernel,
    estimate_Cn,
    verify_sn_identity,
)
from epdifflab.epdiff import (
    EulerState,
    bandlimited_draw,
    default_blowup_threshold,
    detect_blowup,
    gaussian_blob,
    integrate,
    peakon_pair,
)
from epdifflab.grid import TorusGrid
from epdifflab.lagrangian import (
    DiffeoChart,
    GeodesicState,
    compose,
    integrate_geodesic,
    invert,
    regularity_probe,
)
from epdifflab.operators import FourierMultiplier, sobolev_multiplier
from epdifflab.symbols import (
    MatrixSymbol,
    check_ellipticity,
    check_normal_ellipticity,
    check_order_estimate,
    check_strong_ellipticity,
    shear_laplacian_symbol,
    sobolev_symbol,
    sobolev_weight,
    sqrt_symbol,
    sylvester_solve,
)


def criterion(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def headroom_fields(grid, order, count, rng):
    kmax = (grid.n // 2 - 1) // (order + 1)
    return [bandlimited_draw(grid, kmax, rng) for _ in range(count)]


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    cases = [(1, TorusGrid(1, 16)), (2, TorusGrid(1, 16)), (1, TorusGrid(2, 8)), (2, TorusGrid(2, 8))]
    for order, grid in cases:
        mult = sobolev_multiplier(1.0, grid)
        kernel = convolution_kernel(mult, order)
        rng = np.random.default_rng(1000 + 10 * order + grid.dim)
        for draw in range(50):
            fields = headroom_fields(grid, order, order + 1, rng)
            rec = apply_An_recursive(mult, order, *fields)
            conv = kernel.apply(*fields)
            scale = max(np.abs(rec.coeffs).max(), np.abs(conv.coeffs).max(), 1e-300)
            worst = max(worst, float(np.abs(rec.coeffs - conv.coeffs).max() / scale))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 120
    criterion(1, "derivative-tower oracle equivalence", ok,
              f"worst rel err {worst:.2e} (tol 1e-10), {elapsed:.1f}s (budget 120s)")


def test_criterion_2_square_root():
    rng = np.random.default_rng(2)
    # random Hermitian positive definite symbol of order 3 on d=2
    c1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m1 = c1 @ np.conj(c1.T) + np.eye(2)
    m2 = c2 @ np.conj(c2.T) + np.eye(2)

    def hpd_eval(xi):
        hi = sobolev_weight(3.0, xi)
        lo = sobolev_weight(1.0, xi)
        return hi[..., None, None] * m1 + lo[..., None, None] * m2

    cases = {
        "sobolev(s=1.5)": sobolev_symbol(1.5, 1),
        "random-hpd-order-3": MatrixSymbol(dim=2, order=3.0, eval_fn=hpd_eval,
                                           hermitian=True, positive_definite=True,
                                           name="random-hpd"),
    }
    worst = 0.0
    certs_ok = True
    for name, sym in cases.items():
        root = sqrt_symbol(sym)
        pts = rng.uniform(-200, 200, size=(10_000, sym.dim))
        b = root(pts)
        res = float(np.abs(b @ b - sym(pts)).max() / np.abs(sym(pts)).max())
        worst = max(worst, res)
        certs_ok = certs_ok and check_order_estimate(root, max_alpha=2).verdict
        certs_ok = certs_ok and check_ellipticity(root).verdict
        assert root.order == pytest.approx(sym.order / 2)
    ok = worst <= 1e-12 and certs_ok
    criterion(2, "square-root correctness", ok,
              f"worst b^2=a residual {worst:.2e} (tol 1e-12), half-order certificates pass={certs_ok}")


def test_criterion_3_sylvester_bound():
    rng = np.random.default_rng(3)
    violations = 0
    worst_res = 0.0
    for i in range(1000):
        d = 2 + i % 3  # cycles 2, 3, 4
        c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = c @ np.conj(c.T) + 0.05 * np.eye(d)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = sylvester_solve(b, a)
        res = np.linalg.norm(b @ x + x @ b - a) / np.linalg.norm(a)
        worst_res = max(worst_res, res)
        bound = np.sqrt(d / 2) * np.linalg.norm(np.linalg.inv(b)) * np.linalg.norm(a)
        if res > 1e-12 or np.linalg.norm(x) > bound * (1 + 1e-12):
            violations += 1
    ok = violations == 0
    criterion(3, "Sylvester residual and Frobenius bound", ok,
              f"1000 instances d<=4, violations {violations}, worst residual {worst_res:.2e}")


def test_criterion_4_ellipticity_boundary():
    below = check_strong_ellipticity(shear_laplacian_symbol(1.99), sphere_samples=10_000)
    above = check_strong_ellipticity(shear_laplacian_symbol(2.01), sphere_samples=10_000)
    flips = below.verdict and not above.verdict
    normal_ok = all(
        check_normal_ellipticity(shear_laplacian_symbol(t), sphere_samples=10_000).verdict
        for t in (0.0, 1.0, 5.0, 100.0)
    )
    ok = flips and normal_ok
    criterion(4, "strong-ellipticity boundary", ok,
              f"verdict flips between t=1.99 ({below.verdict}) and t=2.01 ({above.verdict}); "
              f"normal ellipticity holds for t in {{0,1,5,100}}: {normal_ok}")


def test_criterion_5_conservation():
    t0 = time.time()
    grid = TorusGrid(1, 256)
    mult = sobolev_multiplier(1.5, grid)
    state = EulerState.from_velocity(mult, gaussian_blob(grid, amplitude=0.25, width=0.1))
    res = integrate(mult, state, 1.0, 1e-3, cadence=100)
    elapsed = time.time() - t0
    e = [d.energy for d in res.diagnostics]
    p = [d.total_momentum for d in res.diagnostics]
    e_drift = max(abs(x - e[0]) for x in e) / abs(e[0])
    p_drift = max(float(np.abs(x - p[0]).max()) for x in p)
    ok = e_drift <= 1e-6 and p_drift <= 1e-10 and elapsed < 60
    criterion(5, "energy and momentum conservation", ok,
              f"energy drift {e_drift:.2e} (tol 1e-6), momentum drift {p_drift:.2e} "
              f"(tol 1e-10), {elapsed:.1f}s (budget 60s)")


def test_criterion_6_global_vs_blowup():
    t0 = time.time()
    # smooth global witness: order-4 inertia to t=50
    grid = TorusGrid(1, 128)
    smooth_mult = sobolev_multiplier(2.0, grid)
    st = EulerState.from_velocity(smooth_mult, gaussian_blob(grid, amplitude=0.08, width=0.2))
    smooth = integrate(
        smooth_mult, st, 50.0, 5e-3, cadence=500, norm_orders=(2.0, 3.0, 4.0),
        grad_threshold=default_blowup_threshold(st),
    )
    probe = regularity_probe(smooth.diagnostics, (2.0, 3.0, 4.0))
    grads = [d.sup_velocity_gradient for d in smooth.diagnostics]
    smooth_ok = smooth.status == "completed" and probe.passed and np.isfinite(max(grads))

    # blow-up witness: Camassa-Holm inertia with odd colliding-bump data
    grid_b = TorusGrid(1, 256)
    ch = sobolev_multiplier(1.0, grid_b)
    st_b = EulerState.from_velocity(ch, peakon_pair(grid_b, amplitude=0.5, separation=0.3, width=0.08))
    thr = default_blowup_threshold(st_b)
    coarse = integrate(ch, st_b, 8.0, 1e-3, cadence=200, grad_threshold=thr)
    refined = integrate(ch, st_b, 8.0, 5e-4, cadence=400, grad_threshold=thr)
    verdict = detect_blowup(coarse, refined)
    blowup_ok = verdict.kind == "gradient_blowup" and bool(verdict.confirmed)
    elapsed = time.time() - t0
    ok = smooth_ok and blowup_ok and elapsed < 600
    criterion(6, "global regime vs finite-time blow-up", ok,
              f"smooth s=2 run to t=50: status={smooth.status}, max norm ratio "
              f"{max(probe.ratios.values()):.3g} (bound 1e3); blow-up s=1 at "
              f"t*={verdict.t_star} refined t*={verdict.t_star_refined} "
              f"confirmed={verdict.confirmed}; {elapsed:.1f}s (budget 600s)")


def test_criterion_7_eulerian_lagrangian_consistency():
    grid = TorusGrid(1, 256)
    mult = sobolev_multiplier(1.5, grid)
    u0 = gaussian_blob(grid, amplitude=0.25, width=0.1)
    eulerian = integrate(mult, EulerState.from_velocity(mult, u0), 0.1, 1e-3, cadence=10**9)
    lagrangian = integrate_geodesic(
        mult, GeodesicState(DiffeoChart.identity(grid), u0), 0.1, 1e-3
    )[-1]
    u_lag = compose(lagrangian.v, invert(lagrangian.phi))
    gap = float(np.abs(u_lag.samples() - eulerian.final_state.u.samples()).max())
    ok = gap <= 1e-6
    criterion(7, "Eulerian-Lagrangian consistency", ok,
              f"sup velocity gap {gap:.2e} at t=0.1 (tol 1e-6)")


def test_criterion_8_envelope_stability():
    worst_change = 0.0
    finite = True
    for s in (0.5, 1.0, 1.5, 2.0):
        sym = sobolev_symbol(s, 1)
        for order in (1, 2):
            lo = estimate_Cn(sym, order, xi_max=500.0).max_ratio
            hi = estimate_Cn(sym, order, xi_max=1000.0).max_ratio
            finite = finite and np.isfinite(hi) and hi > 0
            worst_change = max(worst_change, (hi - lo) / lo)
    ok = finite and worst_change < 0.05
    criterion(8, "growth-envelope refinement stability", ok,
              f"all ratios finite={finite}, worst change {worst_change:.2e} "
              f"doubling xi_max 500 -> 1000 (tol 5e-2)")


def test_criterion_9_frozen_tensor_identity():
    worst = 0.0
    all_pass = True
    for dim in (1, 2):
        sym = sobolev_symbol(1.5, dim)
        for order in (1, 2):
            report = verify_sn_identity(sym, order, num_tuples=100, seed=90 + order + dim)
            worst = max(worst, report.max_rel_error)
            all_pass = all_pass and report.passed
    ok = all_pass and worst <= 1e-10
    criterion(9, "frozen-tensor recursion identity", ok,
              f"100 tuples per (n, d) in {{1,2}}x{{1,2}}, worst rel err {worst:.2e} (tol 1e-10)")


def test_criterion_10_rk4_self_convergence():
    grid = TorusGrid(1, 64)
    mult = sobolev_multiplier(1.5, grid)
    state = EulerState.from_velocity(mult, gaussian_blob(grid, amplitude=0.25, width=0.12))
    T, dt = 0.5, 0.02

    def final(dt_):
        return integrate(mult, state, T, dt_, cadence=10**9).final_state.m.coeffs

    ref = final(dt / 8)
    ratio = float(np.abs(final(dt) - ref).max() / np.abs(final(dt / 2) - ref).max())
    ok = 14.0 <= ratio <= 18.0
    criterion(10, "RK4 self-convergence order", ok,
              f"error ratio under dt halving {ratio:.2f} (band [14, 18])")
