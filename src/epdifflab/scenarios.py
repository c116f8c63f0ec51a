"""Experiment scenarios behind the CLI: simulations, audits, consistency runs.

Every scenario is a function ``(config, out_dir, quiet) -> exit code`` that
writes its outputs under ``out_dir``:

* ``diagnostics.csv``  one row per cadence tick (time-evolution scenarios),
* ``certificates.txt`` key: value blocks (audit scenarios),
* ``summary.txt``      key: value verdict lines (always).

All floating output carries 17 significant digits so files round-trip
exactly; reductions that feed the files run in fixed index order, making the
outputs bit-identical for identical config and seed.
"""

from __future__ import annotations

import io
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ConfigError, RunConfig, param_float, param_int
from .conjugation import (
    CONVOLUTION_GRID_LIMIT,
    apply_An_convolution,
    apply_An_recursive,
    estimate_Cn,
    verify_sn_identity,
)
from .epdiff import (
    Diagnostics,
    EulerState,
    default_blowup_threshold,
    detect_blowup,
    gaussian_blob,
    integrate,
    peakon_pair,
    random_bandlimited,
)
from .grid import SpectralVectorField, TorusGrid
from .lagrangian import (
    DiffeoChart,
    GeodesicState,
    compose,
    integrate_geodesic,
    invert,
    lagrangian_energy,
    regularity_probe,
)
from .operators import EllipticityError, FourierMultiplier
from .symbols import (
    MatrixSymbol,
    check_ellipticity,
    check_normal_ellipticity,
    check_order_estimate,
    check_strong_ellipticity,
    shear_laplacian_symbol,
    sobolev_symbol,
    sqrt_symbol,
)

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_BAD_CONFIG = 3
EXIT_NUMERICAL = 4


def fmt(x: float) -> str:
    """Floating-point text with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


# --- metric construction -----------------------------------------------------

def lattice_table_symbol(
    table: np.ndarray,
    grid: TorusGrid,
    order: float,
    hermitian: bool,
    positive_definite: bool,
    name: str = "custom-table",
) -> MatrixSymbol:
    """Symbol backed by a lattice table, evaluated by nearest-mode lookup.

    Off-lattice points clamp to the represented band, so certification is
    meaningful only out to the lattice edge.
    """
    half = grid.n // 2

    def eval_fn(xi: np.ndarray) -> np.ndarray:
        k = np.rint(np.asarray(xi) * grid.length).astype(int)
        k = np.clip(k, -half, half - 1)
        idx = tuple(np.moveaxis(k % grid.n, -1, 0))
        return table[idx]

    return MatrixSymbol(
        dim=grid.dim,
        order=order,
        eval_fn=eval_fn,
        hermitian=hermitian,
        positive_definite=positive_definite,
        name=name,
    )


def save_symbol_table(path: Path, mult: FourierMultiplier) -> None:
    """Serialize a multiplier's lattice table to the custom-table npz format."""
    np.savez(
        path,
        table=mult.table,
        order=np.float64(mult.symbol.order),
        hermitian=np.bool_(mult.symbol.hermitian),
        positive_definite=np.bool_(mult.symbol.positive_definite),
    )


def _build_elliptic(symbol: MatrixSymbol, grid: TorusGrid, **kwargs) -> FourierMultiplier:
    """The multiplier of a configured symbol; a symbol failing its checks is a config error."""
    try:
        return FourierMultiplier.build_elliptic(symbol, grid, **kwargs)
    except EllipticityError as exc:
        raise ConfigError(f"[metric] {exc}") from exc


def build_metric(cfg: RunConfig, grid: TorusGrid) -> FourierMultiplier:
    if cfg.metric_kind == "sobolev":
        return _build_elliptic(sobolev_symbol(cfg.s, grid.dim), grid)
    data = np.load(cfg.table_path)
    for key in ("table", "order"):
        if key not in data:
            raise ConfigError(f"custom table {cfg.table_path} missing array {key!r}")
    table = np.asarray(data["table"], dtype=complex)
    expected = grid.shape + (grid.dim, grid.dim)
    if table.shape != expected:
        raise ConfigError(
            f"custom table shape {table.shape} does not match grid (expected {expected})"
        )
    symbol = lattice_table_symbol(
        table,
        grid,
        order=float(data["order"]),
        hermitian=bool(data.get("hermitian", True)),
        positive_definite=bool(data.get("positive_definite", True)),
        name=f"table:{cfg.table_path.name}",
    )
    # certify within the represented band only
    return _build_elliptic(symbol, grid, xi_max=0.45 * grid.n / grid.length)


# --- time-evolution scenarios ---------------------------------------------------

def _bump_width(cfg: RunConfig, default: float) -> float:
    """The ``width`` key; the bump's sharpness ``(L / (2 pi width))^2`` must be a finite float."""
    width = param_float(cfg, "width", default)
    if cfg.length / (2 * math.pi * width) > math.sqrt(sys.float_info.max):
        raise ConfigError(
            f"[scenario] width: {width:g} is too small for a bump on a box of {cfg.length:g}"
        )
    return width


def _initial_velocity(cfg: RunConfig, grid: TorusGrid) -> SpectralVectorField:
    name = cfg.scenario
    if name in ("gaussian_blob", "consistency"):
        return gaussian_blob(
            grid,
            amplitude=param_float(cfg, "amplitude", 0.25),
            width=_bump_width(cfg, 0.1),
        )
    if name == "random_bandlimited":
        return random_bandlimited(
            grid,
            kmax=param_int(cfg, "kmax", max(2, grid.n // 8), minimum=1),
            norm_order=param_float(cfg, "norm_order", 1.5),
            target_norm=param_float(cfg, "target_norm", 1.0),
            seed=cfg.seed,
        )
    if name == "peakon_pair":
        return peakon_pair(
            grid,
            amplitude=param_float(cfg, "amplitude", 0.5),
            separation=param_float(cfg, "separation", 0.25 * grid.length),
            width=_bump_width(cfg, 0.05 * grid.length),
        )
    raise ConfigError(f"scenario {name!r} has no initial velocity")


def _csv_header(cfg: RunConfig) -> str:
    cols = ["t", "energy"]
    cols += [f"mom_{i + 1}" for i in range(cfg.dimension)]
    cols.append("sup_grad_u")
    cols += [f"h_norm_{q:g}" for q in cfg.norms]
    return ",".join(cols)


def _csv_row(d: Diagnostics, norms: tuple[float, ...]) -> str:
    vals = [d.t, d.energy, *d.total_momentum.tolist(), d.sup_velocity_gradient]
    vals += [d.sobolev_norms[q] for q in norms]
    return ",".join(fmt(v) for v in vals)


def run_evolution(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    grid = TorusGrid(cfg.dimension, cfg.points, cfg.length)
    u0 = _initial_velocity(cfg, grid)
    mult = build_metric(cfg, grid)
    state = EulerState.from_velocity(mult, u0)
    threshold = cfg.blowup_threshold
    if threshold is None:
        threshold = default_blowup_threshold(state)

    csv_buf = io.StringIO()
    csv_buf.write(_csv_header(cfg) + "\n")

    def emit(d: Diagnostics) -> None:
        csv_buf.write(_csv_row(d, cfg.norms) + "\n")
        if not quiet:
            print(f"t={d.t:.6g} energy={d.energy:.12g} sup_grad={d.sup_velocity_gradient:.6g}")

    result = integrate(
        mult, state, cfg.t_end, cfg.dt,
        cadence=cfg.cadence, norm_orders=cfg.norms,
        grad_threshold=threshold, callback=emit,
    )
    (out_dir / "diagnostics.csv").write_text(csv_buf.getvalue())

    verdict = detect_blowup(result)
    if result.blown_up:
        if not quiet:
            print("threshold crossed; rerunning at dt/2 for confirmation")
        refined = integrate(
            mult, state, cfg.t_end, cfg.dt / 2,
            cadence=2 * cfg.cadence, norm_orders=(), grad_threshold=threshold,
        )
        verdict = detect_blowup(result, refined)

    diags = result.diagnostics
    e0, e1 = diags[0].energy, diags[-1].energy
    lines = [
        f"scenario: {cfg.scenario}",
        f"status: {result.status}",
        f"blowup: {verdict.summary() if verdict.kind != 'none' else 'none'}",
        f"blowup_threshold: {fmt(threshold)}",
        f"t_final: {fmt(diags[-1].t)}",
        f"energy_initial: {fmt(e0)}",
        f"energy_final: {fmt(e1)}",
        f"energy_drift_rel: {fmt(abs(e1 - e0) / abs(e0)) if e0 != 0 else '0'}",
        f"momentum_drift_abs: {fmt(max(np.abs(d.total_momentum - diags[0].total_momentum).max() for d in diags))}",
        f"sup_grad_final: {fmt(diags[-1].sup_velocity_gradient)}",
    ]
    if cfg.norms:
        probe = regularity_probe(diags, cfg.norms)
        for q in sorted(probe.ratios):
            lines.append(f"norm_ratio_h{q:g}: {fmt(probe.ratios[q])}")
        lines.append(f"regularity_bounded: {probe.passed}")
    _write_lines(out_dir / "summary.txt", lines)

    if result.status == "nan_abort":
        return EXIT_NUMERICAL
    if verdict.kind != "none":
        return EXIT_BLOWUP
    return EXIT_OK


# --- audit scenarios --------------------------------------------------------------

def _audit_symbol(cfg: RunConfig, grid: TorusGrid) -> MatrixSymbol:
    which = cfg.scenario_params.get("symbol", "metric")
    if which == "metric":
        if cfg.metric_kind == "sobolev":
            return sobolev_symbol(cfg.s, grid.dim)
        return build_metric(cfg, grid).symbol
    if which == "shear_laplacian":
        t = param_float(cfg, "shear_t", 1.0, positive=False)
        if cfg.dimension != 2:
            raise ConfigError("shear_laplacian audits need [grid] dimension = 2")
        return shear_laplacian_symbol(t)
    raise ConfigError(f"unknown audit symbol {which!r} (use metric or shear_laplacian)")


def run_symbol_audit(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    grid = TorusGrid(cfg.dimension, cfg.points, cfg.length)
    symbol = _audit_symbol(cfg, grid)
    sphere = param_int(cfg, "sphere_samples", 4096, minimum=2)

    blocks: list[list[str]] = []
    verdicts: list[bool] = []

    def add(title: str, cert) -> None:
        blocks.append([f"[{title}]"] + cert.report_lines())
        verdicts.append(cert.verdict)

    add("order_estimate", check_order_estimate(symbol, max_alpha=2))
    add("ellipticity", check_ellipticity(symbol))
    if symbol.principal is not None:
        add("normal_ellipticity", check_normal_ellipticity(symbol, sphere_samples=sphere))
        add("strong_ellipticity", check_strong_ellipticity(symbol, sphere_samples=sphere))
    if symbol.hermitian and symbol.positive_definite:
        root = sqrt_symbol(symbol)
        rng = np.random.default_rng(cfg.seed)
        pts = rng.uniform(-100, 100, size=(10_000, symbol.dim))
        roots = root(pts)
        residual = float(
            np.abs(roots @ roots - symbol(pts)).max()
            / max(np.abs(symbol(pts)).max(), 1e-300)
        )
        blocks.append([
            "[square_root]",
            f"kind: square_root_roundtrip",
            f"verdict: {'pass' if residual <= 1e-12 else 'fail'}",
            f"measured_constant: {fmt(residual)}",
            f"sampling: 10000 uniform points in [-100, 100]^d, seed {cfg.seed}",
        ])
        verdicts.append(residual <= 1e-12)
        add("sqrt_order_estimate", check_order_estimate(root, max_alpha=2))
        add("sqrt_ellipticity", check_ellipticity(root))

    text: list[str] = []
    for block in blocks:
        text.extend(block)
        text.append("")
    header = [
        f"symbol: {symbol.name}",
        "weight_convention: (1 + |2 pi xi|^2)^(rho/2); constants under the plain "
        "(1 + |xi|^2)^(rho/2) convention differ by powers of 2 pi",
        "",
    ]
    _write_lines(out_dir / "certificates.txt", header + text[:-1])

    all_pass = all(verdicts)
    _write_lines(out_dir / "summary.txt", [
        "scenario: symbol_audit",
        f"symbol: {symbol.name}",
        f"certificates: {len(verdicts)}",
        f"all_pass: {all_pass}",
    ])
    if not quiet:
        print(f"symbol audit: {sum(verdicts)}/{len(verdicts)} certificates passed")
    return EXIT_OK


def run_conjugation_audit(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    if cfg.dimension not in CONVOLUTION_GRID_LIMIT:
        raise ConfigError("conjugation_audit supports dimension 1 or 2 only")
    limit = CONVOLUTION_GRID_LIMIT[cfg.dimension]
    if cfg.points > limit:
        raise ConfigError(
            f"conjugation_audit cost guard: dimension {cfg.dimension} allows points <= {limit}"
        )
    grid = TorusGrid(cfg.dimension, cfg.points, cfg.length)
    if cfg.metric_kind != "sobolev":
        raise ConfigError("conjugation_audit needs the sobolev metric")
    symbol = sobolev_symbol(cfg.s, grid.dim)
    mult = _build_elliptic(symbol, grid)
    draws = param_int(cfg, "draws", 10, minimum=1)
    rng = np.random.default_rng(cfg.seed)

    def random_headroom(order: int) -> SpectralVectorField:
        kmax = (grid.n // 2 - 1) // (order + 1)
        u = SpectralVectorField.from_samples(grid, rng.standard_normal((grid.dim,) + grid.shape))
        keep = np.max(np.abs(grid.wavenumbers), axis=0) <= kmax
        return SpectralVectorField(grid, u.coeffs * keep)

    blocks: list[list[str]] = []
    verdicts: list[bool] = []

    orders = (1, 2) if cfg.dimension == 1 else (1,)
    for order in orders:
        worst = 0.0
        for _ in range(draws):
            fields = [random_headroom(order) for _ in range(order + 1)]
            rec = apply_An_recursive(mult, order, *fields)
            conv = apply_An_convolution(mult, order, *fields)
            scale = max(np.abs(rec.coeffs).max(), np.abs(conv.coeffs).max(), 1e-300)
            worst = max(worst, float(np.abs(rec.coeffs - conv.coeffs).max() / scale))
        ok = worst <= 1e-10
        blocks.append([
            f"[oracle_equivalence_n{order}]",
            "kind: operator_vs_convolution",
            f"verdict: {'pass' if ok else 'fail'}",
            f"measured_constant: {fmt(worst)}",
            f"sampling: {draws} random band-limited draws, seed {cfg.seed}",
        ])
        verdicts.append(ok)

    for order in (1, 2):
        lo = estimate_Cn(symbol, order, xi_max=500.0, seed=cfg.seed)
        hi = estimate_Cn(symbol, order, xi_max=1000.0, seed=cfg.seed)
        change = (hi.max_ratio - lo.max_ratio) / lo.max_ratio if lo.max_ratio > 0 else 0.0
        ok = bool(np.isfinite(hi.max_ratio) and change < 0.05)
        blocks.append([
            f"[envelope_n{order}]",
            "kind: growth_envelope_stability",
            f"verdict: {'pass' if ok else 'fail'}",
            f"ratio_ximax_500: {fmt(lo.max_ratio)}",
            f"ratio_ximax_1000: {fmt(hi.max_ratio)}",
            f"relative_change: {fmt(change)}",
            f"sampling: {hi.sampling}",
        ])
        verdicts.append(ok)

    for order in (1, 2):
        report = verify_sn_identity(symbol, order, num_tuples=100, seed=cfg.seed)
        blocks.append([f"[frozen_tensor_identity_n{order}]"] + report.report_lines())
        verdicts.append(report.passed)

    text: list[str] = []
    for block in blocks:
        text.extend(block)
        text.append("")
    _write_lines(out_dir / "certificates.txt", [f"symbol: {symbol.name}", ""] + text[:-1])

    all_pass = all(verdicts)
    _write_lines(out_dir / "summary.txt", [
        "scenario: conjugation_audit",
        f"checks: {len(verdicts)}",
        f"all_pass: {all_pass}",
    ])
    if not quiet:
        print(f"conjugation audit: {sum(verdicts)}/{len(verdicts)} checks passed")
    return EXIT_OK


def run_consistency(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    grid = TorusGrid(cfg.dimension, cfg.points, cfg.length)
    u0 = _initial_velocity(cfg, grid)
    mult = build_metric(cfg, grid)

    eulerian = integrate(mult, EulerState.from_velocity(mult, u0), cfg.t_end, cfg.dt,
                         cadence=max(cfg.cadence, 1), norm_orders=cfg.norms)
    lagrangian = integrate_geodesic(
        mult, GeodesicState(DiffeoChart.identity(grid), u0), cfg.t_end, cfg.dt
    )[-1]
    u_lag = compose(lagrangian.v, invert(lagrangian.phi))
    sup_gap = float(np.abs(u_lag.samples() - eulerian.final_state.u.samples()).max())
    e_eul = eulerian.diagnostics[-1].energy
    e_lag = lagrangian_energy(mult, lagrangian)
    tol = param_float(cfg, "tolerance", 1e-6)

    _write_lines(out_dir / "summary.txt", [
        "scenario: consistency",
        f"t_final: {fmt(cfg.t_end)}",
        f"sup_velocity_gap: {fmt(sup_gap)}",
        f"tolerance: {fmt(tol)}",
        f"consistency_pass: {sup_gap <= tol}",
        f"min_jacobian_det: {fmt(lagrangian.phi.min_det)}",
        f"energy_eulerian: {fmt(e_eul)}",
        f"energy_lagrangian: {fmt(e_lag)}",
        f"energy_gap_rel: {fmt(abs(e_lag - e_eul) / abs(e_eul))}",
    ])
    if not quiet:
        print(f"consistency: sup velocity gap {sup_gap:.3e} (tolerance {tol:g})")
    return EXIT_OK


SCENARIOS: dict[str, tuple[str, str, Callable[[RunConfig, Path, bool], int]]] = {
    "gaussian_blob": (
        "smooth localized velocity bump evolved under EPDiff",
        "grid, metric, integrator; scenario: amplitude, width",
        run_evolution,
    ),
    "random_bandlimited": (
        "random band-limited datum with prescribed Sobolev norm",
        "grid, metric, integrator; scenario: kmax, norm_order, target_norm",
        run_evolution,
    ),
    "peakon_pair": (
        "odd colliding-bump datum probing finite-time gradient blow-up",
        "grid, metric, integrator; scenario: amplitude, separation, width",
        run_evolution,
    ),
    "symbol_audit": (
        "order/ellipticity/positivity/square-root certificates for a symbol",
        "grid, metric; scenario: symbol (metric|shear_laplacian), shear_t, sphere_samples",
        run_symbol_audit,
    ),
    "conjugation_audit": (
        "derivative-tower oracle equivalence, growth envelopes, tensor identity",
        "grid (small), metric sobolev; scenario: draws",
        run_conjugation_audit,
    ),
    "consistency": (
        "Eulerian vs Lagrangian geodesic solver cross-validation",
        "grid, metric, integrator; scenario: amplitude, width, tolerance",
        run_consistency,
    ),
}


def list_scenarios_text() -> str:
    lines = ["available scenarios:", ""]
    for name, (desc, keys, _) in SCENARIOS.items():
        lines.append(f"{name}")
        lines.append(f"  {desc}")
        lines.append(f"  config keys: {keys}")
    return "\n".join(lines)


def run_scenario(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = SCENARIOS[cfg.scenario][2]
    return runner(cfg, out_dir, quiet)
