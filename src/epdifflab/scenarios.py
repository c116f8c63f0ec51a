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
import zipfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import MAX_DRAWS, MAX_SPHERE_SAMPLES, ConfigError, RunConfig, param_float, param_int
from .conjugation import (
    apply_An_convolution,
    apply_An_recursive,
    check_oracle_cost,
    estimate_Cn,
    headroom_band,
    verify_sn_identity,
)
from .epdiff import (
    MAX_SUBSTEP_DOUBLINGS,
    Diagnostics,
    EulerState,
    bandlimited_draw,
    default_blowup_threshold,
    detect_blowup,
    gaussian_blob,
    integrate,
    peakon_pair,
    random_bandlimited,
)
from .grid import SpectralVectorField, TorusGrid
from .lagrangian import (
    ChartError,
    DiffeoChart,
    GeodesicState,
    InversionError,
    integrate_geodesic,
    lagrangian_energy,
    regularity_probe,
)
from .operators import EllipticityError, FourierMultiplier, conjugate_symmetry_error
from .symbols import (
    ClassCertificate,
    MatrixSymbol,
    check_ellipticity,
    check_normal_ellipticity,
    check_order_estimate,
    check_strong_ellipticity,
    shear_laplacian_symbol,
    sobolev_symbol,
    sqrt_symbol,
    _check_flags,
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


def _build_elliptic(symbol: MatrixSymbol, grid: TorusGrid, **kwargs) -> FourierMultiplier:
    """The multiplier of a configured symbol; a symbol failing its checks is a config error."""
    try:
        return FourierMultiplier.build_elliptic(symbol, grid, **kwargs)
    except EllipticityError as exc:
        raise ConfigError(f"[metric] {exc}") from exc


def _read_table(path: Path) -> tuple[np.ndarray, float, bool, bool]:
    """Table, order and flags of a custom-table npz archive; an unreadable one is a config error."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with data:
            arrays = {key: data[key] for key in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"custom table {path} is not a readable npz archive ({type(exc).__name__})") from exc
    for key in ("table", "order"):
        if key not in arrays:
            raise ConfigError(f"custom table {path} missing array {key!r}")
    try:
        return (np.asarray(arrays["table"], dtype=complex), float(arrays["order"]),
                bool(arrays.get("hermitian", True)), bool(arrays.get("positive_definite", True)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"custom table {path}: {exc}") from exc


def build_metric(cfg: RunConfig, grid: TorusGrid) -> FourierMultiplier:
    if cfg.metric_kind == "sobolev":
        return _build_elliptic(sobolev_symbol(cfg.s, grid.dim), grid)
    table, order, hermitian, positive_definite = _read_table(cfg.table_path)
    expected = grid.shape + (grid.dim, grid.dim)
    if table.shape != expected:
        raise ConfigError(
            f"custom table shape {table.shape} does not match grid (expected {expected})"
        )
    error = conjugate_symmetry_error(table, grid)
    if error is not None:
        raise ConfigError(f"custom table {cfg.table_path} {error}")
    symbol = lattice_table_symbol(
        table,
        grid,
        order=order,
        hermitian=hermitian,
        positive_definite=positive_definite,
        name=f"table:{cfg.table_path.name}",
    )
    # certify within the represented band only
    mult = _build_elliptic(symbol, grid, xi_max=0.45 * grid.n / grid.length)
    try:  # the declared flags must hold on the whole table
        _check_flags(table.reshape(-1, grid.dim, grid.dim), grid.frequency_points(),
                    symbol.hermitian, symbol.positive_definite)
    except ValueError as exc:
        raise ConfigError(f"custom table {cfg.table_path} contradicts its flags: {exc}") from exc
    return mult


# --- time-evolution scenarios ---------------------------------------------------

def _bump_width(cfg: RunConfig, default: float) -> float:
    """The ``width`` key; the bump's sharpness ``(L / (2 pi width))^2`` must be a finite float."""
    width = param_float(cfg, "width", default)
    if cfg.length / (2 * math.pi * width) > math.sqrt(sys.float_info.max):
        raise ConfigError(
            f"[scenario] width: {width:g} is too small for a bump on a box of {cfg.length:g}"
        )
    return width


def _blob(cfg: RunConfig, grid: TorusGrid) -> SpectralVectorField:
    return gaussian_blob(
        grid,
        amplitude=param_float(cfg, "amplitude", 0.25),
        width=_bump_width(cfg, 0.1),
    )


def _bandlimited(cfg: RunConfig, grid: TorusGrid) -> SpectralVectorField:
    return random_bandlimited(
        grid,
        kmax=param_int(cfg, "kmax", max(2, grid.n // 8), minimum=1),
        norm_order=param_float(cfg, "norm_order", 1.5),
        target_norm=param_float(cfg, "target_norm", 1.0),
        seed=cfg.seed,
    )


def _peakons(cfg: RunConfig, grid: TorusGrid) -> SpectralVectorField:
    return peakon_pair(
        grid,
        amplitude=param_float(cfg, "amplitude", 0.5),
        separation=param_float(cfg, "separation", 0.25 * grid.length),
        width=_bump_width(cfg, 0.05 * grid.length),
    )


def _initial_state(cfg: RunConfig, grid: TorusGrid) -> tuple[FourierMultiplier, EulerState]:
    """The metric and the initial state.

    A datum whose energy is not finite, or that the CFL guard cannot step even
    at ``dt / 2^MAX_SUBSTEP_DOUBLINGS`` (the run would halt at t = 0 with a
    blow-up verdict), is a config error.
    """
    u0 = SCENARIOS[cfg.scenario].initial(cfg, grid)
    mult = build_metric(cfg, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        state = EulerState.from_velocity(mult, u0)
        energy = state.energy
    if not math.isfinite(energy):
        raise ConfigError(
            f"[scenario] {cfg.scenario}: the initial velocity's energy is {energy:g}; scale the datum down"
        )
    if cfg.dt / 2**MAX_SUBSTEP_DOUBLINGS > state.cfl:
        raise ConfigError(
            f"[scenario] {cfg.scenario}: the initial velocity (sup |u| = {u0.sup_norm():.3g}) needs "
            f"more than 2^{MAX_SUBSTEP_DOUBLINGS} CFL substeps per dt = {cfg.dt:g}; "
            "scale the datum down or lower dt"
        )
    return mult, state


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
    mult, state = _initial_state(cfg, grid)
    threshold = cfg.blowup_threshold
    if threshold is None:
        threshold = default_blowup_threshold(state)
    elif state.sup_gradient > threshold:  # integrate would halt at t = 0
        raise ConfigError(
            f"[run] blowup_threshold = {threshold:g} is below the initial velocity gradient, "
            f"sup |grad u| = {state.sup_gradient:.6g}"
        )

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

    refined = None
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
        f"blowup: {verdict.summary()}",
        f"blowup_threshold: {fmt(threshold)}",
        f"t_final: {fmt(diags[-1].t)}",
        f"energy_initial: {fmt(e0)}",
        f"energy_final: {fmt(e1)}",
        f"energy_drift_rel: {fmt(abs(e1 - e0) / abs(e0)) if e0 != 0 else '0'}",
        f"resolved_until: {'none' if result.resolved_until is None else fmt(result.resolved_until)}",
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

def _audit_symbol(cfg: RunConfig, grid: TorusGrid) -> tuple[MatrixSymbol, ClassCertificate]:
    """The audited symbol and its ellipticity certificate, one for the gate and the report."""
    which = cfg.scenario_params.get("symbol", "metric")
    if "shear_t" in cfg.scenario_params and which != "shear_laplacian":
        raise ConfigError(f"[scenario] shear_t: read only with symbol = shear_laplacian, not {which!r}")
    if which == "metric" and cfg.metric_kind == "sobolev":
        symbol = sobolev_symbol(cfg.s, grid.dim)
        cert = check_ellipticity(symbol)
        if not cert.verdict:
            raise ConfigError(f"[metric] s = {cfg.s:g}: symbol '{symbol.name}' failed the ellipticity check")
        return symbol, cert
    if which == "metric":  # build_metric rejects a failing custom table
        symbol = build_metric(cfg, grid).symbol
    elif which == "shear_laplacian":
        t = param_float(cfg, "shear_t", 1.0, positive=False)
        if cfg.dimension != 2:
            raise ConfigError("shear_laplacian audits need [grid] dimension = 2")
        symbol = shear_laplacian_symbol(t)
    else:
        raise ConfigError(f"unknown audit symbol {which!r} (use metric or shear_laplacian)")
    return symbol, check_ellipticity(symbol)


class _AuditReport:
    """An audit's ``[title]`` blocks and verdicts, written to certificates.txt and summary.txt."""

    def __init__(self, header: list[str]) -> None:
        self.lines = [*header, ""]
        self.verdicts: list[bool] = []

    def block(self, title: str, lines: list[str], verdict: bool) -> None:
        self.lines += [f"[{title}]", *lines, ""]
        self.verdicts.append(verdict)

    def add(self, title: str, cert: ClassCertificate) -> None:
        self.block(title, cert.report_lines(), cert.verdict)

    def write(self, out_dir: Path, quiet: bool, scenario: str, counted: str, summary: list[str]) -> int:
        _write_lines(out_dir / "certificates.txt", self.lines[:-1])
        passed, total = sum(self.verdicts), len(self.verdicts)
        _write_lines(out_dir / "summary.txt", [
            f"scenario: {scenario}", *summary,
            f"{counted}: {total}",
            f"all_pass: {all(self.verdicts)}",
        ])
        if not quiet:
            print(f"{scenario.replace('_', ' ')}: {passed}/{total} {counted} passed")
        return EXIT_OK


def run_symbol_audit(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    sphere = param_int(cfg, "sphere_samples", 4096, minimum=2, maximum=MAX_SPHERE_SAMPLES)
    grid = TorusGrid(cfg.dimension, cfg.points, cfg.length)
    symbol, ellipticity = _audit_symbol(cfg, grid)
    report = _AuditReport([
        f"symbol: {symbol.name}",
        "weight_convention: (1 + |2 pi xi|^2)^(rho/2); constants under the plain "
        "(1 + |xi|^2)^(rho/2) convention differ by powers of 2 pi",
    ])
    report.add("order_estimate", check_order_estimate(symbol, max_alpha=2))
    report.add("ellipticity", ellipticity)
    if symbol.principal is not None:
        report.add("normal_ellipticity", check_normal_ellipticity(symbol, sphere_samples=sphere))
        report.add("strong_ellipticity", check_strong_ellipticity(symbol, sphere_samples=sphere))
    if symbol.hermitian and symbol.positive_definite:
        root = sqrt_symbol(symbol)
        rng = np.random.default_rng(cfg.seed)
        pts = rng.uniform(-100, 100, size=(10_000, symbol.dim))
        values, roots = symbol(pts), root(pts)
        residual = float(np.abs(roots @ roots - values).max() / max(np.abs(values).max(), 1e-300))
        report.add("square_root", ClassCertificate(
            "square_root_roundtrip", residual <= 1e-12, residual,
            f"10000 uniform points in [-100, 100]^d, seed {cfg.seed}",
        ))
        report.add("sqrt_order_estimate", check_order_estimate(root, max_alpha=2))
        report.add("sqrt_ellipticity", check_ellipticity(root))
    return report.write(out_dir, quiet, "symbol_audit", "certificates",
                        [f"symbol: {symbol.name}"])


def run_conjugation_audit(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    grid = TorusGrid(cfg.dimension, cfg.points, cfg.length)
    try:
        check_oracle_cost(grid)
    except ValueError as exc:
        raise ConfigError(f"conjugation_audit: {exc}") from exc
    if cfg.metric_kind != "sobolev":
        raise ConfigError("conjugation_audit needs the sobolev metric")
    draws = param_int(cfg, "draws", 10, minimum=1, maximum=MAX_DRAWS)
    symbol = sobolev_symbol(cfg.s, grid.dim)
    mult = _build_elliptic(symbol, grid)
    rng = np.random.default_rng(cfg.seed)
    report = _AuditReport([f"symbol: {symbol.name}"])

    for order in (1, 2) if cfg.dimension == 1 else (1,):
        kmax = headroom_band(order, grid.n)
        worst = 0.0
        for _ in range(draws):
            fields = [bandlimited_draw(grid, kmax, rng) for _ in range(order + 1)]
            rec = apply_An_recursive(mult, order, *fields)
            conv = apply_An_convolution(mult, order, *fields)
            scale = max(np.abs(rec.coeffs).max(), np.abs(conv.coeffs).max(), 1e-300)
            worst = max(worst, float(np.abs(rec.coeffs - conv.coeffs).max() / scale))
        report.add(f"oracle_equivalence_n{order}", ClassCertificate(
            "operator_vs_convolution", worst <= 1e-10, worst,
            f"{draws} random band-limited draws, seed {cfg.seed}",
        ))

    for order in (1, 2):
        lo = estimate_Cn(symbol, order, xi_max=500.0, seed=cfg.seed)
        hi = estimate_Cn(symbol, order, xi_max=1000.0, seed=cfg.seed)
        change = (hi.max_ratio - lo.max_ratio) / lo.max_ratio if lo.max_ratio > 0 else 0.0
        ok = bool(np.isfinite(hi.max_ratio) and change < 0.05)
        report.block(f"envelope_n{order}", [
            "kind: growth_envelope_stability",
            f"verdict: {'pass' if ok else 'fail'}",
            f"ratio_ximax_500: {fmt(lo.max_ratio)}",
            f"ratio_ximax_1000: {fmt(hi.max_ratio)}",
            f"relative_change: {fmt(change)}",
            f"sampling: {hi.sampling}",
        ], ok)

    for order in (1, 2):
        sn = verify_sn_identity(symbol, order, num_tuples=100, seed=cfg.seed)
        report.block(f"frozen_tensor_identity_n{order}", sn.report_lines(), sn.passed)

    return report.write(out_dir, quiet, "conjugation_audit", "checks", [])


def run_consistency(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    tol = param_float(cfg, "tolerance", 1e-6)
    grid = TorusGrid(cfg.dimension, cfg.points, cfg.length)
    mult, state = _initial_state(cfg, grid)

    try:
        eulerian = integrate(mult, state, cfg.t_end, cfg.dt,
                             cadence=cfg.cadence, norm_orders=cfg.norms)
        lagrangian = integrate_geodesic(
            mult, GeodesicState(DiffeoChart.identity(grid), state.u), cfg.t_end, cfg.dt
        )[-1]
        u_lag = lagrangian.eulerian_velocity()
        e_lag = lagrangian_energy(mult, lagrangian)
    except (ChartError, InversionError) as exc:
        status = "inversion_abort" if isinstance(exc, InversionError) else "chart_abort"
        _write_lines(out_dir / "summary.txt", ["scenario: consistency", f"status: {status}"])
        raise
    sup_gap = float(np.abs(u_lag.samples() - eulerian.final_state.u.samples()).max())
    e_eul = eulerian.diagnostics[-1].energy

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


class Scenario(NamedTuple):
    """One registry entry: what the scenario does, its ``[scenario]`` keys, its
    runner and, for a time evolution, the builder of its initial velocity."""

    description: str
    keys: tuple[str, ...]
    run: Callable[[RunConfig, Path, bool], int]
    initial: Callable[[RunConfig, TorusGrid], SpectralVectorField] | None = None


SCENARIOS: dict[str, Scenario] = {
    "gaussian_blob": Scenario(
        "smooth localized velocity bump evolved under EPDiff",
        ("amplitude", "width"), run_evolution, _blob,
    ),
    "random_bandlimited": Scenario(
        "random band-limited datum with prescribed Sobolev norm",
        ("kmax", "norm_order", "target_norm"), run_evolution, _bandlimited,
    ),
    "peakon_pair": Scenario(
        "odd colliding-bump datum probing finite-time gradient blow-up",
        ("amplitude", "separation", "width"), run_evolution, _peakons,
    ),
    "symbol_audit": Scenario(
        "order/ellipticity/positivity/square-root certificates for a symbol",
        ("symbol", "shear_t", "sphere_samples"), run_symbol_audit,
    ),
    "conjugation_audit": Scenario(
        "derivative-tower oracle equivalence, growth envelopes, tensor identity",
        ("draws",), run_conjugation_audit,
    ),
    "consistency": Scenario(
        "Eulerian vs Lagrangian geodesic solver cross-validation",
        ("amplitude", "width", "tolerance"), run_consistency, _blob,
    ),
}


def list_scenarios_text() -> str:
    lines = ["available scenarios:", ""]
    for name, entry in SCENARIOS.items():
        lines.append(f"{name}")
        lines.append(f"  {entry.description}")
        sections = "grid, metric, integrator" if entry.initial else "grid, metric"
        lines.append(f"  config keys: {sections}; scenario: {', '.join(entry.keys)}")
    return "\n".join(lines)


def run_scenario(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    return SCENARIOS[cfg.scenario].run(cfg, out_dir, quiet)
