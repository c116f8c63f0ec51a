"""The four benchmark workloads: set-up, one verdict, and its correctness gates.

Each workload stresses a different layer, so a change to one layer shows on
the workload it targets and should leave the others unchanged:

* ``blowup_1d`` runs Camassa-Holm colliding bumps to a blow-up verdict
  confirmed by the dt/2 rerun.  It is the only workload with CFL halvings,
  retries and per-step threshold checks, and it is bound by Python call
  overhead (d=1, n=256), not by transforms.
* ``bandlimited_3d`` steps a seeded random band-limited datum on the 32^3 grid
  with no CFL halving.  It is bound by padded FFTs and has the largest
  buffers.
* ``crosscheck_1d`` runs the Eulerian and the Lagrangian solver and compares
  them; it is the only workload that runs spline ``compose``, Newton
  ``invert`` and the spray.
* ``tower_oracle`` checks the derivative tower against the brute-force
  convolution oracle and runs the symbol certificates; its transforms are
  tiny (n <= 16), so per-call overhead dominates.

Set-up builds what the command line would build before its first step: the
config, the grid, the multiplier (with its ellipticity certificate and
inverse table) and the initial data; for ``tower_oracle`` also the
convolution kernels and the seeded draws.  The scenario workloads then run
the scenario exactly as ``epdifflab run`` does, which rebuilds its own
multiplier from the config.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from epdifflab import epdiff, lagrangian, scenarios
from epdifflab.config import load_config
from epdifflab.conjugation import (
    ConvolutionKernel,
    apply_An_recursive,
    estimate_Cn,
    verify_sn_identity,
)
from epdifflab.epdiff import EulerState, gaussian_blob, peakon_pair, random_bandlimited
from epdifflab.grid import SpectralVectorField, TorusGrid
from epdifflab.operators import sobolev_multiplier
from epdifflab.scenarios import EXIT_BLOWUP, EXIT_OK, fmt, run_scenario
from epdifflab.symbols import (
    check_ellipticity,
    check_normal_ellipticity,
    check_order_estimate,
    check_strong_ellipticity,
    shear_laplacian_symbol,
    sobolev_symbol,
    sqrt_symbol,
)

CONFIGS = Path(__file__).resolve().parent / "configs"

# Acceptance tolerances of the repository; never loosened here.
ENERGY_DRIFT_TOL = 1e-6
CROSSCHECK_TOL = 1e-6
ORACLE_TOL = 1e-10
SQRT_TOL = 1e-12
ENVELOPE_CHANGE_TOL = 0.05


@dataclass
class Verdict:
    """Outcome of one verdict: gate results, accuracy values, output bytes, work done."""

    gates: dict[str, bool]
    accuracy: dict[str, float]
    outputs: bytes
    work: int


class StepCounter:
    """Counts outer time steps by observing the integrators the scenarios call.

    The observers look the integrators up on their defining modules at call
    time, so spans recorded by the tracer there still see every call.
    """

    def __init__(self) -> None:
        self.steps = 0
        scenarios.integrate = self._observer(epdiff, "integrate", lambda r: r.final_state.t)
        scenarios.integrate_geodesic = self._observer(lagrangian, "integrate_geodesic",
                                                      lambda r: r[-1].t)

    def _observer(self, module, name: str, final_time: Callable):
        def observed(mult, state, t_end, dt, *args, **kwargs):
            result = getattr(module, name)(mult, state, t_end, dt, *args, **kwargs)
            self.steps += round((final_time(result) - state.t) / dt)
            return result

        return observed


def _summary(path: Path) -> dict[str, str]:
    lines = path.read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines if ": " in line)


class ScenarioWorkload:
    """A config-driven scenario run through ``run_scenario``, as the CLI runs it."""

    work_unit = "outer steps"

    def __init__(self, config: str, initial: Callable, gates: Callable) -> None:
        self.config = CONFIGS / config
        self.initial = initial
        self.gates = gates
        self.counter = StepCounter()

    def setup(self, seed: int, out_dir: Path):
        cfg = load_config(self.config)
        cfg = dataclasses.replace(cfg, seed=seed, output=out_dir)
        grid = TorusGrid(cfg.dimension, cfg.points, cfg.length)
        mult = sobolev_multiplier(cfg.s, grid)
        EulerState.from_velocity(mult, self.initial(cfg, grid))
        return cfg

    def verdict(self, cfg) -> Verdict:
        before = self.counter.steps
        code = run_scenario(cfg, cfg.output, quiet=True)
        files = [cfg.output / "diagnostics.csv", cfg.output / "summary.txt"]
        outputs = b"".join(f.read_bytes() for f in files if f.is_file())
        gates, accuracy = self.gates(code, _summary(cfg.output / "summary.txt"))
        return Verdict(gates, accuracy, outputs, self.counter.steps - before)


def _param(cfg, key: str) -> float:
    return float(cfg.scenario_params[key])


def _blowup_gates(code: int, summary: dict[str, str]):
    t_star, _, confirmed = summary["blowup"].partition(" ")
    gates = {"exit_code_blowup": code == EXIT_BLOWUP,
             "blowup_confirmed_within_5pct": confirmed == "confirmed=True"}
    return gates, {"t_star": float(t_star.removeprefix("t="))}


def _bandlimited_gates(code: int, summary: dict[str, str]):
    drift = float(summary["energy_drift_rel"])
    gates = {"exit_code_ok": code == EXIT_OK,
             "status_completed": summary["status"] == "completed",
             "energy_drift_below_1e-6": drift < ENERGY_DRIFT_TOL}
    return gates, {"energy_drift_rel": drift}


def _crosscheck_gates(code: int, summary: dict[str, str]):
    gap = float(summary["sup_velocity_gap"])
    gates = {"exit_code_ok": code == EXIT_OK,
             "consistency_pass": summary["consistency_pass"] == "True",
             "sup_gap_at_most_1e-6": gap <= CROSSCHECK_TOL}
    return gates, {"sup_velocity_gap": gap, "energy_gap_rel": float(summary["energy_gap_rel"])}


def _headroom_draw(grid: TorusGrid, order: int, rng) -> list[SpectralVectorField]:
    """Order+1 random fields band-limited so the order-n tower stays on the lattice."""
    kmax = (grid.n // 2 - 1) // (order + 1)
    keep = np.max(np.abs(grid.wavenumbers), axis=0) <= kmax
    fields = []
    for _ in range(order + 1):
        u = SpectralVectorField.from_samples(grid, rng.standard_normal((grid.dim,) + grid.shape))
        fields.append(SpectralVectorField(grid, u.coeffs * keep))
    return fields


class TowerOracle:
    """Acceptance-1 oracle cases over seeded draws, plus the symbol certificates."""

    work_unit = "oracle draws"
    CASES = ((1, 16, 1), (1, 16, 2), (2, 8, 1), (2, 8, 2))  # (dim, n, order)
    DRAWS_PER_CASE = 10

    def setup(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        mults = {}
        cases = []
        for dim, n, order in self.CASES:
            if (dim, n) not in mults:
                mults[dim, n] = sobolev_multiplier(1.0, TorusGrid(dim, n))
            mult = mults[dim, n]
            kernel = ConvolutionKernel(mult, order)
            draws = [_headroom_draw(mult.grid, order, rng) for _ in range(self.DRAWS_PER_CASE)]
            cases.append((mult, order, kernel, draws))
        return seed, cases, out_dir

    def verdict(self, ctx) -> Verdict:
        seed, cases, out_dir = ctx
        gates: dict[str, bool] = {}
        lines: list[str] = []
        worst_all = 0.0
        draws = 0
        for mult, order, kernel, fields_list in cases:
            worst = 0.0
            for fields in fields_list:
                rec = apply_An_recursive(mult, order, *fields)
                conv = kernel.apply(*fields)
                scale = max(np.abs(rec.coeffs).max(), np.abs(conv.coeffs).max(), 1e-300)
                worst = max(worst, float(np.abs(rec.coeffs - conv.coeffs).max() / scale))
                draws += 1
            worst_all = max(worst_all, worst)
            lines.append(f"oracle_d{mult.grid.dim}_n{mult.grid.n}_order{order}: {fmt(worst)}")
        gates["oracle_error_at_most_1e-10"] = worst_all <= ORACLE_TOL

        metric = sobolev_symbol(1.0, 1)
        for order in (1, 2):
            lo = estimate_Cn(metric, order, xi_max=500.0, seed=seed)
            hi = estimate_Cn(metric, order, xi_max=1000.0, seed=seed)
            change = (hi.max_ratio - lo.max_ratio) / lo.max_ratio
            gates[f"envelope_n{order}_stable"] = bool(
                np.isfinite(hi.max_ratio) and change < ENVELOPE_CHANGE_TOL)
            lines += lo.report_lines(f"envelope_n{order}_lo.") + hi.report_lines(f"envelope_n{order}_hi.")

        for dim in (1, 2):
            for order in (1, 2):
                report = verify_sn_identity(sobolev_symbol(1.5, dim), order, num_tuples=100, seed=seed)
                gates[f"sn_identity_d{dim}_n{order}"] = report.passed
                lines += report.report_lines(f"sn_identity_d{dim}_n{order}.")

        # (certificate, expected verdict): the strong-ellipticity flip across t = 2
        certificates = [
            (f"strong_t{t:g}", check_strong_ellipticity(shear_laplacian_symbol(t), 10_000), want)
            for t, want in ((1.99, True), (2.01, False))
        ] + [
            (f"normal_t{t:g}", check_normal_ellipticity(shear_laplacian_symbol(t), 10_000), True)
            for t in (0.0, 1.0, 5.0, 100.0)
        ]
        rng = np.random.default_rng(seed)
        for dim in (1, 2):
            symbol = sobolev_symbol(1.5, dim)
            root = sqrt_symbol(symbol)
            pts = rng.uniform(-200.0, 200.0, size=(10_000, dim))
            values = symbol(pts)
            roots = root(pts)
            residual = float(np.abs(roots @ roots - values).max() / np.abs(values).max())
            gates[f"sqrt_d{dim}_roundtrip"] = residual <= SQRT_TOL
            lines.append(f"sqrt_d{dim}_residual: {fmt(residual)}")
            certificates += [
                (f"sqrt_d{dim}_order", check_order_estimate(root, max_alpha=2), True),
                (f"sqrt_d{dim}_elliptic", check_ellipticity(root), True),
            ]
        for name, cert, want in certificates:
            gates[f"{name}_verdict"] = cert.verdict == want
            lines += cert.report_lines(f"{name}.")

        text = ("\n".join(lines) + "\n").encode()
        (out_dir / "summary.txt").write_bytes(text)
        return Verdict(gates, {"oracle_error": worst_all}, text, draws)


# Factories: building a scenario workload installs its step counter, so a
# process builds exactly one workload.
WORKLOADS: dict[str, Callable[[], object]] = {
    "blowup_1d": lambda: ScenarioWorkload(
        "blowup_1d.ini",
        lambda cfg, grid: peakon_pair(grid, _param(cfg, "amplitude"), _param(cfg, "separation"),
                                      _param(cfg, "width")),
        _blowup_gates,
    ),
    "bandlimited_3d": lambda: ScenarioWorkload(
        "bandlimited_3d.ini",
        lambda cfg, grid: random_bandlimited(grid, int(_param(cfg, "kmax")),
                                             _param(cfg, "norm_order"), _param(cfg, "target_norm"),
                                             seed=cfg.seed),
        _bandlimited_gates,
    ),
    "crosscheck_1d": lambda: ScenarioWorkload(
        "crosscheck_1d.ini",
        lambda cfg, grid: gaussian_blob(grid, _param(cfg, "amplitude"), _param(cfg, "width")),
        _crosscheck_gates,
    ),
    "tower_oracle": TowerOracle,
}
