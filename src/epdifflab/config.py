"""Flat key=value run configuration: parsing and up-front validation.

Configs are INI-style text with fixed sections (no interpolation, no
includes), so an experiment's provenance is a short diffable file.  Every
numeric field is validated before any work starts; violations raise
:class:`ConfigError`, which the CLI maps to exit code 3.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .epdiff import step_count
from .grid import TorusGrid

# Largest grid, in points^dimension (128^3): every field of a run is this
# large, and the padded grid (3/2)^dimension times larger.
MAX_GRID_POINTS = 2**21

# Most unit-sphere directions of a symbol audit and most oracle draws per order
# of a conjugation audit: the shipped configs use 10^4 and 10, and 10^11
# directions once asked numpy for 745 GiB.
MAX_SPHERE_SAMPLES = 10**5
MAX_DRAWS = 10**4


# The keys of each fixed section.  [scenario] holds ``name`` and the keys of
# the named scenario's registry entry; any other section or key is an error.
_SECTION_KEYS = {
    "grid": ("dimension", "points", "length"),
    "metric": ("kind", "s", "table"),
    "integrator": ("dt", "t_end", "cadence"),
    "run": ("seed", "blowup_threshold", "norms", "output"),
}


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or violates a guard."""


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description."""

    dimension: int
    points: int
    length: float
    metric_kind: str  # sobolev | custom-table
    s: Optional[float]
    table_path: Optional[Path]
    dt: float
    t_end: float
    cadence: int
    scenario: str
    scenario_params: dict = field(default_factory=dict)
    seed: int = 0
    blowup_threshold: Optional[float] = None  # None = scale-aware default
    norms: tuple[float, ...] = ()
    output: Path = Path("out")


def _get(parser: configparser.ConfigParser, section: str, key: str, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    return parser.get(section, key)


def _as_float(raw: str, where: str, positive: bool = False) -> float:
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not a number: {raw!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{where}: must be finite, got {raw!r}")
    if positive and not val > 0:
        raise ConfigError(f"{where}: must be positive, got {val}")
    return val


def _as_int(raw: str, where: str, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    try:
        val = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not an integer: {raw!r}") from exc
    if minimum is not None and val < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{where}: must be <= {maximum}, got {val}")
    return val


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in ("grid", "scenario"):
        if not parser.has_section(section):
            raise ConfigError(f"missing [{section}] section")
    for section in parser.sections():
        if section == "scenario":
            continue
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]; the sections are "
                              f"{', '.join(f'[{name}]' for name in (*_SECTION_KEYS, 'scenario'))}")
        unknown = sorted(set(parser.options(section)).difference(_SECTION_KEYS[section]))
        if unknown:
            raise ConfigError(f"[{section}] {', '.join(unknown)}: unknown key; the keys of "
                              f"[{section}] are {', '.join(_SECTION_KEYS[section])}")

    dimension = _as_int(_get(parser, "grid", "dimension", required=True), "[grid] dimension")
    points = _as_int(_get(parser, "grid", "points", required=True), "[grid] points")
    length = _as_float(_get(parser, "grid", "length", "1.0"), "[grid] length")
    try:
        TorusGrid(dimension, points, length)  # allocates nothing
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc
    if points**dimension > MAX_GRID_POINTS:
        raise ConfigError(
            f"[grid] points^dimension = {points}^{dimension} exceeds the largest grid, "
            f"{MAX_GRID_POINTS} points"
        )

    metric_kind = _get(parser, "metric", "kind", "sobolev")
    if metric_kind not in ("sobolev", "custom-table"):
        raise ConfigError(f"[metric] kind must be sobolev or custom-table, got {metric_kind!r}")
    s = None
    table_path = None
    if metric_kind == "sobolev":
        s = _as_float(_get(parser, "metric", "s", required=True), "[metric] s")
        if s < 0:
            raise ConfigError(f"[metric] s must be >= 0, got {s}")
    else:
        raw = _get(parser, "metric", "table", required=True)
        table_path = Path(raw)
        if not table_path.is_absolute():
            table_path = path.parent / table_path
        if not table_path.is_file():
            raise ConfigError(f"[metric] table file not found: {table_path}")

    from .scenarios import SCENARIOS  # scenarios imports this module

    scenario = _get(parser, "scenario", "name", required=True)
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose one of {', '.join(SCENARIOS)}")
    entry = SCENARIOS[scenario]
    scenario_params = {k: v for k, v in parser.items("scenario") if k != "name"}
    unknown = sorted(scenario_params.keys() - set(entry.keys))
    if unknown:
        raise ConfigError(
            f"[scenario] {', '.join(unknown)}: not read by {scenario!r}, whose keys are "
            f"{', '.join(('name',) + entry.keys)}"
        )

    dt = t_end = 1.0
    cadence = 1
    if entry.initial is not None:
        if not parser.has_section("integrator"):
            raise ConfigError(f"scenario {scenario!r} needs an [integrator] section")
        dt = _as_float(_get(parser, "integrator", "dt", required=True), "[integrator] dt", positive=True)
        t_end = _as_float(_get(parser, "integrator", "t_end", required=True), "[integrator] t_end", positive=True)
        cadence = _as_int(_get(parser, "integrator", "cadence", "1"), "[integrator] cadence", minimum=1)
        # the integrators' own rule, step cap included, at dt and at the dt/2 of
        # the rerun that confirms a blow-up
        for step, rerun in ((dt, ""), (dt / 2, "the dt/2 rerun that confirms a blow-up: ")):
            try:
                step_count(0.0, t_end, step)
            except ValueError as exc:
                raise ConfigError(f"[integrator] {rerun}{exc}") from exc

    seed = _as_int(_get(parser, "run", "seed", "0"), "[run] seed", minimum=0)
    thr_raw = _get(parser, "run", "blowup_threshold", "auto")
    blowup_threshold = None if thr_raw == "auto" else _as_float(
        thr_raw, "[run] blowup_threshold", positive=True
    )
    norms_raw = _get(parser, "run", "norms", "")
    norms = tuple(
        _as_float(tok.strip(), "[run] norms") for tok in norms_raw.split(",") if tok.strip()
    )
    # the H^q norm sums the squared weight (1 + 4 pi^2 |xi|^2)^q, which must
    # stay finite at the lattice corner |xi| = sqrt(d) (n/2) / L
    kmax = points / 2 / length
    corner = 1.0 + 4.0 * math.pi**2 * dimension * kmax * kmax
    for q in norms:
        if q > 0 and q * math.log(corner) >= math.log(sys.float_info.max):
            raise ConfigError(f"[run] norms: the H^{q:g} weight overflows at the grid's largest frequency")
    output = Path(_get(parser, "run", "output", "out"))

    return RunConfig(
        dimension=dimension,
        points=points,
        length=length,
        metric_kind=metric_kind,
        s=s,
        table_path=table_path,
        dt=dt,
        t_end=t_end,
        cadence=cadence,
        scenario=scenario,
        scenario_params=scenario_params,
        seed=seed,
        blowup_threshold=blowup_threshold,
        norms=norms,
        output=output,
    )


def param_float(cfg: RunConfig, key: str, default: float, positive: bool = True) -> float:
    raw = cfg.scenario_params.get(key)
    if raw is None:
        return default
    return _as_float(raw, f"[scenario] {key}", positive=positive)


def param_int(cfg: RunConfig, key: str, default: int, minimum: int = 0, maximum: Optional[int] = None) -> int:
    raw = cfg.scenario_params.get(key)
    if raw is None:
        return default
    return _as_int(raw, f"[scenario] {key}", minimum=minimum, maximum=maximum)
