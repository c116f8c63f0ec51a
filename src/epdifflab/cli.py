"""Command-line entry point: config-driven experiment runner.

Usage:
    epdifflab run <config.ini> [--output-dir DIR] [--seed N] [--quiet]
    epdifflab list-scenarios

Exit codes: 0 success, 2 blow-up detected (outputs still written),
3 invalid configuration, 4 numerical abort (non-finite state, a degenerate
Lagrangian chart or a failed chart inversion).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .lagrangian import ChartError, InversionError
from .scenarios import EXIT_BAD_CONFIG, EXIT_NUMERICAL, list_scenarios_text, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epdifflab",
        description="Spectral EPDiff laboratory: simulations and symbol audits on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a config file")
    run_p.add_argument("config", help="path to the key=value config file")
    run_p.add_argument("--output-dir", default=None, help="override the [run] output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the [run] seed")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    sub.add_parser("list-scenarios", help="print scenario names and their config keys")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        print(list_scenarios_text())
        return 0

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.output_dir is not None:
            cfg = dataclasses.replace(cfg, output=Path(args.output_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        return run_scenario(cfg, cfg.output, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (FloatingPointError, ChartError, InversionError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
