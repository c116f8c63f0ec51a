"""Command-line entry point: config-driven experiment runner.

Usage:
    epdifflab run <config.ini> [--output-dir DIR] [--seed N] [--quiet]
    epdifflab list-scenarios

Exit codes: 0 the run finished (its verdict in summary.txt, such as
``all_pass`` or ``consistency_pass``, may still be False), 2 blow-up detected
(outputs still written), 3 invalid configuration, 4 numerical abort
(non-finite state, a degenerate Lagrangian chart, a failed chart inversion,
or any other ``ValueError``, ``numpy.linalg.LinAlgError`` included, raised
while the run computes).  Exits 3 and 4 print one line to stderr.
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
        return run_scenario(cfg, cfg.output, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (FloatingPointError, ChartError, InversionError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # after ConfigError, which is one; so is LinAlgError
        message = " ".join(str(exc).split())
        print(f"numerical abort: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
