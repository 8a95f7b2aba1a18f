"""Command-line entry point.

One subcommand per experiment; flags mirror the run config. Exit codes:
0 success, 2 config error, 3 numeric check failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigValidation, IOFailure, NumericCheckFailure, StochresError, UnknownExperiment
from .runio import EXPERIMENTS, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochres",
        description="Stochastic bit-reservoir capacity experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (values under CLI flags)")
        p.add_argument("--seed", type=int, default=None,
                       help="root seed (overrides the config)")
        p.add_argument("--out-dir", type=Path, default=Path("."),
                       help="artifact output directory")
    return parser


def load_config(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise IOFailure(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigValidation(f"config is not valid JSON: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        config["experiment"] = args.experiment
        if args.seed is not None:
            config["seed"] = args.seed
        config["out_dir"] = str(args.out_dir)
        manifest = run_experiment(config)
    except (ConfigValidation, UnknownExperiment) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericCheckFailure as exc:
        print(f"numeric check failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IOFailure as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except StochresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {len(manifest.artifacts)} artifacts "
          f"(config {manifest.config_hash[:12]}, seed {manifest.seed})")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
