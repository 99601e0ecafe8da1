"""Command-line experiment runner.

Usage::

    corrpose <experiment> [--config FILE] [--seed S] [--out DIR] [--jobs K]

where experiment is one of compose-sweep, relpose-alpha-sweep, slam-relpose,
convert-demo, solve-graph.  Configuration is JSON; command-line flags
override config-file fields, which override built-in defaults.  Outputs are
CSV tables (plus plot scripts); identical config + seed reproduces identical
bytes.  ``--jobs`` is accepted and has no effect.  Logs go to stderr.  Exit
codes: 0 success, 2 usage/config problems, 1 runtime failures.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS, ConfigError, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrpose",
        description="Correlation-aware pose-uncertainty experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, runner in sorted(EXPERIMENTS.items()):
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--jobs", type=int, help="must be positive; no effect (single-threaded)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        for key in ("seed", "out", "jobs"):
            value = getattr(args, key)
            if value is not None:
                cfg[key] = value
        paths = run_experiment(args.experiment, cfg)
    except (ConfigError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    for p in paths:
        print(f"wrote {p}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
