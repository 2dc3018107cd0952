"""Command line front end.

Subcommands:
  run        one scenario from a JSON config file
  sweep      a scenario with an explicit sweep list (same file format)
  reproduce  the preset campaigns behind the reference figures

Exit codes: 0 success, 2 configuration error, 3 more than 10% of the Monte
Carlo runs failed (every subcommand applies the same budget).
"""

import argparse
import json
import sys

from .config_units import ConfigError, SystemConfig
from .simulator import (FIGURES, ScenarioSpec, monte_carlo, reproduce,
                        write_scenario_outputs)

FAILURE_BUDGET = 0.10


def _load_scenario(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    if "config" in data or "sweep" in data:
        return ScenarioSpec.from_dict(data)
    # a bare SystemConfig is promoted to a single-point scenario
    return ScenarioSpec(name="run", config=SystemConfig.from_dict(data))


def _run_scenario(spec, out_dir, workers):
    result = monte_carlo(spec, workers=workers)
    paths = write_scenario_outputs(result, out_dir)
    agg = result.aggregate()
    for label in result.labels:
        parts = []
        for key in ("p_saturation", "fd_rate", "total_supp_db", "isr_db"):
            if key in agg[label]:
                parts.append(f"{key}={agg[label][key][0]:.4g}")
        print(f"{spec.name} [{label}] " + " ".join(parts))
    for p in paths:
        print(f"wrote {p}")
    return _failure_exit(len(result.failures), result.attempted)


def _failure_exit(failures, attempted):
    """Count failed runs on stderr; exit code 3 above the failure budget."""
    if failures:
        print(f"{failures} of {attempted} runs failed", file=sys.stderr)
    return 3 if attempted and failures / attempted > FAILURE_BUDGET else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fdlink",
        description="Full-duplex MIMO OFDM link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--runs", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--workers", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="run a sweep scenario file")
    p_sweep.add_argument("--spec", required=True, help="JSON scenario file")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_rep = sub.add_parser("reproduce", help="reproduce a reference figure")
    p_rep.add_argument("figure", choices=FIGURES)
    p_rep.add_argument("--runs", type=int, default=None)
    p_rep.add_argument("--out", default="out")
    p_rep.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            path = args.config if args.command == "run" else args.spec
            spec = _load_scenario(path)
            if args.command == "run":
                if args.seed is not None:
                    spec.seed = args.seed
                if args.runs is not None:
                    spec.runs = args.runs
            return _run_scenario(spec, args.out, args.workers)
        if args.command == "reproduce":
            written, failures, attempted = reproduce(
                args.figure, args.out, runs=args.runs, workers=args.workers)
            for p in written:
                print(f"wrote {p}")
            return _failure_exit(failures, attempted)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
