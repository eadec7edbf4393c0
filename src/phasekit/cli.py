"""Command-line interface.

Subcommands:
    init-bench      mean GSI/SI initialization error over an N/d grid
    recover-bench   recovery success rate over an N/d grid
    verify-moments  Monte-Carlo check of the ensemble's moment constants
    solve           one seeded end-to-end recovery

Flags are the only way to set a run. build_parser declares each command once: its flags,
whose dests are the ExperimentConfig fields they set, its handler, kind and defaults, and
the sizing flag a host-memory error names; --samples takes the oracles' default.
ExperimentConfig checks the values, so the CLI holds no setting rules; text not of a
flag's type is a usage error (exit 2). Every command writes to --out, or else to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bench import (ExperimentConfig, ExperimentKind, _rows, run_init_experiment,
                    run_recovery_experiment, run_recovery_trial)
from .ensembles import (BUILTIN_ENTRIES, Ensemble, Field, _direction, _rng, derived_constants,
                        moment_profile)
from .verify import DEFAULT_SAMPLES, mc_condition_residual, mc_F_residual


def _add_common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--field", choices=["real", "complex"], default="real", help="number field")
    p.add_argument("--ensemble", dest="entry", choices=sorted(BUILTIN_ENTRIES),
                   default="gaussian", help="entry distribution")
    p.add_argument("--d", type=int, help="signal dimension")
    p.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    p.add_argument("--out", help="output file (default: print to stdout)")
    return p


def _ratio_list(text: str) -> list:
    try:
        return [float(r) for r in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of each command: its flags, whose dests name the ExperimentConfig
    fields they set, its handler, kind and defaults (--samples: the oracles' DEFAULT_SAMPLES),
    and its sizing flag, which `main` names with --d when the host cannot allocate."""
    parser = argparse.ArgumentParser(prog="phasekit",
                                     description="Phase retrieval benchmarks for "
                                                 "sub-Gaussian rank-one measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, kind, run, summary in (
        ("init-bench", ExperimentKind.INIT_ERROR, run_init_experiment,
         "initialization error vs N/d"),
        ("recover-bench", ExperimentKind.SUCCESS_RATE, run_recovery_experiment,
         "recovery success rate vs N/d"),
    ):
        p = _add_common(sub.add_parser(name, help=summary))
        p.add_argument("--ratios", dest="ratio_grid", metavar="RATIOS", type=_ratio_list,
                       help="comma-separated N/d values, e.g. 2,4,6")
        p.add_argument("--trials", type=int, help="trials per ratio")
        if kind is ExperimentKind.SUCCESS_RATE:  # an init trial runs no descent
            p.add_argument("--max-iters", type=int, help="gradient iterations cap")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.set_defaults(handler=_cmd_bench, kind=kind, run=run, sizing="--ratios")

    pv = _add_common(sub.add_parser("verify-moments", help="Monte-Carlo moment-identity check"))
    pv.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="Monte-Carlo sample count")
    pv.set_defaults(handler=_cmd_verify_moments, kind=ExperimentKind.SUCCESS_RATE, d=3,
                    sizing="--samples")

    ps = _add_common(sub.add_parser("solve", help="single seeded recovery run"))
    ps.add_argument("--ratios", dest="ratio_grid", metavar="RATIO", type=float, nargs=1,
                    help="N/d ratio")
    ps.add_argument("--max-iters", type=int, help="gradient iterations cap")
    ps.set_defaults(handler=_cmd_solve, kind=ExperimentKind.SUCCESS_RATE, sizing="--ratios")
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The flags given as an ExperimentConfig, which checks them. Each flag's
    dest is the field it sets; a field that no flag sets keeps its default."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    settings = {key: value for key, value in vars(args).items()
                if key in fields and value is not None}
    ensemble = Ensemble(Field(args.field), BUILTIN_ENTRIES[args.entry])
    return ExperimentConfig(ensemble=ensemble, **settings)


def _write(args: argparse.Namespace, output) -> None:
    """The one output path: text, or a JSON payload indented by 2 plus a newline,
    goes to --out if given, else to stdout."""
    text = output if isinstance(output, str) else json.dumps(output, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bench(args) -> int:
    table = args.run(_config(args))
    _write(args, table.to_csv() if args.format == "csv"
           else {"metadata": table.metadata, "rows": table.rows})
    return 0


def _cmd_verify_moments(args) -> int:
    cfg = _config(args)
    ensemble, d, seed = cfg.ensemble, cfg.d, cfg.base_seed
    x = _direction(_rng(seed), d, ensemble.field is Field.COMPLEX)
    reports = [mc_condition_residual(ensemble, d, x, n_samples=args.samples,
                                     seed=np.random.SeedSequence(seed, spawn_key=(1,)))]
    if ensemble.field is Field.COMPLEX:
        reports.append(mc_F_residual(ensemble, x, n_samples=args.samples,
                                     seed=np.random.SeedSequence(seed, spawn_key=(2,))))
    profile = moment_profile(ensemble)
    payload = {
        "ensemble": ensemble.to_dict(),
        "profile": dataclasses.asdict(profile),
        "constants": dataclasses.asdict(derived_constants(profile)),
        "checks": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _write(args, payload)
    return 0 if payload["passed"] else 1


def _cmd_solve(args) -> int:
    cfg = _config(args)
    ratio = cfg.ratio_grid[0]
    record = run_recovery_trial(cfg, ratio, 0)
    payload = {
        "ensemble": cfg.ensemble.to_dict(),
        "d": cfg.d,
        "N": _rows(ratio, cfg.d, "ratio"),
        "base_seed": cfg.base_seed,
        **{k: v for k, v in dataclasses.asdict(record).items() if v is not None},
    }
    _write(args, payload)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except MemoryError as exc:  # numpy's text names no flag
        print(f"error: {args.sizing} and --d ask for arrays this host cannot allocate: {exc}",
              file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
