"""Command-line interface.

Subcommands:
    init-bench      mean GSI/SI initialization error over an N/d grid
    recover-bench   recovery success rate over an N/d grid
    verify-moments  Monte-Carlo check of the ensemble's moment constants
    solve           one seeded end-to-end recovery

Flags are the only way to set a run. They build an ExperimentConfig, which
checks them, so the CLI holds no setting rules of its own. Every command
writes its output to --out, or to stdout when --out is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bench import (
    ExperimentConfig,
    ExperimentKind,
    run_init_experiment,
    run_recovery_experiment,
    run_recovery_trial,
)
from .ensembles import BUILTIN_ENTRIES, Ensemble, Field, derived_constants, moment_profile
from .verify import mc_condition_residual, mc_F_residual


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", choices=["real", "complex"], default="real", help="number field")
    p.add_argument("--ensemble", dest="entry", choices=sorted(BUILTIN_ENTRIES),
                   default="gaussian", help="entry distribution")
    p.add_argument("--d", type=int, help="signal dimension")
    p.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    p.add_argument("--out", help="output file (default: print to stdout)")


def _add_bench(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--ratios", help="comma-separated N/d values, e.g. 2,4,6")
    p.add_argument("--trials", type=int, help="trials per ratio")
    p.add_argument("--max-iters", type=int, help="gradient iterations cap")
    p.add_argument("--power-iters", type=int, help="power-method iterations")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phasekit",
                                     description="Phase retrieval benchmarks for "
                                                 "sub-Gaussian rank-one measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_bench(sub.add_parser("init-bench", help="initialization error vs N/d"))
    _add_bench(sub.add_parser("recover-bench", help="recovery success rate vs N/d"))

    pv = sub.add_parser("verify-moments", help="Monte-Carlo moment-identity check")
    _add_common(pv)
    pv.add_argument("--samples", type=int, default=1_000_000, help="Monte-Carlo sample count")

    ps = sub.add_parser("solve", help="single seeded recovery run")
    _add_common(ps)
    ps.add_argument("--ratios", help="N/d ratio (first value used)")
    ps.add_argument("--max-iters", type=int)
    ps.add_argument("--power-iters", type=int)
    return parser


def _config(args: argparse.Namespace, kind: ExperimentKind, **defaults) -> ExperimentConfig:
    """The flags given as an ExperimentConfig, which checks them. A setting
    that no flag gives takes `defaults`, else the ExperimentConfig default."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    # each flag's dest is the field it sets
    settings = {key: value for key, value in vars(args).items()
                if key in fields and value is not None}
    if getattr(args, "ratios", None) is not None:
        try:
            settings["ratio_grid"] = [float(r) for r in args.ratios.split(",")]
        except ValueError:
            raise ValueError(
                f"--ratios must be comma-separated numbers, got {args.ratios!r}") from None
    ensemble = Ensemble(Field(args.field), BUILTIN_ENTRIES[args.entry])
    return ExperimentConfig(kind, ensemble, **{**defaults, **settings})


def _write(args: argparse.Namespace, text: str) -> None:
    """The one output path: `text` goes to --out if given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_BENCHES = {
    "init-bench": (ExperimentKind.INIT_ERROR, run_init_experiment),
    "recover-bench": (ExperimentKind.SUCCESS_RATE, run_recovery_experiment),
}


def _cmd_bench(args) -> int:
    kind, run = _BENCHES[args.command]
    table = run(_config(args, kind))
    _write(args, table.to_csv() if args.format == "csv" else table.to_json() + "\n")
    return 0


def _cmd_verify_moments(args) -> int:
    cfg = _config(args, ExperimentKind.SUCCESS_RATE, d=3)
    ensemble, d, seed = cfg.ensemble, cfg.d, cfg.base_seed
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal(d)
    if ensemble.field is Field.COMPLEX:
        x = x + 1j * rng.standard_normal(d)
    x = x / np.linalg.norm(x)

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
    _write(args, json.dumps(payload, indent=2) + "\n")
    return 0 if payload["passed"] else 1


def _cmd_solve(args) -> int:
    cfg = _config(args, ExperimentKind.SUCCESS_RATE)
    ratio = cfg.ratio_grid[0]
    record = run_recovery_trial(cfg, ratio, 0)
    payload = {
        "ensemble": cfg.ensemble.to_dict(),
        "d": cfg.d,
        "N": int(round(ratio * cfg.d)),
        "base_seed": cfg.base_seed,
        **dataclasses.asdict(record),
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    return 0


_COMMANDS = {
    "init-bench": _cmd_bench,
    "recover-bench": _cmd_bench,
    "verify-moments": _cmd_verify_moments,
    "solve": _cmd_solve,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
