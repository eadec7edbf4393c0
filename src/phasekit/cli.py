"""Command-line interface.

Subcommands:
    init-bench      mean GSI/SI initialization error over an N/d grid
    recover-bench   recovery success rate over an N/d grid
    verify-moments  Monte-Carlo check of the ensemble's moment constants
    solve           one seeded end-to-end recovery

A JSON config file (--config) mirrors the experiment options; explicit flags
override file values. Every command writes its output to --out, or to stdout
when --out is absent.
"""

from __future__ import annotations

import argparse
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
    p.add_argument("--field", choices=["real", "complex"], help="number field")
    p.add_argument("--ensemble", choices=sorted(BUILTIN_ENTRIES), help="entry distribution")
    p.add_argument("--d", type=int, help="signal dimension")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--config", help="JSON config file; flags override its values")
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _int_or_null(v) -> bool:
    return v is None or _is_int(v)


# every key a config file may hold, and what it must hold
_CONFIG_TYPES = {
    "d": ("an integer", _is_int),
    "max_iters": ("an integer", _is_int),
    "power_iters": ("an integer", _is_int),
    "base_seed": ("an integer", _is_int),
    "trials": ("an integer or null", _int_or_null),
    "ratio_grid": ("a list of numbers",
                   lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "success_threshold": ("a number", _is_number),
    "ensemble": ('an object with string "field" and "entry" and no other key',
                 lambda v: isinstance(v, dict) and set(v) <= {"field", "entry"}
                 and all(isinstance(value, str) for value in v.values())),
}

# the flag that overrides each config key, where one does
_FLAG_OF_KEY = {"d": "d", "trials": "trials", "max_iters": "max_iters",
                "power_iters": "power_iters", "base_seed": "seed"}


def _load_config_file(args: argparse.Namespace) -> dict:
    """The --config file's JSON object, after checking that every key is
    known and every value has the type the commands read."""
    if not args.config:
        return {}
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    for key, value in cfg.items():
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config file {args.config}: unknown key {key!r}")
        expected, ok = _CONFIG_TYPES[key]
        if not ok(value):
            raise ValueError(f"config file {args.config}: {key!r} must be {expected}, "
                             f"got {value!r}")
    return cfg


def _settings(args: argparse.Namespace) -> tuple[Ensemble, dict]:
    """The ensemble, and the config file's other values overridden by the
    flags given. A value that neither sets is absent, so its default comes
    from ExperimentConfig."""
    settings = _load_config_file(args)
    ens_cfg = settings.pop("ensemble", {})
    ensemble = Ensemble.from_dict({"field": args.field or ens_cfg.get("field", "real"),
                                   "entry": args.ensemble or ens_cfg.get("entry", "gaussian")})
    for key, flag in _FLAG_OF_KEY.items():
        if getattr(args, flag, None) is not None:
            settings[key] = getattr(args, flag)
    if getattr(args, "ratios", None) is not None:
        settings["ratio_grid"] = [float(r) for r in args.ratios.split(",")]
    if "ratio_grid" in settings:
        settings["ratio_grid"] = tuple(settings["ratio_grid"])
    return ensemble, settings


def _merge(args: argparse.Namespace, kind: ExperimentKind) -> ExperimentConfig:
    """Config file values, overridden by any explicitly given flags."""
    ensemble, settings = _settings(args)
    return ExperimentConfig(kind, ensemble, **settings)


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
    table = run(_merge(args, kind))
    _write(args, table.to_csv() if args.format == "csv" else table.to_json() + "\n")
    return 0


def _cmd_verify_moments(args) -> int:
    ensemble, settings = _settings(args)
    d = settings.get("d", 3)
    if d < 2:
        raise ValueError("d must be >= 2")
    seed = settings.get("base_seed", ExperimentConfig.base_seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal(d)
    if ensemble.field is Field.COMPLEX:
        x = x + 1j * rng.standard_normal(d)
    x = x / np.linalg.norm(x)

    report = mc_condition_residual(ensemble, d, x, n_samples=args.samples,
                                   seed=np.random.SeedSequence(seed, spawn_key=(1,)))
    reports = [report]
    if ensemble.field is Field.COMPLEX:
        reports.append(mc_F_residual(ensemble, x, n_samples=args.samples,
                                     seed=np.random.SeedSequence(seed, spawn_key=(2,))))
    profile = moment_profile(ensemble)
    consts = derived_constants(profile)
    payload = {
        "ensemble": ensemble.to_dict(),
        "profile": {"tau1": profile.tau1, "tau2": profile.tau2,
                    "tau3": profile.tau3, "tau4": profile.tau4},
        "constants": {"alpha": consts.alpha, "beta": consts.beta,
                      "alpha_hat": consts.alpha_hat, "epsilon0": consts.epsilon0},
        "checks": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    return 0 if payload["passed"] else 1


def _cmd_solve(args) -> int:
    cfg = _merge(args, ExperimentKind.SUCCESS_RATE)
    ratio = cfg.ratio_grid[0]
    record = run_recovery_trial(cfg, ratio, 0)
    payload = {
        "ensemble": cfg.ensemble.to_dict(),
        "d": cfg.d,
        "N": int(round(ratio * cfg.d)),
        "base_seed": cfg.base_seed,
        "init_rel_error": record.init_rel_error,
        "final_rel_error": record.final_rel_error,
        "iterations": record.iterations,
        "success": record.success,
        "wall_time": record.wall_time,
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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
