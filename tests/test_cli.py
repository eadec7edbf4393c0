import argparse
import dataclasses
import json

import pytest

from phasekit import (
    BUILTIN_ENTRIES,
    GAUSSIAN,
    Ensemble,
    ExperimentConfig,
    ExperimentKind,
    Field,
    run_recovery_trial,
)
from phasekit.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_recover_bench_csv_stdout(capsys):
    code, out, err = run_cli(
        capsys, "recover-bench", "--field", "real", "--ensemble", "ternary",
        "--d", "16", "--ratios", "6", "--trials", "2", "--max-iters", "300",
        "--seed", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("ratio,N,success_rate")
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "96"  # N = 6 * 16


def test_recover_bench_rerun_identical(capsys, tmp_path):
    args = ("recover-bench", "--field", "real", "--ensemble", "ternary",
            "--d", "16", "--ratios", "4,6", "--trials", "2",
            "--max-iters", "300", "--seed", "3")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(list(args) + ["--out", str(p1)]) == 0
    assert main(list(args) + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_init_bench_json(capsys, tmp_path):
    out_path = tmp_path / "init.json"
    code, out, err = run_cli(
        capsys, "init-bench", "--field", "complex", "--ensemble", "uniform",
        "--d", "8", "--ratios", "4", "--trials", "2", "--seed", "0",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["metadata"]["d"] == 8
    assert payload["rows"][0]["N"] == 32
    assert "gsi_mean_rel_error" in payload["rows"][0]


def test_verify_moments_exit_codes(capsys):
    code, out, err = run_cli(
        capsys, "verify-moments", "--field", "real", "--ensemble", "gaussian",
        "--d", "4", "--samples", "50000", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 1
    assert payload["profile"]["tau4"] == 0.0  # real gaussian


def test_verify_moments_complex_runs_block_check(capsys):
    code, out, err = run_cli(
        capsys, "verify-moments", "--field", "complex", "--ensemble", "ternary",
        "--d", "4", "--samples", "50000", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 2  # condition check plus block check


def test_solve_json_record(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--field", "real", "--ensemble", "ternary",
        "--d", "16", "--ratios", "6", "--max-iters", "300", "--seed", "2",
    )
    assert code == 0
    record = json.loads(out)
    assert set(record) >= {"init_rel_error", "final_rel_error", "iterations", "success"}
    assert record["iterations"] <= 300


def test_unknown_ensemble_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recover-bench", "--field", "real", "--ensemble", "cauchy"])
    assert exc.value.code != 0


@pytest.mark.parametrize("command", ["init-bench", "recover-bench", "solve"])
@pytest.mark.parametrize("ratios", ["abc", "4,,6"])
def test_bad_ratios_flag(capsys, command, ratios):
    # argparse rejects the text, as it rejects --d six
    with pytest.raises(SystemExit) as exc:
        main([command, *_SMALL, "--ratios", ratios])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --ratios: " in captured.err and repr(ratios) in captured.err


def test_solve_takes_one_ratio(capsys):
    # a grid once ran its first ratio and dropped the rest without a word
    with pytest.raises(SystemExit) as exc:
        main(["solve", *_SMALL, "--ratios", "4,8"])
    assert exc.value.code == 2
    assert "argument --ratios: invalid float value: '4,8'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["init-bench", "recover-bench", "solve"])
def test_infinite_ratio_is_an_error(capsys, command):
    code, out, err = run_cli(capsys, command, *_SMALL, "--ratios", "inf")
    assert code == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command, flag, value, name", [
    pytest.param(command, flag, value, name, id=f"{flag}-{value}-{name}-{command}")
    for flag, value, name in [("--trials", "0", "trials"),
                              ("--max-iters", "0", "max_iters"),
                              ("--seed", "-1", "base_seed")]
    for command in ["init-bench", "recover-bench"]
    if (command, flag) != ("init-bench", "--max-iters")  # an init trial runs no descent
])
def test_bad_flag_value_is_an_error_naming_the_setting(capsys, command, flag, value, name):
    code, out, err = run_cli(capsys, command, *_SMALL_TABLE, flag, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("command", ["init-bench", "recover-bench", "solve", "verify-moments"])
@pytest.mark.parametrize("flag, value, message", [
    ("--d", "1", "d must be an integer >= 2, got 1"),
    ("--d", "-4", "d must be an integer >= 2, got -4"),
    ("--seed", "-1", "base_seed must be an integer >= 0, got -1"),
])
def test_bad_common_flag_value_is_an_error_naming_the_setting(capsys, command, flag, value,
                                                               message):
    code, out, err = run_cli(capsys, command, *_SMALL, flag, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command, ratios, message", [
    pytest.param(command, ratios, message, id=f"{ratios}-{message}-{command}")
    for ratios, message in [("0.5", "ratio_grid[0] must be a finite number >= 1, got 0.5"),
                            ("nan", "ratio_grid[0] must be a finite number >= 1, got nan"),
                            ("6,6.0001", "equal after rounding")]
    for command in ["init-bench", "recover-bench", "solve"]
    if not (command == "solve" and "," in ratios)  # solve takes one ratio
])
def test_bad_ratios_are_an_error_naming_the_rule(capsys, command, ratios, message):
    code, out, err = run_cli(capsys, command, *_SMALL, "--ratios", ratios)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("flag, value, name", [
    ("--max-iters", "0", "max_iters"),
    ("--max-iters", "-5", "max_iters"),
])
def test_bad_solve_flag_value_is_an_error_naming_the_setting(capsys, flag, value, name):
    code, out, err = run_cli(capsys, "solve", *_SMALL, "--ratios", "6", flag, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("command", ["init-bench", "recover-bench", "solve", "verify-moments"])
@pytest.mark.parametrize("flag, value", [("--d", "6.0"), ("--d", "six"), ("--seed", "1.5")])
def test_flag_value_of_wrong_type_is_a_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *_SMALL, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recover-bench", "solve"])
@pytest.mark.parametrize("flag, value", [("--max-iters", "2e2")])
def test_iteration_flag_of_wrong_type_is_a_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *_SMALL, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("entry", sorted(BUILTIN_ENTRIES))
def test_field_and_ensemble_flags_build_that_ensemble(capsys, field, entry):
    # the flags name the ensemble the library builds from Field and BUILTIN_ENTRIES
    code, out, err = run_cli(capsys, "solve", "--field", field, "--ensemble", entry,
                             "--d", "8", "--seed", "1", "--ratios", "6", "--max-iters", "200")
    assert code == 0 and err == ""
    ensemble = Ensemble(Field(field), BUILTIN_ENTRIES[entry])
    cfg = ExperimentConfig(ExperimentKind.SUCCESS_RATE, ensemble, d=8, ratio_grid=(6.0,),
                           max_iters=200, base_seed=1)
    record = json.loads(out)
    assert record["ensemble"] == {"field": field, "entry": entry}
    assert {k: record[k] for k in ("init_rel_error", "final_rel_error", "iterations",
                                   "success")} == dataclasses.asdict(
        run_recovery_trial(cfg, 6.0, 0))


def test_unset_values_take_the_experiment_config_defaults(capsys):
    code, out, _ = run_cli(capsys, "recover-bench", "--d", "16", "--ratios", "2",
                           "--trials", "1", "--format", "json")
    assert code == 0
    expected = ExperimentConfig(ExperimentKind.SUCCESS_RATE, Ensemble(Field.REAL, GAUSSIAN),
                                d=16, ratio_grid=(2.0,), trials=1)
    assert json.loads(out)["metadata"] == expected.to_dict()


@pytest.mark.parametrize("command, unread", [
    ("init-bench", {"max_iters", "success_threshold"}),
    ("recover-bench", {"paired_si_gsi_measurements"}),
], ids=["init-bench", "recover-bench"])
def test_table_metadata_records_only_what_made_the_rows(capsys, command, unread):
    # an init trial runs no descent and judges no success, and a recovery
    # trial runs no SI, yet both tables recorded every setting
    code, out, _ = run_cli(capsys, command, "--d", "8", "--ratios", "4", "--trials", "1",
                           "--format", "json")
    assert code == 0
    metadata = json.loads(out)["metadata"]
    assert {"kind", "ensemble", "d", "ratio_grid", "trials", "power_iters",
            "base_seed"} <= metadata.keys()
    assert not unread & metadata.keys()


def test_verify_moments_reads_d_from_config(capsys):
    # the config the flags build: --d 6 is read, no --d is the default 3
    common = ("--field", "real", "--ensemble", "ternary", "--seed", "2", "--samples", "20000")
    _, from_flag, _ = run_cli(capsys, "verify-moments", "--d", "6", *common)
    _, default_d, _ = run_cli(capsys, "verify-moments", *common)
    _, three, _ = run_cli(capsys, "verify-moments", "--d", "3", *common)
    assert from_flag != default_d
    assert default_d == three
    code, _, err = run_cli(capsys, "verify-moments", "--d", "1", *common)
    assert code == 1 and "d must be an integer >= 2, got 1" in err


_SMALL = ("--field", "real", "--ensemble", "ternary", "--d", "8", "--seed", "1")
_SMALL_TABLE = _SMALL + ("--ratios", "4,6", "--trials", "2")


@pytest.mark.parametrize("argv", [
    ("init-bench",) + _SMALL_TABLE,
    ("init-bench",) + _SMALL_TABLE + ("--format", "json"),
    ("recover-bench",) + _SMALL_TABLE + ("--max-iters", "200"),
    ("recover-bench",) + _SMALL_TABLE + ("--max-iters", "200", "--format", "json"),
    ("verify-moments",) + _SMALL + ("--samples", "20000"),
    ("solve",) + _SMALL + ("--ratios", "6", "--max-iters", "200"),
], ids=["init-csv", "init-json", "recover-csv", "recover-json", "verify", "solve"])
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    path = tmp_path / "out"
    code, file_out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and file_out == ""
    assert path.read_bytes() == out.encode()


def test_record_keys_keep_their_order(capsys):
    _, out, _ = run_cli(capsys, "solve", *_SMALL, "--ratios", "6", "--max-iters", "200")
    assert list(json.loads(out)) == [
        "ensemble", "d", "N", "base_seed", "init_rel_error", "final_rel_error",
        "iterations", "success"]
    _, out, _ = run_cli(capsys, "verify-moments", *_SMALL, "--samples", "20000")
    payload = json.loads(out)
    assert list(payload) == ["ensemble", "profile", "constants", "checks", "passed"]
    assert list(payload["profile"]) == ["tau1", "tau2", "tau3", "tau4"]
    assert list(payload["constants"]) == ["alpha", "beta", "alpha_hat", "epsilon0"]


def test_unwritable_out_reports_path(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "init-bench", *_SMALL_TABLE, "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("argv", [
    ("solve", "--format", "json"),
    ("solve", "--format", "csv"),
    ("solve", "--trials", "7"),
    ("solve", "--threads", "3"),
    ("init-bench", "--threads", "2"),
    ("recover-bench", "--threads", "2"),
    ("verify-moments", "--format", "json"),
    ("verify-moments", "--format", "csv"),
    ("init-bench", "--config", "x.json"),
    ("recover-bench", "--config", "x.json"),
    ("solve", "--config", "x.json"),
    ("verify-moments", "--config", "x.json"),
    ("verify-moments", "--threads", "2"),
    ("init-bench", "--success-threshold", "1e-6"),
    ("recover-bench", "--success-threshold", "1e-6"),
    ("solve", "--success-threshold", "1e-6"),
    ("verify-moments", "--success-threshold", "1e-6"),
    ("init-bench", "--power-iters", "50"),
    ("recover-bench", "--power-iters", "50"),
    ("solve", "--power-iters", "50"),
    ("init-bench", "--max-iters", "200"),
])
def test_removed_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *_SMALL])
    assert exc.value.code == 2


# Every flag a command declares must change what the command writes: each
# command runs at d = 8 from its settings below, then once per flag but --out
# with that flag at its second value.
_COMMON = {"--field": "real", "--ensemble": "ternary", "--d": "8", "--seed": "1"}
_COMMON_SECOND = {"--field": "complex", "--ensemble": "gaussian", "--d": "6", "--seed": "2"}
_TABLE = {"--ratios": "4,6", "--trials": "2", "--format": "csv"}
_TABLE_SECOND = {"--ratios": "4,8", "--trials": "3", "--format": "json"}
_FLAG_RUNS = {
    "init-bench": _COMMON | _TABLE,
    "recover-bench": _COMMON | _TABLE | {"--max-iters": "200"},
    "verify-moments": _COMMON | {"--samples": "20000"},
    "solve": _COMMON | {"--ratios": "6", "--max-iters": "200"},
}
_SECOND_VALUES = {
    "init-bench": _COMMON_SECOND | _TABLE_SECOND,
    "recover-bench": _COMMON_SECOND | _TABLE_SECOND | {"--max-iters": "5"},
    "verify-moments": _COMMON_SECOND | {"--samples": "40000"},
    "solve": _COMMON_SECOND | {"--ratios": "8", "--max-iters": "5"},
}


def _declared_flags() -> list:
    """(command, flag) for every long flag each subcommand of build_parser() declares."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return [(name, flag) for name, p in commands.choices.items()
            for action in p._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"]


def _argv(command: str, settings: dict) -> list:
    return [command, *(text for item in settings.items() for text in item)]


def test_flag_tables_name_every_declared_flag():
    # a new flag must get a second value, so that the test below checks it
    declared = {(c, f) for c, f in _declared_flags() if f != "--out"}
    assert declared == {(c, f) for c in _SECOND_VALUES for f in _SECOND_VALUES[c]}
    assert declared == {(c, f) for c in _FLAG_RUNS for f in _FLAG_RUNS[c]}


@pytest.mark.parametrize("command, flag", [cf for cf in _declared_flags() if cf[1] != "--out"],
                         ids=lambda v: v)
def test_every_flag_changes_what_its_command_writes(capsys, command, flag):
    # init-bench once took --max-iters and wrote the same table for every value
    _, base, _ = run_cli(capsys, *_argv(command, _FLAG_RUNS[command]))
    _, other, _ = run_cli(capsys, *_argv(command, _FLAG_RUNS[command]
                                         | {flag: _SECOND_VALUES[command][flag]}))
    assert base and other != base
