import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import Mock

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
from phasekit.verify import ResidualReport


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of `phasekit argv`; a usage error exits with code 2."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
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


def test_verify_moments_exits_1_when_a_check_fails(capsys, monkeypatch):
    failed = ResidualReport("condition_expectation", 5, 1.0, 0.5, False)
    monkeypatch.setattr("phasekit.cli.mc_condition_residual", Mock(return_value=failed))
    code, out, err = run_cli(
        capsys, "verify-moments", "--field", "real", "--ensemble", "gaussian",
        "--d", "4", "--samples", "50000", "--seed", "1",
    )
    assert (code, json.loads(out)["passed"], err) == (1, False, "")


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


# The flag contract, one row per bad value: (flag, text, exit code, whole message, and the
# commands where parsers differ, else all that declare the flag), run as its command's
# _FLAG_RUNS argv with the text for the flag's value. Exit 2 is argparse's usage error, naming
# the flag; exit 1 the library's ValueError, naming the setting. _LIBRARY_CHECKED are the
# flags whose values the library checks, so each needs a value that it rejects.
_GRIDS = ("init-bench", "recover-bench")  # their --ratios is a comma-separated list
_BAD_VALUES = [
    ("--field", "quaternion", 2, "invalid choice: 'quaternion' (choose from 'real', 'complex')"),
    ("--ensemble", "cauchy", 2, "invalid choice: 'cauchy' (choose from 'gaussian', 'ternary', "
     "'uniform')"),
    ("--d", "6.0", 2, "invalid int value: '6.0'"),
    ("--d", "six", 2, "invalid int value: 'six'"),
    ("--d", "1", 1, "d must be an integer >= 2, got 1"),
    ("--d", "-4", 1, "d must be an integer >= 2, got -4"),
    ("--seed", "1.5", 2, "invalid int value: '1.5'"),
    ("--seed", "-1", 1, "base_seed must be an integer >= 0, got -1"),
    ("--ratios", "abc", 2, "not comma-separated numbers: 'abc'", _GRIDS),
    ("--ratios", "4,,6", 2, "not comma-separated numbers: '4,,6'", _GRIDS),
    ("--ratios", "abc", 2, "invalid float value: 'abc'", ("solve",)),
    ("--ratios", "4,,6", 2, "invalid float value: '4,,6'", ("solve",)),
    ("--ratios", "4,8", 2, "invalid float value: '4,8'", ("solve",)),  # once ran 4, dropped 8
    ("--ratios", "0.5", 1, "ratio_grid[0] must be a finite number >= 1, got 0.5"),
    ("--ratios", "nan", 1, "ratio_grid[0] must be a finite number >= 1, got nan"),
    ("--ratios", "inf", 1, "ratio_grid[0] must be a finite number >= 1, got inf"),
    ("--ratios", "1e306", 1, "1000 * ratio_grid[0] is beyond float range"),  # was a traceback
    # numpy's "Maximum allowed dimension exceeded", naming no setting
    ("--ratios", "1e300", 1, "ratio_grid[0] * d = 8e+300 rows of 8 entries are more than a numpy "
     "array holds"),
    ("--ratios", "6,6.0001", 1, "ratio grid (6.0, 6.0001) has ratios equal after rounding to "
     "0.001, which would share trial streams", _GRIDS),
    ("--trials", "1.5", 2, "invalid int value: '1.5'"),
    ("--trials", "0", 1, "trials must be an integer >= 1, got 0"),
    ("--max-iters", "2e2", 2, "invalid int value: '2e2'"),
    ("--max-iters", "0", 1, "max_iters must be an integer >= 1, got 0"),
    ("--max-iters", "-5", 1, "max_iters must be an integer >= 1, got -5"),
    ("--samples", "1e6", 2, "invalid int value: '1e6'"),
    ("--samples", "5", 1, "n_samples must be an integer >= 10000, got 5"),
    # numpy's "Maximum allowed dimension exceeded", naming no setting
    ("--samples", "100000000000000000000", 1, "n_samples // 20 = 5e+18 rows of 8 entries are "
     "more than a numpy array holds"),
    ("--format", "xml", 2, "invalid choice: 'xml' (choose from 'csv', 'json')"),
]
_LIBRARY_CHECKED = {"--d", "--seed", "--ratios", "--trials", "--max-iters", "--samples"}


def _bad_values(code: int) -> list:
    """(command, flag, text, message) of each row of exit code `code`, once per command."""
    return [pytest.param(command, flag, text, message, id=f"{command}{flag}={text}")
            for flag, text, row_code, message, *only in _BAD_VALUES if row_code == code
            for command in (only[0] if only else [c for c in _FLAG_RUNS if flag in _FLAG_RUNS[c]])]


@pytest.mark.parametrize("command, flag, text, message", _bad_values(2))
def test_text_not_of_a_flags_type_is_a_usage_error(capsys, command, flag, text, message):
    code, out, err = run_cli(capsys, *_argv(command, _FLAG_RUNS[command] | {flag: text}))
    assert (code, out) == (2, "")
    assert err.endswith(f"\nphasekit {command}: error: argument {flag}: {message}\n")


@pytest.mark.parametrize("command, flag, text, message", _bad_values(1))
def test_a_value_the_library_rejects_is_an_error(capsys, command, flag, text, message):
    assert run_cli(capsys, *_argv(command, _FLAG_RUNS[command] | {flag: text})) \
        == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command, module, flags", [
    ("init-bench", "bench", "--ratios and --d"), ("recover-bench", "bench", "--ratios and --d"),
    ("solve", "bench", "--ratios and --d"), ("verify-moments", "verify", "--samples and --d")],
    ids=["init-bench", "recover-bench", "solve", "verify-moments"])
def test_rows_the_host_cannot_allocate_are_an_error(capsys, monkeypatch, command, module, flags):
    # numpy's MemoryError for a ratio in range, such as --ratios 1e12 --d 8, was a traceback,
    # then numpy's text alone, which names no flag
    text = "Unable to allocate 466. TiB for an array with shape (8000000000000, 8)"
    monkeypatch.setattr(f"phasekit.{module}.sample_measurements",
                        Mock(side_effect=MemoryError(text)))
    assert run_cli(capsys, *_argv(command, _FLAG_RUNS[command])) == (
        1, "", f"error: {flags} ask for arrays this host cannot allocate: {text}\n")


def test_the_bad_value_table_names_every_declared_flag():
    # a new flag must get a bad value, and one whose value the library checks a value it rejects
    declared = {(c, f) for c, f in _declared_flags() if f != "--out"}
    rows = {code: {tuple(p.values[:2]) for p in _bad_values(code)} for code in (1, 2)}
    assert rows[1] | rows[2] == declared
    assert {(c, f) for c, f in declared if f in _LIBRARY_CHECKED} == rows[1]


@pytest.mark.parametrize("d, code", [("8", 0), ("six", 2)], ids=["solve", "usage-error"])
def test_the_module_entry_exits_with_main_s_code_and_output(capsys, d, code):
    # `python -m phasekit.cli` runs the `sys.exit(main())` that an in-process call skips
    argv = ["solve", "--field", "real", "--ensemble", "ternary", "--d", d, "--ratios", "6"]
    env = os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                        "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "phasekit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == run_cli(capsys, *argv)[:2]
    assert done.returncode == code
