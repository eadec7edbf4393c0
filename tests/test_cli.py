import json
from types import SimpleNamespace

import pytest

from phasekit import GAUSSIAN, Ensemble, ExperimentConfig, ExperimentKind, Field, bench
from phasekit.cli import main


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


def test_bad_ratios_flag(capsys):
    code, out, err = run_cli(
        capsys, "recover-bench", "--field", "real", "--ensemble", "ternary",
        "--d", "16", "--ratios", "abc", "--trials", "1",
    )
    assert code == 1
    assert err != ""


@pytest.mark.parametrize("command", ["init-bench", "recover-bench", "solve"])
def test_infinite_ratio_is_an_error(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, command, *_SMALL, "--ratios", "inf")
    assert code == 1 and err.startswith("error: ")
    path = tmp_path / "cfg.json"
    path.write_text('{"ratio_grid": [1e400]}')   # parsed as inf
    code, out, err = run_cli(capsys, command, *_SMALL, "--config", str(path))
    assert code == 1 and err.startswith("error: ")


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "ensemble": {"field": "real", "entry": "ternary"}, "d": 16,
        "ratio_grid": [6], "trials": 2, "max_iters": 300, "base_seed": 3,
    }))
    code_a, out_a, _ = run_cli(capsys, "recover-bench", "--config", str(cfg))
    assert code_a == 0
    # flag overrides the config's seed; different seed changes the trials
    code_b, out_b, _ = run_cli(capsys, "recover-bench", "--config", str(cfg),
                               "--seed", "4")
    assert code_b == 0
    assert out_a.split("\n")[0] == out_b.split("\n")[0]
    # same seed reproduces the config-only run exactly
    code_c, out_c, _ = run_cli(capsys, "recover-bench", "--config", str(cfg),
                               "--seed", "3")
    assert out_c == out_a


def test_unset_values_take_the_experiment_config_defaults(capsys):
    code, out, _ = run_cli(capsys, "recover-bench", "--d", "16", "--ratios", "2",
                           "--trials", "1", "--format", "json")
    assert code == 0
    expected = ExperimentConfig(ExperimentKind.SUCCESS_RATE, Ensemble(Field.REAL, GAUSSIAN),
                                d=16, ratio_grid=(2.0,), trials=1)
    assert json.loads(out)["metadata"] == expected.to_dict()


def test_missing_config_file(capsys):
    code, out, err = run_cli(capsys, "recover-bench", "--config", "/nonexistent.json")
    assert code == 1
    assert err != ""


def test_verify_moments_reads_d_from_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ensemble": {"field": "real", "entry": "ternary"},
                               "d": 6, "base_seed": 2}))
    common = ("--samples", "20000")
    _, from_file, _ = run_cli(capsys, "verify-moments", "--config", str(cfg), *common)
    _, from_flag, _ = run_cli(capsys, "verify-moments", "--field", "real",
                              "--ensemble", "ternary", "--d", "6", "--seed", "2", *common)
    _, default_d, _ = run_cli(capsys, "verify-moments", "--field", "real",
                              "--ensemble", "ternary", "--d", "3", "--seed", "2", *common)
    assert from_file == from_flag
    assert from_file != default_d
    code, _, err = run_cli(capsys, "verify-moments", "--config", str(cfg), "--d", "1")
    assert code == 1 and "d must be >= 2" in err


_SMALL = ("--field", "real", "--ensemble", "ternary", "--d", "8", "--seed", "1")
_SMALL_TABLE = _SMALL + ("--ratios", "4,6", "--trials", "2", "--max-iters", "200")


@pytest.mark.parametrize("argv", [
    ("init-bench",) + _SMALL_TABLE,
    ("init-bench",) + _SMALL_TABLE + ("--format", "json"),
    ("recover-bench",) + _SMALL_TABLE,
    ("recover-bench",) + _SMALL_TABLE + ("--format", "json"),
    ("verify-moments",) + _SMALL + ("--samples", "20000"),
    ("solve",) + _SMALL + ("--ratios", "6", "--max-iters", "200"),
], ids=["init-csv", "init-json", "recover-csv", "recover-json", "verify", "solve"])
def test_out_file_matches_stdout(capsys, tmp_path, monkeypatch, argv):
    # a fixed clock makes the solve record's wall_time reproducible
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    path = tmp_path / "out"
    code, file_out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and file_out == ""
    assert path.read_bytes() == out.encode()


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
])
def test_removed_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *_SMALL])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["init-bench", "recover-bench", "solve", "verify-moments"])
@pytest.mark.parametrize("cfg, key", [
    ({"d": "6"}, "d"),
    ({"d": 6.0}, "d"),
    ({"d": True}, "d"),
    ({"base_seed": "1"}, "base_seed"),
    ({"trials": 2.5}, "trials"),
    ({"max_iters": "200"}, "max_iters"),
    ({"power_iters": [50]}, "power_iters"),
    ({"ratio_grid": "4,6"}, "ratio_grid"),
    ({"ratio_grid": [4, "6"]}, "ratio_grid"),
    ({"ratio_grid": [4, False]}, "ratio_grid"),
    ({"success_threshold": "1e-5"}, "success_threshold"),
    ({"ensemble": "real"}, "ensemble"),
    ({"ensemble": {"field": "real", "entry": ["ternary"]}}, "ensemble"),
    ({"ensemble": {"feild": "complex", "entry": "ternary"}}, "ensemble"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_config_value_of_wrong_type_is_an_error(capsys, tmp_path, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("command", ["init-bench", "recover-bench", "solve", "verify-moments"])
@pytest.mark.parametrize("cfg, key", [
    ({"max_iter": 5}, "max_iter"),
    ({"threads": 2}, "threads"),
    ({"threads": "2"}, "threads"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_config_unknown_key_is_an_error(capsys, tmp_path, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err == f"error: config file {path}: unknown key {key!r}\n"


def test_config_file_must_hold_an_object(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[6]")
    code, out, err = run_cli(capsys, "init-bench", "--config", str(path))
    assert code == 1 and err.startswith("error: ")
