import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from phasekit import (
    Ensemble,
    EntryDistribution,
    ExperimentConfig,
    ExperimentKind,
    Field,
    GAUSSIAN,
    ResultTable,
    SolverConfig,
    TERNARY,
    baseline_si,
    generate_signal,
    gsi,
    power_method,
    run_init_experiment,
    run_recovery_experiment,
    run_recovery_trial,
    trial_seed,
)
from phasekit.spectral import DEFAULT_POWER_ITERS

TERNARY_REAL = Ensemble(Field.REAL, TERNARY)

SMALL_INIT = ExperimentConfig(
    kind=ExperimentKind.INIT_ERROR,
    ensemble=TERNARY_REAL,
    d=16,
    ratio_grid=(4, 8),
    trials=4,
    base_seed=7,
)

SMALL_RECOVERY = ExperimentConfig(
    kind=ExperimentKind.SUCCESS_RATE,
    ensemble=TERNARY_REAL,
    d=16,
    ratio_grid=(6,),
    trials=3,
    max_iters=500,
    base_seed=7,
)


def test_generate_signal_spike_ratio():
    x = generate_signal(8, seed=0)
    plain = np.random.default_rng(0).standard_normal(8)
    assert np.array_equal(x[:-2], plain[:-2])
    assert np.array_equal(x[-2:], 200.0 * plain[-2:])


def test_generate_signal_complex_and_small_d():
    z = generate_signal(4, seed=1, field=Field.COMPLEX)
    assert z.dtype == np.complex128
    with pytest.raises(ValueError):
        generate_signal(1, seed=0)


def test_complex_signal_is_the_scaled_pair_of_gaussian_draws():
    rng = np.random.default_rng(1)
    g = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / math.sqrt(2.0)
    z = generate_signal(4, seed=1, field=Field.COMPLEX)
    assert np.array_equal(z[:-2], g[:-2]) and np.array_equal(z[-2:], 200.0 * g[-2:])


def test_generate_signal_requires_a_field():
    # the string "complex" gave a real signal
    with pytest.raises(ValueError, match="ensemble 'field' must be a Field"):
        generate_signal(8, 0, field="complex")


@pytest.mark.parametrize("d", [2.5, True, 4.0, "4"], ids=repr)
def test_generate_signal_rejects_a_non_integer_d(d):
    with pytest.raises(ValueError, match="integer"):
        generate_signal(d, seed=0)


def test_generate_signal_second_moment():
    # E||x||^2 = (d - 2) v + 2 * 200^2 v with per-coordinate variance v = 1
    d, n = 16, 10_000
    total = sum(float(np.sum(generate_signal(d, seed=s) ** 2)) for s in range(n))
    expected = (d - 2) + 2 * 200.0 ** 2
    assert total / n == pytest.approx(expected, rel=0.05)


def test_trial_seed_distinct_and_pure():
    a = trial_seed(0, 2.0, 0)
    b = trial_seed(0, 2.0, 0)
    assert np.array_equal(a.generate_state(4), b.generate_state(4))
    others = [trial_seed(0, 2.0, 1), trial_seed(0, 4.0, 0), trial_seed(1, 2.0, 0)]
    for o in others:
        assert not np.array_equal(a.generate_state(4), o.generate_state(4))


def test_trials_default_is_settled_at_construction():
    assert SMALL_INIT.trials == 4
    init_default = ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL)
    assert init_default.trials == 50
    succ_default = ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL)
    assert succ_default.trials == 100
    for cfg in (SMALL_INIT, init_default, succ_default):
        assert type(cfg.trials) is int


def test_library_defaults_are_the_experiment_defaults():
    cfg = ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL)
    assert SolverConfig().max_iters == cfg.max_iters
    assert inspect.signature(power_method).parameters["iters"].default == cfg.power_iters
    for init in (gsi, baseline_si):
        assert inspect.signature(init).parameters["power_iters"].default == cfg.power_iters


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL, d=1)
    with pytest.raises(ValueError):
        ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL, ratio_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL, trials=0)


@pytest.mark.parametrize("name, value", [
    ("d", 6.5),
    ("d", 6.0),
    ("d", True),
    ("d", "6"),
    ("trials", 2.5),
    ("trials", False),
    ("max_iters", 2.5),
    ("max_iters", 0),
    ("max_iters", "200"),
    ("base_seed", "1"),
    ("base_seed", -1),
    ("ratio_grid", (4, False)),
    ("ratio_grid", (4, "6")),
    ("ratio_grid", 4),
    ("ratio_grid", "4,6"),
    ("kind", "init_error"),
    ("ensemble", "gaussian"),
    ("d", None),
    ("d", np.float64(6.0)),
    ("trials", "2"),
    ("max_iters", None),
    ("base_seed", 1.0),
    ("ratio_grid", [4, "6"]),
    ("ratio_grid", [4, False]),
    ("ratio_grid", None),
    ("kind", None),
    ("ensemble", {"field": "real", "entry": "ternary"}),  # a descriptor is not an Ensemble
    ("ensemble", TERNARY),
], ids=lambda v: repr(v))
def test_config_rejects_bad_values_at_construction(name, value):
    settings = {"kind": ExperimentKind.SUCCESS_RATE, "ensemble": TERNARY_REAL, name: value}
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**settings)


def test_config_takes_numpy_values_and_any_ratio_sequence():
    cfg = ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL, d=np.int64(16),
                           ratio_grid=np.array([4.0, 8.0]), trials=np.int32(4),
                           max_iters=np.int64(5), base_seed=np.uint8(7))
    assert cfg.ratio_grid == (4.0, 8.0)
    assert ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL,
                            ratio_grid=[4, 8]).ratio_grid == (4, 8)
    assert run_init_experiment(cfg).to_csv() == run_init_experiment(SMALL_INIT).to_csv()


def test_numpy_config_writes_the_json_of_its_python_numbers():
    # json.dumps rejects numpy scalars, so the config must hold Python numbers
    as_numpy = ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL, d=np.int64(8),
                                ratio_grid=np.array([4, 6]), trials=np.int64(2))
    as_python = ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL, d=8,
                                 ratio_grid=(4, 6), trials=2)
    assert run_init_experiment(as_numpy).to_json() == run_init_experiment(as_python).to_json()
    for name in ("d", "trials", "max_iters", "base_seed"):
        assert type(getattr(as_numpy, name)) is int
    assert [type(r) for r in as_numpy.ratio_grid] == [int, int]  # printed as 4, not 4.0
    assert type(as_numpy.success_threshold) is float


def test_success_threshold_is_the_protocol_constant_not_a_setting():
    cfg = ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL)
    assert cfg.success_threshold == 1e-5 and cfg.to_dict()["success_threshold"] == 1e-5
    with pytest.raises(TypeError):
        ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL, success_threshold=1e-6)


def test_power_iters_is_the_protocol_constant_not_a_setting():
    cfg = ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL)
    assert cfg.power_iters == DEFAULT_POWER_ITERS == cfg.to_dict()["power_iters"]
    assert "power_iters" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
    with pytest.raises(TypeError):
        ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL, power_iters=50)


@pytest.mark.parametrize("kind", list(ExperimentKind))
def test_config_rejects_an_invalid_moment_profile(kind):
    # m2 = m4 = 1 on the real field: tau3 + tau4 = 2 - 2 = 0
    flat = EntryDistribution("flat", 1.0, 1.0, lambda rng, shape: rng.choice([-1.0, 1.0], shape))
    with pytest.raises(ValueError, match=r"tau3 \+ tau4 > 0"):
        ExperimentConfig(kind, Ensemble(Field.REAL, flat), d=8, ratio_grid=(4,), trials=1)


def test_config_rejects_ratios_sharing_a_trial_stream():
    # trial_seed keys a ratio by round(1000 * ratio)
    assert trial_seed(0, 2.0001, 0).spawn_key == trial_seed(0, 2.0002, 0).spawn_key
    with pytest.raises(ValueError, match="trial streams"):
        ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL, ratio_grid=(2.0001, 2.0002))
    ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL, ratio_grid=(2.001, 2.002))


@pytest.mark.parametrize("ratio", [math.inf, math.nan])
def test_config_rejects_non_finite_ratios(ratio):
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL, ratio_grid=(4, ratio))


def test_init_experiment_shape_and_determinism():
    t1 = run_init_experiment(SMALL_INIT)
    t2 = run_init_experiment(SMALL_INIT)
    assert t1.columns == ["ratio", "N", "gsi_mean_rel_error", "si_mean_rel_error", "trials"]
    assert [r["N"] for r in t1.rows] == [64, 128]
    assert t1.to_csv() == t2.to_csv()
    for row in t1.rows:
        assert 0.0 <= row["gsi_mean_rel_error"] < 2.5
        assert row["trials"] == 4


@pytest.mark.parametrize("field,entry", [
    (Field.REAL, TERNARY), (Field.COMPLEX, GAUSSIAN), (Field.COMPLEX, TERNARY)])
def test_init_trial_weights_its_own_measurements_in_place(field, entry):
    # N x d weighted rows beside the sampled ones would lift the peak to
    # about 2x the measurement matrix
    cfg = ExperimentConfig(ExperimentKind.INIT_ERROR, Ensemble(field, entry), d=128,
                           ratio_grid=(20,), trials=1, base_seed=3)
    run_init_experiment(cfg)  # warm-up, so that one-off allocations are not traced
    tracemalloc.start()
    try:
        run_init_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    itemsize = 16 if field is Field.COMPLEX else 8
    assert peak < 1.75 * (20 * 128) * 128 * itemsize


def test_recovery_trial_record_fields():
    rec = run_recovery_trial(SMALL_RECOVERY, ratio=6, i=0)
    assert rec.init_rel_error >= 0.0
    assert rec.iterations <= 500
    assert rec.success == (rec.final_rel_error < SMALL_RECOVERY.success_threshold)


def test_recovery_experiment_determinism():
    t1 = run_recovery_experiment(SMALL_RECOVERY)
    t2 = run_recovery_experiment(SMALL_RECOVERY)
    assert t1.to_csv() == t2.to_csv()
    assert t1.rows[0]["success_rate"] in {0.0, 1 / 3, 2 / 3, 1.0}


def test_recovery_row_is_the_mean_of_its_seeded_trials():
    # each trial is keyed by (base_seed, ratio, i) alone, so running the
    # trials in any order gives the row the experiment reports
    row = run_recovery_experiment(SMALL_RECOVERY).rows[0]
    records = [run_recovery_trial(SMALL_RECOVERY, 6, i) for i in reversed(range(3))]
    assert row["success_rate"] == float(np.mean([r.success for r in reversed(records)]))
    assert row["mean_final_rel_error"] == float(
        np.mean([r.final_rel_error for r in reversed(records)]))
    assert row["mean_init_rel_error"] == float(
        np.mean([r.init_rel_error for r in reversed(records)]))


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        run_init_experiment(SMALL_RECOVERY)
    with pytest.raises(ValueError):
        run_recovery_experiment(SMALL_INIT)


def test_csv_round_trips_floats():
    table = run_init_experiment(SMALL_INIT)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "ratio,N,gsi_mean_rel_error,si_mean_rel_error,trials"
    cells = lines[1].split(",")
    assert float(cells[2]) == table.rows[0]["gsi_mean_rel_error"]  # 17g exact


def test_empty_table_header_only():
    table = ResultTable(["a", "b"], [])
    assert table.to_csv() == "a,b\n"
