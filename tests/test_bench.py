import dataclasses
import inspect
import json
import math
import re

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
    UNIFORM,
    baseline_si,
    generate_signal,
    gsi,
    power_method,
    run_init_experiment,
    run_recovery_experiment,
    run_recovery_trial,
    trial_seed,
)
from phasekit.bench import _rows
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
    with pytest.raises(ValueError, match="^ratio grid must be nonempty$"):
        ExperimentConfig(ExperimentKind.INIT_ERROR, TERNARY_REAL, ratio_grid=())


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
    from_numpy, from_python = run_init_experiment(as_numpy), run_init_experiment(as_python)
    assert json.dumps([from_numpy.metadata, from_numpy.rows]) == \
        json.dumps([from_python.metadata, from_python.rows])
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
    # trial_seed keys a ratio by round(1000 * ratio), up to the edge of float range
    assert trial_seed(0, 2.0001, 0).spawn_key == trial_seed(0, 2.0002, 0).spawn_key
    assert trial_seed(0, 1.79e305, 0).spawn_key == (int(round(1000 * 1.79e305)), 0)
    with pytest.raises(ValueError, match="trial streams"):
        ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL, ratio_grid=(2.0001, 2.0002))
    ExperimentConfig(ExperimentKind.SUCCESS_RATE, TERNARY_REAL, ratio_grid=(2.001, 2.002))


def test_a_ratio_of_no_rows_or_more_than_an_array_holds_is_named():
    # sample_measurements raised "N must be an integer >= 1, got 0", numpy's "Maximum
    # allowed dimension exceeded" or "array is too big", none naming the ratio; no array
    # is allocated on the way to the error
    for ratio, message in ((0, "ratio * d = 0 rounds to 0 rows"),
                           (0.01, "ratio * d = 0.16 rounds to 0 rows"),
                           (1e300, "ratio * d = 1.6e+301 rows of 16 entries are more than a "
                                   "numpy array holds")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_recovery_trial(SMALL_RECOVERY, ratio, 0)
    assert _rows(2 ** 53 - 1, 8, "ratio") == 2 ** 56 - 8  # 2^59 - 64 entries of 16 B
    with pytest.raises(ValueError, match=r"^r \* d = 7\.20576e\+16 rows of 8 entries"):
        _rows(2 ** 53, 8, "r")  # 2^59 entries: 2^63 B, one more than intp holds


@pytest.mark.parametrize("field,entry", [
    (Field.REAL, TERNARY), (Field.COMPLEX, GAUSSIAN), (Field.COMPLEX, TERNARY)])
def test_init_trial_weights_its_own_measurements_in_place(field, entry, traced_peak):
    # N x d weighted rows beside the sampled ones would lift the peak to
    # about 2x the measurement matrix
    cfg = ExperimentConfig(ExperimentKind.INIT_ERROR, Ensemble(field, entry), d=128,
                           ratio_grid=(20,), trials=1, base_seed=3)
    peak = traced_peak(lambda: run_init_experiment(cfg))
    itemsize = 16 if field is Field.COMPLEX else 8
    assert peak < 1.75 * (20 * 128) * 128 * itemsize


@pytest.mark.parametrize("field,entry,ratio", [
    (Field.COMPLEX, TERNARY, 8), (Field.REAL, UNIFORM, 4)], ids=["complex-ternary", "real-uniform"])
def test_recovery_trial_holds_one_copy_of_its_rows(field, entry, ratio, traced_peak):
    # GSI weights the drawn rows in place and the descent gets a second draw of them;
    # weighted rows beside the plain ones read 2.53x and 2.58x the rows' bytes
    d = 64
    cfg = ExperimentConfig(ExperimentKind.SUCCESS_RATE, Ensemble(field, entry), d=d,
                           ratio_grid=(ratio,), trials=1)
    peak = traced_peak(lambda: run_recovery_trial(cfg, ratio, 0))
    assert peak < 2 * (ratio * d) * d * (16 if field is Field.COMPLEX else 8)


@pytest.mark.parametrize("kind", [ExperimentKind.SUCCESS_RATE, ExperimentKind.INIT_ERROR],
                         ids=["recovery", "init"])
def test_a_complex_trial_forms_Y_over_its_spent_rows(kind, traced_peak):
    # the weighted rows receive Y, so the real product of their view is GSI's one new
    # array; a new Y beside rows and product read 1.53x the rows' bytes, 1.40-1.41x without
    d, ratio = 64, 8
    cfg = ExperimentConfig(kind, Ensemble(Field.COMPLEX, TERNARY), d=d, ratio_grid=(ratio,),
                           trials=1)
    run = (lambda: run_recovery_trial(cfg, ratio, 0)) if kind is ExperimentKind.SUCCESS_RATE \
        else (lambda: run_init_experiment(cfg))
    assert traced_peak(run) <= 1.45 * (ratio * d) * d * 16


def test_a_sampler_that_ignores_its_generator_is_named():
    # the descent's rows are a second draw from the trial's seed, so a law whose
    # sampler draws anything else would leave them disagreeing with y
    unseeded = EntryDistribution("unseeded", 1.0, 3.0, lambda rng, shape:
                                 np.random.default_rng().standard_normal(shape))
    cfg = ExperimentConfig(ExperimentKind.SUCCESS_RATE, Ensemble(Field.REAL, unseeded), d=16,
                           ratio_grid=(6,), trials=1)
    message = ("entry distribution 'unseeded': a second draw from the same seed gave other "
               "rows; its sampler must depend only on its generator and shape")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_recovery_trial(cfg, 6, 0)


def test_recovery_trial_record_fields():
    rec = run_recovery_trial(SMALL_RECOVERY, ratio=6, trial=0)
    assert rec.init_rel_error >= 0.0
    assert rec.iterations <= 500
    assert rec.success == (rec.final_rel_error < SMALL_RECOVERY.success_threshold)


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


def test_csv_round_trips_floats():
    table = run_init_experiment(SMALL_INIT)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "ratio,N,gsi_mean_rel_error,si_mean_rel_error,trials"
    cells = lines[1].split(",")
    assert float(cells[2]) == table.rows[0]["gsi_mean_rel_error"]  # 17g exact


def test_empty_table_header_only():
    table = ResultTable(["a", "b"], [])
    assert table.to_csv() == "a,b\n"
