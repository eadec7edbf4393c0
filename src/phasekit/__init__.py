"""Phase retrieval from sub-Gaussian rank-one measurements."""

from .ensembles import (
    BUILTIN_ENTRIES,
    GAUSSIAN,
    TERNARY,
    UNIFORM,
    Ensemble,
    EntryDistribution,
    Field,
    MeasurementSet,
    MomentProfile,
    derived_constants,
    moment_profile,
    sample_measurements,
)
from .solver import (
    BarzilaiBorwein,
    FixedStep,
    SolveReport,
    SolveStatus,
    SolverConfig,
    dist,
    gradient,
    objective,
    solve,
)
from .spectral import (
    baseline_si,
    build_M,
    build_Y,
    gsi,
    measure,
    power_method,
    rho_from_intensities,
)
from .verify import (
    concentration_curve,
    condition_expectation,
    convergence_rate_fit,
    f_block_expectation,
    hermitian_opnorm,
    mc_F_residual,
    mc_condition_residual,
)
from .bench import (
    ExperimentConfig,
    ExperimentKind,
    ResultTable,
    TrialRecord,
    generate_signal,
    run_init_experiment,
    run_recovery_experiment,
    run_recovery_trial,
    trial_seed,
)

__version__ = "0.1.0"
