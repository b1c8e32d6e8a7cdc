"""Online regularized weighted-least-squares state tracking.

A recursive estimator for time-varying linear measurement models with fewer
measurements per step than states, the contraction/error-bound theory that
governs it, and a reproducible Monte Carlo harness.
"""

from .estimator import (
    DEFAULT_RANK_TOL,
    EstimatorConfig,
    EstimatorState,
    LambdaDecomposition,
    MeasurementBatch,
    decompose_lambda,
    information_matrix,
    initial_state,
    lambda_matrix,
    run_stream,
    update,
    update_gradient_form,
)
from .analysis import (
    BoundReport,
    EnsembleConstants,
    ErrorMoments,
    SystemEnsemble,
    bound_report,
    bound_series_bounded,
    contraction_norm,
    ensemble_constants,
    gamma_star,
    gamma_star_bounded,
    gamma_star_stochastic,
    h_bounded,
    h_stochastic,
    observability_window,
    propagate_error_moments,
    psi,
    smallest_nonzero_eig,
    vectorized_sigma_step,
)
from .simulation import (
    McSummary,
    NoiseModel,
    RunResult,
    ScenarioConfig,
    build_ensemble,
    derive_seed,
    generate_library,
    generate_noise,
    generate_sequence,
    generate_trajectory,
    monte_carlo,
    seed_for_run,
    simulate_run,
)

__version__ = "0.1.0"
