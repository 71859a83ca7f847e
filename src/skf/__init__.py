"""State estimation with mixed Gaussian and bounded uncertainty.

The filter propagates three objects per step: a center estimate, a
covariance for the Gaussian error component, and an ellipsoidal bound on
the set of possible means. Ellipsoid calculus (trace-minimal outer
bounds of Minkowski sums, computed on shape matrices) drives the set
part; a per-step scalar optimization balances the two uncertainty kinds
in the gain, weighted by ``FilterConfig.eta``, the filter's only setting.
"""

from .ellipsoid import (
    DegenerateEllipsoidError,
    Ellipsoid,
    affine_image,
    contains,
    pair_sum_shape,
    sample_boundary,
    trace_min_sum,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    Trial,
    aggregate,
    example1_config,
    example2_config,
    run_trial,
    run_trials,
    sensitivity_sweep,
    simulate_truth,
)
from .filter import (
    FilterConfig,
    FilterError,
    GainReport,
    NumericsError,
    SingularInnovationError,
    StateBelief,
    ekf_step,
    skf_gain,
    skf_predict,
    skf_update,
)
from .model import (
    AnalyticJacobians,
    Linearization,
    ModelEvaluationError,
    NonlinearModel,
    linearize_measurement,
    linearize_process,
    wrap_angles,
)
from .optimizer import OptimizerError, ScalarProblem, minimize_scalar

__version__ = "0.1.0"

__all__ = [
    "AnalyticJacobians",
    "DegenerateEllipsoidError",
    "Ellipsoid",
    "ExperimentConfig",
    "ExperimentError",
    "FilterConfig",
    "FilterError",
    "GainReport",
    "Linearization",
    "ModelEvaluationError",
    "NonlinearModel",
    "NumericsError",
    "OptimizerError",
    "ScalarProblem",
    "SingularInnovationError",
    "StateBelief",
    "Trial",
    "affine_image",
    "aggregate",
    "contains",
    "ekf_step",
    "example1_config",
    "example2_config",
    "linearize_measurement",
    "linearize_process",
    "minimize_scalar",
    "pair_sum_shape",
    "run_trial",
    "run_trials",
    "sample_boundary",
    "sensitivity_sweep",
    "simulate_truth",
    "skf_gain",
    "skf_predict",
    "skf_update",
    "trace_min_sum",
    "wrap_angles",
]
