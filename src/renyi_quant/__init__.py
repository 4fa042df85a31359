"""Scalar quantization under a Renyi entropy constraint.

Library surface: density families with analytic functionals, a deterministic
adaptive quadrature, quantizer evaluation (entropy, distortion, restrictions),
companding construction of asymptotically optimal quantizer sequences,
closed-form high-rate predictors, and a rate-sweep experiment harness.
"""

from .intervals import Interval, REAL_LINE
from .errors import (
    ConfigError,
    DegenerateCellError,
    DomainError,
    EmptyConditioningError,
    HypothesisError,
    InfiniteIntegralError,
    NonConvergenceError,
    RenyiQuantError,
)
from .density import (
    Density,
    Exponential,
    Gaussian,
    Laplacian,
    PiecewiseLinear,
    RestrictedDensity,
    TiltedDensity,
    Uniform,
    UnimodalityReport,
    check_weak_unimodality,
    density_from_spec,
)
from .quadrature import IntegrationResult, integrate, truncate_support
from .quantizer import (
    Quantizer,
    cell_probabilities,
    distortion,
    quantizer_entropy,
    renyi_entropy_vec,
    restricted_metrics,
)
from .compander import build_compander, optimal_point_density, refine_codepoints
from .theory import (
    RateParams,
    SplitBoundResult,
    cell_constant,
    compander_performance,
    entropy_density_limit,
    limit_distortion_measure,
    mismatch_distortion_limit,
    mismatch_entropy_shift,
    mismatch_loss,
    mismatch_loss_fixed_rate,
    mismatch_loss_variable_rate,
    quantization_coefficient,
    rate_params,
    renyi_divergence,
    split_bound,
    tilted_measure,
)
from .experiments import (
    ConvergenceReport,
    ExperimentConfig,
    run_asymptotics,
    run_distortion_density,
    run_entropy_density,
    run_mismatch,
    run_sanity,
)

__version__ = "0.1.0"
