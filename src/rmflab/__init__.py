"""Numerical laboratory for R-bounds, Rademacher maximal functions,
filtration reductions, and vector-valued martingale experiments on finite
atomic measure spaces.
"""

from .filtration import (
    AtomicMeasureSpace,
    Filtration,
    Partition,
    ResolutionError,
    StepFunction,
    boolean_isomorphism,
    conditional_expectation,
    dyadic_haar_approximate,
    haar_embed,
    make_dyadic_filtration,
    random_haar_filtration,
)
from .martingale import (
    SimpleMartingale,
    from_function,
    good_lambda_experiment,
    good_lambda_experiments,
    gundy_decompose,
    validate_martingale,
    weak_rmf_probe,
)
from .maximal import doob_maximal, lp_norm, rademacher_maximal, rmf_ratio
from .rademacher import (
    EnumConfig,
    MomentEstimate,
    rademacher_moment,
    type_cotype_estimate,
)
from .rbound import RBoundBracket, rbound_certify_grid, rbound_scalar
from .spaces import Space, Vector, dual_exponent, hilbert_op_space, lp_space, norm, schatten_space

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasureSpace",
    "EnumConfig",
    "Filtration",
    "MomentEstimate",
    "Partition",
    "RBoundBracket",
    "ResolutionError",
    "SimpleMartingale",
    "Space",
    "StepFunction",
    "Vector",
    "boolean_isomorphism",
    "conditional_expectation",
    "doob_maximal",
    "dual_exponent",
    "dyadic_haar_approximate",
    "from_function",
    "good_lambda_experiment",
    "good_lambda_experiments",
    "gundy_decompose",
    "haar_embed",
    "hilbert_op_space",
    "lp_norm",
    "lp_space",
    "make_dyadic_filtration",
    "norm",
    "rademacher_maximal",
    "rademacher_moment",
    "random_haar_filtration",
    "rbound_certify_grid",
    "rbound_scalar",
    "rmf_ratio",
    "schatten_space",
    "type_cotype_estimate",
    "validate_martingale",
    "weak_rmf_probe",
]
