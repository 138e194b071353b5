"""Orthogonal-polynomial density approximation.

Given an unnormalized density on R^N that can only be evaluated pointwise,
the transform projects its square root onto the orthonormal Hermite basis
with Gauss-Hermite tensor quadrature. The squared coefficients sum to the
density's integral (the evidence), and the coefficient set reconstructs a
normalized smooth approximation of the density.
"""

from .core import (
    AffineMap,
    ApproxDensity,
    CoefficientSet,
    GridPoints,
    RunResult,
    TargetDensity,
    build_density,
    coefficient_naive,
    coefficients_contracted,
    run_opaa,
)
from .errors import (
    CapacityError,
    DegenerateTargetError,
    NumericalDomainError,
    OracleRefusedError,
)
from .hermite import HermiteTable, build_table, eval_h, eval_psi, extend_table
from .models import (
    GaussianIdentity,
    GmmJointDensity,
    GmmModel,
    PlantedDensity,
    from_config,
    gmm_log_joint,
    gmm_sample_dataset,
    load_config,
)
from .multiindex import enumerate_shell, shell_count
from .oracle import BoxSpec, gmm_evidence_direct, integrate_box, integrate_box_refined
from .quadrature import (
    QuadratureRule,
    TensorGrid,
    gauss_hermite,
    integrate_1d,
    weight_multiset_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "ApproxDensity",
    "BoxSpec",
    "CapacityError",
    "CoefficientSet",
    "DegenerateTargetError",
    "GaussianIdentity",
    "GmmJointDensity",
    "GmmModel",
    "GridPoints",
    "HermiteTable",
    "NumericalDomainError",
    "OracleRefusedError",
    "PlantedDensity",
    "QuadratureRule",
    "RunResult",
    "TargetDensity",
    "TensorGrid",
    "__version__",
    "build_density",
    "build_table",
    "coefficient_naive",
    "coefficients_contracted",
    "enumerate_shell",
    "eval_h",
    "eval_psi",
    "extend_table",
    "from_config",
    "gauss_hermite",
    "gmm_evidence_direct",
    "gmm_log_joint",
    "gmm_sample_dataset",
    "integrate_1d",
    "integrate_box",
    "integrate_box_refined",
    "load_config",
    "run_opaa",
    "shell_count",
    "weight_multiset_stats",
]
