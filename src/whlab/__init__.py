"""Lattice random-walk factorization and recovery from half-line data.

The package splits into layers: ``lattice`` holds finite measures on the
integer lattice and their arithmetic; ``data`` is the observation model
(convolution powers restricted to the nonnegative half-line); ``ladder``
computes first-passage laws, truncated transforms with certified bounds,
and the factorization check; ``reconstruct`` inverts the observation model
class by class; ``montecarlo`` validates the exact laws against seeded
simulation; ``generators`` and ``cli`` wrap everything for experiments.
"""

from .data import TruncatedData, load_data_dir, save_data_dir, truncated_data
from .errors import (
    ClassNotDetected,
    ConditioningError,
    ConfigError,
    DataInconsistencyError,
    DomainError,
    InsufficientSamplesError,
    SizeLimitError,
    WhlabError,
)
from .expfit import ExpFit, pencil_fit
from .generators import (
    FAMILIES,
    GeneratedDist,
    custom_file,
    geometric_mixture,
    make_distribution,
    point_mass,
    power_tail_pair,
    two_point,
    uniform_window,
)
from .ladder import (
    DOWNWARD,
    UPWARD,
    ExpMomentReport,
    FactorizationReport,
    LadderLaw,
    TransformGrid,
    chi_eval_grid,
    exp_moment_conditions,
    ladder_law,
    spitzer_chi_grid,
    verify_factorization,
)
from .lattice import (
    LatticeDist,
    convolve,
    delta,
    eval_transform,
    lattice,
    restrict_nonneg,
    split_nonneg,
    sup_distance,
    tv_distance,
    zero_measure,
)
from .montecarlo import (
    ComparisonReport,
    EmpiricalLadder,
    WalkSample,
    censored_z,
    compare_empirical,
    sample_ladder,
    walk_sample,
)
from .reconstruct import (
    CLASS_DISCRETE_CM,
    CLASS_EXPONENTIAL,
    CLASS_NONE,
    CLASS_SKIP_FREE,
    CLASS_TRIANGULAR,
    DETECTOR_ORDER,
    CorrelationSolution,
    DeconvolvedData,
    Drift,
    ReconstructionReport,
    auto_reconstruct,
    correlation_inverse,
    correlation_lhs_from_data,
    deconvolve_extension,
    extend_by_negative,
    recover_cm_discrete,
    recover_exponential,
    recover_skipfree,
    recover_triangular,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "WhlabError",
    "DomainError",
    "SizeLimitError",
    "DataInconsistencyError",
    "ClassNotDetected",
    "ConditioningError",
    "InsufficientSamplesError",
    "ConfigError",
    # lattice
    "LatticeDist",
    "lattice",
    "delta",
    "zero_measure",
    "convolve",
    "split_nonneg",
    "restrict_nonneg",
    "eval_transform",
    "tv_distance",
    "sup_distance",
    # data
    "TruncatedData",
    "truncated_data",
    "save_data_dir",
    "load_data_dir",
    # ladder
    "UPWARD",
    "DOWNWARD",
    "LadderLaw",
    "ladder_law",
    "TransformGrid",
    "chi_eval_grid",
    "spitzer_chi_grid",
    "FactorizationReport",
    "verify_factorization",
    "ExpMomentReport",
    "exp_moment_conditions",
    # expfit
    "ExpFit",
    "pencil_fit",
    # reconstruct
    "CLASS_EXPONENTIAL",
    "CLASS_SKIP_FREE",
    "CLASS_TRIANGULAR",
    "CLASS_DISCRETE_CM",
    "CLASS_NONE",
    "DETECTOR_ORDER",
    "ReconstructionReport",
    "CorrelationSolution",
    "DeconvolvedData",
    "recover_exponential",
    "Drift",
    "recover_skipfree",
    "correlation_lhs_from_data",
    "correlation_inverse",
    "recover_cm_discrete",
    "recover_triangular",
    "extend_by_negative",
    "deconvolve_extension",
    "auto_reconstruct",
    # montecarlo
    "WalkSample",
    "walk_sample",
    "EmpiricalLadder",
    "sample_ladder",
    "ComparisonReport",
    "compare_empirical",
    "censored_z",
    # generators
    "GeneratedDist",
    "FAMILIES",
    "point_mass",
    "two_point",
    "uniform_window",
    "geometric_mixture",
    "power_tail_pair",
    "custom_file",
    "make_distribution",
]
