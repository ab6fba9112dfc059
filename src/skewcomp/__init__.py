"""Clock-skew compensation with guaranteed floating-point error bounds.

The package computes integer candidate intervals for the skew-compensated
clock j ~ i*D/A under three interval constructions, refines them with an
integer-only walk up from the lower bound, and checks everything against
an exact rational oracle.  See the README for the experiment reproduction
commands.
"""

from .bounds import (
    DEFAULT_EPS_COEFF,
    METHODS,
    CandidateInterval,
    InvalidSlope,
    UnsupportedBase,
    ZeroDivisor,
    candidate_interval,
    clock_estimate,
    emulated_clock_estimate,
    interval_deltas,
    reference_interval,
    rounded_coefficients,
    theoretical_coefficients,
)
from .compensator import (
    CompResult,
    OverflowRisk,
    RefineResult,
    SkewOutOfRange,
    compensate,
    naive_compensate,
    oracle_nearest,
    refine,
)
from .experiment import (
    TABLE2_CONFIGS,
    TABLE3_ALGORITHMS,
    BoundsRow,
    ClockSample,
    CompRow,
    StatSummary,
    bounds_experiment,
    compensation_experiment,
    generate_samples,
    sample_cases,
)
from .formats import (
    BINARY32,
    BINARY64,
    FORMATS,
    ErrorBudget,
    FloatFormat,
    error_budget,
    op_error_bound,
    relative_errors,
    resolve_format,
    unit_roundoff,
)
from .rationals import (
    ZeroDenominator,
    ceil_rat,
    floor_rat,
    is_in_format,
    rat,
    round_half_up_rat,
    round_to_format,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # rationals
    "ZeroDenominator",
    "rat",
    "floor_rat",
    "ceil_rat",
    "round_half_up_rat",
    "round_to_format",
    "is_in_format",
    # formats
    "FloatFormat",
    "BINARY32",
    "BINARY64",
    "FORMATS",
    "resolve_format",
    "unit_roundoff",
    "op_error_bound",
    "relative_errors",
    "ErrorBudget",
    "error_budget",
    # bounds
    "CandidateInterval",
    "METHODS",
    "DEFAULT_EPS_COEFF",
    "theoretical_coefficients",
    "rounded_coefficients",
    "clock_estimate",
    "emulated_clock_estimate",
    "candidate_interval",
    "reference_interval",
    "interval_deltas",
    "UnsupportedBase",
    "ZeroDivisor",
    "InvalidSlope",
    # compensator
    "oracle_nearest",
    "refine",
    "compensate",
    "naive_compensate",
    "RefineResult",
    "CompResult",
    "OverflowRisk",
    "SkewOutOfRange",
    # experiment
    "ClockSample",
    "StatSummary",
    "BoundsRow",
    "CompRow",
    "generate_samples",
    "sample_cases",
    "bounds_experiment",
    "compensation_experiment",
    "TABLE2_CONFIGS",
    "TABLE3_ALGORITHMS",
]
