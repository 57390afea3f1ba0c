"""Tractability analysis for compact linear multivariate problems.

Given the eigenvalue sequences lambda(d, j) of such a problem, the package
computes information complexity under the absolute and normalized error
criteria, evaluates the criterion sums whose uniform boundedness in d
characterises the strong polynomial / polynomial / quasi-polynomial / weak /
uniformly weak tractability notions in both the algebraic and exponential
cases, classifies problems accordingly, brackets tractability exponents,
and verifies explicit complexity bounds against a brute-force oracle.
"""

__version__ = "0.1.0"

from .boundcheck import BoundSpec, bound_t1, bound_t2, bound_t3, diagnostics, verify_domination
from .classifier import (
    ExponentBracket,
    GrowthFit,
    Limits,
    Notion,
    TractabilityVerdict,
    check_implications,
    classify_all,
    decide,
    exponent_bracket,
    growth_fit,
)
from .complexity import ComplexityQuery, ComplexityResult, count_oracle, info_complexity, nth_minimal_error
from .criteria import (
    CriterionParams,
    SupEvaluation,
    evaluate_sum,
    sum_pt_alg,
    sum_pt_exp,
    sum_qpt_alg,
    sum_qpt_exp,
    sum_spt_alg,
    sum_spt_exp,
    sum_wt_alg,
    sum_wt_exp,
    sup_over_d,
    uwt_statistic,
)
from .eigenmodel import (
    EigenModel,
    ErrorCriterion,
    ExpDecay,
    Expression,
    FiniteRank,
    Geometric,
    GeometricTail,
    PolyDecay,
    PowerLawTail,
    StretchedExpTail,
    Tabulated,
    TailEnvelope,
    cri,
    eigenvalue,
    eigenvalues,
    model_from_config,
    validate,
)
from .summation import SumEvaluation, SumStatus

__all__ = [
    "__version__",
    "BoundSpec",
    "bound_t1",
    "bound_t2",
    "bound_t3",
    "diagnostics",
    "verify_domination",
    "ExponentBracket",
    "GrowthFit",
    "Limits",
    "Notion",
    "TractabilityVerdict",
    "check_implications",
    "classify_all",
    "decide",
    "exponent_bracket",
    "growth_fit",
    "ComplexityQuery",
    "ComplexityResult",
    "count_oracle",
    "info_complexity",
    "nth_minimal_error",
    "CriterionParams",
    "SupEvaluation",
    "evaluate_sum",
    "sum_pt_alg",
    "sum_pt_exp",
    "sum_qpt_alg",
    "sum_qpt_exp",
    "sum_spt_alg",
    "sum_spt_exp",
    "sum_wt_alg",
    "sum_wt_exp",
    "sup_over_d",
    "uwt_statistic",
    "EigenModel",
    "ErrorCriterion",
    "ExpDecay",
    "Expression",
    "FiniteRank",
    "Geometric",
    "GeometricTail",
    "PolyDecay",
    "PowerLawTail",
    "StretchedExpTail",
    "Tabulated",
    "TailEnvelope",
    "cri",
    "eigenvalue",
    "eigenvalues",
    "model_from_config",
    "validate",
    "SumEvaluation",
    "SumStatus",
]
