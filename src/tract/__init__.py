"""Tractability analysis for compact linear multivariate problems.

Given the eigenvalue sequences lambda(d, j) of such a problem, the package
computes information complexity under the absolute and normalized error
criteria, evaluates the criterion sums whose uniform boundedness in d
characterises the strong polynomial / polynomial / quasi-polynomial / weak /
uniformly weak tractability notions in both the algebraic and exponential
cases, classifies problems accordingly, brackets tractability exponents,
and verifies explicit complexity bounds against a brute-force oracle.

``import tract`` loads no submodule.  Each exported name is imported from
its module on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# Module -> the names it exports through the package.
_EXPORTS = {
    name: f"{__name__}.{module}"
    for module, names in {
        "boundcheck": "BoundSpec bound_t1 bound_t2 bound_t3 diagnostics verify_domination",
        "classifier": "ExponentBracket GrowthFit Notion TractabilityVerdict check_implications "
        "classify_all decide exponent_bracket growth_fit",
        "complexity": "ComplexityQuery ComplexityResult count_oracle info_complexity nth_minimal_error",
        "config": "CriterionParams Limits model_from_config",
        "criteria": "SupEvaluation evaluate_sum sum_pt_alg sum_pt_exp sum_qpt_alg sum_qpt_exp "
        "sum_spt_alg sum_spt_exp sum_wt_alg sum_wt_exp sup_over_d uwt_statistic",
        "eigenmodel": "EigenModel ErrorCriterion ExpDecay Expression FiniteRank Geometric GeometricTail "
        "PolyDecay PowerLawTail StretchedExpTail Tabulated TailEnvelope cri eigenvalue eigenvalues validate",
        "summation": "SumEvaluation SumStatus",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    # Not cached in the package: a name rebound in its module (by a test or
    # a tracer) is seen here too.  sys.modules answers once it is imported.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _EXPORTS[name]
    return getattr(sys.modules.get(module) or import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
