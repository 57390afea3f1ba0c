"""Tractability classification, exponent bracketing, and growth fits.

A verdict is one of

Holds          a certificate covers every dimension (closed-form boundedness
               for effectively d-independent models, a finite spectrum, or a
               recognised decay family),
Fails          a divergence certificate exists (or, for the eigenvalue decay
               statistics, a certified bounded plateau),
SupportedUpTo  finite evidence agrees with the notion up to the probed
               limits but nothing lifts it to every d or every parameter,
Inconclusive   the evidence is mixed or certification was impossible.

The searched parameter grids and the bisection refinement are deliberately
coarse-to-fine: a log grid locates a passing/failing pair, bisection then
narrows the induced exponent bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .complexity import ComplexityQuery, first_index, info_complexity
from .config import CriterionParams, Limits
from .criteria import (
    SUM_SPECS,
    SupEvaluation,
    _classify_trend,
    convergence_plan,
    evaluate_sum,
    sup_over_d,
    uwt_statistic,
)
from .eigenmodel import (
    EigenModel,
    ErrorCriterion,
    GeometricTail,
    PowerLawTail,
    StretchedExpTail,
    _ratios_d_free,
    eigenvalue,
    ratios,
    ratio_envelope,
    support,
)
from .errors import DegenerateGridError, NoPassingPointError
from .summation import Divergence, SumStatus

__all__ = [
    "Limits",
    "Notion",
    "TractabilityVerdict",
    "ExponentBracket",
    "GrowthFit",
    "decide",
    "exponent_bracket",
    "growth_fit",
    "check_implications",
    "classify_all",
    "standard_notions",
]

_KINDS = ("SPT", "PT", "QPT", "WT", "UWT")  # also the order check_implications reports in
_TAU_GRID = tuple(2.0**e for e in range(-8, 9))
_AUX_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)  # tau1 / tau3 style exponents
_EVIDENCE_TAU_GRID = (1.0, 2.0, 4.0, 0.5, 0.25)  # convergent-first ordering
_EVIDENCE_MAX_TERMS = 32_768
_EVIDENCE_TOL = 1e-6  # trend evidence needs stops, not certified digits


@dataclass(frozen=True)
class Notion:
    kind: str  # SPT | PT | QPT | WT | UWT
    case: str  # ALG | EXP
    criterion: ErrorCriterion
    s: float | None = None
    t: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown notion kind {self.kind!r}")
        if self.case not in ("ALG", "EXP"):
            raise ValueError("case must be ALG or EXP")
        if self.kind == "WT" and not (self.s and self.t and self.s > 0 and self.t > 0):
            raise ValueError("WT requires positive s and t")

    @property
    def name(self) -> str:
        kind = self.kind
        if kind == "WT":
            kind = f"WT({self.s:g},{self.t:g})"
        return f"{self.case}-{kind}-{self.criterion.value}"

    @property
    def sum_kind(self) -> str:
        if self.kind == "UWT":
            raise ValueError("UWT is decided from the decay statistic, not a criterion sum")
        return f"{self.kind.lower()}-{self.case.lower()}"


class TractabilityVerdict(NamedTuple):
    notion: Notion
    status: str  # Holds | Fails | SupportedUpTo | Inconclusive
    witness: CriterionParams | None
    evidence: dict
    limits: Limits

    def as_dict(self) -> dict:
        return {
            "notion": self.notion.name,
            "status": self.status,
            "witness": self.witness.as_dict() if self.witness else None,
            "evidence": self.evidence,
            "limits": self.limits.as_dict(),
        }


class ExponentBracket(NamedTuple):
    lo: float
    hi: float
    lo_witness: CriterionParams | None
    hi_witness: CriterionParams | None

    def as_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "lo_witness": self.lo_witness.as_dict() if self.lo_witness else None,
            "hi_witness": self.hi_witness.as_dict() if self.hi_witness else None,
        }


class GrowthFit(NamedTuple):
    C: float
    p: float
    q: float
    residual: float

    def as_dict(self) -> dict:
        return {"C": self.C, "p": self.p, "q": self.q, "residual": self.residual}


# ---------------------------------------------------------------------------
# Certificate availability
# ---------------------------------------------------------------------------


def _scale_nonincreasing(model: EigenModel) -> bool:
    values = model.scale_at(np.r_[1:65, 2 ** np.arange(7, 13)])  # d = 1..64, 128..4096
    return bool(np.all(values[1:] <= values[:-1] * (1 + 1e-12)))


def _effectively_d_independent(model: EigenModel, criterion: ErrorCriterion) -> bool:
    """True when finite-d evidence provably covers every d.

    Ratios free of d cover it directly; under the absolute criterion a
    probed nonincreasing scale keeps every criterion term monotone in d.
    """
    return _ratios_d_free(model, criterion) or (model.family.d_free and _scale_nonincreasing(model))


def _sup_attained_at_d1(model: EigenModel, sum_kind: str, criterion: ErrorCriterion) -> bool:
    """Every criterion term is nonincreasing in d, so sup_d = value at d=1.

    Holds for effectively d-independent models; the algebraic QPT sum under
    ABS additionally needs ratios <= 1 because its inner exponent grows
    with d.
    """
    if not _effectively_d_independent(model, criterion):
        return False
    if sum_kind == "qpt-alg" and criterion is ErrorCriterion.ABS:
        return eigenvalue(model, 1, 1) <= 1.0
    return True


def _exact_env(model: EigenModel, criterion: ErrorCriterion):
    env = ratio_envelope(model, 1, criterion, 1)
    return env if env is not None and env.exact else None


# ---------------------------------------------------------------------------
# Parameter axes
# ---------------------------------------------------------------------------


class _Axis(NamedTuple):
    """How decide and exponent_bracket probe one summable notion.

    ``params(value, aux)`` are the criterion parameters at a grid value and
    an aux exponent (tau1, and tau3 for PT); ``exponent(value, aux)`` is the
    tractability exponent they give, None for PT.  The algebraic power sums
    and the exponential QPT sum pass for large values, the index-coupled
    exponential SPT/PT sums for small ones.  Under ABS the notions whose
    params read aux also scan it over _AUX_GRID.
    """

    params: Callable[[float, float], CriterionParams]
    exponent: Callable[[float, float], float] | None
    small_passes: bool = False
    scans_aux: bool = False

    def aux_grid(self, criterion: ErrorCriterion) -> tuple[float, ...]:
        return _AUX_GRID if self.scans_aux and criterion is ErrorCriterion.ABS else (0.0,)


def _spt(value: float, aux: float) -> CriterionParams:
    return CriterionParams(tau=value, c_tilde=1.0)


def _pt(value: float, aux: float) -> CriterionParams:
    return CriterionParams(tau1=aux, tau2=value, tau3=aux, c_tilde=1.0)


_AXES = {
    ("SPT", "ALG"): _Axis(_spt, lambda v, aux: 2.0 * v),
    ("SPT", "EXP"): _Axis(_spt, lambda v, aux: 1.0 / v, small_passes=True),
    ("PT", "ALG"): _Axis(_pt, None, scans_aux=True),
    ("PT", "EXP"): _Axis(_pt, None, small_passes=True, scans_aux=True),
    ("QPT", "ALG"): _Axis(
        lambda v, aux: CriterionParams(tau1=aux, tau2=v, c_tilde=1.0),
        lambda v, aux: max(aux, 2.0 * v),
        scans_aux=True,
    ),
    ("QPT", "EXP"): _Axis(lambda v, aux: CriterionParams(tau=v), lambda v, aux: v),
}


def _certified_probe(
    model: EigenModel, sum_kind: str, params: CriterionParams, criterion: ErrorCriterion
) -> str:
    """'pass' / 'fail' / 'unknown' from the tail-plan algebra at d=1."""
    plan = convergence_plan(model, sum_kind, 1, params, criterion)
    if plan is None:
        return "unknown"
    return "fail" if isinstance(plan, Divergence) else "pass"


# ---------------------------------------------------------------------------
# decide()
# ---------------------------------------------------------------------------


def decide(model: EigenModel, notion: Notion, limits: Limits = Limits()) -> TractabilityVerdict:
    """Evaluate one tractability notion for the model within the limits."""
    if notion.kind == "UWT":
        return _decide_uwt(model, notion, limits)
    if notion.kind == "WT":
        return _decide_wt(model, notion, limits)
    axis = _AXES[notion.kind, notion.case]
    if _sup_attained_at_d1(model, notion.sum_kind, notion.criterion):
        verdict = _decide_summable_certified(model, notion, axis, limits)
        if verdict is not None:
            return verdict
    return _decide_summable_evidence(model, notion, axis, limits)


def _decide_summable_certified(
    model: EigenModel, notion: Notion, axis: _Axis, limits: Limits
) -> TractabilityVerdict | None:
    def probe(params: CriterionParams) -> str:
        return _certified_probe(model, notion.sum_kind, params, notion.criterion)

    passing: tuple[float, CriterionParams] | None = None
    failing: float | None = None  # the failing grid value nearest the passing side
    outcomes: list[str] = []
    for tau in _TAU_GRID:
        params = axis.params(tau, 0.0)
        outcome = probe(params)
        outcomes.append(outcome)
        if outcome == "pass" and passing is None:
            passing = (tau, params)
        elif outcome == "fail" and (failing is None or not axis.small_passes):
            failing = tau  # the grid ascends
        if passing and not axis.small_passes:
            break
    if passing is not None:
        tau_pass, params = passing
        if failing is not None:
            mid = 0.5 * (tau_pass + failing)
            mid_params = axis.params(mid, 0.0)
            if probe(mid_params) == "pass":
                tau_pass, params = mid, mid_params
        elif tau_pass != 1.0:
            # Everything passes: prefer a moderate witness whose value is
            # comfortably representable.
            one = axis.params(1.0, 0.0)
            if probe(one) == "pass":
                tau_pass, params = 1.0, one
        witness_eval = evaluate_sum(
            model, notion.sum_kind, 1, params, notion.criterion,
            tol=limits.tol, max_terms=_EVIDENCE_MAX_TERMS,
        )
        return TractabilityVerdict(
            notion, "Holds", params,
            {
                "certificate": "sup over d attained at d=1; tail plan certifies convergence",
                "value_at_d1": witness_eval.as_dict(),
            },
            limits,
        )
    # No passing parameter anywhere on the grid (so the loop probed all of
    # it): certified failure when the whole grid carries divergence
    # certificates and the family-level analysis says no parameter can help
    # (power-law spectra under the exponential criteria).
    form = getattr(_exact_env(model, notion.criterion), "form", None)
    if isinstance(form, PowerLawTail) and notion.case == "EXP" and all(o == "fail" for o in outcomes):
        return TractabilityVerdict(
            notion, "Fails", None,
            {
                "certificate": "power-law spectrum: terms stay bounded away from zero "
                "(or decay only polylogarithmically) for every parameter",
                "grid": list(_TAU_GRID),
            },
            limits,
        )
    if failing is not None:
        # Certificates exist but all say divergence; without the family-level
        # argument the quantifier over parameters stays open.
        return TractabilityVerdict(
            notion, "Inconclusive", None,
            {"note": "every certificate on the parameter grid is a divergence", "grid": list(_TAU_GRID)},
            limits,
        )
    return None  # no certificates at all: fall back to evidence


def _decide_summable_evidence(
    model: EigenModel, notion: Notion, axis: _Axis, limits: Limits
) -> TractabilityVerdict:
    d_sweep = min(limits.d_max, 16)
    best: tuple[CriterionParams, SupEvaluation] | None = None
    for tau in _EVIDENCE_TAU_GRID:
        # Convergence of the j-sum does not depend on the start index, so a
        # cheap single evaluation at d=1 screens the whole aux grid.
        probe = evaluate_sum(
            model, notion.sum_kind, 1, axis.params(tau, 0.0), notion.criterion,
            tol=_EVIDENCE_TOL, max_terms=_EVIDENCE_MAX_TERMS,
        )
        if not probe.converged or probe.divergent:
            continue
        for aux in axis.aux_grid(notion.criterion):
            params = axis.params(tau, aux)
            sweep = sup_over_d(
                model, notion.sum_kind, params, notion.criterion, d_sweep,
                tol=_EVIDENCE_TOL, max_terms=_EVIDENCE_MAX_TERMS,
            )
            if sweep.status is SumStatus.DIVERGENT or not sweep.all_converged:
                continue
            if sweep.trend == "Bounded":
                best = (params, sweep)
                break
        if best:
            break
    if best:
        params, sweep = best
        return TractabilityVerdict(
            notion, "SupportedUpTo", params,
            {"sup": sweep.as_dict(), "note": "finite-d evidence only"},
            limits,
        )
    return TractabilityVerdict(
        notion, "Inconclusive", None,
        {"note": "no parameter produced a bounded, fully evaluated sweep"},
        limits,
    )


def _decide_wt(model: EigenModel, notion: Notion, limits: Limits) -> TractabilityVerdict:
    s, t = float(notion.s), float(notion.t)
    sum_kind = notion.sum_kind
    certifiable = _sup_attained_at_d1(model, sum_kind, notion.criterion)
    form = getattr(_exact_env(model, notion.criterion), "form", None)
    rank = support(model, 1)

    c_grid: list[float] = []
    c = 1.0
    while c >= limits.c_min:
        c_grid.append(c)
        c *= 0.5

    if certifiable and (form is not None or rank is not None):
        # Family-level resolution of the 'for all c > 0' quantifier.
        quantifier = _wt_quantifier(form, sum_kind, s, rank, limits)
        if isinstance(quantifier, float):  # a failing c
            params = CriterionParams(c=quantifier, s=s, t=t)
            if _certified_probe(model, sum_kind, params, notion.criterion) == "fail":
                return TractabilityVerdict(
                    notion, "Fails", params,
                    {
                        "certificate": f"divergent inner sum at c={quantifier:g} "
                        "(power-law spectrum under the doubly logarithmic terms)",
                    },
                    limits,
                )
        elif quantifier == "holds":
            witness = CriterionParams(c=1.0, s=s, t=t)
            value = evaluate_sum(
                model, sum_kind, 1, witness, notion.criterion,
                tol=limits.tol, max_terms=_EVIDENCE_MAX_TERMS,
            )
            return TractabilityVerdict(
                notion, "Holds", witness,
                {
                    "certificate": "inner sum converges for every c > 0 on this family; "
                    "sup over d attained at d=1",
                    "smallest_tested_c": c_grid[-1],
                    "value_at_c1": value.as_dict(),
                },
                limits,
            )

    # Evidence path over the c grid.  The multiplicity certificate runs on
    # exact eigenvalue counts and is independent of any summation budget.
    worst_note = ""
    d_sweep = min(limits.d_max, 24)
    counts = [_count_ratios_at_least_one(model, d, notion.criterion) for d in range(1, d_sweep + 1)]
    for c in c_grid:
        params = CriterionParams(c=c, s=s, t=t)
        cert = _multiplicity_growth(counts, params)
        if cert is not None:
            return TractabilityVerdict(
                notion, "Fails", params, {"certificate": cert, "witness_c": c}, limits
            )
        probe = evaluate_sum(
            model, sum_kind, 1, params, notion.criterion,
            tol=_EVIDENCE_TOL, max_terms=_EVIDENCE_MAX_TERMS,
        )
        if probe.divergent:
            return TractabilityVerdict(
                notion, "Fails", params,
                {"certificate": "divergent inner sum", "witness_c": c},
                limits,
            )
        if not probe.converged:
            worst_note = worst_note or f"inner sum undecided within budget at c={c:g}"
            continue
        sweep = sup_over_d(
            model, sum_kind, params, notion.criterion, d_sweep,
            tol=_EVIDENCE_TOL, max_terms=_EVIDENCE_MAX_TERMS,
        )
        if sweep.status is SumStatus.DIVERGENT:
            return TractabilityVerdict(
                notion, "Fails", params,
                {"certificate": "divergent inner sum", "witness_c": c, "sup": sweep.as_dict()},
                limits,
            )
        if not (sweep.trend == "Bounded" and sweep.all_converged):
            worst_note = worst_note or f"inconclusive sweep at c={c:g} (trend {sweep.trend})"
    if worst_note:
        return TractabilityVerdict(notion, "Inconclusive", None, {"note": worst_note}, limits)
    return TractabilityVerdict(
        notion, "SupportedUpTo", CriterionParams(c=c_grid[-1], s=s, t=t),
        {"note": "bounded sweeps for every tested c", "smallest_tested_c": c_grid[-1]},
        limits,
    )


def _wt_quantifier(form, sum_kind: str, s: float, rank: int | None, limits: Limits):
    """Resolve 'for all c > 0' analytically on an exact family.

    Returns "holds" when the inner sum converges for every c, a failing c
    when some c certifiably diverges, or None when undecided.  The algebraic
    sum has (super-)stretched-exponential terms on every supported envelope;
    the exponential sum only struggles on power-law spectra, where the terms
    are exp(-c (K + beta ln j)**s): summable for every c iff s > 1.
    """
    if rank is not None:
        return "holds"
    if form is None:
        return None
    if sum_kind == "wt-alg":
        return "holds"
    if isinstance(form, (GeometricTail, StretchedExpTail)):
        return "holds"
    if s > 1.0:
        return "holds"
    if s == 1.0:
        return min(limits.c_min, 0.5 / form.beta)
    return 1.0


def _multiplicity_growth(counts: list[int], params: CriterionParams) -> str | None:
    """Exact lower bounds from the multiplicity of ratios >= 1.

    Each eigenvalue with lambda >= CRI contributes a fixed positive term, so
    m(d) * exp(-c d**t) lower-bounds the sweep (``counts`` holds m(1), m(2),
    ...); a growing trend of this exact bound certifies the growing trend.
    """
    c, s = params.c, params.s
    lows = [
        m * math.exp(-c * (1.0 + math.log(2.0)) ** s) * SUM_SPECS["wt-exp"].prefactor(params, d)
        for d, m in enumerate(counts, start=1)
    ]
    if _classify_trend(lows) == "Growing":
        return (
            "multiplicity growth: the count of eigenvalues at or above CRI_d grows "
            "faster than exp(c d^t) damps it"
        )
    return None


def _count_ratios_at_least_one(model: EigenModel, d: int, criterion: ErrorCriterion) -> int:
    rank = support(model, d)
    cap = rank if rank is not None else 1 << 22
    first = first_index(lambda j: ratios(model, d, j, criterion) < 1.0, cap)
    return cap if first is None else first - 1


# ---------------------------------------------------------------------------
# UWT
# ---------------------------------------------------------------------------


def _uwt_grid(n_max: int) -> list[int]:
    ns = []
    n = 16
    while n < n_max:
        ns.append(n)
        n *= 2
    ns.append(n_max)
    return sorted(set(ns))


def _uwt_closed_form(env, case: str, n: float) -> float:
    """The decay statistic computed from an exact envelope."""
    num = -(env.form.log_value(n) + env.log_factor)
    if case == "EXP":
        num = math.log(max(1.0, num))
    return num / math.log(math.log(n))


def _decide_uwt(model: EigenModel, notion: Notion, limits: Limits) -> TractabilityVerdict:
    case = notion.case
    criterion = notion.criterion
    grid = _uwt_grid(limits.n_max)
    ks = (1, 2, 3)
    stats = {
        k: [uwt_statistic(model, n, k, case, criterion) for n in grid] for k in ks
    }
    evidence = {
        "n_grid": grid,
        "statistics": {str(k): stats[k] for k in ks},
        "threshold_at_top": math.log(math.log(grid[-1])),
    }

    recognisable = _effectively_d_independent(model, criterion)
    env = _exact_env(model, criterion)
    form = getattr(env, "form", None)
    rank = support(model, 1)

    if recognisable and rank is not None and grid[-1] > rank:
        if math.isinf(stats[1][-1]):
            return TractabilityVerdict(
                notion, "Holds", None,
                {**evidence, "certificate": "finite spectrum: the statistic is infinite past the rank"},
                limits,
            )

    if recognisable and isinstance(form, (GeometricTail, StretchedExpTail)):
        # Decay at least stretched-exponential: the statistic grows without
        # bound at a polynomial (ALG) or logarithmic-ratio (EXP) rate.
        closed = [_uwt_closed_form(env, case, n) for n in grid]
        agree = all(
            abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(stats[1], closed)
        )
        if agree and stats[1][-1] > math.log(math.log(grid[-1])):
            return TractabilityVerdict(
                notion, "Holds", None,
                {**evidence, "certificate": "closed-form statistic recognised for the family; "
                                            "it grows without bound"},
                limits,
            )

    if recognisable and isinstance(form, PowerLawTail) and case == "EXP":
        closed = [_uwt_closed_form(env, "EXP", n) for n in grid]
        plateau = all(
            abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(stats[1], closed)
        )
        if plateau:
            # ln(beta ln n - ln A)/ln ln n tends to 1: bounded, so the limit
            # cannot be infinite.
            return TractabilityVerdict(
                notion, "Fails", None,
                {**evidence, "certificate": "exact plateau: the statistic matches the bounded "
                                            "closed form ln(beta ln n - ln A)/ln ln n"},
                limits,
            )

    # Evidence: the statistic must clear ln ln n at the top of the grid for
    # every window exponent k, with a nondecreasing run over the last half.
    top_threshold = math.log(math.log(grid[-1]))
    supported = True
    for k in ks:
        seq = stats[k]
        if not seq or not (seq[-1] > top_threshold):
            supported = False
            break
        half = seq[len(seq) // 2 :]
        finite = [v for v in half if math.isfinite(v)]
        if len(finite) >= 2 and any(b < a * (1 - 1e-9) for a, b in zip(finite, finite[1:])):
            supported = False
            break
    if supported:
        return TractabilityVerdict(
            notion, "SupportedUpTo", None,
            {**evidence, "note": "statistic clears ln ln n at the top of the grid and is "
                                 "nondecreasing over its last half"},
            limits,
        )
    return TractabilityVerdict(
        notion, "Inconclusive", None,
        {**evidence, "note": "statistic stays at or below ln ln n (no plateau certificate)"},
        limits,
    )


# ---------------------------------------------------------------------------
# Exponent brackets
# ---------------------------------------------------------------------------


def exponent_bracket(
    model: EigenModel, notion: Notion, limits: Limits = Limits()
) -> ExponentBracket:
    """Bisection bracket for the tractability exponent of SPT or QPT.

    The searched parameter maps to the exponent via 2*tau (ALG-SPT), 1/tau
    (EXP-SPT), max(tau1, 2*tau2) (ALG-QPT, minimised over a tau1 grid), or
    tau (EXP-QPT).
    """
    axis = _AXES.get((notion.kind, notion.case))
    if axis is None or axis.exponent is None:
        raise ValueError("exponent brackets are defined for SPT and QPT")
    if not _sup_attained_at_d1(model, notion.sum_kind, notion.criterion):
        raise NoPassingPointError(
            "exponent bracketing needs a d=1 certificate for this model"
        )
    # Bisect per aux value and combine: the min of the uppers bounds the
    # infimum above, the min of the lowers below.
    brackets = [
        br
        for aux in axis.aux_grid(notion.criterion)
        if (br := _bisect_bracket(model, notion, axis, aux)) is not None
    ]
    if not brackets:
        raise NoPassingPointError("no passing parameter on the grid")
    best_hi = min(brackets, key=lambda b: b.hi)
    best_lo = min(brackets, key=lambda b: b.lo)
    return ExponentBracket(best_lo.lo, best_hi.hi, best_lo.lo_witness, best_hi.hi_witness)


def _bisect_bracket(
    model: EigenModel, notion: Notion, axis: _Axis, aux: float
) -> ExponentBracket | None:
    def passes(tau: float) -> bool:
        params = axis.params(tau, aux)
        return _certified_probe(model, notion.sum_kind, params, notion.criterion) == "pass"

    def exponent(tau: float) -> float:
        return axis.exponent(tau, aux)

    grid = tuple(reversed(_TAU_GRID)) if axis.small_passes else _TAU_GRID
    tau_pass = next((tau for tau in grid if passes(tau)), None)
    if tau_pass is None:
        return None
    fail_side = [tau for tau in grid if (tau > tau_pass if axis.small_passes else tau < tau_pass)]
    if fail_side:
        tau_fail = min(fail_side) if axis.small_passes else max(fail_side)
        lo_param, hi_param = tau_fail, tau_pass
        for _ in range(20):
            if abs(exponent(hi_param) - exponent(lo_param)) <= 0.01:
                break
            mid = 0.5 * (lo_param + hi_param)
            if passes(mid):
                hi_param = mid
            else:
                lo_param = mid
        lo, hi = sorted((lo_param, hi_param), key=exponent)
        return ExponentBracket(exponent(lo), exponent(hi), axis.params(lo, aux), axis.params(hi, aux))
    # Nothing fails: the exponent infimum sits at (or below) the grid floor.
    hi_param = tau_pass
    for _ in range(20):
        if exponent(hi_param) <= 0.02:
            break
        candidate = hi_param * (2.0 if axis.small_passes else 0.5)
        if not passes(candidate):
            break
        hi_param = candidate
    return ExponentBracket(0.0, exponent(hi_param), None, axis.params(hi_param, aux))


# ---------------------------------------------------------------------------
# Growth fits
# ---------------------------------------------------------------------------


def growth_fit(
    model: EigenModel,
    case: str,
    criterion: ErrorCriterion,
    eps_grid,
    d_grid,
    limits: Limits = Limits(),
) -> GrowthFit:
    """Least-squares fit of ln max(1, n(eps, d)) against the case regressors.

    Empirical corroboration only; the fitted (C, p, q) carry no infimum
    claim.
    """
    eps_grid = [float(e) for e in eps_grid]
    d_grid = [int(d) for d in d_grid]
    if len(eps_grid) < 8 or len(d_grid) < 8:
        raise DegenerateGridError("need at least 8 points per axis")
    rows = []
    ys = []
    for d in d_grid:
        for eps in eps_grid:
            res = info_complexity(model, ComplexityQuery(d, eps, criterion), limits.j_max)
            inv = max(1.0, 1.0 / eps)
            x = math.log(inv) if case == "ALG" else math.log(1.0 + math.log(inv))
            rows.append([1.0, math.log(d), x])
            ys.append(math.log(max(1, res.n)))
    A = np.asarray(rows)
    y = np.asarray(ys)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return GrowthFit(C=float(math.exp(coef[0])), p=float(coef[2]), q=float(coef[1]), residual=resid)


# ---------------------------------------------------------------------------
# Implication chain
# ---------------------------------------------------------------------------


def _implies(up: Notion, down: Notion) -> bool:
    """Whether up => down is a stated implication (same case and criterion)."""
    if down.kind == "WT":
        return up.kind != "WT" or (up.s <= down.s and up.t <= down.t)
    return down.kind in ("PT", "QPT") and _KINDS.index(up.kind) < _KINDS.index(down.kind)


def check_implications(verdicts: list[TractabilityVerdict]) -> list[dict]:
    """Flag certificate-level violations of the tractability implications.

    SPT => PT => QPT => WT(s,t) for every s,t; WT(s2,t2) => WT(s1,t1) for
    s1 >= s2, t1 >= t2; UWT => WT(s,t) for every s,t.  Only Holds upstream
    combined with Fails downstream is a hard inconsistency.
    """
    issues: list[dict] = []
    by_group: dict[tuple[str, str], list[TractabilityVerdict]] = {}
    for v in verdicts:
        by_group.setdefault((v.notion.case, v.notion.criterion.value), []).append(v)

    for (case, crit), group in sorted(by_group.items()):
        group.sort(key=lambda v: _KINDS.index(v.notion.kind))
        for up in group:
            if up.status != "Holds":
                continue
            for down in group:
                if down.status == "Fails" and _implies(up.notion, down.notion):
                    issues.append(
                        {
                            "case": case,
                            "criterion": crit,
                            "upstream": up.notion.name,
                            "downstream": down.notion.name,
                            "detail": f"{up.notion.name} Holds but {down.notion.name} Fails",
                        }
                    )
    return issues


def standard_notions(criterion: ErrorCriterion) -> list[Notion]:
    out = []
    for case in ("ALG", "EXP"):
        out.append(Notion("SPT", case, criterion))
        out.append(Notion("PT", case, criterion))
        out.append(Notion("QPT", case, criterion))
        out.append(Notion("WT", case, criterion, s=1.0, t=1.0))
        out.append(Notion("WT", case, criterion, s=2.0, t=2.0))
        out.append(Notion("UWT", case, criterion))
    return out


def classify_all(
    model: EigenModel,
    criterion: ErrorCriterion,
    limits: Limits = Limits(),
) -> dict:
    """Verdicts for the standard notion set plus the consistency report."""
    verdicts = [decide(model, nt, limits) for nt in standard_notions(criterion)]
    issues = check_implications(verdicts)
    return {
        "verdicts": [v.as_dict() for v in verdicts],
        "inconsistencies": issues,
    }
