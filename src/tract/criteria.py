"""Criterion sums and statistics whose boundedness characterises tractability.

For a fixed dimension d and normalized eigenvalues rho(j) = lambda(d, j) / CRI_d
the module evaluates

=========  ==================================================================
spt-alg    sum_{j>=start} rho(j)**tau
spt-exp    sum_{j>=start} rho(j)**(j**-tau)
pt-alg     d**-tau1 * sum_{j>=ceil(C d**tau3)} rho(j)**tau2
pt-exp     same start/prefactor with rho(j)**(j**-tau2) terms
qpt-alg    d**-2 * (sum_{j>=start} rho(j)**(tau2 (1+ln d)))**(1/tau2)
qpt-exp    d**-tau * sum_j [1 + (1/2) ln max(1, 1/rho(j))]**(-tau (1+ln d))
wt-alg     exp(-c d**t) * sum_j exp(-c (1/rho(j))**(s/2))
wt-exp     exp(-c d**t) * sum_j exp(-c [1 + ln(2 max(1, 1/rho(j)))]**s)
uwt        inf over d <= floor((ln n)**k) of the rho(d, n) decay statistics
=========  ==================================================================

``SUM_SPECS`` is the single description of each of the eight sums: its
required parameters, its start index, term parameters, tail planner,
vectorised term function and prefactor, and (qpt-alg only) the outer power.
The parameter domain is not in it: ``CriterionParams`` checks its own
fields.  ``evaluate_sum``, ``sup_over_d`` and ``convergence_plan`` read that
table; the ``sum_*`` functions are one-call wrappers over ``evaluate_sum``.

Where the model carries a tail envelope the summation is truncated with a
certified remainder; exact (two-sided) envelopes additionally support
divergence certificates: a term-limit test (terms bounded away from zero
beyond a computable index) and a harmonic comparison (terms >= A/j).
Everything else degrades to an honest heuristic evaluation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .complexity import first_index
from .eigenmodel import (
    EigenModel,
    ErrorCriterion,
    GeometricTail,
    PowerLawTail,
    StretchedExpTail,
    TailEnvelope,
    TailForm,
    log_ratios,
    ratio_envelope,
    support,
)
from .errors import BeyondRankError
from .summation import (
    AffinePowerTail,
    Divergence,
    GeomSeriesTail,
    Plan,
    PolyLogTail,
    RatioTail,
    StretchedIntegralTail,
    SumEvaluation,
    SumStatus,
    certified_sum,
)

__all__ = [
    "CriterionParams",
    "SupEvaluation",
    "SUM_KINDS",
    "SUM_SPECS",
    "SumSpec",
    "sum_spt_alg",
    "sum_spt_exp",
    "sum_pt_alg",
    "sum_pt_exp",
    "sum_qpt_alg",
    "sum_qpt_exp",
    "sum_wt_alg",
    "sum_wt_exp",
    "uwt_statistic",
    "sup_over_d",
    "evaluate_sum",
    "convergence_plan",
    "ceil_stable",
]

_DEFAULT_TOL = 1e-10
_DEFAULT_MAX_TERMS = 2_000_000


# Fields with an inclusive lower bound; every other field must be positive.
_AT_LEAST = {"tau1": 0.0, "tau3": 0.0, "k": 1}


@dataclass(frozen=True)
class CriterionParams:
    """Parameter bundle for the criterion sums; unused fields stay None, set ones are finite."""

    tau: float | None = None
    tau1: float | None = None
    tau2: float | None = None
    tau3: float | None = None
    c_tilde: float | None = None
    c: float | None = None
    s: float | None = None
    t: float | None = None
    k: int | None = None

    def __post_init__(self):
        for name, v in self.__dict__.items():
            low = _AT_LEAST.get(name)
            if v is not None and not (math.isfinite(v) and (v > 0 if low is None else v >= low)):
                rule = "> 0" if low is None else f">= {low:g}"
                raise ValueError(f"{name} must be finite and {rule}, got {v!r}")

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def ceil_stable(x: float) -> int:
    """Ceiling that snaps values within one ulp of an integer first."""
    nearest = round(x)
    if abs(x - nearest) <= math.ulp(max(abs(x), 1.0)):
        return int(nearest)
    return int(math.ceil(x))


# ---------------------------------------------------------------------------
# Tail planning: map a ratio envelope to a certified tail bound or a
# divergence certificate for each term shape.
# ---------------------------------------------------------------------------


# Each planner reads the envelope ratio_envelope returns: it already starts
# at the sum's start index.  The divergence searches run over u = ln j:
# certified onset indices can sit far beyond the float range (they are never
# summed, only recorded).


def _log_first(pred: Callable[[np.ndarray], np.ndarray], u_start: float, floor: int) -> int | None:
    """The first u = max(1, u_start) * 2**k, k < 200, where pred holds, as an
    index: the smallest power of two at or above e**u, and at least floor.

    pred maps an array of u to a boolean array; overflow, underflow and NaN
    (which compares false) pass silently.  Callers guarantee that pred, once
    true, stays true (a nonincreasing function below a target, a
    nondecreasing one above zero), so the found index certifies pred
    everywhere beyond it.
    """
    u0 = max(1.0, u_start)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        k = first_index(lambda k: pred(np.ldexp(0.5 * u0, k)), 200)
    if k is None:
        return None
    u = u0 * 2.0 ** (k - 1)
    return max(floor, 1 << max(0, int(math.ceil(u / math.log(2.0)))))


def _pow_or_none(base: float, exponent: float) -> float | None:
    try:
        v = math.pow(base, exponent)
    except (OverflowError, ValueError):
        return None
    return v if math.isfinite(v) else None


def _unit_index(form: TailForm) -> int:
    """An index past which the envelope form is at most 1."""
    if isinstance(form, PowerLawTail):
        return int(math.ceil(form.scale ** (1.0 / form.beta))) + 1
    log_a = math.log(form.scale)
    kappa, power = form.stretched
    return 1 if log_a <= 0 else int(math.ceil((log_a / kappa) ** (1.0 / power))) + 1


def _plan_power(env: TailEnvelope, p: float) -> Plan:
    """Plan for terms rho(j)**p."""
    j0 = env.valid_from
    form = env.form
    coeff = _pow_or_none(form.scale, p)
    if coeff is None:
        return None
    if isinstance(form, PowerLawTail):
        if form.beta * p > 1.0:
            return AffinePowerTail(coeff, 0.0, 1.0, form.beta * p, from_j=j0, exact=env.exact)
        if env.exact:
            return Divergence("harmonic", j0, coeff)
        return None
    if isinstance(form, GeometricTail):
        q = form.ratio**p
        if q >= 1:
            return None
        exact = env.exact
        if q <= 0.0:  # underflowed ratio: widen to a still-sound bound
            q, exact = 1e-308, False
        return GeomSeriesTail(coeff, q, from_j=j0, exact=exact)
    return StretchedIntegralTail(coeff, p * form.rate, form.power, from_j=j0, exact=env.exact)


def _plan_coupled(env: TailEnvelope, tau: float) -> Plan:
    """Plan for terms rho(j)**(j**-tau)."""
    j0 = env.valid_from
    form = env.form
    log_a = math.log(form.scale)

    if isinstance(form, (GeometricTail, StretchedExpTail)):
        rate, power = form.stretched
        if tau < power:
            coeff = max(1.0, form.scale)
            return StretchedIntegralTail(coeff, rate, power - tau, from_j=j0, exact=False)
        if env.exact:
            # -ln(term) = rate*j**(power-tau) + max(0,-ln a)*j**-tau is
            # nonincreasing for tau >= power; its limit is rate at tau=power,
            # 0 above.
            limit = rate if tau == power else 0.0

            def hub(u: np.ndarray) -> np.ndarray:
                return rate * np.exp((power - tau) * u) + max(0.0, -log_a) * np.exp(-tau * u)

            found = _log_first(lambda u: hub(u) <= limit + math.log(2.0), math.log(j0), j0)
            if found is not None:
                return Divergence("term-limit", found, 0.5 * math.exp(-limit))
        return None

    # Power-law envelope: upper bounds cannot certify convergence here; the
    # exact case has terms exp(-j**-tau (beta ln j - ln a)) -> 1.
    if env.exact:
        beta = form.beta

        def hub(u: np.ndarray) -> np.ndarray:
            return (beta * u + max(0.0, -log_a)) * np.exp(-tau * u)

        # hub is decreasing once u > 1/tau (the ln a correction only adds a
        # decreasing nonnegative part).
        found = _log_first(lambda u: hub(u) <= math.log(2.0), max(math.log(j0), 1.0 / tau), j0)
        if found is not None:
            return Divergence("term-limit", found, 0.5)
    return None


def _plan_qpt_exp(env: TailEnvelope, T: float) -> Plan:
    """Plan for terms [1 + 0.5 ln max(1, 1/rho)]**-T."""
    form = env.form
    log_a = math.log(form.scale)
    # Past j0 the envelope is <= 1, so the max() clamp is inactive.
    j0 = max(env.valid_from, _unit_index(form))

    if isinstance(form, (GeometricTail, StretchedExpTail)):
        kappa, power = form.stretched
        if power == 1.0:
            alpha, beta = 1.0 - 0.5 * log_a, 0.5 * kappa
            if T > 1.0:
                return AffinePowerTail(1.0, alpha, beta, T, from_j=j0, exact=env.exact)
            if env.exact:
                j_h = max(j0, int(math.ceil(alpha / beta)) + 1)
                floor = _pow_or_none(2.0 * beta, -T)
                if floor is not None:
                    return Divergence("harmonic", j_h, floor)
            return None
        # base >= (kappa/4) j**power once the constant part stops mattering.
        need = max(0.0, (0.5 * log_a - 1.0) / (0.25 * kappa))
        j3 = max(j0, int(math.ceil(need ** (1.0 / power))) + 1 if need > 0 else j0)
        if power * T > 1.0:
            coeff = _pow_or_none(0.25 * kappa, -T)
            if coeff is None:
                return None
            return AffinePowerTail(coeff, 0.0, 1.0, power * T, from_j=j3, exact=False)
        if env.exact:
            # base <= kappa j**power once 1 + 0.5 max(0, -ln a) <= 0.5 kappa j**power.
            need = (2.0 + max(0.0, -log_a)) / kappa
            j4 = max(j0, int(math.ceil(need ** (1.0 / power))) + 1)
            floor = _pow_or_none(kappa, -T)
            if floor is not None:
                return Divergence("harmonic", j4, floor)
        return None

    # Power-law envelope: polylog terms, divergent for every T.
    if env.exact:
        beta = form.beta
        # u - T ln(base) is increasing once the base exceeds T beta / 2.
        u3 = (2.0 * max(0.5 * T * beta - 1.0, 0.0) + log_a) / beta
        found = _log_first(
            lambda u: u >= T * np.log(1.0 + 0.5 * (beta * u - log_a)), max(u3, math.log(j0)), j0
        )
        if found is not None:
            return Divergence("harmonic", found, 1.0)
    return None


def _plan_wt_alg(env: TailEnvelope, c: float, s: float) -> Plan:
    """Plan for terms exp(-c (1/rho)**(s/2)); always convergent under an envelope."""
    j0 = env.valid_from
    form = env.form
    half_s = 0.5 * s
    scale_pow = _pow_or_none(form.scale, -half_s)
    if scale_pow is None:
        return None
    if isinstance(form, PowerLawTail):
        return StretchedIntegralTail(
            1.0, c * scale_pow, form.beta * half_s, from_j=j0, exact=env.exact
        )
    # Geometric and stretched envelopes give doubly exponential terms
    # exp(-c scale_pow grow(x)); their ratios decrease where grow is convex:
    # everywhere for big_q**x, from j1 on for exp(B2 x**gamma).
    if isinstance(form, GeometricTail):
        big_q = form.ratio**-half_s
        grow, j1 = (lambda x: big_q**x), j0
    else:
        b2 = half_s * form.rate
        grow, j1 = (lambda x: math.exp(b2 * x**form.power)), j0
        if form.power < 1.0:
            j1 = max(j0, int(math.ceil(((1.0 - form.power) / (b2 * form.power)) ** (1.0 / form.power))) + 1)

    def g(x: float) -> float:
        try:
            return math.exp(-c * scale_pow * grow(x))
        except OverflowError:
            return 0.0

    return RatioTail(g, from_j=j1)


def _plan_wt_exp(env: TailEnvelope, c: float, s: float) -> Plan:
    """Plan for terms exp(-c [1 + ln(2 max(1, 1/rho))]**s)."""
    form = env.form
    log_a = math.log(form.scale)
    konst = 1.0 + math.log(2.0) - log_a
    # Past j0 the envelope is <= 1, so the max() clamp is inactive.
    j0 = max(env.valid_from, _unit_index(form))

    if isinstance(form, PowerLawTail):
        beta = form.beta
        if s == 1.0:
            coeff = math.exp(-c * konst)
            if c * beta > 1.0:
                return AffinePowerTail(coeff, 0.0, 1.0, c * beta, from_j=j0, exact=env.exact)
            if env.exact:
                return Divergence("harmonic", j0, coeff)
            return None
        if s > 1.0:
            # Valid once the exponent c (K + beta u)**s grows with slope >= 2
            # in u = ln j; then the tail past J is at most J * g(J).
            u_min = ((2.0 / (c * s * beta)) ** (1.0 / (s - 1.0)) - konst) / beta
            u_min = max(u_min, 0.0)
            if u_min > 600.0:
                return None  # bound valid only beyond any summable index
            j_star = max(j0, int(math.ceil(math.exp(u_min))) + 1)
            return PolyLogTail(c, konst, beta, s, from_j=j_star)
        # s < 1: divergent whenever the envelope is exact.
        if env.exact:
            u3 = ((c * s * beta) ** (1.0 / (1.0 - s)) - konst) / beta
            found = _log_first(lambda u: u >= c * (konst + beta * u) ** s, max(u3, math.log(j0)), j0)
            if found is not None:
                return Divergence("harmonic", found, 1.0)
        return None

    kappa, power = form.stretched
    if power == 1.0 and s == 1.0:
        coeff = math.exp(-c * konst)
        q = math.exp(-c * kappa)
        return GeomSeriesTail(coeff, q, from_j=j0, exact=env.exact)
    factor = 1.0 if konst >= 0.0 else 0.5
    if konst < 0.0:
        need = (2.0 * abs(konst) / kappa) ** (1.0 / power)
        j0 = max(j0, int(math.ceil(need)) + 1)
    B = c * (factor * kappa) ** s
    return StretchedIntegralTail(1.0, B, power * s, from_j=j0, exact=False)


# ---------------------------------------------------------------------------
# The sum table
# ---------------------------------------------------------------------------


# Unset start and prefactor exponents mean 0 and an unset start constant
# means 1.  Zero is a value, not "unset": CriterionParams still checks it.
_DEFAULTS = {"tau1": 0.0, "tau3": 0.0, "c_tilde": 1.0}


@dataclass(frozen=True)
class SumSpec:
    """Everything that tells one criterion sum from another.

    The sum at dimension d is prefactor * sum_{j >= start} terms(L, j, *x),
    where L(j) = ln(lambda(d, j)/CRI_d) and x = param(params, d) are the term
    parameters the planner also receives.  ``outer_power`` marks qpt-alg,
    whose inner sum is raised to 1/tau2 before the prefactor applies.
    """

    required: tuple[str, ...]
    start: Callable[[CriterionParams, int, ErrorCriterion], int]
    param: Callable[[CriterionParams, int], tuple[float, ...]]
    planner: Callable[..., Plan]
    terms: Callable[..., np.ndarray]
    prefactor: Callable[[CriterionParams, int], float]
    outer_power: bool = False

    def resolve(self, params: CriterionParams) -> CriterionParams:
        """The params with defaults filled in; ValueError when one is missing."""
        missing = [name for name in self.required if getattr(params, name) is None]
        if missing:
            raise ValueError(f"missing parameter {missing[0]}")
        return replace(params, **{k: v for k, v in _DEFAULTS.items() if getattr(params, k) is None})


def _start_index(criterion: ErrorCriterion, c_tilde: float, d: int, power: float) -> int:
    if criterion is ErrorCriterion.NOR:
        return 1
    # Logarithms first: far past the index range the product may not be a double.
    if math.log(c_tilde) + power * math.log(d) > 63 * math.log(2.0):
        return 1 << 63  # past the index range: _plan rejects it
    return max(1, ceil_stable(c_tilde * float(d) ** power))


def _spt_start(p: CriterionParams, d: int, criterion: ErrorCriterion) -> int:
    # The SPT sums take c_tilde as the start index itself, truncated.
    return 1 if criterion is ErrorCriterion.NOR else max(1, int(p.c_tilde))


# Terms are computed from L(j) = ln(lambda/CRI): closed forms stay exact in
# log space where the linear values would saturate at the underflow clamp.


def _rho_pow(L: np.ndarray, j: np.ndarray, p: float) -> np.ndarray:
    """rho**p."""
    return np.exp(p * L)


def _rho_pow_coupled(L: np.ndarray, j: np.ndarray, tau: float) -> np.ndarray:
    """rho**(j**-tau)."""
    return np.exp(j.astype(float) ** -tau * L)


# The alg and exp sums of SPT, PT and WT share everything but the planner
# and the terms.
_SPT = dict(
    required=("tau",),
    start=_spt_start,
    param=lambda p, d: (p.tau,),
    prefactor=lambda p, d: 1.0,
)
_PT = dict(
    required=("tau2",),
    start=lambda p, d, criterion: _start_index(criterion, p.c_tilde, d, p.tau3),
    param=lambda p, d: (p.tau2,),
    prefactor=lambda p, d: float(d) ** -p.tau1,
)
_WT = dict(
    required=("c", "s", "t"),
    start=lambda p, d, criterion: 1,
    param=lambda p, d: (p.c, p.s),
    # d**t is never 0, so "or inf" only stands for a power past the double range.
    prefactor=lambda p, d: math.exp(-p.c * (_pow_or_none(float(d), p.t) or math.inf)),
)

SUM_SPECS: dict[str, SumSpec] = {
    "spt-alg": SumSpec(**_SPT, planner=_plan_power, terms=_rho_pow),
    "spt-exp": SumSpec(**_SPT, planner=_plan_coupled, terms=_rho_pow_coupled),
    "pt-alg": SumSpec(**_PT, planner=_plan_power, terms=_rho_pow),
    "pt-exp": SumSpec(**_PT, planner=_plan_coupled, terms=_rho_pow_coupled),
    "qpt-alg": SumSpec(
        required=("tau2",),
        start=lambda p, d, criterion: _start_index(criterion, p.c_tilde, d, p.tau1),
        param=lambda p, d: (p.tau2 * (1.0 + math.log(d)),),
        planner=_plan_power,
        terms=_rho_pow,
        prefactor=lambda p, d: float(d) ** -2.0,
        outer_power=True,
    ),
    "qpt-exp": SumSpec(
        required=("tau",),
        start=lambda p, d, criterion: 1,
        param=lambda p, d: (p.tau * (1.0 + math.log(d)),),
        planner=_plan_qpt_exp,
        terms=lambda L, j, T: (1.0 + 0.5 * np.maximum(0.0, -L)) ** -T,
        prefactor=lambda p, d: float(d) ** -p.tau,
    ),
    "wt-alg": SumSpec(
        **_WT,
        planner=_plan_wt_alg,
        terms=lambda L, j, c, s: np.exp(-c * np.exp(-0.5 * s * L)),
    ),
    "wt-exp": SumSpec(
        **_WT,
        planner=_plan_wt_exp,
        terms=lambda L, j, c, s: np.exp(-c * (1.0 + math.log(2.0) + np.maximum(0.0, -L)) ** s),
    ),
}

SUM_KINDS = tuple(SUM_SPECS)


# ---------------------------------------------------------------------------
# The sums
# ---------------------------------------------------------------------------


def _spec(kind: str) -> SumSpec:
    if kind not in SUM_SPECS:
        raise ValueError(f"unknown criterion sum {kind!r}")
    return SUM_SPECS[kind]


def _plan(
    kind: str, p: CriterionParams, model: EigenModel, d: int, criterion: ErrorCriterion
) -> tuple[int, tuple[float, ...], Plan]:
    """Start index, term parameters and tail plan of a resolved sum; no
    envelope, or a planner that overflows the double range, gives no
    certificate (plan None).  ValueError when d < 1 or the start is past 2**62."""
    if d < 1:
        raise ValueError("d must be >= 1")
    spec = SUM_SPECS[kind]
    start = spec.start(p, d, criterion)
    if start > 1 << 62:  # int64 indices, as Limits.j_max
        raise ValueError(f"{kind} start index exceeds 2**62 at d={d}")
    x = spec.param(p, d)
    env = ratio_envelope(model, d, criterion, start)
    if env is None:
        return start, x, None
    try:
        return start, x, spec.planner(env, *x)
    except OverflowError:
        return start, x, None


def evaluate_sum(
    model: EigenModel,
    kind: str,
    d: int,
    params: CriterionParams,
    criterion: ErrorCriterion,
    *,
    tol: float = _DEFAULT_TOL,
    max_terms: int = _DEFAULT_MAX_TERMS,
    min_terms: int = 0,
) -> SumEvaluation:
    """Evaluate one named criterion sum (a key of SUM_SPECS) at a single d."""
    spec = _spec(kind)
    p = spec.resolve(params)
    start, x, plan = _plan(kind, p, model, d, criterion)

    def block(j0: int, j1: int) -> np.ndarray:
        j = np.arange(j0, j1, dtype=np.int64)
        L = log_ratios(model, d, j, criterion)
        with np.errstate(under="ignore", over="ignore"):
            return spec.terms(L, j, *x)

    pref = spec.prefactor(p, d)
    ev = certified_sum(
        block,
        start,
        plan,
        tol=tol,
        max_terms=max_terms,
        min_terms=min_terms,
        hard_end=support(model, d),
        prefactor=1.0 if spec.outer_power else pref,
    )
    return _outer_power(ev, pref, 1.0 / p.tau2) if spec.outer_power else ev


def _outer_power(inner: SumEvaluation, pref: float, power: float) -> SumEvaluation:
    """pref * inner**power, with the remainder bracket carried through the power;
    the other fields (converged among them) carry over from the inner sum.  An
    infinite inner sum (divergent, or past the double range) comes back as is."""
    if math.isinf(inner.value):
        return inner
    try:
        if inner.remainder_bound is None:
            value = pref * inner.value**power
            if not math.isfinite(value):
                raise OverflowError
            return replace(inner, value=value)
        hi = pref * (inner.value + inner.remainder_bound) ** power
        lo = pref * max(inner.value - inner.remainder_bound, 0.0) ** power
        if not math.isfinite(hi):
            raise OverflowError
    except OverflowError:
        # The sum is finite but its outer power exceeds the double range.
        return replace(
            inner, value=math.inf, remainder_bound=None, status=SumStatus.HEURISTIC,
            note="finite inner sum, outer power exceeds the double range",
        )
    return replace(inner, value=0.5 * (hi + lo), remainder_bound=0.5 * (hi - lo) * (1 + 1e-9))


# One-call forms of evaluate_sum; the keyword arguments (tol, max_terms,
# min_terms) pass through.


def sum_spt_alg(
    model: EigenModel, d: int, tau: float, c_tilde_index: int = 1,
    criterion: ErrorCriterion = ErrorCriterion.ABS, **kw,
) -> SumEvaluation:
    """sum of rho**tau from the given start index (start forced to 1 for NOR)."""
    params = CriterionParams(tau=tau, c_tilde=c_tilde_index)
    return evaluate_sum(model, "spt-alg", d, params, criterion, **kw)


def sum_spt_exp(
    model: EigenModel, d: int, tau: float, c_tilde_index: int = 1,
    criterion: ErrorCriterion = ErrorCriterion.ABS, **kw,
) -> SumEvaluation:
    """sum of rho**(j**-tau); terms couple the value with its index."""
    params = CriterionParams(tau=tau, c_tilde=c_tilde_index)
    return evaluate_sum(model, "spt-exp", d, params, criterion, **kw)


def sum_pt_alg(
    model: EigenModel, d: int, tau1: float, tau2: float, tau3: float, c_tilde: float,
    criterion: ErrorCriterion = ErrorCriterion.ABS, **kw,
) -> SumEvaluation:
    """d**-tau1 times the rho**tau2 tail from ceil(C d**tau3) (NOR: from 1)."""
    params = CriterionParams(tau1=tau1, tau2=tau2, tau3=tau3, c_tilde=c_tilde)
    return evaluate_sum(model, "pt-alg", d, params, criterion, **kw)


def sum_pt_exp(
    model: EigenModel, d: int, tau1: float, tau2: float, tau3: float, c_tilde: float,
    criterion: ErrorCriterion = ErrorCriterion.ABS, **kw,
) -> SumEvaluation:
    """pt-alg's start and prefactor with rho**(j**-tau2) terms."""
    params = CriterionParams(tau1=tau1, tau2=tau2, tau3=tau3, c_tilde=c_tilde)
    return evaluate_sum(model, "pt-exp", d, params, criterion, **kw)


def sum_qpt_alg(
    model: EigenModel, d: int, tau1: float, tau2: float, c_tilde: float,
    criterion: ErrorCriterion = ErrorCriterion.ABS, **kw,
) -> SumEvaluation:
    """d**-2 (sum rho**(tau2 (1+ln d)))**(1/tau2); ABS starts at ceil(C d**tau1)."""
    params = CriterionParams(tau1=tau1, tau2=tau2, c_tilde=c_tilde)
    return evaluate_sum(model, "qpt-alg", d, params, criterion, **kw)


def sum_qpt_exp(
    model: EigenModel, d: int, tau: float, criterion: ErrorCriterion = ErrorCriterion.ABS, **kw
) -> SumEvaluation:
    """d**-tau sum_j [1 + 0.5 ln max(1, CRI/lambda)]**(-tau (1+ln d))."""
    return evaluate_sum(model, "qpt-exp", d, CriterionParams(tau=tau), criterion, **kw)


def sum_wt_alg(
    model: EigenModel, d: int, c: float, s: float, t: float,
    criterion: ErrorCriterion = ErrorCriterion.ABS, **kw,
) -> SumEvaluation:
    """exp(-c d**t) sum_j exp(-c (CRI/lambda)**(s/2))."""
    return evaluate_sum(model, "wt-alg", d, CriterionParams(c=c, s=s, t=t), criterion, **kw)


def sum_wt_exp(
    model: EigenModel, d: int, c: float, s: float, t: float,
    criterion: ErrorCriterion = ErrorCriterion.ABS, **kw,
) -> SumEvaluation:
    """exp(-c d**t) sum_j exp(-c [1 + ln(2 max(1, CRI/lambda))]**s)."""
    return evaluate_sum(model, "wt-exp", d, CriterionParams(c=c, s=s, t=t), criterion, **kw)


# ---------------------------------------------------------------------------
# UWT statistics
# ---------------------------------------------------------------------------


def uwt_statistic(
    model: EigenModel,
    n: int,
    k: int = 1,
    case: str = "ALG",
    criterion: ErrorCriterion = ErrorCriterion.ABS,
) -> float:
    """inf over d <= floor((ln n)**k) of the eigenvalue decay statistic at n.

    ALG uses ln(CRI_d/lambda(d, n)) / ln ln n, EXP the same with an extra
    ln(max(1, .)) on the numerator.  Requires n >= 3 so ln ln n > 0.  Indices
    past a finite rank count as infinitely small eigenvalues.
    """
    if n < 3:
        raise ValueError("n must be >= 3 so ln ln n is positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if case not in ("ALG", "EXP"):
        raise ValueError("case must be ALG or EXP")
    loglog = math.log(math.log(n))
    d_hi = max(1, int(math.log(n) ** k))
    if model.family.d_free and (model.d_scale is None or criterion is ErrorCriterion.NOR):
        d_hi = 1  # no d in the ratios: under NOR the scale cancels
    try:
        # Both statistics are nondecreasing in the numerator: take its minimum.
        num = -float(np.max(log_ratios(model, np.arange(1, d_hi + 1)[:, None], np.array([n]), criterion)))
    except BeyondRankError:
        return math.inf  # exhausted spectrum (d-free): infinitely fast decay at every d
    if case == "EXP" and math.isfinite(num):
        num = math.log(max(1.0, num))
    return num / loglog if math.isfinite(num) else math.inf


# ---------------------------------------------------------------------------
# Supremum over d
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupEvaluation:
    """The d-sweep of one criterion sum with an observed supremum and trend."""

    values: tuple[float, ...]
    sup_observed: float
    trend: str  # Bounded | Growing | Mixed
    status: SumStatus
    kind: str
    d_max: int
    all_converged: bool = True
    upper: float = math.inf  # the largest SumEvaluation.upper() of the sweep

    def as_dict(self) -> dict:
        """Every field but ``upper``."""
        out = {**asdict(self), "values": list(self.values), "status": self.status.value}
        del out["upper"]
        return out


def _classify_trend(values: list[float]) -> str:
    d_max = len(values)
    if d_max <= 2:
        return "Bounded"
    if any(math.isinf(v) for v in values):
        return "Growing"
    window_start = max(1, d_max // 2)  # 1-based d
    quarter = max(1, d_max // 4)
    window = values[window_start - 1 :]
    head = values[: window_start - 1] or [values[0]]
    monotone = all(b >= a * (1 - 1e-12) for a, b in zip(window, window[1:]))
    if monotone and values[-1] >= 2.0 * values[quarter - 1] and values[-1] > values[0]:
        return "Growing"
    if max(window) <= max(head) * (1 + 1e-9) or max(window) <= 1.1 * min(window):
        return "Bounded"
    return "Mixed"


def sup_over_d(
    model: EigenModel,
    kind: str,
    params: CriterionParams,
    criterion: ErrorCriterion,
    d_max: int,
    *,
    tol: float = _DEFAULT_TOL,
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> SupEvaluation:
    """Evaluate the chosen sum for d = 1..d_max and summarise the sweep."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    evals = [
        evaluate_sum(model, kind, d, params, criterion, tol=tol, max_terms=max_terms)
        for d in range(1, d_max + 1)
    ]
    values = [e.value for e in evals]
    if any(e.divergent for e in evals):
        status = SumStatus.DIVERGENT
    elif all(e.certified for e in evals):
        status = SumStatus.CERTIFIED
    else:
        status = SumStatus.HEURISTIC
    return SupEvaluation(
        values=tuple(values),
        sup_observed=max(values),
        trend=_classify_trend(values),
        status=status,
        kind=kind,
        d_max=d_max,
        all_converged=all(e.converged for e in evals),
        upper=max(e.upper() for e in evals),
    )


def convergence_plan(
    model: EigenModel,
    kind: str,
    d: int,
    params: CriterionParams,
    criterion: ErrorCriterion,
) -> Plan:
    """The tail plan a sum evaluation would use, without summing anything.

    Classifier probes use this as a cheap convergence decision: a tail bound
    means certified convergence, a Divergence certificate certified
    divergence, None means no certificate either way.  Finite-rank spectra
    always yield a trivially convergent plan.  Raises ValueError on the
    parameters evaluate_sum rejects.
    """
    p = _spec(kind).resolve(params)
    rank = support(model, d)
    if rank is not None:
        # Finite spectra converge trivially; any tail bound object works as
        # the convergence marker since nothing is summed through it.
        return GeomSeriesTail(1.0, 0.5, from_j=rank + 1, exact=False)
    return _plan(kind, p, model, d, criterion)[2]
