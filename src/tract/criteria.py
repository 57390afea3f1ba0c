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
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .complexity import first_index
from .config import CriterionParams
from .eigenmodel import (
    EigenModel,
    ErrorCriterion,
    PowerLawTail,
    TailEnvelope,
    _ratios_d_free,
    log_ratios,
    ratio_envelope,
)
from .errors import BeyondRankError
from .summation import (
    AffinePowerTail,
    Divergence,
    FiniteEnd,
    GeomSeriesTail,
    Plan,
    PolyLogTail,
    RatioTail,
    StretchedIntegralTail,
    SumEvaluation,
    SumStatus,
    _SLACK,
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
# at the sum's start index, and its scale is read only as env.log_scale, which
# holds the ln CRI_d that log_ratios subtracts from the terms.  Coefficients,
# Divergence floors and start indices come from ln scale, ln kappa, ln beta and
# the logs of the term parameters, so no step leaves the double range.  The
# divergence searches run over u = ln j, and their predicates read v = ln u:
# onsets can sit far beyond the float range (they are only recorded), and so
# can u.  In v, j**-x is exp(-exp(v + ln x)).

_LN2 = math.log(2.0)
_LOG_HUGE = 709.0  # e**709 is a double, and e**-(e**709) is 0
_LOG_TINY = math.log(sys.float_info.min)  # below e**_LOG_TINY doubles lose digits
_START_BITS = 1 << 24  # a search start past 2**(2**24) gives no certificate


def _log_shift(x: np.ndarray, c: float) -> np.ndarray:
    """ln(e**x + c) where e**x + c > 0, for any size of x."""
    if c >= 0.0:
        return np.logaddexp(x, math.log(c) if c > 0.0 else -math.inf)
    return x + np.log1p(c * np.exp(-x))  # c e**-x lies in (-1, 0)


def _log_divergence(
    reason: str, floor: float, pred: Callable[[np.ndarray], np.ndarray], u_start: tuple[int, int], j0: int
) -> Divergence | None:
    """The Divergence certificate (reason, floor) from the first
    u = max(1, u_start) * 2**k, k < 200, where pred holds, as an onset index:
    the smallest power of two at or above e**u, and at least j0.  None when
    pred holds at no such u.  An onset past 2**62 is kept as its base-2
    exponent: the int itself can run to billions of bits.

    u_start is an exact ratio (n, m) of ints, so a start past the double
    range (1/tau for a subnormal tau) is still exact.

    pred maps an array of v = ln u to a boolean array, so it is read where u
    itself is past the double range; overflow, underflow and NaN (which
    compares false) pass silently.  Callers guarantee that pred, once true,
    stays true (a nonincreasing function below a target, a nondecreasing one
    above zero), so the found index certifies pred everywhere beyond it.
    """
    n, m = u_start if u_start[0] > u_start[1] else (1, 1)
    try:
        log_u0 = math.log(n / m)
    except OverflowError:  # u0 is past the double range
        log_u0 = math.log(n) - math.log(m)
    log_half_u0 = log_u0 - _LN2
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        k = first_index(lambda k: pred(k * _LN2 + log_half_u0), 200)
    if k is None:
        return None
    # e = ceil(u / ln 2) for u = u0 * 2**(k - 1), in exact integers.
    a, b = _LN2.as_integer_ratio()
    e = -(-(n * b << (k - 1)) // (m * a))
    if e > 62:  # past the int64 index range, so past j0 too
        return Divergence(reason, None, floor, log2_j0=e)
    return Divergence(reason, max(j0, 1 << e), floor)


def _index_past(log_x: float, j0: int) -> tuple[int | None, int | None]:
    """(max(j0, ceil(x) + 1), None) for x = e**log_x, with one index of slack
    for rounding; past 2**62, (None, k) with 2**k past x, a Divergence's j0
    and log2_j0, without building the int; (None, None) where x is +inf."""
    if log_x <= 62 * _LN2:
        return max(j0, math.ceil(math.exp(log_x)) + 1), None
    if log_x == math.inf:
        return None, None
    a, b = _LN2.as_integer_ratio()
    n, m = log_x.as_integer_ratio()
    return None, -(-(n * b) // (m * a)) + 1


def _harmonic(log_j: float, j0: int, log_floor: float) -> Divergence | None:
    """'terms >= floor/j from an index past e**log_j and j0 on', or None; a
    floor past e**709 is lowered to it, which certifies as well."""
    j, k = _index_past(log_j, j0)
    return Divergence("harmonic", j, math.exp(min(log_floor, _LOG_HUGE)), k) if j or k else None


def _log_unit(env: TailEnvelope) -> float:
    """ln of a j past which the envelope is at most 1 (-inf: every j)."""
    form, log_a = env.form, env.log_scale
    if isinstance(form, PowerLawTail):
        return log_a / form.beta
    kappa, power = form.stretched
    return (math.log(log_a) - math.log(kappa)) / power if log_a > 0.0 else -math.inf


def _search_start(*us: float) -> tuple[int, int] | None:
    """max(us) as the exact ratio _log_divergence starts from; None at +inf or a NaN first."""
    u = max(us)
    return u.as_integer_ratio() if u < math.inf else None


def _plan_power(env: TailEnvelope, p: float) -> Plan:
    """Plan for terms rho(j)**p: on a power law an affine power tail (a harmonic
    floor where beta p <= 1); on scale * exp(-rate j**power) the geometric series
    with ln q = -p rate at power 1, else the integral.  The integral also takes a
    power 1 whose ln q underflows to 0 or whose ln C overflows, where ln C + j ln q
    would read inf or NaN: it keeps the rate as ln B."""
    j0, form = env.valid_from, env.form
    log_C = p * env.log_scale
    if isinstance(form, PowerLawTail):
        if form.beta * p > 1.0:
            return AffinePowerTail(log_C, 0.0, 1.0, form.beta * p, from_j=j0, exact=env.exact)
        return _harmonic(-math.inf, j0, log_C) if env.exact else None
    rate, power = form.stretched
    log_q = -p * rate
    if power == 1.0 and log_q < 0.0 and log_C < math.inf:
        return GeomSeriesTail(log_C, log_q, from_j=j0, exact=env.exact)
    return _stretched_plan(log_C, p, math.log(rate), 1.0, power, j0, env.exact)


def _plan_coupled(env: TailEnvelope, tau: float) -> Plan:
    """Plan for terms rho(j)**(j**-tau)."""
    j0 = env.valid_from
    form, log_a = env.form, env.log_scale

    if isinstance(form, PowerLawTail):
        # Upper bounds cannot certify convergence here; the exact case has
        # terms exp(-j**-tau (beta ln j - ln a)) -> 1.
        if not env.exact:
            return None
        beta = form.beta

        def log_hub(v: np.ndarray) -> np.ndarray:
            """ln of (beta u + max(0, -ln a)) e**(-tau u)."""
            return _log_shift(v + math.log(beta), max(0.0, -log_a)) - np.exp(v + math.log(tau))

        # hub is decreasing once u > 1/tau (the ln a correction only adds a
        # decreasing nonnegative part).  1/tau = m/n exactly: the float
        # 1/tau overflows for a subnormal tau.
        n, m = tau.as_integer_ratio()
        p, q = math.log(j0).as_integer_ratio()
        start = (p, q) if p * n >= q * m else (m, n)  # max(ln j0, 1/tau)
        return _log_divergence("term-limit", 0.5, lambda v: log_hub(v) <= math.log(_LN2), start, j0)

    rate, power = form.stretched
    if tau < power:
        # The terms are a**(j**-tau) exp(-rate j**(power-tau)), two-sided where the envelope is exact.
        return _stretched_plan(0.0, rate, 0.0, 1.0, power - tau, j0, env.exact, log_A=log_a, tau=tau)
    if not env.exact:
        return None
    # -ln(term) = rate*j**(power-tau) + max(0,-ln a)*j**-tau is
    # nonincreasing for tau >= power; its limit is rate at tau=power,
    # 0 above.
    limit = rate if tau == power else 0.0

    def hub(v: np.ndarray) -> np.ndarray:
        lead = rate if tau == power else rate * np.exp(-np.exp(v + math.log(tau - power)))
        return lead + max(0.0, -log_a) * np.exp(-np.exp(v + math.log(tau)))

    return _log_divergence(
        "term-limit", 0.5 * math.exp(-limit), lambda v: hub(v) <= limit + _LN2,
        math.log(j0).as_integer_ratio(), j0,
    )


def _plan_qpt_exp(env: TailEnvelope, T: float) -> Plan:
    """Plan for terms [1 + 0.5 ln max(1, 1/rho)]**-T."""
    form, log_a = env.form, env.log_scale
    # Past e**log_j0 the envelope is <= 1, so the max() clamp is inactive.
    log_j0 = _log_unit(env)

    if isinstance(form, PowerLawTail):
        # Polylog terms, divergent for every T.
        if not env.exact:
            return None
        beta = form.beta
        # From u3 = max(T - 2/beta, 0) + ln a/beta on, base >= T beta/2, so u - T ln(base) increases.
        start = _search_start(max(T - 2.0 / beta, 0.0) + log_a / beta, math.log(env.valid_from))

        # ln(1 + 0.5 (beta u - ln a)); its argument is at least 1 from u3 on.
        return None if start is None else _log_divergence(
            "harmonic", 1.0,
            lambda v: np.exp(v - math.log(T)) >= _log_shift(v + math.log(beta) - _LN2, 1.0 - 0.5 * log_a),
            start, env.valid_from,
        )

    kappa, power = form.stretched
    log_kappa = math.log(kappa)
    alpha, beta = 1.0 - 0.5 * log_a, 0.5 * kappa
    if power * T > 1.0:
        # The terms are at most (alpha + beta j**power)**-T past j0, and equal to them where the envelope is exact.
        j0, _ = _index_past(log_j0, env.valid_from)
        if not (j0 and beta):
            return None
        try:
            return AffinePowerTail(0.0, alpha, beta, T, from_j=j0, exact=env.exact, gamma=power)
        except ValueError:  # the base, at least 1 at j0, rounds to 0 or below where ln a dwarfs 1
            return None
    if power == 1.0:
        if env.exact:
            log_h = math.log(alpha) - log_kappa + _LN2 if alpha > 0.0 else -math.inf  # ln(alpha/beta)
            return _harmonic(max(log_j0, log_h), env.valid_from, -T * log_kappa)
        return None
    if env.exact:
        # base <= kappa j**power once 1 + 0.5 max(0, -ln a) <= 0.5 kappa j**power.
        log_need = math.log(2.0 + max(0.0, -log_a)) - log_kappa
        return _harmonic(max(log_j0, log_need / power), env.valid_from, -T * log_kappa)
    return None


def _stretched_plan(
    log_C: float, c: float, log_base: float, power: float, gamma: float, j0: int, exact: bool,
    log_A: float = 0.0, tau: float = 0.0,
) -> Plan:
    """Plan for terms bounded by C A**(j**-tau) exp(-B j**gamma), B = c * base**power, from
    ln base: linear where base**power is normal and B < e**709, else
    e**min(ln B, 709) (a smaller B bounds too); ln B where B is below the normal
    range; None where ln B is past it too, or gamma is, or Gamma(1/gamma) is
    (gamma below 1e-300)."""
    log_pow = power * log_base
    log_B = math.log(c) + log_pow
    if log_B == -math.inf or not 1e-300 < gamma < math.inf:
        return None
    if log_B < _LOG_TINY:
        return StretchedIntegralTail(log_C, 0.0, gamma, j0, exact, log_B, log_A, tau)
    pw = math.exp(log_pow) if abs(log_pow) < _LOG_HUGE else 0.0  # subnormal digits are lost
    B = c * pw if pw >= sys.float_info.min and log_B < _LOG_HUGE else math.exp(min(log_B, _LOG_HUGE))
    return StretchedIntegralTail(log_C, B, gamma, j0, exact, None, log_A, tau)


def _plan_wt_alg(env: TailEnvelope, c: float, s: float) -> Plan:
    """Plan for terms exp(-c (1/rho)**(s/2)); always convergent under an envelope."""
    form = env.form
    half_s = 0.5 * s
    if isinstance(form, PowerLawTail):
        return _stretched_plan(0.0, c, env.log_scale, -half_s, form.beta * half_s, env.valid_from, env.exact)
    # Geometric and stretched envelopes give doubly exponential terms
    # g(x) = exp(-e**y), y = ln c - half_s ln scale + half_s kappa x**power,
    # whose ratios decrease where y is convex: for power >= 1, else from j1
    # on.  The tail reads ln g = -e**min(y, 10), raising g: g is 0 as a
    # double from y = 6.7 on, and the cap keeps the rounding of y, which
    # e**y multiplies, from taking ln g below the terms.
    kappa, power = form.stretched
    log_c = math.log(c) - half_s * env.log_scale
    log_b = math.log(s) - _LN2 + math.log(kappa)  # ln(half_s kappa)
    j1 = env.valid_from
    if power < 1.0:
        j1, _ = _index_past((math.log(1.0 - power) - log_b - math.log(power)) / power, j1)

    def log_g(x: float) -> float:
        return -math.exp(min(log_c + math.exp(min(log_b + power * math.log(x), _LOG_HUGE)), 10.0))

    return RatioTail(log_g, from_j=j1) if j1 else None


def _plan_wt_exp(env: TailEnvelope, c: float, s: float) -> Plan:
    """Plan for terms exp(-c [1 + ln(2 max(1, 1/rho))]**s)."""
    form, log_a = env.form, env.log_scale
    konst = 1.0 + _LN2 - log_a
    # Past e**log_j0 the envelope is <= 1, so the max() clamp is inactive.
    log_j0 = _log_unit(env)
    j0, _ = _index_past(log_j0, env.valid_from)

    if isinstance(form, PowerLawTail):
        beta = form.beta
        log_cs_beta = math.log(c) + math.log(s) + math.log(beta)
        if s == 1.0:
            if c * beta > 1.0:
                return AffinePowerTail(-c * konst, 0.0, 1.0, c * beta, from_j=j0, exact=env.exact) if j0 else None
            return _harmonic(log_j0, env.valid_from, -c * konst) if env.exact else None
        if s > 1.0:
            # The exponent c (K + beta u)**s grows with slope >= 2 in u = ln j from u_min =
            # (P - K) / beta on, P = (2 / (c s beta))**(1/(s-1)); the tail past J is then <= J g(J).
            log_P = (_LN2 - log_cs_beta) / (s - 1.0)
            u_min = (math.exp(log_P) - konst) / beta if log_P < _LOG_HUGE else math.inf
            j_star, _ = _index_past(max(u_min, 0.0, log_j0), env.valid_from)
            return PolyLogTail(c, konst, beta, s, from_j=j_star) if j_star else None
        # s < 1: divergent whenever the envelope is exact.
        if env.exact:
            # konst + beta u > 0 and c (konst + beta u)**s grows slower than u from u3 =
            # (P - konst) / beta on, P = (c s beta)**(1/(1-s)), which for s near 1 is huge.
            log_P = log_cs_beta / (1.0 - s)
            if log_P < _LOG_HUGE:
                start = _search_start((math.exp(log_P) - konst) / beta, log_j0, math.log(env.valid_from))
            else:  # u3 <= 2 P / beta, and log_j0 <= u3
                bits = math.ceil((log_P - math.log(beta)) / _LN2) + 1
                start = (1 << bits, 1) if bits <= _START_BITS else None
            return None if start is None else _log_divergence(
                "harmonic", 1.0, lambda v: v >= math.log(c) + s * _log_shift(v + math.log(beta), konst),
                start, env.valid_from,
            )
        return None

    kappa, power = form.stretched
    log_C, log_q = -c * konst, -c * kappa
    # The series where ln C + j ln q is a number, as in _plan_power.
    if power == 1.0 and s == 1.0 and j0 and log_q < 0.0 and log_C < math.inf:
        return GeomSeriesTail(log_C, log_q, from_j=j0, exact=env.exact)
    # The base konst + kappa j**power is at least factor * kappa j**power.
    log_factor_kappa = math.log(kappa) - (0.0 if konst >= 0.0 else _LN2)  # factor 1 or 1/2
    log_need = (math.log(-2.0 * konst) - math.log(kappa)) / power if konst < 0.0 else -math.inf
    j0, _ = _index_past(max(log_j0, log_need), env.valid_from)
    return _stretched_plan(0.0, c, log_factor_kappa, s, power * s, j0, False) if j0 else None


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


# Terms are computed from L(j) = ln(lambda/CRI), which stays exact where
# lambda/CRI itself lies past the double range.


def _rho_pow(L: np.ndarray, j: np.ndarray, p: float) -> np.ndarray:
    """rho**p."""
    return np.exp(p * L)


def _rho_pow_coupled(L: np.ndarray, j: np.ndarray, tau: float) -> np.ndarray:
    """rho**(j**-tau); 0 where rho is 0 (L = -inf), also where j**-tau underflows."""
    w = j.astype(float) ** -tau
    w[L == -np.inf] = 1.0  # 0 * -inf would be NaN
    return np.exp(w * L)


def _wt_damping(p: CriterionParams, d: int) -> float:
    """exp(-c d**t); 0 where d**t is past the double range."""
    try:
        return math.exp(-p.c * float(d) ** p.t)
    except OverflowError:
        return 0.0


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
    prefactor=_wt_damping,
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
    """Start index, term parameters and tail plan of a resolved sum; a finite
    spectrum plans its end, and no envelope gives no certificate (plan None).
    The planners work in logarithms, so no plan overflows.  ValueError when
    d < 1 or the start is past 2**62."""
    if d < 1:
        raise ValueError("d must be >= 1")
    spec = SUM_SPECS[kind]
    start = spec.start(p, d, criterion)
    if start > 1 << 62:  # int64 indices, as Limits.j_max
        raise ValueError(f"{kind} start index exceeds 2**62 at d={d}")
    x = spec.param(p, d)
    if model.family.rank is not None:
        return start, x, FiniteEnd(model.family.rank)
    env = ratio_envelope(model, d, criterion, start)
    return start, x, None if env is None else spec.planner(env, *x)


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
        prefactor=1.0 if spec.outer_power else pref,
    )
    return _outer_power(ev, pref, 1.0 / p.tau2) if spec.outer_power else ev


def _outer_power(inner: SumEvaluation, pref: float, power: float) -> SumEvaluation:
    """pref * inner**power, with the remainder bracket carried through the
    power, and no narrower than the rounding of the power wherever the inner
    sum has a remainder, 0 included; the other fields (converged among them)
    carry over from the inner sum.  An infinite inner sum (divergent, or past
    the double range) comes back as is."""
    if math.isinf(inner.value):
        return inner
    try:
        if inner.remainder_bound is None:
            value = pref * inner.value**power
            if not math.isfinite(value):
                raise OverflowError
            return inner._replace(value=value)
        hi = pref * (inner.value + inner.remainder_bound) ** power
        lo = pref * max(inner.value - inner.remainder_bound, 0.0) ** power
        if not math.isfinite(hi):
            raise OverflowError
    except OverflowError:
        # The sum is finite but its outer power exceeds the double range.
        return inner._replace(
            value=math.inf, remainder_bound=None, status=SumStatus.HEURISTIC,
            note="finite inner sum, outer power exceeds the double range",
        )
    value = 0.5 * (hi + lo)
    # Where the sides round together, their rounding still counts: v +- r, the power, the product and the
    # mean move the value by (power + 4) units of 2**-53 of it at most, each below one ulp of it.
    floor = (power + 4.0) * math.ulp(value)
    return inner._replace(value=value, remainder_bound=max(0.5 * (hi - lo) * _SLACK, floor))


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
    if _ratios_d_free(model, criterion):
        d_hi = 1
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


class SupEvaluation(NamedTuple):
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
        out = {**self._asdict(), "values": list(self.values), "status": self.status.value}
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
    or a finite spectrum's end means certified convergence, a Divergence
    certificate certified divergence, None means no certificate either way.
    Raises ValueError on the parameters evaluate_sum rejects.
    """
    return _plan(kind, _spec(kind).resolve(params), model, d, criterion)[2]
