"""Every tail plan checked against the terms it certifies.

The planners in ``criteria`` turn hand-derived inequalities into tail bounds
and divergence floors.  This audit takes each plan ``convergence_plan``
returns and checks its pointwise claim against the true terms at about 40
log-spaced indices: a tail shape must dominate the terms from its ``from_j``
to 1e12 (and an exact shape equal them), and a ``Divergence`` floor must
hold from its onset on.  The terms come from mpmath at 50 digits, from the
family's own formula, and each shape's bound is written out again here from
its fields, so the check shares no code with the planners, the tail shapes
or ``log_ratios``.
"""

import ast
import inspect
import math
import pathlib
import re
import typing
from typing import Callable, NamedTuple

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import tract
from tract import (
    CriterionParams,
    EigenModel,
    ErrorCriterion,
    ExpDecay,
    Expression,
    Geometric,
    GeometricTail,
    PolyDecay,
    PowerLawTail,
    StretchedExpTail,
    Tabulated,
    TailEnvelope,
    evaluate_sum,
)
from tract.criteria import SUM_KINDS, SUM_SPECS, convergence_plan
from tract.summation import (
    AffinePowerTail,
    Divergence,
    FiniteEnd,
    GeomSeriesTail,
    PolyLogTail,
    RatioTail,
    StretchedIntegralTail,
    SumStatus,
    TailBound,
    certified_sum,
)

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR


class Case(NamedTuple):
    """A model and ln lambda(j) at d from its family's formula, as an mpf."""

    model: EigenModel
    log_lambda: Callable[[mpmath.mpf, int], mpmath.mpf]


def _log_form(form, j):
    if isinstance(form, PowerLawTail):
        return mpmath.log(form.scale) - form.beta * mpmath.log(j)
    if isinstance(form, GeometricTail):
        return mpmath.log(form.scale) + j * mpmath.log(form.ratio)
    return mpmath.log(form.scale) - form.rate * j**form.power


def _closed(family) -> Case:
    return Case(EigenModel(family), lambda j, d: _log_form(family.envelope.form, j))


def _expression(formula: str, log_lambda: Callable[[mpmath.mpf, int], mpmath.mpf]) -> Case:
    """An Expression that reads as a closed form, with its logarithm written out again."""
    return Case(EigenModel(Expression(formula)), log_lambda)


def _expressions(a: float, b: float, g: float) -> st.SearchStrategy:
    return st.sampled_from([
        _expression(f"{a!r}*j^(0-{b!r})", lambda j, d: mpmath.log(a) - b * mpmath.log(j)),
        _expression(f"{a!r}*exp(0-{b!r}*j)", lambda j, d: mpmath.log(a) - b * j),
        _expression(f"exp(0-{b!r}*j^{g!r})/{a!r}", lambda j, d: -b * j ** mpmath.mpf(g) - mpmath.log(a)),
        _expression(f"sqrt({a!r}*exp(0-{b!r}*j/d))", lambda j, d: (mpmath.log(a) - b * j / d) / 2),
    ])


def _tabulated(prefix, form) -> Case:
    family = Tabulated(tuple(prefix), TailEnvelope(form, valid_from=len(prefix) + 1))
    table = sorted(prefix, reverse=True)

    def log_lambda(j, d):
        return mpmath.log(table[int(j) - 1]) if j <= len(table) else _log_form(form, j)

    return Case(EigenModel(family), log_lambda)


@st.composite
def _tabulated_cases(draw) -> Case:
    prefix = sorted(draw(st.lists(st.floats(0.3, 2.0), min_size=1, max_size=20)), reverse=True)
    n, last, shrink = len(prefix), prefix[-1], draw(st.floats(0.2, 0.99))
    kind = draw(st.sampled_from(["power", "geometric", "stretched"]))
    if kind == "power":
        beta = draw(st.floats(0.3, 4.0))
        form = PowerLawTail(last * shrink * (n + 1) ** beta, beta)
    elif kind == "geometric":
        r = draw(st.floats(0.05, 0.95))
        form = GeometricTail(last * shrink / r ** (n + 1), r)
    else:
        rate, power = draw(st.floats(0.1, 1.0)), draw(st.floats(0.2, 1.5))
        form = StretchedExpTail(last * shrink * math.exp(rate * (n + 1) ** power), rate, power)
    return _tabulated(prefix, form)


_CASES = st.one_of(
    st.builds(PolyDecay, a=st.floats(0.25, 4.0), alpha=st.floats(0.3, 4.0)).map(_closed),
    st.builds(ExpDecay, a=st.floats(0.25, 4.0), b=st.floats(0.1, 2.0), gamma=st.floats(0.2, 2.0)).map(_closed),
    st.builds(Geometric, a=st.floats(0.25, 4.0), r=st.floats(0.05, 0.95)).map(_closed),
    _tabulated_cases(),
    st.builds(_expressions, st.floats(0.25, 4.0), st.floats(0.1, 2.0), st.floats(0.2, 2.0)).flatmap(lambda s: s),
)

# Every field set: each kind reads the ones it needs.
_PARAMS = st.builds(
    CriterionParams,
    tau=st.floats(0.05, 6.0),
    tau1=st.floats(0.0, 2.0),
    tau2=st.floats(0.05, 4.0),
    tau3=st.floats(0.0, 2.0),
    c_tilde=st.floats(0.5, 3.0),
    c=st.floats(0.1, 3.0),
    s=st.one_of(st.just(1.0), st.floats(0.2, 3.0)),
    t=st.just(1.0),
)


def _log_term(kind: str, x: tuple, log_rho, j):
    """ln of the kind's term at index j, from ln rho(j)."""
    if kind in ("spt-alg", "pt-alg", "qpt-alg"):
        return x[0] * log_rho
    if kind in ("spt-exp", "pt-exp"):
        return j ** -mpmath.mpf(x[0]) * log_rho
    if kind == "qpt-exp":
        return -x[0] * mpmath.log(1 + max(0, -log_rho) / 2)
    c, s = x
    if kind == "wt-alg":
        return -c * mpmath.exp(-s * log_rho / 2)
    return -c * (1 + mpmath.log(2) + max(0, -log_rho)) ** s


def _log_bound(shape, j):
    """ln of the shape's pointwise bound at j."""
    if isinstance(shape, AffinePowerTail):
        return shape.log_C - shape.T * mpmath.log(shape.alpha + shape.beta * j ** mpmath.mpf(shape.gamma))
    if isinstance(shape, StretchedIntegralTail):
        B = mpmath.exp(shape.log_B) if shape.log_B is not None else mpmath.mpf(shape.B)
        return shape.log_C + shape.log_A * j ** -mpmath.mpf(shape.tau) - B * j**shape.gamma
    if isinstance(shape, GeomSeriesTail):
        return shape.log_C + j * shape.log_q
    if isinstance(shape, PolyLogTail):
        return -shape.c * (shape.K + shape.beta * mpmath.log(j)) ** shape.s
    if isinstance(shape, RatioTail):
        return mpmath.mpf(shape.log_g(int(j)))
    raise TypeError(f"no pointwise bound for {type(shape).__name__}")


def _grid(lo, hi, n: int = 40) -> list:
    """About n log-spaced indices in [lo, hi], lo included."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    step = (mpmath.log(hi) - mpmath.log(lo)) / (n - 1)
    return sorted({mpmath.ceil(lo * mpmath.exp(k * step)) for k in range(n)})


def _slack(log_value) -> float:
    """Rounding allowance in the log: the planners' parameters are doubles."""
    return 1e-9 + 1e-12 * abs(float(log_value))


def _audit(case: Case, kind: str, params: CriterionParams, criterion: ErrorCriterion, d: int) -> None:
    spec = SUM_SPECS[kind]
    plan = convergence_plan(case.model, kind, d, params, criterion)
    x = spec.param(spec.resolve(params), d)
    with mpmath.workdps(50):
        lead = case.log_lambda(mpmath.mpf(1), d) if criterion is NOR else 0

        def log_term(j):
            return _log_term(kind, x, case.log_lambda(j, d) - lead, j)

        if isinstance(plan, Divergence):
            onset = plan.j0 if plan.log2_j0 is None else mpmath.mpf(2) ** plan.log2_j0
            for j in _grid(onset, onset * mpmath.mpf(10) ** 12):
                floor = mpmath.log(plan.floor) - (mpmath.log(j) if plan.reason == "harmonic" else 0)
                assert log_term(j) >= floor - _slack(floor), (plan, j)
            return
        if plan is None or isinstance(plan, FiniteEnd) or plan.from_j >= 10**12:
            return
        ratios = []
        for j in _grid(plan.from_j, 10**12):
            bound = _log_bound(plan, j)
            assert log_term(j) <= bound + _slack(bound), (plan, j)
            if getattr(plan, "exact", False):  # an exact shape is the terms, so bounds them below too
                assert log_term(j) >= bound - _slack(bound), (plan, j)
            if isinstance(plan, RatioTail):
                log_g = [plan.log_g(int(j) + k) for k in range(3)]
                if math.exp(log_g[2]) > 0.0:  # past that the tail reads 0
                    ratios.append((log_g[1] - log_g[0], log_g[2] - log_g[1]))
        for first, second in ratios:
            assert second <= first + _slack(first), plan


@settings(max_examples=300, deadline=None)
@given(
    case=_CASES,
    kind=st.sampled_from(SUM_KINDS),
    params=_PARAMS,
    criterion=st.sampled_from([ABS, NOR]),
    d=st.sampled_from([1, 3]),
)
# spt-exp on a stretched envelope with scale below 1: the coupled plan's factor
# scale**(j**-tau) rises towards 1, and the exact plan is the terms.
@example(
    case=_closed(ExpDecay(0.5, 1.0, 1.0)), kind="spt-exp", params=CriterionParams(tau=0.5),
    criterion=ABS, d=1,
)
# The same factor above 1 (NOR: scale e**b) and equal to 1 (ABS, scale 1).
@example(
    case=_closed(ExpDecay(1.0, 1.11, 0.5)), kind="spt-exp", params=CriterionParams(tau=0.25),
    criterion=NOR, d=3,
)
@example(
    case=_closed(ExpDecay(1.0, 1.11, 0.5)), kind="pt-exp",
    params=CriterionParams(tau1=1.0, tau2=0.25, tau3=1.0, c_tilde=1.0), criterion=ABS, d=1,
)
# The three deepest certified sums of the benchmark: qpt-exp's exact plan is the
# terms (1 - ln a/2 + (kappa/2) j**(1/2))**-3; spt-exp and pt-exp expand the
# factor e**(b j**-1/4).
@example(
    case=_closed(ExpDecay(1.0, 1.1141, 0.5)), kind="qpt-exp", params=CriterionParams(tau=3.0),
    criterion=NOR, d=1,
)
@example(
    case=_closed(ExpDecay(1.0, 1.1141, 0.5)), kind="spt-exp", params=CriterionParams(tau=0.25),
    criterion=NOR, d=3,
)
@example(
    case=_closed(ExpDecay(1.0, 1.1141, 0.5)), kind="pt-exp",
    params=CriterionParams(tau1=1.0, tau2=0.25, tau3=1.0, c_tilde=1.0), criterion=NOR, d=2,
)
# A PolyLogTail, and a RatioTail that holds from j1 on (stretched power < 1).
@example(
    case=_closed(PolyDecay(1.0, 2.0)), kind="wt-exp", params=CriterionParams(c=1.0, s=2.0, t=1.0),
    criterion=ABS, d=1,
)
@example(
    case=_closed(ExpDecay(1.0, 1.0, 0.5)), kind="wt-alg", params=CriterionParams(c=1.0, s=1.0, t=1.0),
    criterion=NOR, d=1,
)
# A RatioTail whose bound falls below the normal range by j = 8, where a
# double g keeps too few digits to bound the term or its ratio.
@example(
    case=_closed(Geometric(1.0, 0.16119931113540154)), kind="wt-alg", params=CriterionParams(c=0.5, s=1.0, t=1.0),
    criterion=ABS, d=1,
)
# A RatioTail whose ln g = -e**y reaches -1.5e301 at j = 10001: the
# rounding of y, times e**y, would take ln g below the terms, so y is
# capped where g is 0 as a double already.
@example(
    case=_closed(Geometric(3.0, 0.5)), kind="wt-alg", params=CriterionParams(c=1.4921875, s=0.2, t=1.0),
    criterion=ABS, d=1,
)
# lambda(d, 1) below 1e-300: the envelope is normalised by the same ln
# lambda(d, 1) as the terms, not by a clamped one.
@example(
    case=_closed(Geometric(1e-305, 0.999)), kind="spt-alg", params=CriterionParams(tau=1.0),
    criterion=NOR, d=1,
)
# A stretched form of power 1 is the geometric series q = e**(-p b): its
# plan is the two-sided series, as for a Geometric.
@example(
    case=_closed(ExpDecay(1.0, 1e-3, 1.0)), kind="spt-alg", params=CriterionParams(tau=1.0),
    criterion=ABS, d=1,
)
@example(
    case=_closed(ExpDecay(1.0, 1e-3, 1.0)), kind="pt-alg",
    params=CriterionParams(tau1=1.0, tau2=2.0, tau3=1.0, c_tilde=2.0), criterion=ABS, d=3,
)
@example(
    case=_closed(ExpDecay(1.0, 1e-3, 1.0)), kind="qpt-alg", params=CriterionParams(tau2=0.5, c_tilde=1.0),
    criterion=NOR, d=3,
)
def test_every_plan_holds_against_its_terms(case, kind, params, criterion, d):
    _audit(case, kind, params, criterion, d)


def test_stretched_form_of_power_one_sums_as_a_geometric_series():
    """exp(-0.001 j) is the geometric series of ratio e**-0.001, so its plan is
    the two-sided series of its Geometric twin, not an integral bracket, and
    the sum certifies within 3072 terms (16384 through the bracket)."""
    model = EigenModel(ExpDecay(1.0, 1e-3, 1.0))
    params = CriterionParams(tau=1.0)
    plan = convergence_plan(model, "spt-alg", 1, params, ABS)
    assert isinstance(plan, GeomSeriesTail) and plan.exact
    ev = evaluate_sum(model, "spt-alg", 1, params, ABS)
    with mpmath.workdps(30):
        ref = float(1 / mpmath.expm1(mpmath.mpf(1e-3)))  # sum of e**(-b j), j >= 1, b the double 1e-3
    assert ev.certified and ev.terms_used <= 3072
    assert abs(ev.value - ref) <= ev.remainder_bound


@pytest.mark.parametrize(
    "family, kind, params",
    [
        (Geometric(1e300, math.exp(-1.0)), "spt-alg", CriterionParams(tau=1e307, c_tilde=1000.0)),
        (ExpDecay(1e300, 1.0, 1.0), "spt-alg", CriterionParams(tau=1e307, c_tilde=1000.0)),
        (Geometric(1e300, 1e-300), "wt-exp", CriterionParams(c=1e307, s=1.0, t=1.0)),
    ],
    ids=["Geometric-spt-alg", "ExpDecay-spt-alg", "Geometric-wt-exp"],
)
def test_power_one_whose_ln_C_overflows_takes_the_integral(family, kind, params):
    """ln C is past the double range (tau ln A = 1e307 * 690.8 for spt-alg,
    -c (1 + ln 2 - ln A) = 6.9e309 for wt-exp) while every term from the
    plan's onset on is 0.  The series would read ln C + j ln q as inf or
    inf - inf and take the sum past the double range; the integral reads
    its rate as ln B and certifies 0."""
    model = EigenModel(family)
    assert isinstance(convergence_plan(model, kind, 1, params, ABS), StretchedIntegralTail)
    ev = evaluate_sum(model, kind, 1, params, ABS)
    assert (ev.value, ev.remainder_bound, ev.status) == (0.0, 0.0, SumStatus.CERTIFIED)


def test_only_the_model_and_config_name_the_tail_form_classes():
    """The planners and the classifier read a tail form by its numbers: beta
    for a power law, else form.stretched = (rate, power).  So a new stretched
    form needs no edit outside the module that defines it and the config
    that builds it."""
    classes = {"GeometricTail", "StretchedExpTail"}
    users = set()
    for path in pathlib.Path(tract.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if {getattr(node, field, None) for field in ("id", "attr", "name")} & classes:
                users.add(path.stem)
    assert users == {"eigenmodel", "config"}


def test_expression_keeps_its_declared_tail_below_the_double_range():
    """The terms of a*exp(-c j) come from its logarithm, ln a - c j, past
    j = 2100 where the value is below 1e-300, so the envelope holds: the
    exact one of the formula's form, which is read before the declared tail."""
    a, c = 1.3, 0.32
    tail = TailEnvelope(GeometricTail(a, math.exp(-c)), valid_from=1)
    model = EigenModel(Expression(f"{a}*exp(0-{c}*j)"), declared_tail=tail)

    def log_lambda(j, d):
        return mpmath.log(a) - mpmath.mpf(c) * j

    params = CriterionParams(tau=2.0)
    _audit(Case(model, log_lambda), "qpt-exp", params, NOR, 1)
    ev = evaluate_sum(model, "qpt-exp", 1, params, NOR)
    twin = evaluate_sum(EigenModel(Geometric(a, math.exp(-c))), "qpt-exp", 1, params, NOR)
    assert ev.certified and twin.certified
    assert abs(ev.value - twin.value) <= ev.remainder_bound + twin.remainder_bound


# Extreme but valid parameters: scales and rates over 1e-300 to 1e300, tau
# with subnormals and 1e308, s near 1 on both sides.
_EXTREME = st.floats(1e-300, 1e300)
_TAU = st.one_of(st.floats(1e-300, 1e308), st.sampled_from([5e-324, 1e-310, 1e308]))


@settings(max_examples=400, deadline=None)
@given(
    family=st.one_of(
        st.builds(PolyDecay, a=_EXTREME, alpha=_EXTREME),
        st.builds(ExpDecay, a=_EXTREME, b=_EXTREME, gamma=_EXTREME),
        st.builds(Geometric, a=_EXTREME, r=st.floats(1e-300, 1.0, exclude_max=True)),
    ),
    kind=st.sampled_from(SUM_KINDS),
    params=st.builds(
        CriterionParams, tau=_TAU, tau1=st.floats(0.0, 10.0), tau2=_TAU, tau3=st.floats(0.0, 10.0),
        c_tilde=_EXTREME, c=_EXTREME, s=st.one_of(_EXTREME, st.sampled_from([1.0, 1 - 1e-6, 1 + 1e-6])),
        t=st.just(1.0),
    ),
    criterion=st.sampled_from([ABS, NOR]),
    d=st.sampled_from([1, 3]),
)
# 100**-200 underflows to 0 while c * 100**-200 = 1e-300 is a normal double.
@example(
    family=PolyDecay(100.0, 2.0), kind="wt-alg", params=CriterionParams(c=1e100, s=400.0, t=1.0),
    criterion=ABS, d=1,
)
# Past the drawn domain: a subnormal rate whose half is 0, and T = tau (1 + ln 3) = inf.
@example(
    family=ExpDecay(6.0, 5e-324, 18.0), kind="wt-exp", params=CriterionParams(c=1.0, s=1.0, t=1.0),
    criterion=ABS, d=1,
)
@example(family=ExpDecay(5e-324, 5e-324, 1.0), kind="qpt-exp", params=CriterionParams(tau=2.0), criterion=ABS, d=1)
@example(family=PolyDecay(1e-310, 1e-300), kind="qpt-exp", params=CriterionParams(tau=1e308), criterion=ABS, d=3)
# p rate = tau b underflows to 0: the integral plan from ln B, not a series of ratio 1.
@example(family=ExpDecay(1.0, 1e-300, 1.0), kind="spt-alg", params=CriterionParams(tau=5e-324), criterion=ABS, d=1)
# A NOR factor 1/lambda(d, 1) = e**1e300, past the double range.
@example(family=ExpDecay(1e300, 1e300, 1.0), kind="spt-alg", params=CriterionParams(tau=1.0), criterion=NOR, d=1)
# c * e**(-(s/2) ln(1/lambda(d, 1))) underflows to 0; ln B does not.
@example(
    family=PolyDecay(1e-12, 1.0), kind="wt-alg", params=CriterionParams(c=1.0, s=54.0, t=1.0),
    criterion=NOR, d=1,
)
# qpt-exp's base 1 - b/2 + (b/2) j**gamma is at least 1 past j0, but at b = 1.8e16
# and gamma = 6e-37 it rounds to 0 there: no plan.
@example(
    family=ExpDecay(1.0, 1.801439850948199e16, 6.2132096077017126e-37), kind="qpt-exp",
    params=CriterionParams(tau=1e308), criterion=NOR, d=1,
)
# A coupled factor 0.5**(j**-tau) expands into parts of alternating sign, each an
# integral near 255! past the double range: inf - inf, so no upper bound.
@example(
    family=ExpDecay(0.5, 1.0, 0.0078125), kind="pt-exp", params=CriterionParams(tau1=0.0, tau2=0.00390625, tau3=0.0),
    criterion=ABS, d=1,
)
def test_planning_never_overflows(family, kind, params, criterion, d):
    """No planner catches OverflowError: any overflow left fails here.  A
    plan is None, a Divergence whose note renders, or a shape from an int
    index whose bounds, at that index and at the last int64 one, are
    ordered numbers."""
    try:
        plan = convergence_plan(EigenModel(family), kind, d, params, criterion)
    except ValueError as err:
        # The one error a plan may raise is a start past 2**62.
        assert re.fullmatch(rf"{kind} start index exceeds 2\*\*62 at d={d}", str(err)), err
        return
    if isinstance(plan, Divergence):
        assert (plan.j0 is None) != (plan.log2_j0 is None)
        assert certified_sum(None, 1, plan).divergent
    elif plan is not None:
        assert type(plan.from_j) is int
        for J in (plan.from_j, 2**62 - 2):
            lower, upper = plan.sides(J)
            assert 0.0 <= lower <= upper, (J, lower, upper)


# Divergent sums whose plan once left the double range, so that the
# planner's overflow catch answered "no certificate" and the sum came back
# a partial sum: each onset and floor is derived from logarithms now.
@pytest.mark.parametrize(
    "family, kind, params, onset",
    [
        # u3 = T - 2/beta: 0.5 T beta was past the double range
        (PolyDecay(1.0, 4.0), "qpt-exp", CriterionParams(tau=1e308), r"2\*\*\d{300,}"),
        # u3 = (c s beta)**(1/(1 - s)) is near e**(1.4e6): the onset is 2**2**m
        (PolyDecay(1.0, 4.0), "wt-exp", CriterionParams(c=1.0, s=0.999999, t=1.0), r"2\*\*2\*\*\d+"),
        # the index where the envelope drops below 1, a**(1/alpha), is e**(7e11)
        (PolyDecay(1e308, 1e-9), "qpt-exp", CriterionParams(tau=2.0), r"2\*\*\d+"),
        # j4 = 2**(10**6)
        (ExpDecay(1.0, 1.0, 1e-6), "qpt-exp", CriterionParams(tau=1.0), r"2\*\*\d+"),
    ],
)
def test_divergence_certified_past_the_double_range(family, kind, params, onset):
    model = EigenModel(family)
    ev = evaluate_sum(model, kind, 1, params, ABS)
    assert (ev.status, ev.terms_used) == (SumStatus.DIVERGENT, 0)
    assert re.fullmatch(rf"divergent \(harmonic: terms >= 1/j from j={onset}\)", ev.note), ev.note
    _audit(_closed(family), kind, params, ABS, 1)  # the floor holds from the onset on, by mpmath


def test_stretched_rate_from_an_underflowed_power():
    """B = c * base**power is normal although base**power underflows to 0:
    the plan takes B from its logarithm and certifies the sum."""
    model = EigenModel(PolyDecay(100.0, 2.0))
    params = CriterionParams(c=1e100, s=400.0, t=1.0)
    plan = convergence_plan(model, "wt-alg", 1, params, ABS)
    assert isinstance(plan, StretchedIntegralTail)
    assert math.isclose(plan.B, 1e-300, rel_tol=1e-12)
    ev = evaluate_sum(model, "wt-alg", 1, params, ABS)
    assert ev.status is SumStatus.CERTIFIED
    _audit(_closed(model.family), "wt-alg", params, ABS, 1)


def _stretched_reference(b, log_A):
    """The sum over j >= 1 of exp(log_A j**-0.25 - b j**0.25) at 30 digits."""
    with mpmath.workdps(30):
        f = lambda j: mpmath.exp(log_A * j**-0.25 - b * j**0.25)
        return mpmath.fsum(f(mpmath.mpf(j)) for j in range(1, 3000)) + mpmath.sumem(f, [3000, mpmath.inf])


def _qpt_reference(b):
    """The sum over j >= 1 of (1 + (b/2) (j**(1/2) - 1))**-3 at 50 digits: a
    partial sum and an Euler-Maclaurin tail (mpmath.nsum's default
    extrapolation reads 5.5078 here)."""
    with mpmath.workdps(50):
        f = lambda j: (1 + mpmath.mpf(b) / 2 * (mpmath.sqrt(j) - 1)) ** -3
        return mpmath.fsum(f(mpmath.mpf(j)) for j in range(1, 2000)) + mpmath.sumem(f, [2000, mpmath.inf])


_TABULATED = Tabulated(tuple(1.5 / (j * j) for j in range(1, 201)), TailEnvelope(PowerLawTail(1.5, 2.0), 201))


@pytest.mark.parametrize(
    "family, kind, tau, criterion, d, most, reference",
    [
        # rho**(j**-1/4) = exp(-b j**1/4): the Hermite-Hadamard bracket on the integral
        (ExpDecay(1.0, 1.11, 0.5), "spt-exp", 0.25, ABS, 2, 20_480, lambda: _stretched_reference(1.11, 0.0)),
        # NOR: rho = e**b exp(-b j**1/2), so the factor e**(b j**-1/4) is expanded
        (ExpDecay(1.0, 1.11, 0.5), "spt-exp", 0.25, NOR, 3, 16_384, lambda: _stretched_reference(1.11, 1.11)),
        (_TABULATED, "spt-alg", 1.0, ABS, 1, 4_096, lambda: 1.5 * mpmath.zeta(2)),
        # the exact terms (1 + (b/2)(j**(1/2) - 1))**-3 through the power expansion
        (ExpDecay(1.0, 1.1141, 0.5), "qpt-exp", 3.0, NOR, 1, 4_096, lambda: _qpt_reference(1.1141)),
    ],
    ids=["stretched-ABS", "stretched-NOR", "tabulated", "qpt-exp-stretched-NOR"],
)
def test_deep_sums_certify_within_their_pins(family, kind, tau, criterion, d, most, reference):
    """Two-sided brackets stop these sums early: 8192, 8192, 1024 and 2048
    terms.  The one-sided coupled bound and the integral bracket [from J + 1,
    from J] took 667 648, 734 208 and 78 848 for the first three.  With the
    factor e**(b (J+1)**-1/4) taken whole and Hermite-Hadamard sides on the
    power they took 8192, 395 264 and 2048, and qpt-exp ran to its 2e6-term
    budget on the one-sided bound (kappa/4)**-T j**(-gamma T).  Each value
    holds its mpmath reference within its remainder."""
    ev = evaluate_sum(EigenModel(family), kind, d, CriterionParams(tau=tau), criterion)
    assert ev.certified and ev.terms_used <= most
    assert abs(ev.value - float(reference())) <= ev.remainder_bound + 1e-15 * ev.value


def test_every_tail_shape_has_a_pointwise_bound_in_the_audit():
    """_log_bound names each member of summation.TailBound in an isinstance
    branch, so a new shape cannot pass the audit unchecked."""
    tree = ast.parse(inspect.getsource(_log_bound))
    named = {
        node.args[1].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
    }
    assert named == {shape.__name__ for shape in typing.get_args(TailBound)}
