import math
import operator

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from tract import (
    ComplexityQuery,
    EigenModel,
    ErrorCriterion,
    Expression,
    count_oracle,
    eigenvalue,
    eigenvalues,
    exprdsl,
    info_complexity,
)
from tract.eigenmodel import log_ratio, log_ratios
from tract.errors import ArityError, EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from tract.exprdsl import FUNCTION_ARITY, BinOp, Call, Neg, Num, Var, compile_array, evaluate, parse

import numpy as np


def test_precedence_exact():
    assert evaluate(parse("2+3*2^2"), 1, 1) == 14.0


def test_poly_equivalent_tree():
    tree = parse("j^(0-2)")
    assert evaluate(tree, 1, 3) == pytest.approx(1.0 / 9.0, abs=0)


def test_exp_formula_matches_closed_form():
    tree = parse("exp(0-j)")
    assert evaluate(tree, 5, 2) == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_unterminated_call_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("max(1, ln(")
    assert err.value.offset == 10


_ANY = ("number", "'d'", "'j'", "function name", "'('", "'-'")
_LEXICAL = ("number", "identifier", "operator")
_TAIL = ("operator", "end of input")


@pytest.mark.parametrize(
    "source, answer",
    [
        ("1.", (ExprSyntaxError, 2, ("digit",), "end of input")),
        ("1.x", (ExprSyntaxError, 2, ("digit",), "'x'")),
        ("1.5.", (ExprSyntaxError, 3, _LEXICAL, "'.'")),
        ("1e5.", (ExprSyntaxError, 3, _LEXICAL, "'.'")),
        ("1e", (ExprSyntaxError, 1, _TAIL, "'e'")),
        ("\u00b2", (ExprSyntaxError, 0, _LEXICAL, "'\u00b2'")),
        ("j^(0-\u0663)", (ExprSyntaxError, 5, _LEXICAL, "'\u0663'")),
        ("max(1, ln(", (ExprSyntaxError, 10, _ANY, "end of input")),
        ("max(1,2,3)", (ArityError, 0, 2, None)),
        ("exp()", (ExprSyntaxError, 4, _ANY, "')'")),
        ("pow(d)", (ArityError, 0, 2, None)),
        ("()", (ExprSyntaxError, 1, _ANY, "')'")),
        ("(d", (ExprSyntaxError, 2, ("')'",), "end of input")),
        ("d)", (ExprSyntaxError, 1, _TAIL, "')'")),
        ("d j", (ExprSyntaxError, 2, _TAIL, "'j'")),
        ("", (ExprSyntaxError, 0, _ANY, "end of input")),
        ("  ", (ExprSyntaxError, 2, _ANY, "end of input")),
        ("--d", Neg(Neg(Var("d")))),
        ("2^-2^3", BinOp("^", Num(2.0), BinOp("^", Neg(Num(2.0)), Num(3.0)))),
        ("foo(1)", (UnknownIdentifierError, 0, None, None)),
    ],
)
def test_parse_answers(source, answer):
    """The tree, or the exception with its offset, expected and found."""
    if not isinstance(answer[0], type):
        assert parse(source) == answer
        return
    kind, offset, expected, found = answer
    with pytest.raises(kind) as err:
        parse(source)
    assert (err.value.offset, getattr(err.value, "expected", None), getattr(err.value, "found", None)) == (
        offset, expected, found)


def _print(node) -> str:
    """The tree fully parenthesized, numbers as their repr."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_print(node.operand)})"
    if isinstance(node, BinOp):
        return f"({_print(node.left)}{node.op}{_print(node.right)})"
    return f"{node.func}({', '.join(map(_print, node.args))})"


def _calls(inner):
    return st.sampled_from(sorted(FUNCTION_ARITY)).flatmap(
        lambda f: st.tuples(*[inner] * FUNCTION_ARITY[f]).map(lambda args: Call(f, args))
    )


_TREES = st.recursive(
    st.one_of(st.floats(min_value=0.0, allow_infinity=False).map(abs).map(Num), st.sampled_from("dj").map(Var)),
    lambda inner: st.one_of(
        inner.map(Neg), st.builds(BinOp, st.sampled_from("+-*/^"), inner, inner), _calls(inner)
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_a_printed_tree_parses_back(tree):
    assert parse(_print(tree)) == tree


@pytest.mark.parametrize("source, offset", [("\u00b2", 0), ("j^(0-\u0663)", 5)])
def test_numbers_are_ascii_decimal_literals(source, offset):
    # A superscript two and an Arabic-Indic three pass str.isdigit.
    with pytest.raises(ExprSyntaxError) as err:
        parse(source)
    assert err.value.offset == offset


def test_constant_and_arithmetic():
    assert evaluate(parse("d*0 + 1"), 9, 9) == 1.0
    assert evaluate(parse("1/j + 1/d"), 2, 4) == 0.75


def test_ln_of_negative_is_domain_error():
    with pytest.raises(EvalDomainError):
        evaluate(parse("ln(1-2)"), 1, 1)


def test_sqrt_negative_and_zero_to_negative():
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(0-1)"), 1, 1)
    with pytest.raises(EvalDomainError):
        evaluate(parse("(d-1)^(0-1)"), 1, 1)


def test_division_by_zero_tagged():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/(d-1)"), 1, 1)


@pytest.mark.parametrize(
    "source",
    ["max(1, 0*exp(exp(1000)))", "max(0*exp(exp(1000)), 1)",
     "min(1, 0*exp(exp(1000)))", "min(0*exp(exp(1000)), 1)"],
)
def test_max_min_keep_a_nan_in_either_argument(source):
    # exp(1000) overflows as a double, so 0*exp(exp(1000)) is 0*inf, a NaN in
    # either reading; 0*exp(1000) is 0 in the signed one, and so is max(1, 0).
    model = EigenModel(Expression(source))
    with pytest.raises(EvalDomainError, match="NaN"):
        eigenvalue(model, 1, 1)
    with pytest.raises(EvalDomainError, match="NaN"):
        eigenvalues(model, 1, np.array([1, 2]))


def test_arity_errors():
    with pytest.raises(ArityError):
        parse("exp(1, 2)")
    with pytest.raises(ArityError):
        parse("pow(2)")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("foo(1)")
    with pytest.raises(UnknownIdentifierError):
        parse("x + 1")


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 1, 1) == 512.0


def test_unary_minus_binds_inside_power_left_operand():
    # Grammar: factor := unary ('^' factor)?, so the sign belongs to the base.
    tree = parse("-2^2")
    assert isinstance(tree, BinOp) and tree.op == "^"
    assert evaluate(tree, 1, 1) == 4.0


def test_negative_exponent_on_the_right():
    assert evaluate(parse("2^-2"), 1, 1) == 0.25


def test_eval_referentially_transparent():
    tree = parse("exp(0-j) * ln(d+1) + sqrt(j)")
    a = evaluate(tree, 7, 9)
    b = evaluate(tree, 7, 9)
    assert a == b  # bit-identical


def test_compiled_array_matches_scalar():
    tree = parse("min(1, 2^(d-j)) + 1/(j*j)")
    ds, js = np.arange(1, 5), np.arange(1, 200)
    grid = compile_array(tree)(ds[:, None], js)
    assert grid.shape == (ds.size, js.size)
    for row, d in enumerate(ds):
        for col, j in enumerate(js):
            assert grid[row, col] == evaluate(tree, int(d), int(j))


@pytest.mark.parametrize(
    "source, j, first",
    [
        ("1/(j-d)", 3, (3, 3)),
        # Fails along d = 2 and along j = 2: row-major, (1, 2) comes first.
        ("1/((j-2)*(d-2))", np.arange(1, 5), (1, 2)),
        ("ln(j-d)", np.arange(1, 5), (1, 1)),
    ],
)
def test_grid_error_names_the_first_failing_point(source, j, first):
    with pytest.raises(EvalDomainError) as err:
        compile_array(parse(source))(np.arange(1, 5)[:, None], j)
    assert (err.value.d, err.value.j) == first


@pytest.mark.parametrize(
    "path",
    [
        lambda m: evaluate(m.family.tree, 1, 1),
        lambda m: eigenvalues(m, 1, np.array([1, 2])),
        lambda m: log_ratios(m, 1, np.array([1, 2]), ErrorCriterion.ABS),
    ],
    ids=["evaluate", "eigenvalues", "log_ratios"],
)
def test_nan_under_pow_raises(path):
    # 0*exp(exp(1000)) is 0*inf, a NaN; pow(NaN, 0) would hide it as 1.
    model = EigenModel(Expression("pow(0*exp(exp(1000)), 0)"))
    with pytest.raises(EvalDomainError, match="NaN"):
        path(model)


def test_one_expression_walk():
    assert not any(hasattr(exprdsl, name) for name in ("_POINT", "_log_walk", "_values"))


@pytest.mark.parametrize(
    "source, log, n",
    [("exp(0-800*j)/exp(0-790*j)", -10.0, 2), ("exp(1000-j)/exp(999)", 0.0, 5)],
    ids=["underflow", "overflow"],
)
def test_a_linear_underflow_or_overflow_sums_and_counts(source, log, n):
    """0/0 and inf/inf in doubles at j = 1: the linear walk raises, the log
    walk reads the quotient, and both counts read the log walk.  Under ABS,
    e**-10j exceeds eps**2 = 1e-10 for j <= 2, and e**(1-j) exceeds
    eps**2 = 0.01 = e**-4.6 for j <= 5."""
    family = Expression(source)
    assert family.log_values(1, np.array([1])).tolist() == [log]
    with pytest.raises(EvalDomainError, match="NaN"):
        compile_array(family.tree)(1, np.array([1]))
    q = ComplexityQuery(1, 1e-5 if log < 0 else 0.1, ErrorCriterion.ABS)
    model = EigenModel(family)
    assert info_complexity(model, q).n == n
    assert count_oracle(model, q).n == n


def test_a_difference_keeps_the_logarithm_below_the_double_range():
    """exp(-745) is subnormal; ln of its linear value is -744.44."""
    assert log_ratio(EigenModel(Expression("exp(0-745*j) - 0")), 1, 1, ErrorCriterion.ABS) == -745.0


@pytest.mark.parametrize("source", ["j - j", "max(0, 5-j) + max(0, j-10)", "exp(0-exp(1000)) - exp(0-exp(1000))"])
def test_zeros_sum_to_an_exact_zero(source):
    """Each sum is 0 at j = 7, also where both terms read ln 0 = -inf."""
    assert Expression(source).log_values(1, np.array([7])).tolist() == [-math.inf]


@pytest.mark.parametrize("source", ["j^exp(1000)", "(j/j)^exp(1000)", "(0-1)^exp(1000)", "exp(exp(1000))^(j-j)"])
def test_one_to_an_infinite_power_and_infinity_to_zero_read_one(source):
    """exp(1000) overflows to inf, and 1^inf and inf^0 are 1 in both readings:
    the signed one must not multiply ln 1 = 0 by inf, or inf by 0."""
    family = Expression(source)
    assert compile_array(family.tree)(1, np.array([1])).tolist() == [1.0]
    assert family.log_values(1, np.array([1])).tolist() == [0.0]


def test_an_infinite_power_fails_past_one():
    with pytest.raises(EvalDomainError, match="double range") as err:
        Expression("j^exp(1000)").log_values(1, np.array([1, 2]))
    assert (err.value.d, err.value.j) == (1, 2)


def test_a_subnormal_intermediate_keeps_its_digits():
    """exp(-718.7578125) is subnormal, so ln of its linear sqrt is 8 ulps off;
    the log walk halves the exponent, exactly, and eigenvalue is its exp."""
    model = EigenModel(Expression("sqrt(exp(0-0.1015625*j))"))
    assert log_ratio(model, 1, 7077, ErrorCriterion.ABS) == -359.37890625
    assert eigenvalue(model, 1, 7077) == math.exp(-359.37890625)


# ---------------------------------------------------------------------------
# The signed reading against mpmath
# ---------------------------------------------------------------------------

class _Domain(Exception):
    """ln, sqrt or a power outside its real domain."""


class _Unsettled(Exception):
    """A node whose sign the reference, or the rounding of doubles, does not settle."""


# A private interval context: every reference value is an enclosure at 50 digits.
_IV = mpmath.ctx_iv.MPIntervalContext()
_IV.dps = 50


def _sign(x) -> int:
    if x.a > 0:
        return 1
    if x.b < 0:
        return -1
    if x.a == 0 and x.b == 0:
        return 0
    raise _Unsettled


def _iv_pow(u, v):
    """u**v: a negative u needs an integer v, and 0 a v >= 0.  Doubles may
    round v, an exponent of the linear walk, to an integer, or off one."""
    if _sign(u) > 0:
        return u**v
    if _sign(u) == 0:
        if _sign(v) < 0:
            raise ZeroDivisionError
        return _IV.mpf(0 if _sign(v) else 1)
    n = int(mpmath.nint(v.mid))
    if v.a == v.b == n:
        return (-1) ** n * (-u) ** v
    raise _Unsettled if abs(v.mid - n) <= 1e-12 * max(1, abs(n)) else _Domain("^")


def _iv_hull(pick):
    """max or min of two intervals, as the interval of its values."""
    return lambda a, b: _IV.mpf([pick(a.a, b.a), pick(a.b, b.b)])


def _iv_checked(f, domain):
    def call(x):
        if not domain(_sign(x)):
            raise _Domain(f.__name__)
        return f(x)

    return call


def _iv_div(a, b):
    if not _sign(b):
        raise ZeroDivisionError
    return a / b


_IV_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _iv_div, "^": _iv_pow, "pow": _iv_pow,
    "exp": _IV.exp, "max": _iv_hull(max), "min": _iv_hull(min),
    "ln": _iv_checked(_IV.log, lambda s: s > 0), "sqrt": _iv_checked(_IV.sqrt, lambda s: s >= 0),
}


def _mp_walk(node, d, j, logs):
    """(value, scale) of the tree: value is a 50-digit interval, and ln |value|
    of each nonzero node goes to logs.  scale is the sum over the nodes of
    max(1, |ln |value||), each times the factor by which the nodes above
    scale its error: |v| inside the base of a power u**v, (|a| + |b|)/|a +- b|
    inside a sum or difference and 1/|ln x| inside ln x, where that is not 0.
    ZeroDivisionError where the formula divides by zero, _Domain where it
    leaves a real domain, and _Unsettled where the interval of a node holds
    0 and other values, or where 4 ulps of its scale reach 1/4, so that
    doubles may not even hold its sign."""
    if isinstance(node, (Num, Var)):
        value = _IV.mpf(node.value if isinstance(node, Num) else d if node.name == "d" else j)
        parts = []
    elif isinstance(node, Neg):
        parts = [_mp_walk(node.operand, d, j, logs)]
        value = -parts[0][0]
    else:
        op = node.op if isinstance(node, BinOp) else node.func
        args = (node.left, node.right) if isinstance(node, BinOp) else node.args
        parts = [_mp_walk(a, d, j, logs) for a in args]
        value = _IV_OPS[op](*(v for v, _ in parts))
        size = [abs(mpmath.mpf(v.mid)) for v, _ in parts]
        if op in ("^", "pow"):
            parts[0] = (parts[0][0], size[1] * parts[0][1])
        elif op in ("+", "-") and _sign(value):
            factor = (size[0] + size[1]) / abs(mpmath.mpf(value.mid))
            parts = [(v, factor * scale) for v, scale in parts]
        elif op == "ln" and _sign(value):
            parts[0] = (parts[0][0], parts[0][1] / abs(mpmath.mpf(value.mid)))
    if _sign(value):
        logs.append(mpmath.log(abs(mpmath.mpf(value.mid))))
    scale = max(1, abs(logs[-1]) if _sign(value) else 0) + sum(scale for _, scale in parts)
    if 4 * math.ulp(float(scale)) >= 0.25:
        raise _Unsettled
    return value, scale


_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(np.finfo(float).tiny)
_EXP_ARG = st.builds(
    "0-{}*{}".format, st.floats(1e-3, 3.0).map(repr), st.sampled_from(["j", "d", "j/d", "j*d", "sqrt(j)"])
)
_LOG_LEAVES = st.one_of(
    st.sampled_from(["d", "j"]),
    st.floats(0.01, 100.0).map(repr),
    _EXP_ARG.map("exp({})".format),
    # A value past the double range, and a division by zero at j = 1..3.
    st.floats(1.0, 3.0).map("exp({!r}*j)".format),
    st.integers(1, 3).map("exp(0-1/(j-{}))".format),
)
_POWER = st.one_of(st.floats(-3.0, 3.0).map("({!r})".format), st.floats(0.1, 2.0).map("(0-{!r}*d)".format))


def _signed_rules(inner):
    return st.one_of(
        st.builds("({}){}({})".format, inner, st.sampled_from("*/+-"), inner),
        st.builds("({})^{}".format, inner, _POWER),
        st.builds("pow({}, {})".format, inner, _POWER),
        st.builds("{}({}, {})".format, st.sampled_from(["max", "min"]), inner, inner),
        st.builds("{}({})".format, st.sampled_from(["sqrt", "ln", "-"]), inner),
    )


@settings(max_examples=400, deadline=None)
@given(
    source=st.recursive(_LOG_LEAVES, _signed_rules, max_leaves=4),
    d=st.integers(1, 50),
    j=st.one_of(st.integers(1, 4), st.integers(1, 10**7)),
)
# Fails in the linear walk only, through an underflow: exp(-800)/exp(-790) is 0/0.
@example(source="exp(0-800.0*d)/exp(0-790.0*d)", d=1, j=1)
@example(source="exp(0-1.05*j/d)", d=1, j=10**6)
@example(source="(j)^(0-400.0*d)", d=8, j=2)
# The linear walk reads inf*0, a NaN; the signed one a logarithm past ln DBL_MAX.
@example(source="exp(1.0*j)*exp(0-3.0*sqrt(j))", d=1, j=61692)
@example(source="-(d)", d=1, j=1)
@example(source="ln((j)/(j))", d=1, j=3)
@example(source="((d)-(d))^(0.0)", d=2, j=1)
def test_log_walk_against_mpmath(source, d, j):
    """log_values reads a formula within 1e-12 of its 50-digit logarithm,
    also where the value underflows (plus 4 ulps of the formula's error
    scale, see _mp_walk: large logs cancel, and so may the terms of a
    difference).  Where every nonzero node's value is a normal double, so
    that the linear walk keeps its digits, it is within 4 ulps of the error
    scale of ln of the linear value.  An exact zero reads -inf, a negative
    value raises as negative, a value outside a real domain raises, and a
    division by zero or a value past the double range raises as such where
    the linear walk raises too, at the same (d, j)."""
    family = Expression(source)
    index = np.array([j])
    logs = []
    try:
        with mpmath.workdps(50):
            value, scale = _mp_walk(family.tree, d, j, logs)
            sign = _sign(value)
            reference = mpmath.log(mpmath.mpf(value.mid)) if sign > 0 else None
    except _Unsettled:
        try:
            family.log_values(d, index)
        except EvalDomainError:
            pass
        return
    except _Domain:
        with pytest.raises(EvalDomainError):
            family.log_values(d, index)
        return
    except ZeroDivisionError:
        sign, reference = None, "division by zero"
    if sign == -1:
        with pytest.raises(EvalDomainError, match="negative"):
            family.log_values(d, index)
        return
    if sign == 0:
        assert family.log_values(d, index).tolist() == [-math.inf]
        return
    if sign is None or reference > _LOG_DOUBLE_MAX:
        with pytest.raises(EvalDomainError, match=reference if sign is None else "double range") as logged:
            family.log_values(d, index)
        with pytest.raises(EvalDomainError) as linear:
            compile_array(family.tree)(d, index)
        assert (logged.value.d, logged.value.j) == (linear.value.d, linear.value.j)
        return
    L = float(reference)
    got = float(family.log_values(d, index)[0])
    assert abs(got - L) <= 1e-12 * max(1.0, abs(L)) + 4 * math.ulp(float(scale)), (got, L, float(scale))
    if all(_LOG_TINY <= x <= _LOG_DOUBLE_MAX for x in logs):
        linear = math.log(evaluate(family.tree, d, j))
        assert abs(got - linear) <= 4 * math.ulp(float(scale)), (got, linear, float(scale))
