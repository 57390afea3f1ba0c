import math

import pytest
from hypothesis import given, strategies as st

from tract import EigenModel, Expression, eigenvalue, eigenvalues
from tract.errors import ArityError, EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from tract.exprdsl import BinOp, Num, compile_array, evaluate, parse, to_source

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
    "source", ["max(1, 0*exp(1000))", "max(0*exp(1000), 1)", "min(1, 0*exp(1000))", "min(0*exp(1000), 1)"]
)
def test_max_min_keep_a_nan_in_either_argument(source):
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


def test_roundtrip_examples():
    for source in [
        "2+3*2^2",
        "j^(0-2)",
        "exp(0-j)",
        "-2^2",
        "max(1, ln(j)) - -j",
        "1/j + 1/d",
        "2^3^2",
        "-(2^2)",
        "(1+d)*(1+j)",
        "1 - (2 - 3)",
        "2 / (3 / 4)",
        "min(1, 2^(pow(2,d)-j))",
        "1.5e-3 * j",
    ]:
        tree = parse(source)
        assert parse(to_source(tree)) == tree, source


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
    st.sampled_from(["d", "j"]).map(lambda s: parse(s)),
)


def _expr_strategy():
    return st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(lambda c: parse(f"-({to_source(c)})")),
            st.tuples(st.sampled_from(["exp", "ln", "sqrt"]), children).map(
                lambda t: parse(f"{t[0]}({to_source(t[1])})")
            ),
            st.tuples(st.sampled_from(["max", "min", "pow"]), children, children).map(
                lambda t: parse(f"{t[0]}({to_source(t[1])}, {to_source(t[2])})")
            ),
        ),
        max_leaves=12,
    )


@given(_expr_strategy())
def test_roundtrip_property(tree):
    assert parse(to_source(tree)) == tree


def test_eval_referentially_transparent():
    tree = parse("exp(0-j) * ln(d+1) + sqrt(j)")
    a = evaluate(tree, 7, 9)
    b = evaluate(tree, 7, 9)
    assert a == b  # bit-identical


def test_compiled_array_matches_scalar():
    tree = parse("min(1, 2^(d-j)) + 1/(j*j)")
    js = np.arange(1, 200)
    vec = compile_array(tree)(3.0, js.astype(float))
    for idx, j in enumerate(js):
        assert vec[idx] == evaluate(tree, 3, int(j))
