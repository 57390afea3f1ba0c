"""A small arithmetic language for user-defined eigenvalue formulas in d and j.

Grammar::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-' unary | primary
    primary := NUMBER | 'd' | 'j' | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Whitespace between tokens is skipped.  NUMBER is ASCII digits, then an
optional fraction, a '.' that needs a digit after it, then an optional e or E
exponent, taken only where digits follow it.  A name starts with a letter or
'_' and goes on with letters, digits and '_'.  '^' is right-associative, and
a unary '-' binds tighter on its left: -2^2 is (-2)^2.  The only names are
the variables d, j and the calls exp, ln, sqrt (one argument) and pow, max,
min (two arguments).

One walk reads a tree over d and j, each a number or an array, by a table
of what each node means.  :func:`compile_array` (and its one-element view
:func:`evaluate`) reads doubles and :func:`log_decimal` Decimals, linearly.
:func:`log_array` reads (sign, ln|x|) pairs, so that a value below the double
range keeps its logarithm: * and / add and subtract the logs, + and - take a
signed log-sum-exp, a negation flips the sign, max and min order by sign and
then by log, sqrt halves the log, ln x has the sign of ln x and the log
ln|ln x|, and u^v multiplies ln|u| by v, but x^0 and 1^v read 1 for every x
and v, +-inf too, as in the linear reading.  The argument of exp and the
exponent of a power are plain doubles of the linear reading.  A division by
zero (0 to a negative power too), a NaN (0*inf, inf-inf, ln or sqrt of a
negative, a negative base to a non-integer power), a value past the double
range or, in :func:`log_array`, a negative value raises
:class:`EvalDomainError` naming the first failing d and j.

:func:`log_form` reads a tree, at one d, as the form exp(A + B ln j + C j**g)
it has for every j >= 1, or None.  A node free of j reads as a double; one
in j as a form of its value and a form of its logarithm, each A + B ln j + C
j**g or None: j has both, + and - add value forms whose powers of j agree or
where one has none, * and / add and subtract the log forms and scale a value
form by a double, a power with a double exponent and sqrt scale the log
form, a double base b > 0 to a form gives ln b times its value form, exp
turns a value form into a log form and ln the reverse, and e**A j**B is the
value form C j**g with C = e**A, g = B.  max and min of a node in j, ln of a
double <= 0, a domain error, a non-finite double, a double or a part below
the normal range (it may have underflowed), a part past 2**20 and a sum that
cancels a part to below 2**-10 of its size, 0 included, read None.  Each rule
is an identity of real numbers, so a form is a proof over every j, not a
probe.  A formula nested
past the interpreter's stack is refused: :func:`parse` raises
:class:`ExprSyntaxError` at the token it reached, and a walk over a tree too
deep for it (a sum of some thousand terms folds into one) raises
:class:`EvalDomainError`.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import ArityError, EvalDomainError, ExprSyntaxError, UnknownIdentifierError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "evaluate",
    "compile_array",
    "log_array",
    "log_decimal",
    "log_form",
    "variables_used",
]

FUNCTION_ARITY = {"exp": 1, "ln": 1, "sqrt": 1, "pow": 2, "max": 2, "min": 2}
VARIABLES = ("d", "j")


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# One token after any whitespace.  [0-9], not \d, which also takes other scripts' digits such as '٣'; a name
# that starts with such a digit, or with '²' or any other character but a letter or '_', fails in _lex.
_TOKEN = re.compile(
    r"\s*(?:(?P<dot>[0-9]+\.)(?![0-9])|(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)|(?P<name>\w+)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>.)|(?P<end>\Z))",
    re.S,
)
_LEVELS = (("+", "-"), ("*", "/"))  # the left-associative operators, loosest first


def _lex(source: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of ``source``, the last of kind 'end'; an operator's kind is itself."""
    tokens, at = [], 0
    while True:
        match = _TOKEN.match(source, at)
        kind, at = match.lastgroup, match.end()
        text, offset = match[kind], match.start(kind)
        if kind == "dot":
            raise ExprSyntaxError(at, ("digit",), repr(source[at]) if at < len(source) else "end of input")
        if kind == "bad" or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            raise ExprSyntaxError(offset, ("number", "identifier", "operator"), repr(text[0]))
        tokens.append((text if kind == "op" else kind, text, offset))
        if kind == "end":
            return tokens


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree."""
    tokens, at = _lex(source), 0

    def take(*kinds: str) -> str | None:
        """The next token's kind, consumed, if it is one of ``kinds``."""
        nonlocal at
        kind = tokens[at][0]
        if kind not in kinds:
            return None
        at += 1
        return kind

    def fail(*expected: str):
        _, text, offset = tokens[at]
        raise ExprSyntaxError(offset, expected, repr(text) if text else "end of input")

    def fold(level: int = 0) -> Expr:
        """The operators of one level, folded from the left over operands of the next."""
        operand = (lambda: fold(level + 1)) if level + 1 < len(_LEVELS) else power
        node = operand()
        while op := take(*_LEVELS[level]):
            node = BinOp(op, node, operand())
        return node

    def power() -> Expr:
        node = unary()
        return BinOp("^", node, power()) if take("^") else node

    def unary() -> Expr:
        return Neg(unary()) if take("-") else primary()

    def primary() -> Expr:
        _, text, offset = tokens[at]
        if take("num"):
            return Num(float(text))
        if take("("):
            node = fold()
            return node if take(")") else fail("')'")
        if not take("name"):
            fail("number", "'d'", "'j'", "function name", "'('", "'-'")
        if text in VARIABLES:
            return Var(text)
        if text not in FUNCTION_ARITY:
            raise UnknownIdentifierError(text, offset)
        if not take("("):
            fail("'('")
        args = [fold()]
        while take(","):
            args.append(fold())
        if not take(")"):
            fail("','", "')'")
        if len(args) != FUNCTION_ARITY[text]:
            raise ArityError(text, FUNCTION_ARITY[text], len(args), offset)
        return Call(text, tuple(args))

    try:
        node = fold()
    except RecursionError:  # nested past the interpreter's stack: refused at the token it ran out on
        fail("fewer nested levels")
    if tokens[at][0] != "end":
        fail("operator", "end of input")
    return node


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


# What each node means in the linear walk, over NumPy arrays and scalars; "num" reads a constant, "var" d or j.
_OPS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power,
    "exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "pow": np.power, "max": np.maximum, "min": np.minimum,
    "num": float, "var": lambda x: x, "neg": operator.neg,
}


def _walk(node: Expr, d, j, ops: dict = _OPS):
    if isinstance(node, Num):
        return ops["num"](node.value)
    if isinstance(node, Var):
        return ops["var"](d if node.name == "d" else j)
    if isinstance(node, Neg):
        return ops["neg"](_walk(node.operand, d, j, ops))
    op, args = (node.op, (node.left, node.right)) if isinstance(node, BinOp) else (node.func, node.args)
    # A table may read exp's argument and a power's exponent, each the last argument, by another table.
    exponent = ops.get("exponent", ops) if op in ("^", "exp", "pow") else ops
    if len(args) == 1:
        return ops[op](_walk(args[0], d, j, exponent))
    return ops[op](_walk(args[0], d, j, ops), _walk(args[1], d, j, exponent))


def _read(node: Expr, d, j, ops: dict = _OPS):
    """_walk from the root; a tree deeper than the interpreter's stack raises :class:`EvalDomainError`."""
    try:
        return _walk(node, d, j, ops)
    except RecursionError:
        raise EvalDomainError("expression nested too deeply") from None


# The signed reading: each value is (sign, ln|x|), the sign in {-1, 0, 1} and an exact zero (0, -inf).  A sign
# stays a Python float until a rule must choose it per element, so the all-positive case does no array work.
def _same_sign(sa, sb) -> bool:
    return isinstance(sa, float) and isinstance(sb, float) and sa == sb


def _neg(a):
    return -a[0], a[1]


def _add(a, b):
    """Signed log-sum-exp; 0 where the two cancel exactly."""
    (sa, la), (sb, lb) = a, b
    if _same_sign(sa, sb):
        return sa, np.logaddexp(la, lb)
    hi, lo = np.maximum(la, lb), np.minimum(la, lb)
    # Where hi == lo the two cancel: -inf, and NaN for inf - inf.  Each branch's misfires are the other's elements.
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.where(sa * sb < 0, hi + np.log1p(-np.exp(np.where(hi == lo, 0.0, lo - hi))), np.logaddexp(la, lb))
    if np.isnan(log).any():
        raise FloatingPointError("invalid value encountered in subtract")
    return np.where(log > -np.inf, np.where(la >= lb, sa, sb), 0.0), log


def _pow(base, v):
    """base^v for a linear v; the sign powers as the linear walk does, so a negative base needs an integer v."""
    s, log = base
    if isinstance(s, float) and s > 0:
        try:
            return s, np.multiply(v, log)
        except FloatingPointError:  # inf * 0, under _located's errstate
            pass
    sign = np.power(s, v)
    with np.errstate(invalid="ignore"):  # inf * 0 at x^0 for x = 0 or inf, and at 1^+-inf: each reads 1
        return sign, np.where((v == 0) | (log == 0), 0.0, np.multiply(v, log))


def _ln(a):
    s, log = a
    np.log(s)  # raises as the linear walk does, where x <= 0
    with np.errstate(divide="ignore"):  # ln 1 = 0
        return np.sign(log), np.log(np.abs(log))


def _max(a, b):
    """By sign, then by log: the larger log where positive, the smaller where negative."""
    (sa, la), (sb, lb) = a, b
    if _same_sign(sa, sb):
        return sa, (np.maximum if sa > 0 else np.minimum)(la, lb)
    first = (sa > sb) | (sa == sb) & np.where(sa > 0, la >= lb, la <= lb)
    return np.where(first, sa, sb), np.where(first, la, lb)


_SIGNED = {
    "+": _add, "-": lambda a, b: _add(a, _neg(b)), "*": lambda a, b: (a[0] * b[0], np.add(a[1], b[1])),
    # 1/0 divides by zero for every numerator, 0/0 included.
    "/": lambda a, b: (a[0] * (1 / b[0]), np.subtract(a[1], b[1])), "^": _pow, "pow": _pow,
    "exp": lambda v: (1.0, v), "ln": _ln, "sqrt": lambda a: (np.sqrt(a[0]), 0.5 * a[1]),
    "max": _max, "min": lambda a, b: _neg(_max(_neg(a), _neg(b))),
    "num": lambda x: (math.copysign(1.0, x), math.log(abs(x))) if x else (0.0, -math.inf),
    "var": lambda x: (1.0, np.log(x)), "neg": _neg, "exponent": _OPS,
}
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


def _located(read: Callable, d, j) -> np.ndarray:
    """read(d, j) over the broadcast of d and j, each a number or an array.  Where it fails,
    :class:`EvalDomainError` naming the first failing (d, j) row-major: the smallest d, then its smallest j."""
    d, j = np.asarray(d, dtype=float), np.asarray(j, dtype=float)
    with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
        try:
            return read(d, j)
        except ArithmeticError:
            pass
        ds, js = (a.reshape(-1) for a in np.broadcast_arrays(d, j))
        # Every operation is elementwise, so a slice fails iff it holds a failing element: halve [lo, hi).
        lo, hi = 0, ds.size
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                read(ds[lo:mid], js[lo:mid])
                lo = mid
            except ArithmeticError:
                hi = mid
        try:
            read(ds[lo:hi], js[lo:hi])
        except ArithmeticError as exc:
            # NumPy says "divide by zero encountered in ..." or "invalid value encountered in ...".
            reason = str(exc).replace("divide by zero", "division by zero").replace("invalid value", "NaN")
            raise EvalDomainError(reason, d=int(ds[lo]), j=int(js[lo])) from None
    raise AssertionError("the first failing element evaluated cleanly")


def log_array(node: Expr, d: float | np.ndarray, j: float | np.ndarray, negative: str) -> np.ndarray:
    """ln of the tree's value over d and j, each a number or an array, by the signed reading, as a new
    array; a negative value raises with the reason ``negative``, other errors as in :func:`compile_array`."""

    def signed(d: np.ndarray, j: np.ndarray) -> np.ndarray:
        logs = np.empty(np.broadcast(d, j).shape)
        sign, logs[...] = _read(node, d, j, _SIGNED)
        if sign < 0 if isinstance(sign, float) else (sign < 0).any():
            raise FloatingPointError(negative)
        if logs.size and logs.max() > _LOG_DOUBLE_MAX:
            raise FloatingPointError("expression left the finite double range")
        return logs

    return _located(signed, d, j)


def log_decimal(node: Expr, d: int, j: int):
    """ln of the tree's value at one (d, j), at the decimal context's precision: the linear walk over Decimals."""
    from decimal import Decimal

    return _read(node, Decimal(int(d)), Decimal(int(j)), {**_OPS, "ln": Decimal.ln, "num": Decimal}).ln()


def compile_array(node: Expr) -> Callable[..., np.ndarray]:
    """The tree's linear reading over d and j, each a number or an array, with their broadcast shape; a
    division by zero, a NaN or a value past the double range raises as :func:`_located` says."""

    def linear(d: np.ndarray, j: np.ndarray) -> np.ndarray:
        values = np.empty(np.broadcast(d, j).shape)
        values[...] = _read(node, d, j)
        if not np.isfinite(values).all():
            raise FloatingPointError("expression left the finite double range")
        return values

    return lambda d, j: _located(linear, d, j)


def evaluate(node: Expr, d: int, j: int | float) -> float:
    """One-element view of :func:`compile_array`; never NaN."""
    return float(compile_array(node)(d, j))


# The variables a tree reads: the walk over sets of names.
_NAMES = {**dict.fromkeys(_OPS, lambda *names: set().union(*names)), "num": lambda _: set(), "var": lambda x: {x}}


def variables_used(node: Expr) -> set[str]:
    return _read(node, "d", "j", _NAMES)


# The form reading (see the module docstring): a node free of j reads as a float, one in j as _Forms, and one
# of neither as None, as does every node above it.  The forms' numbers round as the signed reading's do, so
# the two agree to rounding unless the signed reading loses digits: in a sum that cancels a part past
# _CANCEL, or in a part past _FORM_MAX, whose rounding would show in an exponent (exp((1e20-j)-1e20) reads 1).
# A number below the normal range may have underflowed, and a value form that read a lost part as 0 would
# drop it from a sum (exp(0-745.5)*j^30 + exp(0-700)*j is not e**-700 j), so none is read: a double result
# below it (0 too, unless an argument is 0), a part below it, a scaled part that rounds to 0, and a value
# e**A j**B derived from a log form outside e**+-_LOG_FORM_MAX read None.
_FORM_MAX = 2.0**20
_LOG_FORM_MAX = math.log(_FORM_MAX)
_CANCEL = 2.0**-10
_TINY = np.finfo(float).tiny


class _Forms(NamedTuple):
    add: tuple | None  # the value
    log: tuple | None  # its logarithm


def _form(a: float, b: float, c: float, g: float) -> tuple | None:
    """(a, b, c, g) with c j**0 folded into a and g = 1 where c = 0; None where a part is past _FORM_MAX
    or below the normal range."""
    if g == 0.0:
        a, c = a + c, 0.0
    sizes = [abs(a), abs(b), abs(c)]
    if not (max(sizes) <= _FORM_MAX and math.isfinite(g)) or any(0.0 < x < _TINY for x in sizes):
        return None
    return a + 0.0, b + 0.0, c + 0.0, g if c else 1.0  # + 0.0: no -0.0


def _scale(f: tuple | None, k: float) -> tuple | None:
    if f is None or k and any(x and not k * x for x in f[:3]):  # a part rounds to 0
        return None
    return _form(k * f[0], k * f[1], k * f[2], f[3])


def _plus(f: tuple | None, h: tuple | None, sign: float = 1.0) -> tuple | None:
    """f + sign h where their powers of j agree or one has none, and no part cancels past _CANCEL, to 0
    included: parts that round to a sum of 0 need not be 0 in the signed reading ((j*0.1)*10 - j is not)."""
    if f is None or h is None or f[2] and h[2] and f[3] != h[3]:
        return None
    parts = [x + sign * y for x, y in zip(f[:3], h[:3])]
    for s, x, y in zip(parts, f, h):
        if abs(s) < _CANCEL * max(abs(x), abs(y)):
            return None
    return _form(*parts, f[3] if f[2] else h[3])


def _forms(add: tuple | None, log: tuple | None) -> _Forms | None:
    """The reading from either form, the other derived where it is one: e**(A + B ln j) = e**A j**B, and
    ln of A, or of C j**g, for A, C > 0."""
    if log is None and add is not None and not add[1] and (not add[0]) != (not add[2]):
        a, _, c, g = add
        log = _form(math.log(a), 0.0, 0.0, 1.0) if a > 0 else _form(math.log(c), g, 0.0, 1.0) if c > 0 else None
    if add is None and log is not None and not log[2] and abs(log[0]) <= _LOG_FORM_MAX:
        add = _form(0.0, 0.0, math.exp(log[0]), log[1])
    return None if add is None and log is None else _Forms(add, log)


def _value(x: float | _Forms) -> tuple | None:
    """The value form of a reading, a float's constant."""
    return x.add if isinstance(x, _Forms) else _form(x, 0.0, 0.0, 1.0)


def _log(x: float | _Forms) -> tuple | None:
    """The log form of a reading, a float's constant where it is > 0."""
    if isinstance(x, _Forms):
        return x.log
    return _form(math.log(x), 0.0, 0.0, 1.0) if x > 0 else None


def _times(x, y, sign: float) -> _Forms | None:
    """x * y (sign 1) or x / y (sign -1): the logs add, and a float factor or divisor scales the value."""
    if isinstance(y, float):
        add = _scale(x.add, y if sign > 0 else 1.0 / y)
    else:
        add = _scale(y.add, x) if isinstance(x, float) and sign > 0 else None
    return _forms(add, _plus(_log(x), _log(y), sign))


def _power(x, y) -> _Forms | None:
    """x**y for a float exponent, or a float base > 0."""
    if isinstance(y, float):
        return _forms(None, _scale(x.log, y))
    return _forms(None, _scale(y.add, math.log(x))) if isinstance(x, float) and x > 0 else None


def _on_forms(on_floats: Callable, on_forms: Callable) -> Callable:
    """One node's rule: on_floats where every argument is a float, and a finite result; else on_forms; None
    where an argument is None or the rule fails."""

    def rule(*args):
        if None in args:
            return None
        try:
            if _Forms in map(type, args):
                return on_forms(*args)
            value = on_floats(*args)
            # Below the normal range a result may have underflowed; a 0 from a 0 argument has not.
            if not math.isfinite(value) or abs(value) < _TINY and (value or all(args)):
                return None
            return value
        except (ArithmeticError, ValueError):
            return None

    return rule


_J = _Forms((0.0, 0.0, 1.0, 1.0), (0.0, 1.0, 0.0, 1.0))
_FORMS = {
    "+": _on_forms(operator.add, lambda x, y: _forms(_plus(_value(x), _value(y)), None)),
    "-": _on_forms(operator.sub, lambda x, y: _forms(_plus(_value(x), _value(y), -1.0), None)),
    "*": _on_forms(operator.mul, lambda x, y: _times(x, y, 1.0)),
    "/": _on_forms(operator.truediv, lambda x, y: _times(x, y, -1.0)),
    "^": _on_forms(math.pow, _power), "pow": _on_forms(math.pow, _power),
    "exp": _on_forms(math.exp, lambda x: _forms(None, x.add)),
    "ln": _on_forms(math.log, lambda x: _forms(x.log, None)),
    "sqrt": _on_forms(math.sqrt, lambda x: _forms(None, _scale(x.log, 0.5))),
    "max": _on_forms(max, lambda x, y: None), "min": _on_forms(min, lambda x, y: None),
    "neg": _on_forms(operator.neg, lambda x: _forms(_scale(x.add, -1.0), None)),
    "num": lambda x: x if math.isfinite(x) else None, "var": lambda x: x,
}


def log_form(node: Expr, d: int) -> tuple[float, float, float, float] | None:
    """(A, B, C, g) such that the tree's value at this d is exp(A + B ln j + C j**g) for every j >= 1,
    read from the tree by the form reading; None where it is not of that form or does not depend on j."""
    reading = _read(node, float(d), _J, _FORMS)
    return reading.log if isinstance(reading, _Forms) else None
