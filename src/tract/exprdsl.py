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
:class:`EvalDomainError` naming the first failing d and j.  A formula nested
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
