"""A small arithmetic language for user-defined eigenvalue formulas in d and j.

Grammar::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-' unary | primary
    primary := NUMBER | 'd' | 'j' | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

NUMBER is a decimal literal with optional fraction and optional e-exponent.
'^' is right-associative.  The only identifiers are the variables d, j and
the calls exp, ln, sqrt (one argument) and pow, max, min (two arguments).

One walk reads a tree over d and j, each a number or an array, by a table
of what each node means.  :func:`compile_array` (and its one-element view
:func:`evaluate`) reads doubles and :func:`log_decimal` Decimals, linearly.
:func:`log_array` reads (sign, ln|x|) pairs, so that a value below the double
range keeps its logarithm: * and / add and subtract the logs, + and - take a
signed log-sum-exp, a negation flips the sign, max and min order by sign and
then by log, sqrt halves the log, ln x has the sign of ln x and the log
ln|ln x|, and u^v multiplies ln|u| by v.  The argument of exp and the
exponent of a power are plain doubles of the linear reading.  A division by
zero (0 to a negative power too), a NaN (0*inf, inf-inf, ln or sqrt of a
negative, a negative base to a non-integer power), a value past the double
range or, in :func:`log_array`, a negative value raises
:class:`EvalDomainError` naming the first failing d and j.
"""

from __future__ import annotations

import math
import operator
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
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = {"+", "-", "*", "/", "^", "(", ")", ","}
_DIGITS = frozenset("0123456789")  # str.isdigit also takes '²' and other scripts' digits


class _Token(NamedTuple):
    kind: str  # 'num', 'ident', punctuation literal, or 'end'
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == ".":
                i += 1
                if i >= n or source[i] not in _DIGITS:
                    raise ExprSyntaxError(i, ("digit",), repr(source[i]) if i < n else "end of input")
                while i < n and source[i] in _DIGITS:
                    i += 1
            if i < n and source[i] in "eE":
                k = i + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    i = k
                    while i < n and source[i] in _DIGITS:
                        i += 1
            tokens.append(_Token("num", source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("ident", source[start:i], start))
            continue
        raise ExprSyntaxError(i, ("number", "identifier", "operator"), repr(ch))
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, *expected_names: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            names = expected_names or (repr(kind),)
            raise ExprSyntaxError(tok.offset, names, repr(tok.text) if tok.text else "end of input")
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_unary()
        if self.peek().kind == "^":
            self.advance()
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in VARIABLES:
                return Var(tok.text)
            if tok.text in FUNCTION_ARITY:
                self.expect("(", "'('")
                args = [self.parse_expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_expr())
                closing = self.peek()
                if closing.kind != ")":
                    raise ExprSyntaxError(
                        closing.offset,
                        ("','", "')'"),
                        repr(closing.text) if closing.text else "end of input",
                    )
                self.advance()
                want = FUNCTION_ARITY[tok.text]
                if len(args) != want:
                    raise ArityError(tok.text, want, len(args), tok.offset)
                return Call(tok.text, tuple(args))
            raise UnknownIdentifierError(tok.text, tok.offset)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        raise ExprSyntaxError(
            tok.offset,
            ("number", "'d'", "'j'", "function name", "'('", "'-'"),
            repr(tok.text) if tok.text else "end of input",
        )


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree."""
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(tail.offset, ("operator", "end of input"), repr(tail.text))
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
        return s, np.multiply(v, log)
    sign = np.power(s, v)
    with np.errstate(invalid="ignore"):  # 0 * inf where x^0 = 1, also at x = 0
        return sign, np.where(v == 0, 0.0, np.multiply(v, log))


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
        sign, logs[...] = _walk(node, d, j, _SIGNED)
        if sign < 0 if isinstance(sign, float) else (sign < 0).any():
            raise FloatingPointError(negative)
        if logs.size and logs.max() > _LOG_DOUBLE_MAX:
            raise FloatingPointError("expression left the finite double range")
        return logs

    return _located(signed, d, j)


def log_decimal(node: Expr, d: int, j: int):
    """ln of the tree's value at one (d, j), at the decimal context's precision: the linear walk over Decimals."""
    from decimal import Decimal

    return _walk(node, Decimal(int(d)), Decimal(int(j)), {**_OPS, "ln": Decimal.ln, "num": Decimal}).ln()


def compile_array(node: Expr) -> Callable[..., np.ndarray]:
    """The tree's linear reading over d and j, each a number or an array, with their broadcast shape; a
    division by zero, a NaN or a value past the double range raises as :func:`_located` says."""

    def linear(d: np.ndarray, j: np.ndarray) -> np.ndarray:
        values = np.empty(np.broadcast(d, j).shape)
        values[...] = _walk(node, d, j)
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
    return _walk(node, "d", "j", _NAMES)
