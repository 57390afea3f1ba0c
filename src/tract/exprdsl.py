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

Evaluation is plain double precision over NumPy arrays, in one walk:
:func:`compile_array` evaluates a tree over d and j, each a number or an
array, broadcast against each other; :func:`evaluate` is its one-element
view.  A division by zero, anything that would produce a NaN (0*inf,
inf-inf, log of a negative number, square root of a negative, ...), or a
value past the finite double range raises :class:`EvalDomainError` naming
the first failing d and j instead.

:func:`log_array` reads the same tree in logarithms, so a value below (or
above) the double range keeps its logarithm: ln(uv) = ln u + ln v,
ln(u/v) = ln u - ln v, ln(u + v) = logaddexp(ln u, ln v), ln exp(u) = u,
ln u^v = v ln u, ln sqrt(u) = ln u / 2, and max and min of the logs.  The
argument of exp and the exponent of a power are read by the linear walk.
Any other node (a difference, a negation, ln, a constant <= 0) takes ln of
its linear value; where the log walk gives no answer, :func:`log_array`
reads ln of the linear walk.  :func:`log_decimal` runs the linear walk in
:mod:`decimal` arithmetic, for one (d, j) at the caller's precision.
"""

from __future__ import annotations

import math
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


# What each operator and call means, over the NumPy arrays and scalars the
# walk carries; "num" reads a constant.
_OPS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power,
    "exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "pow": np.power, "max": np.maximum, "min": np.minimum,
    "num": float,
}


def _walk(node: Expr, d, j, ops: dict = _OPS):
    if isinstance(node, Num):
        return ops["num"](node.value)
    if isinstance(node, Var):
        return d if node.name == "d" else j
    if isinstance(node, Neg):
        return -_walk(node.operand, d, j, ops)
    if isinstance(node, BinOp):
        return ops[node.op](_walk(node.left, d, j, ops), _walk(node.right, d, j, ops))
    return ops[node.func](*(_walk(a, d, j, ops) for a in node.args))


# What each operator and call means on the logarithms of its operands.
_LOG_OPS = {"*": np.add, "/": np.subtract, "+": np.logaddexp, "max": np.maximum, "min": np.minimum}
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


def _log_walk(node: Expr, d: np.ndarray, j: np.ndarray):
    """ln of the node's value, read from the logs of its operands.  The
    argument of exp and the exponent of a power are read by :func:`_walk`;
    a node without a rule takes ln of its linear value."""
    if isinstance(node, Var):
        return np.log(d if node.name == "d" else j)
    if isinstance(node, Num) and node.value > 0:
        return math.log(node.value)
    if isinstance(node, (BinOp, Call)):
        op = node.op if isinstance(node, BinOp) else node.func
        args = (node.left, node.right) if isinstance(node, BinOp) else node.args
        if op in _LOG_OPS:
            return _LOG_OPS[op](_log_walk(args[0], d, j), _log_walk(args[1], d, j))
        if op in ("^", "pow"):
            return _walk(args[1], d, j) * _log_walk(args[0], d, j)
        if op == "exp":
            return _walk(args[0], d, j)
        if op == "sqrt":
            return 0.5 * _log_walk(args[0], d, j)
    return np.log(_walk(node, d, j))


def log_array(node: Expr, d: float | np.ndarray, j: float | np.ndarray, negative: str) -> np.ndarray:
    """ln of the tree's value over the broadcast of d and j, each a number or
    an array, as a new array, where the value itself may lie past the double
    range.

    Where the log walk gives no answer (a node without a log rule whose
    linear value is not positive, a division by zero or an invalid
    operation, or a log past the double range), ln of the linear walk
    (-inf at a zero), which raises as ``compile_array(node, negative)``.
    """
    d = np.asarray(d, dtype=float)
    j = np.asarray(j, dtype=float)
    out = np.empty(np.broadcast(d, j).shape)
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
            out[...] = _log_walk(node, d, j)
        if not out.size or out.max() <= _LOG_DOUBLE_MAX:
            return out
    except FloatingPointError:
        pass
    with np.errstate(divide="ignore"):
        return np.log(compile_array(node, negative)(d, j))


def log_decimal(node: Expr, d: int, j: int):
    """ln of the tree's value at one (d, j) as a Decimal of the current decimal
    context: the linear walk, whose NumPy calls run the Decimal methods."""
    from decimal import Decimal

    return _walk(node, Decimal(int(d)), Decimal(int(j)), {**_OPS, "ln": Decimal.ln, "num": Decimal}).ln()


def evaluate(node: Expr, d: int, j: int | float) -> float:
    """One-element view of :func:`compile_array`; never NaN."""
    return float(compile_array(node)(d, j))


def variables_used(node: Expr) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables_used(node.operand)
    if isinstance(node, BinOp):
        return variables_used(node.left) | variables_used(node.right)
    if isinstance(node, Call):
        out: set[str] = set()
        for a in node.args:
            out |= variables_used(a)
        return out
    return set()


def _values(node: Expr, d: np.ndarray, j: np.ndarray, negative: str | None) -> np.ndarray:
    """The walk over the broadcast of d and j, as a new array.
    FloatingPointError on a division by zero, an invalid operation, a
    value that is not finite or, where ``negative`` is given, below 0."""
    values = np.empty(np.broadcast(d, j).shape)
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        values[...] = _walk(node, d, j)
    if not np.isfinite(values).all():
        raise FloatingPointError("expression left the finite double range")
    if negative and (values < 0).any():
        raise FloatingPointError(negative)
    return values


def compile_array(node: Expr, negative: str | None = None) -> Callable[..., np.ndarray]:
    """Compile a tree into an evaluator over d and j, each a number or an array.

    The result has the broadcast shape of d and j.  A division by zero, an
    operation that would produce a NaN, a value past the finite double
    range or, where ``negative`` is given, a value below 0 (with that
    reason) raises :class:`EvalDomainError` naming the first failing (d, j)
    row-major: the smallest failing d, then its smallest j.
    """

    def run(d: float | np.ndarray, j: float | np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        j = np.asarray(j, dtype=float)
        try:
            return _values(node, d, j, negative)
        except FloatingPointError:
            pass
        ds, js = (a.reshape(-1) for a in np.broadcast_arrays(d, j))
        # Every operation is elementwise, so a slice fails exactly when it
        # holds a failing element.  Halve [lo, hi): it holds the first one,
        # and nothing before lo fails.
        lo, hi = 0, ds.size
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _values(node, ds[lo:mid], js[lo:mid], negative)
                lo = mid
            except FloatingPointError:
                hi = mid
        try:
            _values(node, ds[lo:hi], js[lo:hi], negative)
        except FloatingPointError as exc:
            # NumPy says "divide by zero encountered in ..." or, for a NaN,
            # "invalid value encountered in ...".
            reason = str(exc).replace("divide by zero", "division by zero").replace("invalid value", "NaN")
            raise EvalDomainError(reason, d=int(ds[lo]), j=int(js[lo])) from None
        raise AssertionError("the first failing element evaluated cleanly")

    return run
