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

Evaluation is plain double precision, at one point (:func:`evaluate`) or
over an array of j (:func:`compile_array`); both walk the tree under one
domain rule.  A division by zero, or anything that would produce a NaN (log
of a non-positive number, square root of a negative, zero to a negative
power, ...), raises :class:`EvalDomainError` naming d and j instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Union

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
    "to_source",
    "evaluate",
    "compile_array",
    "variables_used",
]

FUNCTION_ARITY = {"exp": 1, "ln": 1, "sqrt": 1, "pow": 2, "max": 2, "min": 2}
VARIABLES = ("d", "j")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = {"+", "-", "*", "/", "^", "(", ")", ","}


@dataclass(frozen=True)
class _Token:
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
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                if i >= n or not source[i].isdigit():
                    raise ExprSyntaxError(i, ("digit",), repr(source[i]) if i < n else "end of input")
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                k = i + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    i = k
                    while i < n and source[i].isdigit():
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
# Printer
# ---------------------------------------------------------------------------

# Precedence levels used for minimal re-parseable parenthesisation.
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    if isinstance(node, (Num, Var, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    if node.op in ("+", "-"):
        return _LEVEL_ADD
    if node.op in ("*", "/"):
        return _LEVEL_MUL
    return _LEVEL_POW


def _emit(node: Expr, min_level: int) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Call):
        text = f"{node.func}({', '.join(_emit(a, _LEVEL_ADD) for a in node.args)})"
    elif isinstance(node, Neg):
        # Grammar: unary := '-' unary, so only another unary or a primary
        # may follow the sign unparenthesised.  In particular "-a^b"
        # re-parses as (-a)^b, so a power operand needs parens.
        if isinstance(node.operand, BinOp):
            text = f"-({_emit(node.operand, _LEVEL_ADD)})"
        else:
            text = f"-{_emit(node.operand, _LEVEL_UNARY)}"
    elif node.op == "^":
        # factor := unary ('^' factor)?: the left slot holds a unary (a
        # leading minus binds to it), the right slot another factor, which
        # keeps chains right-associative.
        if isinstance(node.left, BinOp):
            left = f"({_emit(node.left, _LEVEL_ADD)})"
        else:
            left = _emit(node.left, _LEVEL_UNARY)
        if isinstance(node.right, BinOp) and node.right.op != "^":
            right = f"({_emit(node.right, _LEVEL_ADD)})"
        else:
            right = _emit(node.right, _LEVEL_UNARY)
        text = f"{left}^{right}"
    else:
        own = _level(node)
        left = _emit(node.left, own)
        # Both chains are left-associative: the right child must sit one
        # level tighter to survive a round trip.
        right = _emit(node.right, own + 1)
        text = f"{left} {node.op} {right}"

    if _level(node) < min_level:
        return f"({text})"
    return text


def to_source(node: Expr) -> str:
    """Render a tree to source that parses back to a structurally equal tree."""
    return _emit(node, _LEVEL_ADD)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _pow(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        # IEEE pow overflows to a signed infinity; math.pow raises instead.
        if base > 0:
            return math.inf
        if base < 0 and exponent == int(exponent):
            return -math.inf if int(exponent) % 2 else math.inf
        raise EvalDomainError(f"pow({base!r}, {exponent!r}) overflow") from None
    except ValueError as exc:
        raise EvalDomainError(f"pow({base!r}, {exponent!r}): {exc}") from None


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# What '/', '^' and the calls mean, at one point and over an array of j.
# '+', '-', '*' and negation are the Python operators in both.
_POINT = {
    "/": operator.truediv, "^": _pow,
    "exp": _exp, "ln": math.log, "sqrt": math.sqrt, "pow": _pow, "max": max, "min": min,
}
_ARRAY = {
    "/": np.divide, "^": np.power,
    "exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "pow": np.power, "max": np.maximum, "min": np.minimum,
}


def _walk(node: Expr, d: float, j, ops: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return d if node.name == "d" else j
    if isinstance(node, Neg):
        return -_walk(node.operand, d, j, ops)
    if isinstance(node, BinOp):
        left = _walk(node.left, d, j, ops)
        right = _walk(node.right, d, j, ops)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return ops[node.op](left, right)
    args = [_walk(a, d, j, ops) for a in node.args]
    try:
        return ops[node.func](*args)
    except ValueError as exc:
        raise EvalDomainError(f"{node.func}({', '.join(repr(a) for a in args)}): {exc}") from None


def evaluate(node: Expr, d: int, j: int | float) -> float:
    """Evaluate at integer coordinates; deterministic, pure, never NaN."""
    try:
        result = _walk(node, float(d), float(j), _POINT)
    except ZeroDivisionError:
        raise EvalDomainError("division by zero", d=int(d), j=int(j)) from None
    except EvalDomainError as exc:
        raise EvalDomainError(str(exc), d=int(d), j=int(j)) from None
    if math.isnan(result):
        raise EvalDomainError("expression evaluated to NaN", d=int(d), j=int(j))
    return result


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


def compile_array(node: Expr) -> Callable[[float, np.ndarray], np.ndarray]:
    """Compile a tree into a vectorised evaluator over arrays of j.

    The walk is :func:`evaluate`'s over array operations.  A division by
    zero or an invalid operation sends the array through :func:`evaluate`,
    whose error names d and the first failing j.  Values that leave the
    finite double range raise :class:`EvalDomainError` too.
    """

    def run(d: float, j: np.ndarray) -> np.ndarray:
        try:
            with np.errstate(divide="raise", invalid="raise", over="ignore"):
                values = np.asarray(_walk(node, float(d), j, _ARRAY), dtype=float)
            values = np.broadcast_to(values, j.shape).copy()
        except FloatingPointError:
            values = np.array([evaluate(node, d, jj) for jj in j.reshape(-1)]).reshape(j.shape)
        if not np.all(np.isfinite(values)):
            bad = int(np.asarray(j).reshape(-1)[np.flatnonzero(~np.isfinite(values.reshape(-1)))[0]])
            raise EvalDomainError("expression left the finite double range", d=int(d), j=bad)
        return values

    return run
