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
"""

from __future__ import annotations

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
_DIGITS = frozenset("0123456789")  # str.isdigit also takes '²' and other scripts' digits


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


# What each operator and call means, over the NumPy arrays and scalars the
# walk carries.
_OPS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power,
    "exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "pow": np.power, "max": np.maximum, "min": np.minimum,
}


def _walk(node: Expr, d: np.ndarray, j: np.ndarray):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return d if node.name == "d" else j
    if isinstance(node, Neg):
        return -_walk(node.operand, d, j)
    if isinstance(node, BinOp):
        return _OPS[node.op](_walk(node.left, d, j), _walk(node.right, d, j))
    return _OPS[node.func](*(_walk(a, d, j) for a in node.args))


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


def _values(node: Expr, d: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The walk over the broadcast of d and j, as a new array.
    FloatingPointError on a division by zero, an invalid operation or a
    value that is not finite."""
    values = np.empty(np.broadcast(d, j).shape)
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        values[...] = _walk(node, d, j)
    if not np.isfinite(values).all():
        raise FloatingPointError("expression left the finite double range")
    return values


def compile_array(node: Expr) -> Callable[..., np.ndarray]:
    """Compile a tree into an evaluator over d and j, each a number or an array.

    The result has the broadcast shape of d and j.  A division by zero, an
    operation that would produce a NaN, or a value past the finite double
    range raises :class:`EvalDomainError` naming the first failing (d, j)
    row-major: the smallest failing d, then its smallest j.
    """

    def run(d: float | np.ndarray, j: float | np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        j = np.asarray(j, dtype=float)
        try:
            return _values(node, d, j)
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
                _values(node, ds[lo:mid], js[lo:mid])
                lo = mid
            except FloatingPointError:
                hi = mid
        try:
            _values(node, ds[lo:hi], js[lo:hi])
        except FloatingPointError as exc:
            # NumPy says "divide by zero encountered in ..." or, for a NaN,
            # "invalid value encountered in ...".
            reason = str(exc).replace("divide by zero", "division by zero").replace("invalid value", "NaN")
            raise EvalDomainError(reason, d=int(ds[lo]), j=int(js[lo])) from None
        raise AssertionError("the first failing element evaluated cleanly")

    return run
