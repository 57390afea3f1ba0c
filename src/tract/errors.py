"""Exception types shared across the package.

Every error that carries diagnostic payload exposes it as attributes so
callers (and the CLI) can surface the failing coordinates instead of
re-parsing messages.
"""

from __future__ import annotations


class TractError(Exception):
    """Base class for all package errors."""


class BeyondRankError(TractError):
    """A finite-rank spectrum was queried past its declared support."""

    def __init__(self, d: int, j: int, rank: int):
        super().__init__(f"eigenvalue index j={j} beyond rank {rank} (d={d})")
        self.d = d
        self.j = j
        self.rank = rank


class EvalDomainError(TractError):
    """A formula evaluation left the real double-precision domain."""

    def __init__(self, message: str, d: int | None = None, j: int | None = None):
        coords = ", ".join(f"{k}={v}" for k, v in (("d", d), ("j", j)) if v is not None)
        if coords:
            message = f"{message} ({coords})"
        super().__init__(message)
        self.d = d
        self.j = j


class ExprSyntaxError(TractError):
    """Malformed expression source; reports byte offset and expectation."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        expect = ", ".join(expected)
        super().__init__(f"syntax error at offset {offset}: expected {expect}, found {found}")
        self.offset = offset
        self.expected = expected
        self.found = found


class ArityError(TractError):
    def __init__(self, func: str, expected: int, got: int, offset: int):
        super().__init__(f"{func}() takes {expected} argument(s), got {got} (offset {offset})")
        self.func = func
        self.expected = expected
        self.got = got
        self.offset = offset


class UnknownIdentifierError(TractError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' at offset {offset}")
        self.name = name
        self.offset = offset


class ValidationFailedError(TractError):
    """Raised when a model fails its structural validation; carries the report."""

    def __init__(self, report):
        super().__init__(f"model validation failed: {report.summary()}")
        self.report = report


class UnboundedError(TractError):
    """No eigenvalue at or below the threshold was found under the index cap."""

    def __init__(self, d: int, eps: float, j_max: int):
        super().__init__(
            f"no index j <= {j_max} with eigenvalue below threshold (d={d}, eps={eps}); "
            "raise j_max or supply a tail envelope"
        )
        self.d = d
        self.eps = eps
        self.j_max = j_max


class DegenerateGridError(TractError):
    """A fit was requested over a grid too small to be meaningful."""


class NoPassingPointError(TractError):
    """Exponent bracketing could not reproduce a passing parameter."""


class ConfigError(TractError):
    """Invalid run configuration (bad JSON, unknown key, bad value)."""
