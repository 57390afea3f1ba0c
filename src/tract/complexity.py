"""Information complexity from eigenvalues.

n(eps, d) is the number of ratios lambda(d, j)/CRI_d strictly above eps^2,
which for a non-increasing sequence equals the least n with
lambda(d, n+1)/CRI_d <= eps^2.  Two independent routes are provided: a
monotonicity-exploiting search and an ordering-free counting scan; their
exact agreement is a tested invariant.  The search is :func:`count_above`,
the one search count, which also counts the WT multiplicities (ratios >= 1)
and the T1/T2 diagnostics (ratios > 1).  Both routes read
``eigenmodel.compare_ratios``, so CRI_d is applied in one place, a d-scale
cancels exactly under NOR, and ties follow the real numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import Limits
from .eigenmodel import EigenModel, ErrorCriterion, compare_ratios, eigenvalue
from .errors import UnboundedError

__all__ = [
    "J_MAX_DEFAULT",
    "ComplexityQuery",
    "ComplexityResult",
    "info_complexity",
    "count_above",
    "count_oracle",
    "nth_minimal_error",
    "first_index",
]

J_MAX_DEFAULT = Limits.j_max  # the search cap a config gets by default


@dataclass(frozen=True)
class ComplexityQuery:
    d: int
    eps: float
    criterion: ErrorCriterion

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not (self.eps > 0):
            raise ValueError("eps must be positive")


class ComplexityResult(NamedTuple):
    n: int
    capped: bool
    method: str

    def as_dict(self) -> dict:
        return {"n": self.n, "capped": self.capped, "method": self.method}


def info_complexity(
    model: EigenModel, query: ComplexityQuery, j_max: int = J_MAX_DEFAULT
) -> ComplexityResult:
    """Least n with lambda(d, n+1)/CRI_d <= eps^2 (ties count as satisfied),
    by :func:`count_above`.

    Raises :class:`UnboundedError` when no such index exists up to ``j_max``.
    """
    rank = model.family.rank
    n = count_above(model, query.d, query.criterion, query.eps * query.eps, j_max)
    if rank is None and n == j_max:
        raise UnboundedError(query.d, query.eps, j_max)
    return ComplexityResult(n=n, capped=(n == rank), method="search")


def count_above(
    model: EigenModel, d: int, criterion: ErrorCriterion, t: float, cap: int, at_least: bool = False
) -> int:
    """|{j : lambda(d, j)/CRI_d > t}|, or >= t with ``at_least``, by
    :func:`first_index` over :func:`compare_ratios`.

    The search runs up to the family's rank, else up to ``cap``, and reads
    that bound when every index there counts.
    """
    rank = model.family.rank
    cap = cap if rank is None else rank
    stop = 0 if at_least else 1  # the search stops at the first sign below this
    first = first_index(lambda j: compare_ratios(model, d, j, criterion, t) < stop, cap)
    return cap if first is None else first - 1


# The first probe of every search: each index up to 64, then each power of
# two; a search takes the entries below its cap, and the cap.
_HEAD = np.concatenate([np.arange(1, 65), 1 << np.arange(7, 63)]).astype(np.int64)
_BRACKET = 4096  # most indices probed per later call
_CAP_MAX = 1 << 62  # int64 indices


def first_index(pred: Callable[[np.ndarray], np.ndarray], cap: int) -> int | None:
    """Smallest j in [1, cap] with pred(j), for pred false up to some index
    and true from there on; None when pred(cap) is false.

    pred maps an int64 index array to a boolean array and never sees an
    index outside [1, cap].  The first call probes 1..64, the powers of two
    below cap, and cap; each later call probes the open bracket left by the
    last at stride ceil(width / 4096), so a crossing at or below 64 takes one
    call and one at or below 8192 two.
    """
    if cap > _CAP_MAX:
        raise ValueError(f"search cap {cap} exceeds 2**62")
    lo, hi = 0, cap + 1  # pred is false at lo and true at hi (cap + 1: unknown)
    j = np.minimum(_HEAD[: _HEAD.searchsorted(cap) + 1], cap)
    while True:
        hit = pred(j)
        k = int(hit.argmax())
        if hit[k]:
            hi = int(j[k])
            lo = int(j[k - 1]) if k else lo
        else:
            lo = int(j[-1])
        if hi - lo <= 1:
            return hi if hi <= cap else None
        step = -(-(hi - lo - 1) // _BRACKET)
        j = np.arange(lo + 1, hi, step, dtype=np.int64)


def count_oracle(
    model: EigenModel, query: ComplexityQuery, j_max: int = 100_000
) -> ComplexityResult:
    """Count ratios strictly above eps^2 by linear scan.

    The count never consults the ordering, so it doubles as an independent
    oracle for :func:`info_complexity` on validated (non-increasing) models.
    """
    d, eps2 = query.d, query.eps * query.eps
    rank = model.family.rank
    stop = rank if rank is not None else j_max
    count = 0
    chunk = 1 << 13  # 2**13 float64 is 64 KB, below glibc's 128 KB mmap threshold: no block is mapped afresh
    for j0 in range(1, stop + 1, chunk):
        j = np.arange(j0, min(j0 + chunk, stop + 1), dtype=np.int64)
        count += int(np.count_nonzero(compare_ratios(model, d, j, query.criterion, eps2) > 0))
    if rank is not None:
        return ComplexityResult(n=count, capped=(count == rank), method="count")
    if count == stop:
        raise UnboundedError(d, query.eps, j_max)
    return ComplexityResult(n=count, capped=False, method="count")


def nth_minimal_error(model: EigenModel, d: int, n: int) -> float:
    """The error left after n optimally chosen functionals: sqrt(lambda(d, n+1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rank = model.family.rank
    if rank is not None and n + 1 > rank:
        return 0.0
    return math.sqrt(eigenvalue(model, d, n + 1))
