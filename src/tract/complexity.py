"""Information complexity from eigenvalues.

n(eps, d) is the number of eigenvalues strictly above eps^2 * CRI_d, which
for a non-increasing sequence equals the least n with
lambda(d, n+1) <= eps^2 * CRI_d.  Two independent routes are provided: a
monotonicity-exploiting search and an ordering-free counting scan; their
exact agreement is a tested invariant.  The search probes with scalar
values and settles the crossing on array values, as the scan reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eigenmodel import EigenModel, ErrorCriterion, cri, eigenvalue, eigenvalues, support
from .errors import UnboundedError

__all__ = [
    "J_MAX_DEFAULT",
    "ComplexityQuery",
    "ComplexityResult",
    "info_complexity",
    "count_oracle",
    "nth_minimal_error",
    "first_index",
]

J_MAX_DEFAULT = 1 << 26


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


@dataclass(frozen=True)
class ComplexityResult:
    n: int
    capped: bool
    method: str

    def as_dict(self) -> dict:
        return {"n": self.n, "capped": self.capped, "method": self.method}


def _threshold(model: EigenModel, query: ComplexityQuery) -> float:
    return query.eps * query.eps * cri(model, query.d, query.criterion)


def info_complexity(
    model: EigenModel, query: ComplexityQuery, j_max: int = J_MAX_DEFAULT
) -> ComplexityResult:
    """Least n with lambda(d, n+1) <= eps^2 * CRI_d (ties count as satisfied).

    The first index at or below the threshold comes from :func:`first_index`,
    settled by :func:`_settle`.
    Raises :class:`UnboundedError` when no such index exists up to ``j_max``.
    """
    d = query.d
    thr = _threshold(model, query)
    rank = support(model, d)
    cap = j_max if rank is None else rank
    first = first_index(lambda j: eigenvalue(model, d, j) <= thr, cap)
    if first is not None:
        first = _settle(model, d, thr, first, cap)
    if first is None:
        if rank is not None:
            return ComplexityResult(n=rank, capped=True, method="search")
        raise UnboundedError(d, query.eps, j_max)
    return ComplexityResult(n=first - 1, capped=False, method="search")


def _settle(model: EigenModel, d: int, thr: float, first: int, cap: int) -> int | None:
    """The first index in [1, cap] whose array value is at or below thr,
    starting from the one the scalar probes found; None when there is none.

    The scalar rule (libm) and the array rule (numpy's vector kernels) can
    round the same eigenvalue an ulp apart, so a threshold in that gap
    splits them.  Settling on the array rule, the one :func:`count_oracle`
    scans with, makes n the count of array values above thr.  Both rules are
    non-increasing in j, so the loop ends after a step or two.
    """
    while True:
        pair = eigenvalues(model, d, np.array([max(first - 1, 1), first])) <= thr
        if first > 1 and pair[0]:
            first -= 1
        elif not pair[1]:
            if first == cap:
                return None
            first += 1
        else:
            return first


def first_index(pred: Callable[[int], bool], cap: int) -> int | None:
    """Smallest j in [1, cap] with pred(j), for pred false up to some index
    and true from there on; None when pred(cap) is false.

    Probes 1, 2, 4, ... (clamped at cap) until pred holds, then bisects the
    last doubling step.
    """
    lo, hi = 0, 1
    while not pred(hi):
        if hi >= cap:
            return None
        lo, hi = hi, min(hi * 2, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def count_oracle(
    model: EigenModel, query: ComplexityQuery, j_max: int = 100_000
) -> ComplexityResult:
    """Count eigenvalues strictly above the threshold by linear scan.

    The count never consults the ordering, so it doubles as an independent
    oracle for :func:`info_complexity` on validated (non-increasing) models.
    """
    d = query.d
    thr = _threshold(model, query)
    rank = support(model, d)
    stop = rank if rank is not None else j_max
    count = 0
    chunk = 1 << 16
    for j0 in range(1, stop + 1, chunk):
        j1 = min(j0 + chunk, stop + 1)
        vals = eigenvalues(model, d, np.arange(j0, j1, dtype=np.int64))
        count += int(np.count_nonzero(vals > thr))
    if rank is not None:
        return ComplexityResult(n=count, capped=(count == rank), method="count")
    if count == stop:
        raise UnboundedError(d, query.eps, j_max)
    return ComplexityResult(n=count, capped=False, method="count")


def nth_minimal_error(model: EigenModel, d: int, n: int) -> float:
    """The error left after n optimally chosen functionals: sqrt(lambda(d, n+1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rank = support(model, d)
    if rank is not None and n + 1 > rank:
        return 0.0
    return math.sqrt(eigenvalue(model, d, n + 1))
