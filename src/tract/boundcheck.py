"""Explicit complexity upper bounds and their verification against the oracle.

Three bound families are implemented, each parameterised by a certified
constant (the supremum over d of the matching criterion sum):

T1  floor(M e d**tau1) + ceil(C d**tau3) + ceil(max(0, 2 ln(1/eps))**(1/tau2))
T2  ceil(1 + M d**tau + M d**tau * max(0, 1 + ln(1/eps))**(tau (1 + ln d)))
T3  ceil(max(1, mu) * exp(c * (max(0, 1 + ln(2/eps^2))**s + d**t)))

``verify_domination`` checks oracle complexity <= bound over an (eps, d)
grid; any violation indicates an implementation bug and is reported, never
swallowed.  ``diagnostics`` counts the proof-side quantities (the set of
slowly decaying indices, the count of ratios above one) and checks their
stated bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexity import ComplexityQuery, count_above, first_index, info_complexity
from .config import CriterionParams
from .criteria import SUM_SPECS, _plan, ceil_stable
from .eigenmodel import EigenModel, ErrorCriterion, log_ratios
from .summation import SumEvaluation

__all__ = [
    "BoundSpec",
    "bound_t1",
    "bound_t2",
    "bound_t3",
    "verify_domination",
    "DominationReport",
    "diagnostics",
]

# The criterion sum whose supremum over d is each bound family's constant.
_THEOREM_SUMS = {"T1": "pt-exp", "T2": "qpt-exp", "T3": "wt-exp"}
_PT_EXP = SUM_SPECS[_THEOREM_SUMS["T1"]]  # it also resolves T1's params


@dataclass(frozen=True)
class BoundSpec:
    """A bound family, its parameters, and the certified constant feeding it."""

    theorem: str  # T1 | T2 | T3
    params: CriterionParams
    constant: SumEvaluation  # M (T1, T2) or mu (T3); must be Certified
    criterion: ErrorCriterion

    def __post_init__(self):
        if self.theorem not in _THEOREM_SUMS:
            raise ValueError(f"theorem must be one of {tuple(_THEOREM_SUMS)}")
        if not self.constant.certified:
            raise ValueError(
                f"bounds require a certified constant, got status {self.constant.status.value}"
            )

    @property
    def constant_upper(self) -> float:
        """Sound upper bound on the true constant (value plus remainder)."""
        return self.constant.upper()


def bound_t1(spec: BoundSpec, d: int, eps: float) -> int:
    """Piecewise-rounded bound with an algebraic d part and a log(1/eps) part."""
    p = _PT_EXP.resolve(spec.params)
    M = spec.constant_upper
    first = math.floor(M * math.e * float(d) ** p.tau1)
    second = ceil_stable(p.c_tilde * float(d) ** p.tau3)
    third = math.ceil(max(0.0, 2.0 * math.log(1.0 / eps)) ** (1.0 / p.tau2))
    return int(first) + int(second) + int(third)


def bound_t2(spec: BoundSpec, d: int, eps: float) -> int:
    p = spec.params
    M = spec.constant_upper
    tau = p.tau
    bracket = max(0.0, 1.0 + math.log(1.0 / eps))
    value = 1.0 + M * float(d) ** tau + M * float(d) ** tau * bracket ** (
        tau * (1.0 + math.log(d))
    )
    return int(math.ceil(value))


def bound_t3(spec: BoundSpec, d: int, eps: float) -> int:
    p = spec.params
    mu = spec.constant_upper
    eps_sq = eps * eps  # plain product for reproducibility
    bracket = max(0.0, 1.0 + math.log(2.0 / eps_sq))
    value = max(1.0, mu) * math.exp(p.c * (bracket**p.s + float(d) ** p.t))
    return int(math.ceil(value))


_BOUNDS = {"T1": bound_t1, "T2": bound_t2, "T3": bound_t3}


class DominationRow(NamedTuple):
    d: int
    eps: float
    oracle_n: int
    bound: int | float  # inf past the double range

    @property
    def ok(self) -> bool:
        return self.oracle_n <= self.bound


class DominationReport(NamedTuple):
    rows: tuple[DominationRow, ...]
    theorem: str

    @property
    def violations(self) -> tuple[DominationRow, ...]:
        return tuple(r for r in self.rows if not r.ok)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "theorem": self.theorem,
            "points": len(self.rows),
            "violations": len(self.violations),
            "ok": self.ok,
        }


def verify_domination(
    model: EigenModel,
    spec: BoundSpec,
    eps_grid,
    d_grid,
    j_max: int = 1 << 26,
) -> DominationReport:
    """Check oracle n(eps, d) <= bound(eps, d) on the whole grid.

    A bound past the double range is recorded as inf: it exceeds every
    count n <= j_max, so its row is dominated.
    """
    bound_fn = _BOUNDS[spec.theorem]
    rows = []
    for d in d_grid:
        for eps in eps_grid:
            res = info_complexity(model, ComplexityQuery(int(d), float(eps), spec.criterion), j_max)
            try:
                bound = bound_fn(spec, int(d), float(eps))
            except OverflowError:
                bound = math.inf
            rows.append(DominationRow(d=int(d), eps=float(eps), oracle_n=res.n, bound=bound))
    return DominationReport(rows=tuple(rows), theorem=spec.theorem)


def diagnostics(
    model: EigenModel,
    spec: BoundSpec,
    d: int,
    eps: float,
    big_c: int | None = None,
) -> dict:
    """Proof-side counters computed directly from the eigenvalues.

    Returns the size of the slow-decay index set, the count of ratios above
    one, the explicit T3 truncation index, and (when ``big_c`` is supplied)
    the T3 threshold index; plus the stated inequalities for the first two.
    """
    p = spec.params
    crit = spec.criterion
    rank = model.family.rank
    cap = rank if rank is not None else 1 << 22

    out: dict = {}
    if spec.theorem == "T1":
        p1 = _PT_EXP.resolve(p)
        tau2 = p1.tau2
        start = _plan(_THEOREM_SUMS["T1"], p1, model, d, crit)[0]  # checked as the sum's
        # Slow set: indices from the start whose term exceeds 1/e, i.e.
        # ln(ratio) * j**-tau2 > -1.  Monotone in j, so its end is searched.
        def fast(i: np.ndarray) -> np.ndarray:  # the i-th index from the start is past the slow set
            j = start + i - 1
            return log_ratios(model, d, j, crit) * j.astype(float) ** -tau2 <= -1.0

        span = cap if rank is None else rank - start + 1  # cap indices from the start
        end = first_index(fast, span) if span > 0 else 1
        count = span if end is None else end - 1
        out["B_d_size"] = count
        bound = math.floor(spec.constant_upper * math.e * float(d) ** p1.tau1)
        out["B_d_bound"] = int(bound)
        out["B_d_ok"] = count <= bound
    if spec.theorem in ("T1", "T2"):
        j1 = count_above(model, d, crit, 1.0, cap)
        out["j1_star"] = j1
        if spec.theorem == "T2":
            bound = spec.constant_upper * float(d) ** p.tau
            out["j1_star_bound"] = bound
            out["j1_star_ok"] = j1 <= bound
    if spec.theorem == "T3":
        out["j_eps_d"] = bound_t3(spec, d, eps)
        if big_c is not None:
            bracket = (1.0 + math.log(max(1.0, float(big_c - d)))) ** p.s
            out["k1_star"] = int(math.floor(math.exp(spec.params.c * (bracket + float(d) ** p.t)))) + 1
    return out
