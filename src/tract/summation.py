"""Compensated summation of positive series with certified truncation.

The evaluator sums terms in increasing index order, in fixed-size chunks:
each chunk is summed exactly by ``math.fsum`` and added to a few running
non-overlapping partials that hold the exact total (Shewchuk's
grow-expansion), so each chunk costs the same however many came before.
After every chunk it stops once an analytic bound on the neglected tail is
small enough, the term budget is hit, a heuristic stagnation rule fires, or
the partial sum exceeds the double range.
Deep sums fetch several chunks per call of the term function; the chunks
fetched past the stop are never summed.

Tail bounds come in a handful of integrable shapes.  Each shape provides a
sound upper bound on the neglected tail; shapes marked exact (the bound
coincides with the terms) also provide a lower bound, which lets the
evaluator centre the reported value inside the bracket.

Every shape is elementary.  The stretched-exponential integral is the upper
incomplete gamma function Gamma(s, x), taken from the two-sided bracket
x**(s-1) e**-x min(1, k) <= Gamma(s, x) <= x**(s-1) e**-x max(1, k) with
k = x / (x - (s - 1)) for x > s - 1: it bounds t**(s-1) under the integral
between x**(s-1) and x**(s-1) e**((s-1)(t-x)/x), since ln(t/x) <= (t-x)/x.
The upper side is also capped by Gamma(s, x) <= Gamma(s), the only bound
where x <= s - 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Callable, Union

import numpy as np

from .errors import TractError

__all__ = [
    "SumStatus",
    "SumEvaluation",
    "AffinePowerTail",
    "StretchedIntegralTail",
    "GeomSeriesTail",
    "PolyLogTail",
    "RatioTail",
    "Divergence",
    "TailBound",
    "Plan",
    "certified_sum",
    "CHUNK",
]

CHUNK = 1024
_MAX_BATCH = 16  # chunks fetched by one terms() call at most
_SLACK = 1 + 1e-9  # inflation applied to analytic bounds against fp rounding
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


class SumStatus(enum.Enum):
    CERTIFIED = "Certified"
    HEURISTIC = "Heuristic"
    DIVERGENT = "DivergenceCertified"


@dataclass(frozen=True)
class SumEvaluation:
    """Value of one criterion sum plus its truncation evidence.

    ``converged`` is False when the term budget ran out before any stop rule
    fired; such values are partial sums with no quality claim.  It is also
    False when the partial sum exceeds the double range: the terms are
    non-negative, so the sum stops there with value inf.
    """

    value: float
    terms_used: int
    remainder_bound: float | None
    status: SumStatus
    note: str = ""
    converged: bool = True

    @property
    def certified(self) -> bool:
        return self.status is SumStatus.CERTIFIED

    @property
    def divergent(self) -> bool:
        return self.status is SumStatus.DIVERGENT

    def upper(self) -> float:
        """A sound upper bound on the true sum (inf when not certified)."""
        if self.status is SumStatus.DIVERGENT:
            return math.inf
        if self.remainder_bound is None:
            return math.inf
        return self.value + self.remainder_bound

    def as_dict(self) -> dict:
        return {**asdict(self), "status": self.status.value}


# ---------------------------------------------------------------------------
# Tail bound shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffinePowerTail:
    """Terms bounded by C * (alpha + beta*j)**-T, T > 1, beta > 0.

    A plain power law C * j**-p is alpha = 0, beta = 1, T = p.
    """

    coeff: float
    alpha: float
    beta: float
    T: float
    from_j: int = 1
    exact: bool = False

    def __post_init__(self):
        if self.T <= 1 or self.beta <= 0:
            raise ValueError("affine power tail needs T > 1 and beta > 0")
        if self.alpha + self.beta * self.from_j <= 0:
            raise ValueError("affine base must be positive from from_j on")

    def _integral(self, a: float) -> float:
        base = self.alpha + self.beta * a
        return self.coeff * base ** (1.0 - self.T) / (self.beta * (self.T - 1.0))

    def upper_tail(self, J: int) -> float:
        return self._integral(J) * _SLACK

    def lower_tail(self, J: int) -> float:
        if not self.exact:
            return 0.0
        return self._integral(J + 1) / _SLACK


@dataclass(frozen=True)
class StretchedIntegralTail:
    """Terms bounded by C * exp(-B * j**gamma) for j >= from_j.

    The integral from a is C Gamma(s, x) / (gamma B**s) with s = 1/gamma and
    x = B a**gamma.  For x > s - 1 and k = x / (x - (s - 1)),

        x**(s-1) e**-x min(1, k) <= Gamma(s, x) <= x**(s-1) e**-x max(1, k):

    under the integral over t >= x, t**(s-1) lies between x**(s-1) and
    x**(s-1) e**((s-1)(t-x)/x), because 0 <= ln(t/x) <= (t-x)/x, and the
    second one integrates to the k factor.  For x <= s - 1, k is +inf: the
    lower side holds as t**(s-1) >= x**(s-1), and the upper side is the cap
    Gamma(s, x) <= Gamma(s).  Times C / (gamma B**s), x**(s-1) e**-x is
    C a**(1-gamma) e**-x / (gamma B); all of it, C too, is in log space.
    """

    coeff: float
    B: float
    gamma: float
    from_j: int = 1
    exact: bool = False

    def __post_init__(self):
        if self.B <= 0 or self.gamma <= 0:
            raise ValueError("stretched tail needs B, gamma > 0")

    def _integral(self, a: float, upper: bool) -> float:
        """The upper or lower side of the bracket on the integral from a, in
        log space; +inf where the upper side exceeds the double range."""
        if self.coeff == 0.0:
            return 0.0
        s = 1.0 / self.gamma
        # Logarithms first: past the double range e**-x is 0 on both sides.
        log_x = math.log(self.B) + self.gamma * math.log(a)
        if log_x > _LOG_DOUBLE_MAX:
            return 0.0
        try:
            x = self.B * a**self.gamma
        except OverflowError:  # a**gamma alone leaves the range, x does not
            x = math.exp(log_x)
        log_c = math.log(self.coeff) - math.log(self.gamma)
        log_front = log_c + (1.0 - self.gamma) * math.log(a) - x - math.log(self.B)
        log_k = math.log(x / (x - (s - 1.0))) if x > s - 1.0 else math.inf
        if upper:
            log_val = min(log_front + max(0.0, log_k), log_c + math.lgamma(s) - s * math.log(self.B))
        else:
            log_val = log_front + min(0.0, log_k)
        try:
            return math.exp(log_val)
        except OverflowError:
            return math.inf

    def upper_tail(self, J: int) -> float:
        return self._integral(J, upper=True) * _SLACK

    def lower_tail(self, J: int) -> float:
        if not self.exact:
            return 0.0
        val = self._integral(J + 1, upper=False)
        return 0.0 if not math.isfinite(val) else val / _SLACK


@dataclass(frozen=True)
class GeomSeriesTail:
    """Terms bounded by C * q**j; the geometric tail sums in closed form."""

    coeff: float
    q: float
    from_j: int = 1
    exact: bool = False

    def __post_init__(self):
        if not (0 < self.q < 1):
            raise ValueError("geometric tail needs q in (0, 1)")

    def _series(self, J: int) -> float:
        try:
            return self.coeff * self.q ** (J + 1) / (1.0 - self.q)
        except OverflowError:
            return math.inf

    def upper_tail(self, J: int) -> float:
        return self._series(J) * _SLACK

    def lower_tail(self, J: int) -> float:
        if not self.exact:
            return 0.0
        return self._series(J) / _SLACK


@dataclass(frozen=True)
class PolyLogTail:
    """Terms bounded by g(j) = exp(-c (K + beta ln j)**s) with s > 1.

    from_j must be large enough that the exponent grows with slope >= 2 in
    u = ln j, i.e. c s beta (K + beta u)**(s-1) >= 2; then the tail past J is
    at most J * g(J).
    """

    c: float
    K: float
    beta: float
    s: float
    from_j: int = 1

    def _g(self, x: float) -> float:
        base = self.K + self.beta * math.log(x)
        try:
            return math.exp(-self.c * base**self.s)
        except OverflowError:
            return 0.0

    def upper_tail(self, J: int) -> float:
        return J * self._g(J) * _SLACK

    def lower_tail(self, J: int) -> float:
        return 0.0


@dataclass(frozen=True)
class RatioTail:
    """Terms bounded by g with g(j+1)/g(j) nonincreasing for j >= from_j.

    Suits doubly-exponential decay where no named integral applies: the tail
    past J is dominated by the geometric series with the first ratio.
    """

    g: Callable[[float], float]
    from_j: int = 1

    def upper_tail(self, J: int) -> float:
        g1 = self.g(J + 1)
        g2 = self.g(J + 2)
        if g1 <= 0.0:
            return 0.0
        ratio = g2 / g1
        if ratio >= 1.0:
            return math.inf
        return g1 / (1.0 - ratio) * _SLACK

    def lower_tail(self, J: int) -> float:
        return 0.0


TailBound = Union[
    AffinePowerTail,
    StretchedIntegralTail,
    GeomSeriesTail,
    PolyLogTail,
    RatioTail,
]


@dataclass(frozen=True)
class Divergence:
    """A certificate that the series diverges.

    reason is 'term-limit' (terms stay above ``floor`` from j0 on) or
    'harmonic' (terms dominate coeff/j from j0 on).
    """

    reason: str
    j0: int
    floor: float


Plan = Union[TailBound, Divergence, None]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _grow(partials: list[float], x: float) -> None:
    """Add x to ``partials`` so that ``math.fsum(partials)`` equals
    ``math.fsum`` of every x added so far.

    This is the grow-expansion inside ``math.fsum`` (Shewchuk 1997): the
    finite entries are non-overlapping and increase in magnitude, so they
    hold the exact sum in a few doubles.  As in ``math.fsum``, a non-finite x
    drops the finite entries and is kept in front of them, where
    ``math.fsum`` combines it with the other non-finite ones; a finite x whose
    exact sum overflows raises OverflowError.
    """
    k = 0
    while k < len(partials) and not math.isfinite(partials[k]):
        k += 1
    if not math.isfinite(x):
        del partials[k:]
        partials.append(x)
        return
    i = k
    for y in partials[k:]:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    if not math.isfinite(x):
        raise OverflowError("intermediate overflow in fsum")
    del partials[i:]
    if x:
        partials.append(x)


def certified_sum(
    terms: Callable[[int, int], np.ndarray],
    start: int,
    plan: Plan,
    *,
    tol: float = 1e-10,
    max_terms: int = 2_000_000,
    min_terms: int = 0,
    hard_end: int | None = None,
    prefactor: float = 1.0,
) -> SumEvaluation:
    """Sum ``terms(j0, j1)`` (an array for j in [j0, j1)) from ``start``.

    ``hard_end`` marks a finite spectrum: the series truly ends there and the
    result is exact.  ``prefactor`` scales the final value and remainder.
    ``min_terms`` forces at least that many terms before a certified stop,
    which the certification-soundness tests use to extend evaluations.

    The stop rules run after every CHUNK terms.  Once four chunks are summed,
    one ``terms`` call fetches a quarter as many chunks again (at most
    _MAX_BATCH), never past ``hard_end`` or the budget; chunks fetched past
    the stop are dropped unsummed.  A batch whose ``terms`` call raises
    TractError is fetched again one chunk at a time, so an error is raised
    only from a chunk that is summed.
    """
    if isinstance(plan, Divergence):
        if plan.reason == "harmonic":
            msg = f"divergent (harmonic: terms >= {plan.floor:.3g}/j from j={plan.j0})"
        else:
            msg = f"divergent (term-limit: terms >= {plan.floor:.3g} from j={plan.j0})"
        return SumEvaluation(math.inf, 0, None, SumStatus.DIVERGENT, msg)

    max_terms = max(max_terms, min_terms)
    partials: list[float] = []
    count = chunks = 0
    j = start
    single_until = start  # a batch that raised is fetched again chunk by chunk up to here
    tail: TailBound | None = plan
    note = ""
    if tail is not None and hard_end is None and tail.from_j - start + 1 > max_terms:
        tail = None  # bound validity starts beyond the budget
        note = "tail bound valid only beyond term budget"
    heuristic = tail is None and hard_end is None

    while True:
        if hard_end is not None and j > hard_end:
            value = prefactor * math.fsum(partials)
            return SumEvaluation(value, count, 0.0, SumStatus.CERTIFIED, "finite spectrum")
        batch = 1 if j < single_until else min(max(chunks // 4, 1), _MAX_BATCH)
        j_end = j + batch * CHUNK
        if hard_end is not None:
            j_end = min(j_end, hard_end + 1)
        j_end = min(j_end, j + (max_terms - count))
        # With no budget left the span is empty and only the stop rules run.
        spans = [(a, min(a + CHUNK, j_end)) for a in range(j, j_end, CHUNK)] or [(j, j)]
        maxima = [math.inf] * len(spans)  # read only by the heuristic stop
        if j_end > j:
            try:
                values = terms(j, j_end)
            except TractError:
                if batch == 1:
                    raise
                single_until = j_end
                continue
            if heuristic:
                maxima = np.maximum.reduceat(np.abs(values), np.arange(0, j_end - j, CHUNK)).tolist()
        base = j
        for (j0, j1), block_max in zip(spans, maxima):
            if j1 > j0:
                try:
                    _grow(partials, math.fsum(values[j0 - base : j1 - base].tolist()))
                except OverflowError:  # a finite sum past the double range
                    partials = [math.inf]
                count += j1 - j0
                chunks += 1
                j = j1
            partial = math.fsum(partials)
            if partial == math.inf:
                # The terms are non-negative: no later chunk brings the sum back.
                return SumEvaluation(
                    math.inf, count, None, SumStatus.HEURISTIC,
                    "partial sum exceeds the double range", converged=False,
                )
            J = j - 1  # last index summed
            if tail is not None and J >= tail.from_j and count >= min_terms:
                up = tail.upper_tail(J)
                lo = tail.lower_tail(J)
                if math.isfinite(up):
                    width = up - lo
                    mid = partial + 0.5 * (up + lo)
                    scale = max(abs(mid), 1e-300)
                    if width <= tol * scale or count >= max_terms:
                        value = prefactor * mid
                        remainder = prefactor * max(width, 0.0) * _SLACK
                        return SumEvaluation(value, count, remainder, SumStatus.CERTIFIED, note)
            if heuristic and count >= min_terms:
                # Heuristic stop: one full chunk (>= 64 consecutive terms) whose
                # every term is below tol * current value.
                if block_max < tol * max(partial, 1e-300):
                    return SumEvaluation(prefactor * partial, count, None, SumStatus.HEURISTIC, note)
            if count >= max_terms:
                return SumEvaluation(
                    prefactor * partial,
                    count,
                    None,
                    SumStatus.HEURISTIC,
                    note or "term budget exhausted before any stop rule",
                    converged=False,
                )
