"""Compensated summation of positive series with certified truncation.

The evaluator sums terms in increasing index order, in fixed-size chunks:
each chunk sum is the correctly rounded ``math.fsum`` of the chunk, and is
added to one Python int that counts the running total in units of 2**-1074.
Every finite double is a whole number of such units, so the int holds the
exact total, and its true division by 2**1074, which CPython rounds
correctly, is bit for bit the ``math.fsum`` of the chunk sums; each chunk
costs the same however many came before.  It stops after the first chunk at
which an analytic bracket on the neglected tail is narrow enough, the term
budget is hit, a heuristic stagnation rule fires, or the partial sum (or
the partial sum plus an exact tail's lower bound) exceeds the double range.
Deep sums fetch several chunks per call of the term function; every
fetched chunk is summed, and those past the stop are dropped.  The bracket
narrows as the partial sum grows, so its rules are read once per fetch, at
its last chunk, and chunk by chunk only where one fires there.

The chunks of a fetch are summed in one vectorised pass of error-free
extraction (Rump, Ogita & Oishi, "Accurate floating-point summation,
Part I", SIAM J. Sci. Comput. 31(1), 2008, Lemma 3.3).  Per chunk, with
sigma a power of two at least 2**11 times its largest |term|,
(sigma + p) - sigma splits each term p into a high part, whose chunk sum is
exact, and an exact remainder; a second level splits the remainders the
same way.  The two exact part sums round once to the double ``math.fsum``
gives, unless the bits left over (with the rounding error of that one
addition) could move it past half a gap; only such a chunk, and one with a
non-finite term or a term past 2**1000, goes to ``math.fsum`` (see
``_chunk_sums``).

Tail bounds come in a handful of integrable shapes.  Each shape provides a
sound upper bound on the neglected tail; shapes marked exact (the bound
coincides with the terms) also provide a lower bound, which lets the
evaluator centre the reported value inside the bracket.  The three
integrable shapes take ln C for their coefficient (and ln q for the
geometric ratio) and form each bound in log space: it neither overflows nor
flushes to 0 where it is a double, and is +inf (no bound) past that.

Every shape is elementary.  Where the terms f(j) are convex, the
Hermite-Hadamard inequality brackets the tail past J:
integral of f from J + 1 plus f(J + 1) / 2 <= sum of f(j) over j > J <=
integral of f from J + 1/2, about f'(J) / 8 wide where the integrals from
J + 1 and from J leave about f(J).  The stretched-exponential integral is the
upper incomplete gamma function Gamma(s, x), taken by the recurrence
Gamma(s, x) = x**(s-1) e**-x + (s-1) Gamma(s-1, x) (DLMF 8.8.2) down to
s in (0, 1], where x**(s-1) e**-x x / (x + 1 - s) <= Gamma(s, x) <=
x**(s-1) e**-x (DLMF 8.10.1); see ``StretchedIntegralTail``.  A coupled
term rho(j)**(j**-tau) on the envelope a e**(-rate j**power) is
a**(j**-tau) e**(-rate j**(power - tau)), and past J its first factor lies
between 1 and a**((J+1)**-tau): a coefficient read at J + 1, two-sided
where the envelope is exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

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
_EXTRACT_MAX = 2.0**1000  # rows with a larger term are summed by math.fsum
_UNITS = 1 << 1074  # units of the running total per 1.0
_GAMMA_STEPS = 64  # steps of the Gamma(s, x) recurrence at most


def _exp(x: float) -> float:
    """e**x; +inf past the double range, and for NaN (no bound)."""
    return math.exp(x) if x <= _LOG_DOUBLE_MAX else math.inf


class SumStatus(enum.Enum):
    CERTIFIED = "Certified"
    HEURISTIC = "Heuristic"
    DIVERGENT = "DivergenceCertified"


class SumEvaluation(NamedTuple):
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
        return {**self._asdict(), "status": self.status.value}


# ---------------------------------------------------------------------------
# Tail bound shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffinePowerTail:
    """Terms bounded by C * (alpha + beta*j)**-T, T > 1, beta > 0; log_C is ln C.

    A plain power law C * j**-p is alpha = 0, beta = 1, T = p.  The terms
    are convex in j, so the tail past J lies between the Hermite-Hadamard
    bounds (see the module docstring).
    """

    log_C: float
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
        object.__setattr__(self, "_log_front", self.log_C - math.log(self.beta) - math.log(self.T - 1.0))

    def _log_base(self, a: float) -> float:
        return math.log(self.alpha + self.beta * a)

    def _integral(self, a: float) -> float:
        """C base**(1-T) / (beta (T-1)) for base = alpha + beta*a, in log space."""
        return _exp(self._log_front + (1.0 - self.T) * self._log_base(a))

    def upper_tail(self, J: int) -> float:
        return self._integral(J + 0.5) * _SLACK

    def lower_tail(self, J: int) -> float:
        if not self.exact:
            return 0.0
        return (self._integral(J + 1) + 0.5 * _exp(self.log_C - self.T * self._log_base(J + 1))) / _SLACK


@dataclass(frozen=True)
class StretchedIntegralTail:
    """Terms bounded by C * A**(j**-tau) * exp(-B * j**gamma) for j >= from_j;
    log_C is ln C and log_A is ln A (0 by default: no such factor).

    The integral of C exp(-B t**gamma) from a is C Gamma(s, x) / (gamma B**s)
    with s = 1/gamma and x = B a**gamma.  For x > s - 1 the recurrence
    Gamma(s, x) = x**(s-1) e**-x + (s-1) Gamma(s-1, x) runs down to some
    s' = s - n in (0, 1], at most 64 steps; its terms are positive and fall.
    The Gamma(s', x) left lies between x**(s'-1) e**-x min(1, k) and
    x**(s'-1) e**-x max(1, k) with k = x / (x - (s' - 1)): under the
    integral over t >= x, t**(s'-1) lies between x**(s'-1) and
    x**(s'-1) e**((s'-1)(t-x)/x), because 0 <= ln(t/x) <= (t-x)/x, and the
    second one integrates to the k factor.  For s' in (0, 1] that is
    DLMF 8.10.1, and for an integer s it is exact.  For x <= s - 1 the upper
    side is the cap Gamma(s, x) <= Gamma(s), and the lower side is
    x**(s-1) e**-x or Gamma(s) - x**s / s, whichever is larger.  Times
    C / (gamma B**s), x**(s-1) e**-x is C a**(1-gamma) e**-x / (gamma B);
    all of it is in log space.

    exp(-B t**gamma) is convex where B gamma t**gamma >= gamma - 1, that is
    x >= 1 - s: everywhere for gamma <= 1.  From there on the tail has the
    Hermite-Hadamard bounds of the module docstring, and before it the
    integrals from J and from J + 1.  A**(j**-tau) lies between 1 and
    A**((J+1)**-tau) for j > J, and multiplies each side by the larger and
    the smaller of the two.

    ``log_B``, when given, is ln B and stands in for ``B``, which may then
    lie below the normal range; x is then taken from log space as well.
    """

    log_C: float
    B: float
    gamma: float
    from_j: int = 1
    exact: bool = False
    log_B: float | None = None
    log_A: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        valid_B = self.B > 0 if self.log_B is None else self.log_B > -math.inf
        if not valid_B or self.gamma <= 0:
            raise ValueError("stretched tail needs B, gamma > 0")

    def _x(self, a: float) -> tuple[float, float]:
        """ln B and x = B a**gamma, from logarithms first: inf where ln x passes the double range."""
        log_B = math.log(self.B) if self.log_B is None else self.log_B
        log_x = log_B + self.gamma * math.log(a)
        if log_x > _LOG_DOUBLE_MAX:
            return log_B, math.inf
        try:
            return log_B, math.exp(log_x) if self.log_B is not None else self.B * a**self.gamma
        except OverflowError:  # a**gamma alone leaves the range, x does not
            return log_B, math.exp(log_x)

    def _integral(self, a: float, upper: bool, log_lead: float = 0.0) -> float:
        """The upper or lower side of the bracket on the integral from a, its
        coefficient C e**log_lead, in log space; +inf where the upper side
        exceeds the double range."""
        if self.log_C == -math.inf:
            return 0.0
        s = 1.0 / self.gamma
        log_B, x = self._x(a)
        if x == math.inf:  # e**-x is 0 on both sides
            return 0.0
        log_c = self.log_C + log_lead - math.log(self.gamma)
        log_front = (log_c + (1.0 - self.gamma) * math.log(a) - log_B) - x  # one rounding at the size of x
        log_gamma, s_log_B = math.lgamma(s), s * log_B
        if x > s - 1.0:
            # Gamma(s, x) / (x**(s-1) e**-x) = sum of t_k for k < n, plus t_n times Gamma(s - n, x) over its
            # front, with t_0 = 1 and t_k = t_(k-1) (s - k) / x; x is 0 only for s < 1, from a log_x below
            # the double range, where k = 0.
            head, t, n = 0.0, 1.0, min(math.ceil(s - 1.0), _GAMMA_STEPS) if s > 1.0 else 0
            for i in range(1, n + 1):
                head += t
                t *= (s - i) / x
            k = x / (x - (s - n - 1.0))
            ratio = head + t * (max(1.0, k) if upper else min(1.0, k))
            log_val = log_front + (math.log(ratio) if ratio > 0.0 else -math.inf)
        else:
            log_val = math.inf if upper else log_front
        if upper:
            return _exp(min(log_val, log_c + log_gamma - s_log_B))
        if x <= s - 1.0:
            # Gamma(s) - x**s / s, from lgamma: ln(x**s / (s Gamma(s))) is
            # s ln B + ln a - ln s - lgamma(s).  Its parts can be large and
            # cancel, so both logs move by 2**-50 of their sizes, against
            # the rounding, towards a smaller bound.
            fuzz = 2.0**-50 * (abs(log_c) + abs(log_gamma) + abs(s_log_B) + math.log(s * a))
            log_cut = s_log_B + math.log(a) - math.log(s) - log_gamma + fuzz
            if log_cut < 0.0:
                log_val = max(log_val, log_c + log_gamma - s_log_B + math.log1p(-math.exp(log_cut)) - fuzz)
        return _exp(log_val)

    def _convex(self, a: float) -> bool:
        """Whether exp(-B t**gamma) is convex from a on, with 2**-40 of margin against rounding."""
        return self.gamma <= 1.0 or self._x(a)[1] * (1.0 - 2.0**-40) >= 1.0 - 1.0 / self.gamma

    def _log_lead(self, J: int, upper: bool) -> float:
        """ln of the larger (upper) or smaller factor A**(j**-tau) over j > J, and 1."""
        log_at = self.log_A * (J + 1.0) ** -self.tau
        return max(0.0, log_at) if upper else min(0.0, log_at)

    def upper_tail(self, J: int) -> float:
        a = J + 0.5 if self._convex(J + 0.5) else J
        return self._integral(a, True, self._log_lead(J, True)) * _SLACK

    def lower_tail(self, J: int) -> float:
        """inf where the lower side lies past the double range."""
        if not self.exact:
            return 0.0
        log_lead = self._log_lead(J, False)
        lower = self._integral(J + 1, False, log_lead)
        x = self._x(J + 1)[1]
        if x < math.inf and self._convex(J + 1):  # past the double range e**-x is 0, as in _integral
            lower += 0.5 * _exp(self.log_C + log_lead - x)
        return lower / _SLACK


@dataclass(frozen=True)
class GeomSeriesTail:
    """Terms bounded by C * q**j, given as ln C and ln q; the tail sums in closed form."""

    log_C: float
    log_q: float
    from_j: int = 1
    exact: bool = False

    def __post_init__(self):
        if not self.log_q < 0:
            raise ValueError("geometric tail needs q in [0, 1)")

    def _series(self, J: int) -> float:
        return _exp(self.log_C + (J + 1) * self.log_q - math.log(-math.expm1(self.log_q)))

    def upper_tail(self, J: int) -> float:
        return self._series(J) * _SLACK

    def lower_tail(self, J: int) -> float:
        if not self.exact:
            return 0.0
        return self._series(J) / _SLACK


class PolyLogTail(NamedTuple):
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


class RatioTail(NamedTuple):
    """Terms bounded by g = e**log_g with g(j+1)/g(j) nonincreasing for j >= from_j.

    Suits doubly-exponential decay where no named integral applies: the tail
    past J is dominated by the geometric series with the first ratio, taken
    from ln g, so it keeps its digits where g is below the normal range.
    """

    log_g: Callable[[float], float]
    from_j: int = 1

    def upper_tail(self, J: int) -> float:
        log_g1 = self.log_g(J + 1)
        log_ratio = self.log_g(J + 2) - log_g1
        if _exp(log_g1) == 0.0:
            return 0.0
        if log_ratio >= 0.0:
            return math.inf
        return _exp(log_g1 - math.log(-math.expm1(log_ratio))) * _SLACK

    def lower_tail(self, J: int) -> float:
        return 0.0


TailBound = Union[
    AffinePowerTail,
    StretchedIntegralTail,
    GeomSeriesTail,
    PolyLogTail,
    RatioTail,
]


class Divergence(NamedTuple):
    """A certificate that the series diverges.

    reason is 'term-limit' (terms stay above ``floor`` from j0 on) or
    'harmonic' (terms dominate floor/j from j0 on).  An onset past the int64
    index range is kept as its base-2 exponent instead: j0 is None and the
    onset is 2**log2_j0.
    """

    reason: str
    j0: int | None
    floor: float
    log2_j0: int | None = None


Plan = Union[TailBound, Divergence, None]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _fsum_or_inf(xs: list[float]) -> float:
    try:
        return math.fsum(xs)
    except OverflowError:  # a finite sum past the double range
        return math.inf


def _chunk_sums(values: np.ndarray) -> tuple[list[float], list[float]]:
    """Each CHUNK-term row of ``values`` summed, and its max |term|.

    Every sum is bit for bit ``math.fsum`` of its row, or inf where that
    raises OverflowError.  The last row is zero-padded (zeros add nothing).
    sigma = 2**(e + 11), with e the frexp exponent of the row's max |term|,
    puts every term below 2**-11 sigma, and 2**11 >= CHUNK + 2, so the
    extracted parts of a row sum exactly in any order; the second level
    takes sigma * 2**(11 - 53).
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    rows = -(-n // CHUNK)
    if n == rows * CHUNK:
        p = values.reshape(rows, CHUNK)
    else:
        p = np.zeros((rows, CHUNK))
        p.ravel()[:n] = values
    mu = np.abs(p).max(axis=1)
    maxima = mu.tolist()
    extreme = [r for r, m in enumerate(maxima) if not m <= _EXTRACT_MAX]  # NaN too
    if extreme:  # summed by math.fsum below; zeros here
        p = p.copy()
        p[extreme] = 0.0
        mu[extreme] = 0.0
    # One sigma per term (not a (rows, 1) broadcast, which NumPy runs slower).
    sigma = np.repeat(np.ldexp(2.0**11, np.frexp(mu)[1])[:, None], CHUNK, axis=1)
    q = p + sigma
    q -= sigma
    tau1 = q.sum(axis=1)
    p = p - q
    sigma *= 2.0 ** (11 - 53)
    np.add(p, sigma, out=q)
    q -= sigma
    tau2 = q.sum(axis=1)
    p -= q
    s = tau1 + tau2
    sums = s.tolist()
    if p.any():
        # The row sum lies within |err| + CHUNK max|p| of s, err the TwoSum error of tau1 + tau2; below half
        # the gap under |s| (rounding of that distance allowed for), s is the correctly rounded sum fsum gives.
        b = s - tau1
        err = (tau1 - (s - b)) + (tau2 - b)
        distance = np.abs(err) + CHUNK * np.maximum(p.max(axis=1), -p.min(axis=1))
        a = np.abs(s)
        settled = distance * (1 + 2.0**-50) < 0.5 * (a - np.nextafter(a, 0.0))
        for r in np.flatnonzero(p.any(axis=1) & ~settled).tolist():
            sums[r] = math.fsum([tau1[r], tau2[r], *p[r][p[r] != 0.0].tolist()])
    for r in extreme:
        sums[r] = _fsum_or_inf(values[r * CHUNK : (r + 1) * CHUNK].tolist())
    return sums, maxima


def _past_range(count: int) -> SumEvaluation:
    return SumEvaluation(
        math.inf, count, None, SumStatus.HEURISTIC, "partial sum exceeds the double range", converged=False,
    )


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

    The chunk sums are added to an int in units of 2**-1074, which holds
    their exact total; the stop rules read, after each CHUNK terms, that
    total divided by 2**1074, the correctly rounded ``math.fsum`` of the
    chunk sums, and a total that rounds past the double range
    (OverflowError) ends the sum at inf.  The tail rules are read at a
    fetch's last chunk first, and at its other chunks only where one fires
    there; the stop is the first chunk at which one holds.  Once four chunks
    are summed, one ``terms`` call fetches a quarter as many chunks again
    (at most _MAX_BATCH), never past
    ``hard_end`` or the budget; every fetched chunk is summed, and only those
    up to the stop are added.  A batch whose ``terms`` call raises
    TractError is fetched again one chunk at a time, so an error is raised
    only from a chunk that is summed.
    """
    if isinstance(plan, Divergence):
        # An exponent too long for a decimal prints as the later onset 2**2**m.
        k = plan.log2_j0
        j0 = plan.j0 if k is None else f"2**{k}" if k.bit_length() <= 10_000 else f"2**2**{k.bit_length()}"
        if plan.reason == "harmonic":
            msg = f"divergent (harmonic: terms >= {plan.floor:.3g}/j from j={j0})"
        else:
            msg = f"divergent (term-limit: terms >= {plan.floor:.3g} from j={j0})"
        return SumEvaluation(math.inf, 0, None, SumStatus.DIVERGENT, msg)

    max_terms = max(max_terms, min_terms)
    total = 0  # the exact running sum, in units of 2**-1074
    count = chunks = 0
    j = start
    single_until = start  # a batch that raised is fetched again chunk by chunk up to here
    tail: TailBound | None = plan
    note = ""
    if tail is not None and hard_end is None and tail.from_j - start + 1 > max_terms:
        tail = None  # bound validity starts beyond the budget
        note = "tail bound valid only beyond term budget"
    heuristic = tail is None and hard_end is None

    def stop(count: int, J: int, partial: float, block_max: float) -> SumEvaluation | None:
        """The stop rules after the chunk ending at J, or None to go on."""
        if tail is not None and J >= tail.from_j and count >= min_terms:
            up = tail.upper_tail(J)
            lo = tail.lower_tail(J)
            if math.isinf(partial + lo):  # so is the whole sum past the double range
                return _past_range(count)
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
        return None

    while True:
        if hard_end is not None and j > hard_end:
            value = prefactor * (total / _UNITS)
            return SumEvaluation(value, count, 0.0, SumStatus.CERTIFIED, "finite spectrum")
        batch = 1 if j < single_until else min(max(chunks // 4, 1), _MAX_BATCH)
        j_end = j + batch * CHUNK
        if hard_end is not None:
            j_end = min(j_end, hard_end + 1)
        j_end = min(j_end, j + (max_terms - count))
        # With no budget left the span is empty and only the stop rules run.
        spans = [(a, min(a + CHUNK, j_end)) for a in range(j, j_end, CHUNK)] or [(j, j)]
        sums, maxima = [0.0], [math.inf]  # maxima are read only by the heuristic stop
        if j_end > j:
            try:
                values = terms(j, j_end)
            except TractError:
                if batch == 1:
                    raise
                single_until = j_end
                continue
            sums, maxima = _chunk_sums(values)
        marks = []  # (count, last index summed, partial sum, block max) after each chunk
        past = False
        for (j0, j1), chunk_sum, block_max in zip(spans, sums, maxima):
            if j1 > j0:
                count += j1 - j0
                chunks += 1
                j = j1
            try:
                # An inf chunk sum has no integer ratio and raises here too.
                n, d = chunk_sum.as_integer_ratio()
                total += n << (1075 - d.bit_length())
                marks.append((count, j - 1, total / _UNITS, block_max))
            except OverflowError:
                past = True
                break
        # Once the tail rules hold they hold at every later chunk: the bounds fall and the partial sum grows.
        # So they are read at the batch's last chunk, and chunk by chunk only where a stop fires there; the
        # heuristic rule is not monotone and is read at every chunk.
        if past or heuristic or stop(*marks[-1]) is not None:
            for mark in marks:
                if (ev := stop(*mark)) is not None:
                    return ev
        if past:  # the terms are non-negative: no later chunk brings the sum back
            return _past_range(count)
