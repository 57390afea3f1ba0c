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

Tail bounds come in a handful of integrable shapes.  Each shape's
``sides(J)`` gives a sound upper bound on the tail past J; shapes marked
exact (the bound coincides with the terms) give a lower bound with it,
which lets the evaluator centre the reported value inside the bracket.
The three integrable shapes take ln C for their coefficient (and ln q for
the geometric ratio) and form each bound in log space: it neither
overflows nor flushes to 0 where it is a double, and is +inf (no bound)
past that.  Where those logarithms are large, each side's logarithm moves
by 2**-50 of their sizes, against the rounding of their sum.

A power C (alpha + beta j)**-T is completely monotone, so the tail past J
lies between two Euler-Maclaurin sums from J + 1 (DLMF 2.10(i)): the
integral, half the first term and the Bernoulli terms up to order m, with
and without the next one, since the remainder has that term's sign and is
no larger.  m stops where the next term no longer shrinks or is
negligible, at 8 at most.  A power (alpha + beta j**gamma)**-T with
gamma != 1 is expanded by the binomial series into powers of j, each with
those sides and its coefficient's sign, and the parts past K bounded by a
geometric series; K grows until its part is negligible, at 24 at most,
and where the series does not hold yet the first power times a factor
between 1 and (1 + sigma)**-T bounds the terms.

Stretched-exponential terms stay elementary.  Where they are convex, the
Hermite-Hadamard inequality brackets the tail past J: integral of f from
J + 1 plus f(J + 1) / 2 <= sum of f(j) over j > J <= integral of f from
J + 1/2.  The integral is the upper incomplete gamma function Gamma(s, x),
taken by the recurrence Gamma(s, x) = x**(s-1) e**-x + (s-1) Gamma(s-1, x)
(DLMF 8.8.2) down to s in (0, 1] and on while its terms shrink, at most 64
steps, where x**(s-1) e**-x x / (x + 1 - s) <= Gamma(s, x) <= x**(s-1) e**-x
(DLMF 8.10.1) for any s <= 1; see ``StretchedIntegralTail``.  A coupled term
rho(j)**(j**-tau) on the envelope a e**(-rate j**power) is
a**(j**-tau) e**(-rate j**(power - tau)).  Its first factor e**(b j**-tau),
b = ln a, is expanded to K terms with a Lagrange remainder, K taken from
y = b (J+1)**-tau as above, and each part is a stretched integral of its
own s; where the expansion gains nothing the factor lies between 1 and e**y.
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
    "FiniteEnd",
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
_EM_ORDER = 8  # Euler-Maclaurin terms past the integral at most
_PARTS = 24  # parts of a finite expansion at most
_NEGLIGIBLE = 2.0**-40  # a term this small against the sum it joins ends an expansion
_FUZZ = 2.0**-50  # a side's logarithm moves this much per unit of the logarithms it is formed from
# B_2k / (2k)! for k = 1 .. _EM_ORDER + 1 (Bernoulli numbers, DLMF 24.2.1)
_EM = tuple(
    n / (d * math.factorial(2 * k))
    for k, (n, d) in enumerate(
        [(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510), (43867, 798)], 1
    )
)


def _exp(x: float) -> float:
    """e**x; +inf past the double range, and for NaN (no bound)."""
    return math.exp(x) if x <= _LOG_DOUBLE_MAX else math.inf


class SumStatus(enum.Enum):
    CERTIFIED = "Certified"
    HEURISTIC = "Heuristic"
    DIVERGENT = "DivergenceCertified"


class SumEvaluation(NamedTuple):
    """Value of one criterion sum plus its truncation evidence.

    A sum with a tail bound that reaches the term budget is still Certified,
    with the wider remainder its bracket gives there.  ``converged`` is False
    when the budget ran out with no tail bound in force and no stop rule
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


def _slacked(lo: float, hi: float, exact: bool) -> tuple[float, float]:
    """A shape's ``sides``: its lower side (0 unless exact; inf where it lies
    past the double range) and its upper side, each moved by _SLACK."""
    return (lo / _SLACK if exact else 0.0), hi * _SLACK


def _exp_lower(x: float) -> float:
    """e**x for a lower side: 0 for NaN."""
    return _exp(x) if x == x else 0.0


def _log_add(x: float, y: float) -> float:
    """ln(e**x + e**y)."""
    m = max(x, y)
    return m + math.log1p(math.exp(min(x, y) - m)) if abs(m) < math.inf else m


def _power_sides(T: float, log_w: float) -> tuple[float, float]:
    """ln of the sides of the sum over i >= 0 of (1 + i/w)**-T, for T > 1 and w = e**log_w.

    That is the tail of f(j) from a on over f(a), for f(t) = (t - a + w)**-T,
    which is completely monotone.  So it is w/(T-1) + 1/2 plus Euler-Maclaurin
    terms c_k = B_2k/(2k)! (T)_(2k-1) w**(1-2k), k = 1..m, plus a remainder that
    lies between 0 and c_(m+1) (DLMF 2.10(i)); m stops where the next term no
    longer shrinks or is negligible, at _EM_ORDER at most.  The trapezoid rule
    on a convex f keeps the sum at least w/(T-1) + 1/2.  w/(T-1) is added in
    logarithms, so a w past the double range still gives its sides.
    """
    w = _exp(log_w)
    log_lead = log_w - math.log(T - 1.0)
    lead = _exp(log_lead)
    head, width, side = 0.5, math.inf, (0.5, math.inf)
    r = T / w if w > 0.0 else math.inf  # (T)_(2k-1) w**(1-2k)
    for k, b in enumerate(_EM, 1):
        c = b * r
        if not abs(c) < width:
            break
        width, side = abs(c), (head, head + c)
        if width <= _NEGLIGIBLE * (lead + head):
            break
        head += c
        r *= (T + 2 * k - 1) * (T + 2 * k) / w / w
    return _log_add(log_lead, math.log(max(min(side), 0.5))), _log_add(log_lead, math.log(max(side)))


@dataclass(frozen=True)
class AffinePowerTail:
    """Terms bounded by C * (alpha + beta * j**gamma)**-T, gamma T > 1, beta > 0;
    log_C is ln C.

    A plain power law C * j**-p is alpha = 0, beta = 1, T = p.  At gamma = 1
    the terms are completely monotone in j, and the tail past J has the
    Euler-Maclaurin sides of ``_power_sides``.  At other gamma, with
    sigma = alpha / (beta a**gamma) and a = J + 1,
    (alpha + beta t**gamma)**-T is the sum over k of
    binom(-T, k) alpha**k beta**(-T-k) t**(-gamma (T+k)) for t >= a where
    |sigma| < 1.  Each part is a power with those sides, taken with the sign
    of its coefficient.  The parts from K on are at most part K's upper side
    times 1 / (1 - rho), rho = |sigma| max(1, (T+K)/(K+1)), a geometric series;
    K grows until part K is negligible, at _PARTS at most.  Where that
    bracket would be wider, or |sigma| >= 1, the terms are the first part
    times a factor between 1 and (1 + sigma)**-T instead.
    """

    log_C: float
    alpha: float
    beta: float
    T: float
    from_j: int = 1
    exact: bool = False
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.T * self.gamma > 1 and self.beta > 0 and self.gamma > 0):
            raise ValueError("affine power tail needs gamma T > 1, beta > 0 and gamma > 0")
        if self.alpha + self.beta * _exp(self.gamma * math.log(self.from_j)) <= 0:
            raise ValueError("affine base must be positive from from_j on")

    def sides(self, J: int) -> tuple[float, float]:
        T, gamma, log_beta = self.T, self.gamma, math.log(self.beta)
        log_a = math.log(J + 1)
        if gamma == 1.0:
            log_u = math.log(self.alpha + self.beta * (J + 1))
            log_f = self.log_C - T * log_u  # ln of the term at a
            if log_f == -math.inf:
                return 0.0, 0.0
            lo, hi = _power_sides(T, log_u - log_beta)
            fuzz = _FUZZ * (abs(self.log_C) + abs(T * log_u) + abs(log_beta) + abs(hi))
            return _slacked(_exp_lower(log_f + lo - fuzz), _exp(log_f + hi + fuzz), self.exact)
        log_lead = self.log_C - T * log_beta - gamma * T * log_a  # ln of the first part at a
        if log_lead == -math.inf:
            return 0.0, 0.0
        alpha = self.alpha
        sigma = math.copysign(_exp(math.log(abs(alpha)) - log_beta - gamma * log_a), alpha) if alpha else 0.0
        log_factor = -T * math.log1p(sigma) if sigma > -1.0 else math.inf
        factor = _exp(log_factor)  # (1 + sigma)**-T
        size, K = 1.0, 0  # |binom(-T, K) sigma**K|
        while size > _NEGLIGIBLE and K < _PARTS:
            K += 1
            size *= abs(sigma) * (T + K - 1) / K
        rho = abs(sigma) * max(1.0, (T + K) / (K + 1))
        expand = rho < 1.0 and size / (1.0 - rho) < abs(factor - 1.0)
        lo = hi = 0.0
        coeff = 1.0
        for k in range(K if expand else 1):
            p_lo, p_hi = (math.exp(v) for v in _power_sides(gamma * (T + k), log_a))
            lo, hi = (lo + coeff * p_lo, hi + coeff * p_hi) if coeff > 0.0 else (lo + coeff * p_hi, hi + coeff * p_lo)
            coeff *= -sigma * (T + k) / (k + 1)
        fuzz = _FUZZ * (abs(self.log_C) + abs(T * log_beta) + abs(gamma * T * log_a))
        if expand:
            rest = size / (1.0 - rho) * math.exp(_power_sides(gamma * (T + K), log_a)[1])
            lo, hi = lo - rest, hi + rest
        else:
            lo, hi = lo * min(1.0, factor), hi * max(1.0, factor)
            fuzz += _FUZZ * abs(log_factor)
        return _slacked(
            _exp_lower(log_lead + math.log(lo) - fuzz) if lo > 0.0 else 0.0,
            _exp(log_lead + math.log(hi) + fuzz),
            self.exact,
        )


def _gamma_ratio(s: float, x: float) -> tuple[float, float]:
    """The sides of Gamma(s, x) / (x**(s-1) e**-x) for x > s - 1.

    Integrating by parts n times, Gamma(s, x) is x**(s-1) e**-x times the sum
    of t_k over k < n, plus t_n x**(n+1-s) e**x Gamma(s-n, x) times the same,
    with t_0 = 1 and t_k = t_(k-1) (s - k) / x (DLMF 8.8.2 run down, the
    asymptotic series of DLMF 8.11(i)).  Once s - n <= 1, Gamma(s-n, x) lies
    between x**(s-n-1) e**-x x / (x + 1 - s + n) and x**(s-n-1) e**-x (DLMF
    8.10.1).  n first reaches that, at most _GAMMA_STEPS, then goes on while
    the terms shrink and count, to the same cap.  Where the cap leaves
    s - n > 1 the factor is above 1 instead (see ``StretchedIntegralTail``).
    """
    head, t, n = 0.0, 1.0, 0
    down = min(math.ceil(s - 1.0), _GAMMA_STEPS) if s > 1.0 else 0
    while n < _GAMMA_STEPS and (n < down or (abs(s - n - 1.0) < x and abs(t) > _NEGLIGIBLE * head)):
        head += t
        n += 1
        t *= (s - n) / x
    k = x / (x - (s - n - 1.0)) if x > 0.0 else 0.0
    small, large = min(1.0, k), max(1.0, k)
    return (head + t * small, head + t * large) if t > 0.0 else (head + t * large, head + t * small)


def _lead_terms(y: float) -> tuple[int, float]:
    """K and e**max(0, y) |y|**K / K!: the terms of the series of e**y kept,
    and the bound on the rest (Lagrange); (0, 0.0) where that is no narrower
    than e**y itself."""
    rest, K = _exp(max(0.0, y)), 0
    while rest > _NEGLIGIBLE and K < _PARTS:
        K += 1
        rest *= abs(y) / K
    return (K, rest) if rest < abs(math.expm1(min(y, _LOG_DOUBLE_MAX))) else (0, 0.0)


@dataclass(frozen=True)
class StretchedIntegralTail:
    """Terms bounded by C * A**(j**-tau) * exp(-B * j**gamma) for j >= from_j;
    log_C is ln C and log_A is ln A (0 by default: no such factor).

    The integral from a of C t**(gamma s - 1) exp(-B t**gamma) is
    C Gamma(s, x) / (gamma B**s) with x = B a**gamma.  For x > s - 1,
    ``_gamma_ratio`` brackets Gamma(s, x); where it stops at _GAMMA_STEPS with
    s' = s - n > 1 left, Gamma(s', x) lies between x**(s'-1) e**-x and
    x**(s'-1) e**-x k with k = x / (x - (s' - 1)): under the integral over
    t >= x, t**(s'-1) lies between x**(s'-1) and x**(s'-1) e**((s'-1)(t-x)/x),
    because 0 <= ln(t/x) <= (t-x)/x, and the second one integrates to k.  For
    x <= s - 1 the upper side is the cap Gamma(s, x) <= Gamma(s), and the
    lower side is x**(s-1) e**-x or Gamma(s) - x**s / s, whichever is larger.
    Times C / (gamma B**s), x**(s-1) e**-x is C a**(gamma (s-1)) e**-x / B;
    all of it is in log space, and each side's logarithm moves by 2**-50 of
    the sizes of the logarithms it is formed from, against their rounding.

    A**(t**-tau) = e**(b t**-tau), b = ln A, is the sum of (b t**-tau)**k / k!
    over k < K, plus a rest that lies between 0 and e**max(0, y) y**K / K!
    for t > J, y = b (J+1)**-tau (Lagrange); K is taken from y by
    ``_lead_terms``, and at K = 0 the factor lies between 1 and e**y.  Part k
    is C b**k / k! t**(-k tau) exp(-B t**gamma), the integrand above at
    s = (1 - k tau) / gamma, and the rest is at most that bound times the
    upper side of part 0.  exp(-B t**gamma) is convex where
    B gamma t**gamma >= gamma - 1, that is x >= 1 - 1/gamma: everywhere for
    gamma <= 1; so is each part, a product of two decreasing convex
    functions.  From there on the tail of each part has the
    Hermite-Hadamard sides of the module docstring, and before it the
    integrals from J and from J + 1.

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

    def _at(self, a: float) -> tuple[float, float, float, float]:
        """ln a, ln B, x = B a**gamma (inf where ln x passes the double range)
        and the size of x's rounding in units of 2**-53 of it."""
        log_a = math.log(a)
        log_B = math.log(self.B) if self.log_B is None else self.log_B
        log_x = log_B + self.gamma * log_a
        if log_x > _LOG_DOUBLE_MAX:
            return log_a, log_B, math.inf, 0.0
        if self.log_B is None:
            try:
                x = self.B * a**self.gamma
                return log_a, log_B, x, x
            except OverflowError:  # a**gamma alone leaves the range, x does not
                pass
        x = math.exp(log_x)
        return log_a, log_B, x, x * (1.0 + abs(log_x))

    def _convex(self, at: tuple) -> bool:
        """Whether exp(-B t**gamma) is convex from a on, for ``at = _at(a)``,
        with 2**-40 of margin against rounding."""
        return self.gamma <= 1.0 or at[2] * (1.0 - 2.0**-40) >= 1.0 - 1.0 / self.gamma

    def _integral(self, at: tuple, s: float, log_lead: float = 0.0) -> tuple[float, float]:
        """The lower and upper sides of the integral from a of
        C e**log_lead t**(gamma s - 1) exp(-B t**gamma), for ``at = _at(a)``."""
        log_a, log_B, x, x_size = at
        if x == math.inf or self.log_C == -math.inf:  # e**-x is 0 on both sides
            return 0.0, 0.0
        log_c = self.log_C + log_lead - math.log(self.gamma)
        log_pow = self.gamma * (s - 1.0) * log_a
        log_front = (log_c + log_pow - log_B) - x  # one rounding at the size of x
        fuzz = _FUZZ * (abs(log_c) + abs(log_pow) + abs(log_B) + x_size)
        if x > s - 1.0:
            lo, hi = _gamma_ratio(s, x)
            log_lo = log_front + (math.log(lo) if lo > 0.0 else -math.inf) - fuzz
            log_hi = log_front + math.log(hi) + fuzz
        else:
            log_lo, log_hi = log_front - fuzz, math.inf
        if s > 0.0:
            log_gamma, s_log_B = math.lgamma(s), s * log_B
            log_full = log_c + log_gamma - s_log_B  # C Gamma(s) / (gamma B**s)
            full_fuzz = _FUZZ * (abs(log_c) + abs(log_gamma) + abs(s_log_B))
            log_hi = min(log_hi, log_full + full_fuzz)
            if x <= s - 1.0:
                # Gamma(s) - x**s / s: ln(x**s / (s Gamma(s))) is s ln B + gamma s ln a - ln s - lgamma(s).
                log_s_a = self.gamma * s * log_a
                log_cut = s_log_B + log_s_a - math.log(s) - log_gamma
                log_cut += _FUZZ * (abs(s_log_B) + abs(log_s_a) + abs(math.log(s)) + abs(log_gamma))
                if log_cut < 0.0:
                    log_lo = max(log_lo, log_full - full_fuzz + math.log1p(-math.exp(log_cut)))
        return _exp_lower(log_lo), _exp(log_hi)

    def sides(self, J: int) -> tuple[float, float]:
        if self.log_C == -math.inf:
            return 0.0, 0.0
        up = self._at(J + 0.5)
        if not self._convex(up):
            up = self._at(J)
        at = self._at(J + 1)
        log_a, x = at[0], at[2]
        convex = x < math.inf and self._convex(at)  # past the double range e**-x is 0, as in _integral
        b, tau = self.log_A, self.tau
        y = b * (J + 1.0) ** -tau
        K, rest = _lead_terms(y)
        lo = hi = first = 0.0
        for k in range(max(K, 1)):
            log_lead = k * math.log(abs(b)) - math.lgamma(k + 1) if k else 0.0
            s = (1.0 - k * tau) / self.gamma
            part_lo, part_hi = self._integral(at, s, log_lead)[0], self._integral(up, s, log_lead)[1]
            if convex:  # half the term at J + 1
                log_term = self.log_C + log_lead - k * tau * log_a
                fuzz = _FUZZ * (abs(self.log_C) + abs(log_lead) + abs(k * tau * log_a) + at[3])
                part_lo += 0.5 * _exp_lower(log_term - x - fuzz)
            if b < 0.0 and k % 2:
                lo, hi = lo - part_hi, hi - part_lo
            else:
                lo, hi = lo + part_lo, hi + part_hi
            if k == 0:
                first = part_hi
        if K == 0:
            lo, hi = lo * math.exp(min(0.0, y)), hi * _exp(max(0.0, y)) if hi else 0.0
        elif b > 0.0 or K % 2 == 0:
            hi += rest * first
        else:
            lo -= rest * first
        # Parts past the double range of alternating sign leave inf - inf: no bound on that side.
        return _slacked(lo if lo > 0.0 else 0.0, math.inf if math.isnan(hi) else hi, self.exact)


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

    def sides(self, J: int) -> tuple[float, float]:
        series = _exp(self.log_C + (J + 1) * self.log_q - math.log(-math.expm1(self.log_q)))
        return _slacked(series, series, self.exact)


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

    def sides(self, J: int) -> tuple[float, float]:
        return 0.0, J * self._g(J) * _SLACK


class RatioTail(NamedTuple):
    """Terms bounded by g = e**log_g with g(j+1)/g(j) nonincreasing for j >= from_j.

    Suits doubly-exponential decay where no named integral applies: the tail
    past J is dominated by the geometric series with the first ratio, taken
    from ln g, so it keeps its digits where g is below the normal range.
    """

    log_g: Callable[[float], float]
    from_j: int = 1

    def sides(self, J: int) -> tuple[float, float]:
        log_g1 = self.log_g(J + 1)
        log_ratio = self.log_g(J + 2) - log_g1
        if _exp(log_g1) == 0.0:
            return 0.0, 0.0
        if log_ratio >= 0.0:
            return 0.0, math.inf
        return 0.0, _exp(log_g1 - math.log(-math.expm1(log_ratio))) * _SLACK


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


class FiniteEnd(NamedTuple):
    """A finite spectrum: the series ends at index ``end``, so its sum to there is exact."""

    end: int


Plan = Union[TailBound, Divergence, FiniteEnd, None]


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
    prefactor: float = 1.0,
) -> SumEvaluation:
    """Sum ``terms(j0, j1)`` (an array for j in [j0, j1)) from ``start``.

    A ``FiniteEnd`` plan marks a finite spectrum: the series truly ends there
    and the result is exact.  ``prefactor`` scales the final value and
    remainder.  ``min_terms`` forces at least that many terms before a
    certified stop, which the certification-soundness tests use to extend
    evaluations.

    The chunk sums are added to an int in units of 2**-1074, which holds
    their exact total; the stop rules read, after each CHUNK terms, that
    total divided by 2**1074, the correctly rounded ``math.fsum`` of the
    chunk sums, and a total that rounds past the double range
    (OverflowError) ends the sum at inf.  The tail rules are read at a
    fetch's last chunk first, and at its other chunks only where one fires
    there; the stop is the first chunk at which one holds.  Once four chunks
    are summed, one ``terms`` call fetches a quarter as many chunks again
    (at most _MAX_BATCH), never past a finite spectrum's end or the budget;
    every fetched chunk is summed, and only those up to the stop are added.
    A batch whose ``terms`` call raises TractError is fetched again one chunk
    at a time, so an error is raised only from a chunk that is summed.
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
    end = plan.end if isinstance(plan, FiniteEnd) else None
    tail: TailBound | None = None if end is not None else plan
    note = ""
    if tail is not None and tail.from_j - start + 1 > max_terms:
        tail = None  # bound validity starts beyond the budget
        note = "tail bound valid only beyond term budget"
    heuristic = tail is None and end is None

    def stop(count: int, J: int, partial: float, block_max: float) -> SumEvaluation | None:
        """The stop rules after the chunk ending at J, or None to go on."""
        if tail is not None and J >= tail.from_j and count >= min_terms:
            lo, up = tail.sides(J)
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
        if end is not None and j > end:
            value = prefactor * (total / _UNITS)
            return SumEvaluation(value, count, 0.0, SumStatus.CERTIFIED, "finite spectrum")
        batch = 1 if j < single_until else min(max(chunks // 4, 1), _MAX_BATCH)
        j_end = j + batch * CHUNK
        if end is not None:
            j_end = min(j_end, end + 1)
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
        # heuristic rule is not monotone and is read at every chunk.  A stop at the last chunk is kept, not read again.
        last = None if past or heuristic else stop(*marks[-1])
        if past or heuristic or last is not None:
            for mark in marks if last is None else marks[:-1]:
                if (ev := stop(*mark)) is not None:
                    return ev
            if last is not None:
                return last
        if past:  # the terms are non-negative: no later chunk brings the sum back
            return _past_range(count)
