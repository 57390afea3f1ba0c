import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tract
from tract import CriterionParams, EigenModel, ErrorCriterion, PolyDecay, evaluate_sum
from tract.errors import EvalDomainError
from tract.summation import (
    _SLACK,
    CHUNK,
    AffinePowerTail,
    Divergence,
    FiniteEnd,
    GeomSeriesTail,
    PolyLogTail,
    RatioTail,
    StretchedIntegralTail,
    SumStatus,
    _chunk_sums,
    certified_sum,
)


def _integral_sides(tail, a):
    """The lower and upper sides of the stretched tail's integral from a."""
    return tail._integral(tail._at(a), 1.0 / tail.gamma)


def _block(fn):
    def terms(j0, j1):
        return np.asarray([fn(j) for j in range(j0, j1)], dtype=float)

    return terms


class TestTailBounds:
    def test_power_integral_brackets_true_tail(self):
        import mpmath

        p = 1.7
        tail = AffinePowerTail(0.0, 0.0, 1.0, p, from_j=1, exact=True)
        for J in (10, 100, 1000):
            true = float(mpmath.zeta(p) - mpmath.fsum(mpmath.mpf(j) ** -p for j in range(1, J + 1)))
            lower, upper = tail.sides(J)
            assert lower <= true <= upper

    def test_affine_power_brackets_true_tail(self):
        """The sum of (1 + 2j)**-3 over j > J is 2**-3 zeta(3, J + 3/2)."""
        tail = AffinePowerTail(0.0, 1.0, 2.0, 3.0, from_j=1, exact=True)
        for J in (10, 200):
            true = float(mpmath.zeta(3, J + 1.5) / 8)
            lower, upper = tail.sides(J)
            assert lower <= true <= upper

    def test_stretched_brackets_true_tail(self):
        tail = StretchedIntegralTail(math.log(2.0), 0.5, 0.5, from_j=1, exact=True)
        for J in (10, 100):
            true = sum(2.0 * math.exp(-0.5 * j**0.5) for j in range(J + 1, 100_000))
            lower, upper = tail.sides(J)
            assert lower <= true <= upper

    def test_stretched_log_B_stands_in_for_B(self):
        """ln B gives the bracket B gives, and one still where B is below the
        double range (wt-alg on PolyDecay(100, 2) at s = 400: B = 100**-200)."""
        for J in (10, 100):
            tail = StretchedIntegralTail(math.log(2.0), 0.5, 0.5, exact=True)
            logged = StretchedIntegralTail(math.log(2.0), 0.0, 0.5, exact=True, log_B=math.log(0.5))
            assert logged.sides(J) == pytest.approx(tail.sides(J), rel=1e-13)
        tail = StretchedIntegralTail(0.0, 0.0, 400.0, exact=True, log_B=-200 * math.log(100.0))
        true = float(mpmath.quad(lambda t: mpmath.exp(-((t / 10) ** 400)), [9, 10, 10.5, mpmath.inf]))
        assert tail.sides(8)[0] <= true <= tail.sides(9)[1]
        assert tail.sides(11)[1] == 0.0  # x = 1.1**400 = 3.7e16
        # x = B a**gamma underflows to 0: both sides are Gamma(s) / (gamma B**s),
        # past the double range.
        tail = StretchedIntegralTail(0.0, 0.0, 0.5, exact=True, log_B=-1e6)
        assert tail.sides(10) == (math.inf, math.inf)
        for B, log_B in ((0.0, None), (0.0, -math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError):
                StretchedIntegralTail(0.0, B, 1.0, log_B=log_B)

    @staticmethod
    def _stretched_integral(coeff, B, gamma, a):
        """C Gamma(s, B a**gamma) / (gamma B**s) at 40 digits."""
        s = 1 / mpmath.mpf(gamma)
        x = mpmath.mpf(B) * mpmath.mpf(a) ** mpmath.mpf(gamma)
        return mpmath.mpf(coeff) * mpmath.gammainc(s, x) / (mpmath.mpf(gamma) * mpmath.mpf(B) ** s)

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.7, 10.0, 25.0, 50.0, 100.0])
    def test_stretched_bracket_holds_against_mpmath(self, s):
        """The integral bracket from a holds, from x near 0 through x = s - 1
        to the deep tail, wherever the integral is a normal double."""
        gamma = 1.0 / s
        base = max(s - 1.0, 0.0)
        below = [base * f for f in (1e-3, 0.5, 1 - 1e-9, 1.0)] if s > 1 else []
        xs = below + [base + dx for dx in (1e-9, 1e-6, 1e-2, 0.5, 1.0, 10.0, 100.0)] + [300.0, 650.0]
        checked = 0
        with mpmath.workdps(40):
            for a in (2, 1000):
                for x in xs:
                    B = x / a**gamma
                    tail = StretchedIntegralTail(0.0, B, gamma, exact=True)
                    exact = self._stretched_integral(1.0, B, gamma, a)
                    if not mpmath.mpf("1e-300") < exact < mpmath.mpf("1e300"):
                        continue
                    checked += 1
                    lower, upper = _integral_sides(tail, a)
                    assert math.isfinite(upper), (a, x)
                    assert upper >= exact * (1 - 1e-13), (a, x)
                    assert lower <= exact * (1 + 1e-13), (a, x)
        assert checked >= 10

    def test_stretched_bound_below_s_minus_1_is_gamma_s(self):
        """Where x <= s - 1 the upper side is C Gamma(s) / (gamma B**s): finite,
        above the integral, and the same bound at every such a."""
        tail = StretchedIntegralTail(0.0, 1.0, 0.1, exact=True)  # s = 10: x = a**0.1 <= 9 up to a = 9**10
        with mpmath.workdps(40):
            for a in (1, 1000, 10**9):
                assert tail.sides(a)[1] == pytest.approx(math.gamma(10.0) / 0.1 * _SLACK, rel=1e-13)
                exact = self._stretched_integral(1.0, 1.0, 0.1, a)
                lower, upper = _integral_sides(tail, a)
                assert lower / _SLACK <= exact <= upper * _SLACK
        # An integral past the double range (about 1e310) is no bound.
        assert math.isinf(StretchedIntegralTail(0.0, 1e-310, 1.0).sides(1)[1])

    def test_stretched_lower_side_below_s_minus_1(self):
        """Where x <= s - 1 the lower side is also C (Gamma(s) - x**s / s) /
        (gamma B**s): below the integral, and within 1e-3 of it where x**s / s
        is small against Gamma(s) = 362880."""
        tail = StretchedIntegralTail(0.0, 1.0, 0.1, exact=True)  # s = 10: x = a**0.1
        with mpmath.workdps(40):
            for a in (2, 1000, 10**6):
                exact = self._stretched_integral(1.0, 1.0, 0.1, a)
                lower = _integral_sides(tail, a)[0] / _SLACK
                assert lower <= exact
                if a <= 1000:  # x**10 / 10 = a / 10
                    assert lower >= exact * (1 - 1e-3)

    @pytest.mark.parametrize(
        "coeff, B, a",
        [(1e300, 740.0, 1), (1e300, 740.0 / 1000**0.5, 1000), (1e-300, 1e-310, 1)],
        ids=["huge-coeff", "huge-coeff-a1000", "tiny-coeff"],
    )
    def test_stretched_coeff_stays_in_log_space(self, coeff, B, a):
        """A coefficient near the double range enters the log-space sum: the
        bound neither flushes to 0 nor overflows where the integral (about
        4e-22 at x = 740 with C = 1e300, about 1e10 with C = 1e-300 and
        B = 1e-310) is a normal double."""
        gamma = 1.0 if a == 1 else 0.5
        tail = StretchedIntegralTail(math.log(coeff), B, gamma, exact=True)
        with mpmath.workdps(40):
            exact = self._stretched_integral(coeff, B, gamma, a)
        lower, upper = _integral_sides(tail, a)
        lower, upper = lower / _SLACK, upper * _SLACK
        assert lower <= exact <= upper <= exact * (1 + 1e-3)
        assert StretchedIntegralTail(-math.inf, B, gamma).sides(a) == (0.0, 0.0)

    def test_geometric_series_closed_form(self):
        tail = GeomSeriesTail(math.log(3.0), math.log(0.25), exact=True)
        true = 3.0 * 0.25**11 / 0.75
        lower, upper = tail.sides(10)
        assert lower <= true <= upper

    def test_polylog_bound_is_sound(self):
        c, K, beta, s = 1.0, 1.0, 2.0, 2.0
        tail = PolyLogTail(c, K, beta, s, from_j=3)
        g = lambda j: math.exp(-c * (K + beta * math.log(j)) ** s)
        for J in (5, 20):
            true = sum(g(j) for j in range(J + 1, 50_000))
            assert true <= tail.sides(J)[1]

    def test_ratio_tail_double_exponential(self):
        g = lambda x: math.exp(-math.exp(0.5 * x))
        tail = RatioTail(lambda x: -math.exp(0.5 * x), from_j=1)
        for J in (2, 6):
            true = sum(g(j) for j in range(J + 1, 200))
            assert true <= tail.sides(J)[1]


def _true_tail(f, J, head=2000):
    """The sum of f(j) over j > J at 30 digits: the first terms one by one, the rest by Euler-Maclaurin."""
    with mpmath.workdps(30):
        first = mpmath.fsum(f(mpmath.mpf(j)) for j in range(J + 1, J + 1 + head))
        return first + mpmath.sumem(f, [J + 1 + head, mpmath.inf])


class TestNarrowBrackets:
    """The Gamma recurrence, the coupled coefficient and the Hermite-Hadamard
    sides, each against true values."""

    @staticmethod
    def _gamma_sides(s, x):
        """The integral bracket at a = 1, B = x, over its exact value."""
        tail = StretchedIntegralTail(0.0, x, 1.0 / s, exact=True)
        with mpmath.workdps(40):
            exact = mpmath.gammainc(mpmath.mpf(s), x) * s / mpmath.mpf(x) ** s
        lower, upper = _integral_sides(tail, 1)
        return float(lower / exact), float(upper / exact)

    @pytest.mark.parametrize(
        "s, x, width",
        [(4.3, 20.0, 1e-12), (4.0, 20.0, 4.4e-14), (2.5, 3.0, 0.003), (200.5, 200.0, 1e-3)],
        ids=["s-4.3", "integer-s", "near-s-1", "past-64-steps"],
    )
    def test_recurrence_narrows_the_gamma_bracket(self, s, x, width):
        """Gamma(s, x) by recurrence down to s' in (0, 1] and on while its
        terms shrink, then DLMF 8.10.1, in units of Gamma(s, x): at s = 4.3,
        x = 20 the sides are 3e-13 apart, where the k factor alone left 0.17
        and the recurrence down to s' 5e-7; at an integer s they meet up to
        the rounding allowance: each side's logarithm moves by 2**-50 times
        |ln(C / gamma)| + |ln B| + x = ln 4 + ln 20 + 20 at s = 4, x = 20,
        so the sides lie 2 * 2**-50 * 24.4 = 4.33e-14 apart, and the Gamma(s)
        cap, which does not bind there, adds nothing; at s = 2.5, x = 3 they
        are 0.002 apart, against 0.64.  Past 64 steps the k factor brackets
        what is left."""
        lower, upper = self._gamma_sides(s, x)
        assert lower <= 1 + 1e-13 and upper >= 1 - 1e-13
        assert upper - lower <= width

    @pytest.mark.parametrize("log_A", [1.5, 0.0, -1.5])
    def test_coupled_bracket_holds_against_the_true_tail(self, log_A):
        """Terms A**(j**-tau) exp(-B j**gamma) for A above, at and below 1:
        the tail past J lies between the sides, and they close in as
        A**((J+1)**-tau) tends to 1, to the Hermite-Hadamard width at A = 1."""
        B, gamma, tau = 0.8, 0.5, 0.25
        tail = StretchedIntegralTail(0.0, B, gamma, exact=True, log_A=log_A, tau=tau)
        f = lambda j: mpmath.exp(log_A * j**-tau - B * mpmath.sqrt(j))
        widths = []
        for J in (1, 10, 100, 1000):
            true = _true_tail(f, J)
            lower, upper = tail.sides(J)
            assert lower <= true <= upper, J
            widths.append((upper - lower) / float(true))
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] <= math.expm1(abs(log_A) * 1001**-tau) + 3e-5

    def test_affine_power_hermite_hadamard(self):
        """Convex terms C (alpha + beta j)**-T: the sum past J lies between
        the integral from J + 1 plus half the next term and the integral from
        J + 1/2, a bracket about T f(J) / (8 J) wide, not f(J)."""
        C, alpha, beta, T = 1.5, 0.5, 2.0, 2.0
        tail = AffinePowerTail(math.log(C), alpha, beta, T, exact=True)
        f = lambda j: C * (alpha + beta * j) ** -T
        for J in (1, 10, 1000):
            true = _true_tail(f, J)
            lower, upper = tail.sides(J)
            assert lower <= true <= upper, J
            assert upper - lower <= T * beta * float(f(J)) / (8 * (alpha / beta + J)), J

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_stretched_hermite_hadamard(self, gamma):
        """exp(-B j**gamma) is convex where x = B j**gamma >= 1 - 1/gamma:
        everywhere for gamma <= 1, from j = 50**0.5 on for gamma = 2 and
        B = 0.01.  The bracket holds on both sides of that index."""
        B = 0.01
        tail = StretchedIntegralTail(0.0, B, gamma, exact=True)
        f = lambda j: mpmath.exp(-B * j**gamma)
        assert tail._convex(tail._at(7.5)) and (gamma <= 1.0 or not tail._convex(tail._at(6.5)))
        for J in (1, 3, 6, 7, 10, 30):
            true = _true_tail(f, J)
            lower, upper = tail.sides(J)
            assert lower <= true <= upper, J


class TestExpandedBrackets:
    """The Euler-Maclaurin sides, the power expansion and the incomplete gamma
    sides against mpmath at 50 digits, and the rounding allowance of the
    stretched integral where its logarithms are large."""

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.floats(1.0, 8.0, exclude_min=True),
        J=st.integers(1, 10**6),
        alpha=st.floats(0.0, 100.0),
        beta=st.floats(0.01, 10.0),
    )
    @example(p=1.0000000000000002, J=1, alpha=0.0, beta=1.0)  # T - 1 is one ulp: the tail is 4.5e15
    @example(p=8.0, J=1, alpha=0.0, beta=0.01)  # terms past the first fall fast: the Euler-Maclaurin terms grow
    def test_power_sides_contain_the_hurwitz_zeta(self, p, J, alpha, beta):
        """The sum of (alpha + beta j)**-p over j > J is beta**-p zeta(p, J + 1 + alpha/beta)."""
        tail = AffinePowerTail(0.0, alpha, beta, p, exact=True)
        with mpmath.workdps(50):
            true = mpmath.zeta(p, J + 1 + mpmath.mpf(alpha) / beta) * mpmath.mpf(beta) ** -p
        lower, upper = tail.sides(J)
        assert lower <= true <= upper

    @settings(max_examples=25, deadline=None)
    @given(
        T=st.floats(0.5, 6.0),
        gamma=st.floats(0.25, 3.0),
        alpha=st.floats(-0.9, 20.0),
        beta=st.floats(0.2, 5.0),
        J=st.integers(1, 10**6),
    )
    @example(T=3.0, gamma=0.5, alpha=0.44295, beta=0.55705, J=2047)  # qpt-exp on ExpDecay(1, 1.1141, 0.5), NOR
    @example(T=3.0, gamma=0.5, alpha=20.0, beta=0.2, J=1)  # |sigma| = 100: the factor bracket
    @example(T=2.5, gamma=0.5, alpha=-0.9, beta=1.0, J=1)  # all parts of one sign
    @example(T=1.0, gamma=1.06, alpha=0.3, beta=1.0, J=5)  # p near 1
    def test_expanded_sides_contain_the_true_tail(self, T, gamma, alpha, beta, J):
        """gamma != 1: the sum of C (alpha + beta j**gamma)**-T over j > J, as
        its next 200 terms at 50 digits plus an Euler-Maclaurin tail from
        a = J + 201.  The tail is given its integral in closed form,
        C beta**-T a**(1-p) / (p-1) 2F1(T, b; b + 1; -alpha / (beta a**gamma))
        with p = gamma T and b = (p-1) / gamma: mpmath's own quadrature loses
        digits where p is near 1."""
        assume(gamma * T > 1.05 and alpha + beta > 0.0 and gamma != 1.0)
        tail = AffinePowerTail(math.log(1.5), alpha, beta, T, exact=True, gamma=gamma)
        with mpmath.workdps(50):
            a, (al, be, T_, g) = J + 201, (mpmath.mpf(v) for v in (alpha, beta, T, gamma))
            f = lambda j: 1.5 * (al + be * j**g) ** -T_
            p, z = g * T_, al / be * mpmath.mpf(a) ** -g
            b = (p - 1) / g
            integral = 1.5 * be**-T_ * mpmath.mpf(a) ** (1 - p) / (p - 1) * mpmath.hyp2f1(T_, b, b + 1, -z)
            head = mpmath.fsum(f(mpmath.mpf(j)) for j in range(J + 1, a))
            true = head + mpmath.sumem(f, [a, mpmath.inf], integral=integral)
        lower, upper = tail.sides(J)
        assert lower <= true <= upper
        if J >= 1000 and alpha / (beta * (J + 1) ** gamma) < 0.1:  # the expansion holds and its parts count
            assert upper - lower <= 3e-9 * true

    @settings(max_examples=150, deadline=None)
    @given(s=st.floats(-6.0, 6.0), x=st.floats(1e-3, 600.0))
    @example(s=-6.0, x=1e-3)
    @example(s=0.0, x=12.6)
    @example(s=6.0, x=4.0)  # x <= s - 1: the Gamma(s) cap and Gamma(s) - x**s / s
    def test_gamma_sides_contain_the_incomplete_gamma(self, s, x):
        """At gamma = 1, B = x and a = 1 the integral is Gamma(s, x) / x**s."""
        tail = StretchedIntegralTail(0.0, x, 1.0)
        lower, upper = tail._integral(tail._at(1), s)
        with mpmath.workdps(50):
            true = mpmath.gammainc(s, x) / mpmath.mpf(x) ** s
        assume(mpmath.mpf("1e-300") < true < mpmath.mpf("1e300"))
        assert lower <= true <= upper

    @pytest.mark.parametrize("gamma, a", [(1.0, 10), (0.5, 100)])
    def test_stretched_sides_allow_for_large_logarithms(self, gamma, a):
        """ln C = 3e8 and x = B a**gamma = 3e8 + 3: e**(ln C - x) loses about
        3e8 * 2**-53 of its logarithm to rounding, 30 times _SLACK.  Both
        sides still hold against C Gamma(s, x) / (gamma B**s) at 50 digits."""
        log_C, B = 3e8, (3e8 + 3) / 10
        tail = StretchedIntegralTail(log_C, B, gamma, exact=True)
        lower, upper = tail._integral(tail._at(a), 1.0 / gamma)
        with mpmath.workdps(50):
            s = 1 / mpmath.mpf(gamma)
            x = mpmath.mpf(B) * mpmath.mpf(a) ** mpmath.mpf(gamma)
            true = mpmath.exp(log_C) * mpmath.gammainc(s, x) / (mpmath.mpf(gamma) * mpmath.mpf(B) ** s)
        assert 1e-300 < true < 1e300
        assert lower <= true <= upper
        assert upper - lower <= 1e-5 * true

    def test_coupled_expansion_narrows_the_bracket(self):
        """spt-exp on ExpDecay(1, 1.1141, 1/2) under NOR at d = 3: past
        J = 7167 the factor e**(b (J+1)**-1/4) alone leaves the sides 0.13 of
        the tail apart; its expansion leaves 2e-8."""
        b = 1.1141
        tail = StretchedIntegralTail(0.0, b, 0.25, exact=True, log_A=b, tau=0.25)
        f = lambda j: mpmath.exp(b * j**-0.25 - b * j**0.25)
        J = 7167
        true = float(_true_tail(f, J))
        lower, upper = tail.sides(J)
        assert lower <= true <= upper
        assert upper - lower <= 2e-8 * true


class TestEngine:
    def test_certified_value_within_remainder(self):
        plan = AffinePowerTail(0.0, 0.0, 1.0, 2.0, from_j=1, exact=True)
        ev = certified_sum(_block(lambda j: j**-2.0), 1, plan, tol=1e-10)
        assert ev.status is SumStatus.CERTIFIED
        assert abs(ev.value - math.pi**2 / 6) <= ev.remainder_bound

    def test_min_terms_extension_stays_within_remainder(self):
        plan = AffinePowerTail(0.0, 0.0, 1.0, 1.5, from_j=1, exact=True)
        terms = _block(lambda j: j**-1.5)
        base = certified_sum(terms, 1, plan, tol=1e-8)
        extended = certified_sum(terms, 1, plan, tol=1e-8, min_terms=10 * base.terms_used)
        assert abs(extended.value - base.value) <= base.remainder_bound + 1e-12 * abs(base.value)

    def test_divergence_plan_short_circuits(self):
        ev = certified_sum(_block(lambda j: 1.0), 1, Divergence("term-limit", 1, 0.5))
        assert ev.status is SumStatus.DIVERGENT
        assert math.isinf(ev.value)

    def test_finite_spectrum_is_exact(self):
        ev = certified_sum(_block(lambda j: 0.5**j), 1, FiniteEnd(3))
        assert ev.status is SumStatus.CERTIFIED
        assert ev.remainder_bound == 0.0
        assert ev.value == 0.5 + 0.25 + 0.125

    def test_heuristic_stop(self):
        ev = certified_sum(_block(lambda j: math.exp(-j)), 1, None, tol=1e-10)
        assert ev.status is SumStatus.HEURISTIC
        assert ev.converged
        assert ev.value == pytest.approx(1.0 / (math.e - 1.0), rel=1e-10)

    def test_budget_exhaustion_flagged(self):
        ev = certified_sum(_block(lambda j: 1.0 / j), 1, None, tol=1e-10, max_terms=5000)
        assert ev.status is SumStatus.HEURISTIC
        assert not ev.converged

    def test_prefactor_applied(self):
        plan = GeomSeriesTail(0.0, math.log(0.5), exact=True)
        ev = certified_sum(_block(lambda j: 0.5**j), 1, plan, prefactor=0.25)
        assert ev.value == pytest.approx(0.25, rel=1e-12)

    def test_tail_valid_only_beyond_the_budget_is_heuristic(self):
        plan = AffinePowerTail(0.0, 0.0, 1.0, 2.0, from_j=10_000, exact=True)
        ev = certified_sum(_block(lambda j: j**-2.0), 1, plan, max_terms=2048)
        assert ev.status is SumStatus.HEURISTIC
        assert ev.note == "tail bound valid only beyond term budget"
        assert ev.remainder_bound is None


def _outcome(add, xs):
    """What summing xs gives: the float.hex of its value, or OverflowError."""
    try:
        return add(xs).hex()
    except OverflowError:
        return "OverflowError"


_DBL_MAX = sys.float_info.max


def _accumulated(xs):
    """certified_sum over one chunk per x, with x its only nonzero term, so
    that the chunk sums it accumulates are the xs themselves: its value, or
    OverflowError where it stops at the double range."""
    values = np.zeros(len(xs) * CHUNK)
    values[::CHUNK] = xs
    ev = certified_sum(lambda j0, j1: values[j0 - 1 : j1 - 1], 1, FiniteEnd(len(values)))
    if ev.note == "partial sum exceeds the double range":
        raise OverflowError
    return ev.value


@st.composite
def _chunk_sum_lists(draw):
    """Non-negative finite doubles over the whole exponent range: subnormals,
    zeros, values half an ulp of another (ties, now and then broken by a
    tiny value) and values that take the sum just past the largest double."""
    value = st.one_of(
        st.floats(min_value=0.0, allow_infinity=False),
        st.floats(min_value=0.0, max_value=sys.float_info.min),
        st.sampled_from([0.0, 5e-324, 1.0, _DBL_MAX, 2.0**970, 2.0**969]),
    )
    xs = draw(st.lists(value, max_size=20))
    xs += [math.ulp(x) / 2 for x in draw(st.lists(st.sampled_from(xs), max_size=3))] if xs else []
    xs += draw(st.lists(st.sampled_from([2.0**-200, 5e-324]), max_size=1))
    return draw(st.permutations(xs))


@settings(deadline=None)
@given(_chunk_sum_lists())
@example([1.0, 2.0**-53])  # a tie, to even: 1.0
@example([1.0 + 2.0**-52, 2.0**-53])  # a tie, to even: up
@example([1.0, 2.0**-53, 2.0**-200])  # a tie broken upward
@example([_DBL_MAX, 2.0**970])  # a tie at the top rounds to 2**1024: overflow
@example([_DBL_MAX, 2.0**969, 2.0**969])  # the same tie in two halves
@example([_DBL_MAX, 2.0**969])  # below the tie: the largest double
@example([_DBL_MAX, 2.0**970 - 2.0**917])  # one ulp of 2**970 below the tie
@example([5e-324] * 3)
@example([])
def test_running_total_is_fsum(xs):
    """The running total rounds to the correctly rounded sum of the chunk
    sums, bit for bit ``math.fsum``, and overflows on the same lists."""
    assert _outcome(_accumulated, xs) == _outcome(math.fsum, xs)


def _fsum_or_inf(xs):
    """math.fsum, with a finite sum past the double range read as inf."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return math.inf


_NEAR_ONE = math.nextafter(1.0, 0.0)
# 1023 terms whose extraction rounds up to 1 and one small term of the other
# sign: with sigma only 2**9 times the largest term the extracted parts no
# longer sum exactly, and the chunk sum is one ulp off.
_TIGHT_ROW = [-3 * 2.0**-44] + [_NEAR_ONE] * (CHUNK - 1)
# 1 + 2**-53 is a tie that rounds to 1; the residual 2**-200, left over by
# both extraction levels, rounds the sum up instead.
_TIE_ROW = [1.0, 2.0**-53, 2.0**-200] + [0.0] * (CHUNK - 2)


@st.composite
def _batches(draw):
    """1 to 16 chunks plus one term: magnitudes drawn over an exponent window
    anywhere in the double range (subnormals included), some zeros, some
    negated terms, rows of nearly equal terms, and a few special values
    (2**1000 and past it, the largest double, inf, NaN)."""
    n = draw(st.integers(1, 16 * CHUNK + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1074, 1023))
    hi = draw(st.integers(lo, min(lo + draw(st.sampled_from([0, 4, 60, 2100])), 1023)))
    values = np.ldexp(rng.random(n), rng.integers(lo, hi + 1, n))
    if draw(st.booleans()):  # nearly equal terms: the extraction's tightest case
        values = np.where(rng.random(n) < 0.9, np.ldexp(_NEAR_ONE, hi), values)
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.5]))] *= -1.0
    specials = st.sampled_from(
        [-0.0, 5e-324, 2.0**1000, math.nextafter(2.0**1000, math.inf), 1.7976931348623157e308, math.inf, math.nan]
    )
    for i, x in draw(st.lists(st.tuples(st.integers(0, n - 1), specials), max_size=3)):
        values[i] = x
    return values


@st.composite
def _settle_rows(draw):
    """One row whose extraction leaves bits below its second level: a lead
    term near a power of two, terms at and near half its ulp (ties, broken
    or kept), terms that take the sum onto the power of two from below,
    subnormals, and terms of both signs over 200 binades under the lead."""
    e = draw(st.integers(-1000, 990))
    lead = math.ldexp(draw(st.sampled_from([1.0, 1.5, _NEAR_ONE, 1.0 + 2.0**-52])), e)
    half = math.ulp(lead) / 2
    special = st.sampled_from(
        [half, -half, half / 2, math.ldexp(1.0, e - 53), math.ldexp(1.0, e - 54), 5e-324, -5e-324,
         math.ldexp(1.0, e - 120), -math.ldexp(1.0, e - 120)]
    )
    mixed = st.builds(
        lambda m, k, sign: sign * math.ldexp(m, e - k),
        st.floats(0.5, 1.0, exclude_max=True), st.integers(0, 200), st.sampled_from([1.0, -1.0]),
    )
    rest = draw(st.lists(st.one_of(special, mixed), max_size=40))
    return draw(st.permutations([lead] + rest))


class TestChunkSums:
    @settings(max_examples=300, deadline=None)
    @given(_batches())
    @example(np.array(_TIGHT_ROW * 2))
    @example(np.array(_TIE_ROW))
    @example(np.full(3 * CHUNK, 1e308))  # every row sum overflows
    @example(np.full(2 * CHUNK + 1, 2.0**1000))  # at the extraction limit
    @example(np.array([-0.0] * CHUNK + [5e-324] * CHUNK))
    def test_each_row_is_its_fsum(self, values):
        sums, maxima = _chunk_sums(values)
        chunks = [values[a : a + CHUNK] for a in range(0, len(values), CHUNK)]
        assert [x.hex() for x in sums] == [_fsum_or_inf(c.tolist()).hex() for c in chunks]
        assert [x.hex() for x in maxima] == [float(np.abs(c).max()).hex() for c in chunks]

    @settings(max_examples=500, deadline=None)
    @given(_settle_rows())
    @example([1.0, 2.0**-53, 2.0**-200])  # a tie broken upward by a residual
    @example([1.0, 2.0**-53, -(2.0**-200)])  # broken downward
    @example([_NEAR_ONE, 2.0**-53, 2.0**-120])  # onto 2**0 from below, then past it
    @example([_NEAR_ONE, 2.0**-53, -(2.0**-120)])  # onto 2**0, then back under it
    @example([2.0**-1022, 5e-324, -5e-324, 5e-324])  # subnormal residuals
    # The TwoSum error is just under half an ulp of 1.5, and five residuals
    # of 2**-84, below the second level, take the sum past it: up, and down.
    @example([1.5, 2.0**-53 - 2.0**-82] + [2.0**-84] * 5)
    @example([1.5, 2.0**-82 - 2.0**-53] + [-(2.0**-84)] * 5)
    def test_rows_with_bits_left_round_as_fsum(self, row):
        """Where the extraction leaves bits, the row sum is tau1 + tau2
        unless those bits could move its rounding, and fsum otherwise: bit
        for bit fsum either way."""
        assert _chunk_sums(np.array(row))[0][0].hex() == math.fsum(row).hex()


def _recording(fn, calls):
    """A block terms function for fn that records every range it is asked for."""
    inner = _block(fn)

    def terms(j0, j1):
        calls.append((j0, j1))
        return inner(j0, j1)

    return terms


def _vector(fn):
    def terms(j0, j1):
        return fn(np.arange(j0, j1, dtype=float))

    return terms


def _one_chunk_only(terms):
    """terms, refusing every call for more than one chunk: the engine then
    sums exactly as it does without look-ahead."""

    def once(j0, j1):
        if j1 - j0 > CHUNK:
            raise EvalDomainError("batch refused", d=1, j=j0)
        return terms(j0, j1)

    return once


_SLOW_EXP = _vector(lambda j: np.exp(-j / 5000.0))  # heuristic stop near j = 1.2e5
_POWER = (_vector(lambda j: j**-1.5), AffinePowerTail(0.0, 0.0, 1.0, 1.5, from_j=1, exact=True))


@st.composite
def _stop_cases(draw):
    """A certified sum that stops inside its first 64 chunks, or at a budget
    there: convex power terms or coupled stretched terms with an exact plan,
    from a drawn start, at a drawn minimum and at a tolerance that the rule
    first meets at a drawn index, mostly inside a batch of several chunks."""
    start = draw(st.integers(1, 50))
    if draw(st.booleans()):
        T = draw(st.floats(1.2, 3.0))
        plan = AffinePowerTail(0.0, 0.0, 1.0, T, from_j=start, exact=True)
        fn = lambda j: j**-T
    else:
        B, gamma = draw(st.floats(0.01, 0.2)), draw(st.floats(0.25, 1.0))
        log_A, tau = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 0.5))
        plan = StretchedIntegralTail(0.0, B, gamma, from_j=start, exact=True, log_A=log_A, tau=tau)
        fn = lambda j: np.exp(log_A * j**-tau - B * j**gamma)
    J = start + draw(st.integers(0, 63 * CHUNK))
    lo, up = plan.sides(J)
    mid = math.fsum(fn(np.arange(start, J + 1, dtype=float)).tolist()) + 0.5 * (up + lo)
    kwargs = {
        "tol": max((up - lo) / mid, 1e-300) * draw(st.floats(0.9, 1.1)),
        "min_terms": draw(st.sampled_from([0, CHUNK * draw(st.integers(0, 40))])),
        "max_terms": draw(st.sampled_from([64 * CHUNK, draw(st.integers(CHUNK, 64 * CHUNK))])),
    }
    return _vector(fn), start, plan, kwargs


def _first_stop(terms, start, plan, tol, min_terms, max_terms) -> int:
    """The count at the first chunk boundary where the certified stop rule
    holds, or the budget, with the rule read at every boundary."""
    max_terms = max(max_terms, min_terms)
    values = terms(start, start + max_terms)
    sums = [math.fsum(values[a : a + CHUNK].tolist()) for a in range(0, max_terms, CHUNK)]
    for k in range(1, len(sums) + 1):
        count = min(k * CHUNK, max_terms)
        J, partial = start + count - 1, math.fsum(sums[:k])
        if J >= plan.from_j and count >= min_terms:
            lo, up = plan.sides(J)
            if up - lo <= tol * max(abs(partial + 0.5 * (up + lo)), 1e-300):
                return count
    return max_terms


class TestBatchedFetch:
    @settings(max_examples=100, deadline=None)
    @given(_stop_cases())
    def test_stop_is_the_first_boundary_where_the_rule_holds(self, case):
        """The tail rule is read once per fetched batch, at its last chunk;
        the stop is still the first chunk boundary at which it holds."""
        terms, start, plan, kwargs = case
        ev = certified_sum(terms, start, plan, **kwargs)
        assert ev.terms_used == _first_stop(terms, start, plan, **kwargs)
        assert ev.status is SumStatus.CERTIFIED

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_terms": 50_000 + 17},
            {"end": 30_000 + 5},
            {"end": 300_000, "max_terms": 70_001},
            {"start": 7, "max_terms": 1_000_000},
        ],
        ids=["budget", "hard-end", "both", "heuristic"],
    )
    def test_no_range_passes_the_end_or_the_budget(self, kwargs):
        calls = []
        kwargs = dict(kwargs)
        start = kwargs.pop("start", 1)
        end = kwargs.pop("end", None)
        terms = _recording(lambda j: math.exp(-j / 5000.0), calls)
        ev = certified_sum(terms, start, None if end is None else FiniteEnd(end), **kwargs)
        last = start + kwargs["max_terms"] - 1 if "max_terms" in kwargs else math.inf
        assert all(j1 - 1 <= (math.inf if end is None else end) and j1 - 1 <= last for _, j1 in calls)
        assert [j0 for j0, _ in calls] == [start] + [j1 for _, j1 in calls[:-1]]  # contiguous
        assert CHUNK < max(j1 - j0 for j0, j1 in calls) <= 16 * CHUNK
        assert calls[-1][1] - 1 - (start + ev.terms_used - 1) <= ev.terms_used // 4

    @pytest.mark.parametrize(
        "terms, plan, kwargs",
        [
            (_SLOW_EXP, None, {}),
            (*_POWER, {"tol": 1e-7}),
            (*_POWER, {"tol": 1e-7, "min_terms": 123_457}),
            (_SLOW_EXP, None, {"max_terms": 40_000}),
            (_SLOW_EXP, FiniteEnd(60_000), {}),
        ],
        ids=["heuristic", "certified", "min-terms", "budget", "finite"],
    )
    def test_batches_sum_as_single_chunks(self, terms, plan, kwargs):
        assert certified_sum(terms, 1, plan, **kwargs) == certified_sum(_one_chunk_only(terms), 1, plan, **kwargs)

    def test_error_past_the_stop_is_not_raised(self):
        reference = certified_sum(_SLOW_EXP, 1, None)
        raised = []

        def terms(j0, j1):
            if j1 - 1 > reference.terms_used:
                raised.append((j0, j1))
                raise EvalDomainError("past the stop", d=1, j=max(j0, reference.terms_used + 1))
            return _SLOW_EXP(j0, j1)

        assert certified_sum(terms, 1, None) == reference
        assert raised  # the look-ahead did reach past the stop

    def test_error_inside_the_sum_names_the_same_index(self):
        bad = 40_000 + 3  # fetched inside a batch, well before the stop

        def terms(j0, j1):
            hits = [j for j in range(j0, j1) if j == bad or j > 50_000]
            if hits:
                raise EvalDomainError("bad term", d=1, j=hits[0])
            return _SLOW_EXP(j0, j1)

        with pytest.raises(EvalDomainError) as err:
            certified_sum(terms, 1, None)
        assert err.value.j == bad


def test_combine_is_linear(monkeypatch):
    """math.fsum is never called on these terms: the extraction sums every
    chunk, and the running total is one exact int that each chunk sum is
    added to and that is divided once per chunk, so the combine costs the
    same per chunk however many came before (re-summing every chunk sum
    after each chunk would be quadratic)."""
    sizes = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: sizes.append(len(xs)) or fsum(xs))
    terms, plan = _POWER
    ev = certified_sum(terms, 1, plan, tol=1e-7, min_terms=200 * CHUNK)
    assert ev.terms_used // CHUNK >= 200
    assert sizes == []


def test_batches_are_summed_by_extraction(monkeypatch):
    """No chunk of these terms reaches math.fsum: every one, the one-chunk
    batches at the start too, is summed by the extraction in _chunk_sums."""
    sizes = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: sizes.append(len(xs)) or fsum(xs))
    terms, plan = _POWER
    ev = certified_sum(terms, 1, plan, tol=1e-7, min_terms=200 * CHUNK)
    assert ev.terms_used >= 200 * CHUNK
    assert CHUNK not in sizes


def test_non_finite_terms_keep_an_infinite_value():
    """PolyDecay(1e308, 2) squared overflows: the first chunk sum is inf, and
    the terms being non-negative, the sum stops there with value inf."""
    model = EigenModel(PolyDecay(1e308, 2.0))
    ev = evaluate_sum(model, "spt-alg", 1, CriterionParams(tau=2.0), ErrorCriterion.ABS)
    assert ev.value == math.inf
    assert ev.terms_used == CHUNK
    assert ev.status is SumStatus.HEURISTIC
    assert ev.note == "partial sum exceeds the double range"
    assert not ev.converged


def test_finite_terms_past_the_double_range_stop_at_inf():
    """Finite terms whose exact sum overflows (1.69e308 + 1.06e307 + ...) end
    the same way, not in the OverflowError of fsum; the outer power of
    qpt-alg keeps the note."""
    model = EigenModel(PolyDecay(1.3e154, 2.0))
    for kind, params in (("spt-alg", CriterionParams(tau=2.0)), ("qpt-alg", CriterionParams(tau2=2.0))):
        ev = evaluate_sum(model, kind, 1, params, ErrorCriterion.ABS)
        assert (ev.value, ev.terms_used, ev.remainder_bound) == (math.inf, CHUNK, None), kind
        assert ev.note == "partial sum exceeds the double range", kind
        assert not ev.converged


def test_import_pulls_in_numpy_only():
    """A fresh interpreter importing tract, every name it exports and the
    CLI loads no third-party module but NumPy: the package runs on the
    standard library and NumPy.  ``import tract`` alone loads no submodule,
    so the exports are resolved first."""
    code = (
        "import sys; before = set(sys.modules); import tract, tract.cli; "
        "[getattr(tract, name) for name in tract.__all__]; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names))))"
    )
    src = os.path.dirname(os.path.dirname(tract.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["numpy", "tract"]
