import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import tract
from tract.summation import (
    _SLACK,
    AffinePowerTail,
    Divergence,
    GeomSeriesTail,
    PolyLogTail,
    RatioTail,
    StretchedIntegralTail,
    SumStatus,
    certified_sum,
)


def _block(fn):
    def terms(j0, j1):
        return np.asarray([fn(j) for j in range(j0, j1)], dtype=float)

    return terms


class TestTailBounds:
    def test_power_integral_brackets_true_tail(self):
        import mpmath

        p = 1.7
        tail = AffinePowerTail(1.0, 0.0, 1.0, p, from_j=1, exact=True)
        for J in (10, 100, 1000):
            true = float(mpmath.zeta(p) - mpmath.fsum(mpmath.mpf(j) ** -p for j in range(1, J + 1)))
            assert tail.lower_tail(J) <= true <= tail.upper_tail(J)

    def test_affine_power_brackets_true_tail(self):
        tail = AffinePowerTail(1.0, 1.0, 2.0, 3.0, from_j=1, exact=True)
        for J in (10, 200):
            true = sum((1.0 + 2.0 * j) ** -3.0 for j in range(J + 1, 200_000))
            assert tail.lower_tail(J) <= true <= tail.upper_tail(J)

    def test_stretched_brackets_true_tail(self):
        tail = StretchedIntegralTail(2.0, 0.5, 0.5, from_j=1, exact=True)
        for J in (10, 100):
            true = sum(2.0 * math.exp(-0.5 * j**0.5) for j in range(J + 1, 100_000))
            assert tail.lower_tail(J) <= true <= tail.upper_tail(J)

    @staticmethod
    def _stretched_integral(coeff, B, gamma, a):
        """C Gamma(s, B a**gamma) / (gamma B**s) at 40 digits."""
        s = 1 / mpmath.mpf(gamma)
        x = mpmath.mpf(B) * mpmath.mpf(a) ** mpmath.mpf(gamma)
        return mpmath.mpf(coeff) * mpmath.gammainc(s, x) / (mpmath.mpf(gamma) * mpmath.mpf(B) ** s)

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.7, 10.0, 25.0, 50.0, 100.0])
    def test_stretched_bracket_holds_against_mpmath(self, s):
        """lower_tail(a - 1) <= integral from a <= upper_tail(a), _SLACK undone,
        from x near 0 through x = s - 1 to the deep tail, wherever the integral
        is a normal double."""
        gamma = 1.0 / s
        base = max(s - 1.0, 0.0)
        below = [base * f for f in (1e-3, 0.5, 1 - 1e-9, 1.0)] if s > 1 else []
        xs = below + [base + dx for dx in (1e-9, 1e-6, 1e-2, 0.5, 1.0, 10.0, 100.0)] + [300.0, 650.0]
        checked = 0
        with mpmath.workdps(40):
            for a in (2, 1000):
                for x in xs:
                    B = x / a**gamma
                    tail = StretchedIntegralTail(1.0, B, gamma, exact=True)
                    exact = self._stretched_integral(1.0, B, gamma, a)
                    if not mpmath.mpf("1e-300") < exact < mpmath.mpf("1e300"):
                        continue
                    checked += 1
                    upper = tail.upper_tail(a) / _SLACK
                    lower = tail.lower_tail(a - 1) * _SLACK
                    assert math.isfinite(upper), (a, x)
                    assert upper >= exact * (1 - 1e-13), (a, x)
                    assert lower <= exact * (1 + 1e-13), (a, x)
        assert checked >= 10

    def test_stretched_bound_below_s_minus_1_is_gamma_s(self):
        """Where x <= s - 1 the upper side is C Gamma(s) / (gamma B**s): finite,
        above the integral, and the same bound at every such a."""
        tail = StretchedIntegralTail(1.0, 1.0, 0.1, exact=True)  # s = 10: x = a**0.1 <= 9 up to a = 9**10
        with mpmath.workdps(40):
            for a in (1, 1000, 10**9):
                assert tail.upper_tail(a) == pytest.approx(math.gamma(10.0) / 0.1 * _SLACK, rel=1e-13)
                exact = self._stretched_integral(1.0, 1.0, 0.1, a)
                assert tail.lower_tail(a - 1) <= exact <= tail.upper_tail(a)
        # An integral past the double range (about 1e310) is no bound.
        assert math.isinf(StretchedIntegralTail(1.0, 1e-310, 1.0).upper_tail(1))

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
        tail = StretchedIntegralTail(coeff, B, gamma, exact=True)
        with mpmath.workdps(40):
            exact = self._stretched_integral(coeff, B, gamma, a)
        assert tail.lower_tail(a - 1) <= exact <= tail.upper_tail(a) <= exact * (1 + 1e-3)
        assert StretchedIntegralTail(0.0, B, gamma).upper_tail(a) == 0.0

    def test_geometric_series_closed_form(self):
        tail = GeomSeriesTail(3.0, 0.25, exact=True)
        true = 3.0 * 0.25**11 / 0.75
        assert tail.lower_tail(10) <= true <= tail.upper_tail(10)

    def test_polylog_bound_is_sound(self):
        c, K, beta, s = 1.0, 1.0, 2.0, 2.0
        tail = PolyLogTail(c, K, beta, s, from_j=3)
        g = lambda j: math.exp(-c * (K + beta * math.log(j)) ** s)
        for J in (5, 20):
            true = sum(g(j) for j in range(J + 1, 50_000))
            assert true <= tail.upper_tail(J)

    def test_ratio_tail_double_exponential(self):
        g = lambda x: math.exp(-math.exp(0.5 * x))
        tail = RatioTail(g, from_j=1)
        for J in (2, 6):
            true = sum(g(j) for j in range(J + 1, 200))
            assert true <= tail.upper_tail(J)


class TestEngine:
    def test_certified_value_within_remainder(self):
        plan = AffinePowerTail(1.0, 0.0, 1.0, 2.0, from_j=1, exact=True)
        ev = certified_sum(_block(lambda j: j**-2.0), 1, plan, tol=1e-10)
        assert ev.status is SumStatus.CERTIFIED
        assert abs(ev.value - math.pi**2 / 6) <= ev.remainder_bound

    def test_min_terms_extension_stays_within_remainder(self):
        plan = AffinePowerTail(1.0, 0.0, 1.0, 1.5, from_j=1, exact=True)
        terms = _block(lambda j: j**-1.5)
        base = certified_sum(terms, 1, plan, tol=1e-8)
        extended = certified_sum(terms, 1, plan, tol=1e-8, min_terms=10 * base.terms_used)
        assert abs(extended.value - base.value) <= base.remainder_bound + 1e-12 * abs(base.value)

    def test_divergence_plan_short_circuits(self):
        ev = certified_sum(_block(lambda j: 1.0), 1, Divergence("term-limit", 1, 0.5))
        assert ev.status is SumStatus.DIVERGENT
        assert math.isinf(ev.value)

    def test_finite_spectrum_is_exact(self):
        ev = certified_sum(_block(lambda j: 0.5**j), 1, None, hard_end=3)
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
        plan = GeomSeriesTail(1.0, 0.5, exact=True)
        ev = certified_sum(_block(lambda j: 0.5**j), 1, plan, prefactor=0.25)
        assert ev.value == pytest.approx(0.25, rel=1e-12)


def test_import_pulls_in_numpy_only():
    """A fresh interpreter importing tract loads no third-party module but
    NumPy: the package runs on the standard library and NumPy."""
    code = (
        "import sys; before = set(sys.modules); import tract; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names))))"
    )
    src = os.path.dirname(os.path.dirname(tract.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["numpy", "tract"]
