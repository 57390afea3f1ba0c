import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import tract
from tract import CriterionParams, EigenModel, ErrorCriterion, PolyDecay, evaluate_sum
from tract.errors import EvalDomainError
from tract.summation import (
    _SLACK,
    CHUNK,
    AffinePowerTail,
    Divergence,
    GeomSeriesTail,
    PolyLogTail,
    RatioTail,
    StretchedIntegralTail,
    SumStatus,
    _grow,
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

    def test_tail_valid_only_beyond_the_budget_is_heuristic(self):
        plan = AffinePowerTail(1.0, 0.0, 1.0, 2.0, from_j=10_000, exact=True)
        ev = certified_sum(_block(lambda j: j**-2.0), 1, plan, max_terms=2048)
        assert ev.status is SumStatus.HEURISTIC
        assert ev.note == "tail bound valid only beyond term budget"
        assert ev.remainder_bound is None


def _outcome(add, xs):
    """What summing xs gives: ('value', repr) or the exception's name."""
    try:
        return "value", repr(add(xs))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, None


def _fsum_by_grow(xs):
    partials = []
    for x in xs:
        _grow(partials, x)
    return math.fsum(partials)


@st.composite
def _summands(draw):
    """Floats over the whole exponent range, zeros of both signs, some of
    them negated back (cancellation), now and then a non-finite one."""
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1e-300, max_value=1e-300),
        st.sampled_from([0.0, -0.0, 1.0, 2.0**-53, 1e308]),
    )
    xs = draw(st.lists(value, max_size=30))
    xs += [-x for x in draw(st.lists(st.sampled_from(xs), max_size=len(xs)))] if xs else []
    xs += draw(st.lists(st.floats(), max_size=1))
    return draw(st.permutations(xs))


class TestGrow:
    @given(_summands())
    def test_grow_then_fsum_is_fsum(self, xs):
        assert _outcome(_fsum_by_grow, xs) == _outcome(math.fsum, xs)

    @pytest.mark.parametrize(
        "xs",
        [
            [1.0, math.inf, 2.0],
            [1e308, math.inf, 1e308],  # fsum drops its partials at a non-finite summand
            [-math.inf, 1.0, -math.inf],
            [math.inf, 1.0, -math.inf],  # ValueError on both sides
            [1.0, math.nan, math.inf],
            [1e308, 1e308],  # intermediate overflow: OverflowError on both sides
            [1e308, 1e308, -1e308],
            [1.7976931348623157e308, 1e292],
            [1e100, 1.0, -1e100, 1e-100],
        ],
    )
    def test_non_finite_and_overflow_match_fsum(self, xs):
        assert _outcome(_fsum_by_grow, xs) == _outcome(math.fsum, xs)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            _fsum_by_grow([1e308, 1e308])
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308])


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
_POWER = (_vector(lambda j: j**-1.5), AffinePowerTail(1.0, 0.0, 1.0, 1.5, from_j=1, exact=True))


class TestBatchedFetch:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_terms": 50_000 + 17},
            {"hard_end": 30_000 + 5},
            {"hard_end": 300_000, "max_terms": 70_001},
            {"start": 7, "max_terms": 1_000_000},
        ],
        ids=["budget", "hard-end", "both", "heuristic"],
    )
    def test_no_range_passes_the_end_or_the_budget(self, kwargs):
        calls = []
        kwargs = dict(kwargs)
        start = kwargs.pop("start", 1)
        terms = _recording(lambda j: math.exp(-j / 5000.0), calls)
        ev = certified_sum(terms, start, None, **kwargs)
        last = start + kwargs["max_terms"] - 1 if "max_terms" in kwargs else math.inf
        assert all(j1 - 1 <= kwargs.get("hard_end", math.inf) and j1 - 1 <= last for _, j1 in calls)
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
            (_SLOW_EXP, None, {"hard_end": 60_000}),
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
    """Past the chunks themselves, math.fsum only ever sees the few exact
    partials: re-summing every chunk sum after each chunk would be quadratic."""
    sizes = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: sizes.append(len(xs)) or fsum(xs))
    terms, plan = _POWER
    ev = certified_sum(terms, 1, plan, tol=1e-7, min_terms=200 * CHUNK)
    chunks = ev.terms_used // CHUNK
    assert chunks >= 200
    assert sum(n for n in sizes if n != CHUNK) <= 4 * chunks


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
