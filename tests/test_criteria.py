import dataclasses
import math
import os
import re
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

from tract import (
    CriterionParams,
    EigenModel,
    ErrorCriterion,
    ExpDecay,
    Expression,
    FiniteRank,
    Geometric,
    GeometricTail,
    PolyDecay,
    PowerLawTail,
    Tabulated,
    TailEnvelope,
    sum_pt_alg,
    sum_pt_exp,
    sum_qpt_alg,
    sum_qpt_exp,
    sum_spt_alg,
    sum_spt_exp,
    sum_wt_alg,
    sum_wt_exp,
    sup_over_d,
    uwt_statistic,
)
from tract import criteria, exprdsl
from tract.criteria import (
    SUM_KINDS,
    SumSpec,
    _classify_trend,
    ceil_stable,
    convergence_plan,
    evaluate_sum,
)
from tract.eigenmodel import log_ratio
from tract.errors import BeyondRankError
from tract.summation import CHUNK, Divergence, SumStatus

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR


def brute(term, lo, hi):
    return math.fsum(term(j) for j in range(lo, hi))


class TestSptAlg:
    def test_geometric_unit_sum(self, geo):
        ev = sum_spt_alg(geo, 1, 1.0, 1, ABS)
        assert ev.certified
        assert ev.value == pytest.approx(1.0, abs=1e-12)
        assert ev.remainder_bound <= 1e-12

    def test_zeta_two(self, poly2):
        ev = sum_spt_alg(poly2, 1, 1.0, 1, ABS)
        assert ev.certified
        assert ev.value == pytest.approx(math.pi**2 / 6, abs=1e-9)
        assert abs(ev.value - math.pi**2 / 6) <= ev.remainder_bound

    def test_nor_leading_term_is_exactly_one(self, geo, poly2, exp1):
        for model in (geo, poly2, exp1):
            one = evaluate_sum(model, "spt-alg", 1, CriterionParams(tau=3.0), NOR)
            # The j=1 term is exactly 1, so the sum is at least 1.
            assert one.value >= 1.0

    def test_divergence_certified_at_low_power(self, poly2):
        ev = sum_spt_alg(poly2, 1, 0.5, 1, ABS)  # sum j^-1
        assert ev.divergent

    def test_start_index_shortens_sum(self, geo):
        full = sum_spt_alg(geo, 1, 1.0, 1, ABS).value
        tail = sum_spt_alg(geo, 1, 1.0, 4, ABS).value
        assert tail == pytest.approx(full - 0.5 - 0.25 - 0.125, rel=1e-10)

    def test_nor_lead_below_the_clamp(self):
        """lambda(d, 1) = 1e-305 * 0.999 lies below 1e-300: the terms are
        0.999**(j-1), summing to 1000, and their envelope is normalised by
        the same ln lambda(d, 1), so the certificate brackets 1000."""
        ev = evaluate_sum(EigenModel(Geometric(1e-305, 0.999)), "spt-alg", 1, CriterionParams(tau=1.0), NOR)
        assert ev.status is SumStatus.CERTIFIED
        assert abs(ev.value - 1000.0) <= ev.remainder_bound

    def test_exact_lower_side_past_the_double_range_stops_at_once(self):
        """The sum is about Gamma(10**6 + 1), past the double range: the lower
        side Gamma(s) - x**s / s of the exact tail says so after one chunk."""
        model = EigenModel(ExpDecay(1.0, 1.0, 1e-6))
        ev = evaluate_sum(model, "spt-alg", 1, CriterionParams(tau=1.0), ABS)
        assert (ev.value, ev.terms_used, ev.status, ev.converged) == (math.inf, CHUNK, SumStatus.HEURISTIC, False)
        assert ev.note == "partial sum exceeds the double range"

    def test_nor_envelope_factor_past_the_double_range(self):
        """1/lambda(d, 1) = e**1e300 is no double; the envelope keeps its
        logarithm, and every term past the first is 0."""
        ev = evaluate_sum(EigenModel(ExpDecay(1e300, 1e300, 1.0)), "spt-alg", 1, CriterionParams(tau=1.0), NOR)
        assert (ev.status, ev.value) == (SumStatus.CERTIFIED, 1.0)

    def test_tabulated_continuation_reads_its_log_factor(self):
        """Past the prefix the values are e**-5 j**-2, as the envelope says,
        so the sum is 1 + e**-5 (zeta(2) - 1)."""
        tail = TailEnvelope(PowerLawTail(1.0, 2.0), valid_from=2, log_factor=-5.0)
        ev = evaluate_sum(EigenModel(Tabulated((1.0,), tail)), "spt-alg", 1, CriterionParams(tau=1.0), ABS, tol=1e-6)
        exact = 1 + mpmath.exp(-5) * (mpmath.zeta(2) - 1)
        assert ev.status is SumStatus.CERTIFIED
        assert abs(ev.value - exact) <= ev.remainder_bound

    def test_one_nonpositive_branch_keeps_the_other_logarithms(self):
        """100-j <= 0 from j = 100 on, and max(1, 100-j) still reads 1 there;
        the terms e**(-0.8 j) max(1, 100-j)**0.001 are far inside the double range."""
        ev = sum_spt_alg(EigenModel(Expression("exp(0-800*j) * max(1, 100-j)")), 1, 0.001, 1, ABS)
        with mpmath.workdps(30):
            exact = mpmath.fsum(
                mpmath.exp(-mpmath.mpf("0.8") * j) * mpmath.mpf(max(1, 100 - j)) ** mpmath.mpf("0.001")
                for j in range(1, 400)
            )
        assert ev.value == pytest.approx(float(exact), rel=1e-9)


class TestSptExp:
    def test_stretched_value(self, exp1):
        ev = sum_spt_exp(exp1, 1, 0.5, 1, ABS)
        ref = brute(lambda j: math.exp(-math.sqrt(j)), 1, 400_000)
        assert ev.certified
        assert ev.value == pytest.approx(ref, rel=1e-9)

    def test_constant_terms_diverge(self, exp1):
        ev = sum_spt_exp(exp1, 1, 1.0, 1, ABS)  # terms exp(-1) forever
        assert ev.divergent

    def test_poly_terms_drift_to_one(self, poly2):
        ev = sum_spt_exp(poly2, 1, 0.5, 1, ABS)
        assert ev.divergent
        assert "term-limit" in ev.note

    @pytest.mark.parametrize("criterion, value", [(ABS, math.exp(-1.0)), (NOR, 1.0)])
    @pytest.mark.parametrize("kind, params", [("spt-exp", dict(tau=1100.0)), ("pt-exp", dict(tau2=1100.0))])
    def test_term_is_zero_where_the_log_ratio_is_minus_inf(self, kind, params, criterion, value):
        """ExpDecay(1, 1, 2000): past j = 1, ln rho = -j**2000 is -inf and
        j**-1100 underflows to 0.  The term is rho**(j**-tau) = 0, not the NaN
        of 0 * -inf, so only rho_1 = 1/e (1 under NOR) counts."""
        model = EigenModel(ExpDecay(1.0, 1.0, 2000.0))
        ev = evaluate_sum(model, kind, 1, CriterionParams(**params), criterion)
        assert (ev.value, ev.status, ev.terms_used) == (value, SumStatus.CERTIFIED, CHUNK)
        extended = evaluate_sum(model, kind, 1, CriterionParams(**params), criterion, min_terms=10 * CHUNK)
        assert extended.value == value


class TestPt:
    def test_geometric_tail_closed_form(self, geo):
        ev = sum_pt_alg(geo, 4, 0.0, 1.0, 1.0, 1.0, ABS)  # start ceil(4) = 4
        assert ev.value == pytest.approx(0.125, rel=1e-10)

    def test_collapses_to_spt(self, poly2):
        a = sum_pt_alg(poly2, 1, 0.0, 1.0, 0.0, 1.0, ABS)
        b = sum_spt_alg(poly2, 1, 1.0, 1, ABS)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_prefactor_and_multiplicity(self):
        model = EigenModel(Expression("min(1, 2^(d-j))"))
        ev = sum_pt_alg(model, 8, 1.0, 1.0, 0.0, 1.0, ABS, max_terms=32_768)
        assert ev.value == pytest.approx((8 + 1) / 8, rel=1e-6)

    def test_pt_exp_with_shifted_start(self, exp1):
        # (1/3) * sum_{j>=6} exp(-sqrt(j))
        ev = sum_pt_exp(exp1, 3, 1.0, 0.5, 1.0, 2.0, ABS)
        ref = brute(lambda j: math.exp(-math.sqrt(j)), 6, 400_000) / 3.0
        assert ev.certified
        assert ev.value == pytest.approx(ref, rel=1e-9)

    def test_pt_exp_collapse(self, exp1):
        a = sum_pt_exp(exp1, 2, 0.0, 0.5, 0.0, 1.0, ABS)
        b = sum_spt_exp(exp1, 2, 0.5, 1, ABS)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_pt_exp_geometric_terms_drift_to_one(self, geo):
        # terms 2^(-j * j^-2) -> 1
        ev = sum_pt_exp(geo, 1, 0.0, 2.0, 0.0, 1.0, ABS)
        assert ev.divergent
        assert "term-limit" in ev.note

    def test_nor_ignores_start_exponent(self, geo):
        a = sum_pt_alg(geo, 5, 0.0, 1.0, 3.0, 2.0, NOR)
        b = sum_spt_alg(geo, 5, 1.0, 1, NOR)
        assert a.value == pytest.approx(b.value, rel=1e-12)


class TestQpt:
    def test_alg_geometric_d1(self, geo):
        ev = sum_qpt_alg(geo, 1, 0.0, 1.0, 1.0, ABS)
        assert ev.value == pytest.approx(1.0, abs=1e-10)

    def test_alg_poly_at_d3(self, poly2):
        p = 2.0 * (1.0 + math.log(3.0))
        ref = brute(lambda j: j**-p, 1, 300_000) / 9.0
        ev = sum_qpt_alg(poly2, 3, 0.0, 1.0, 1.0, ABS)
        assert ev.certified
        assert ev.value == pytest.approx(ref, rel=1e-10)

    def test_alg_budget_stop_is_not_converged(self):
        # At d = 1 with tau2 = 1 the outer power is the identity, so qpt-alg
        # must report exactly what pt-alg reports, budget stop included.
        model = EigenModel(Expression("j^(0-1.2)"))
        params = CriterionParams(tau2=1.0)
        pt = evaluate_sum(model, "pt-alg", 1, params, ABS, max_terms=4096)
        qpt = evaluate_sum(model, "qpt-alg", 1, params, ABS, max_terms=4096)
        assert not pt.converged
        assert qpt.as_dict() == pt.as_dict()

    def test_alg_outer_power_past_the_double_range(self):
        """The inner sum of 2**(-tau2 j) is finite, about 1/(tau2 ln 2): its
        1/tau2 power is past the double range at tau2 = 0.005, and at tau2 =
        0.01 it is 5.8e215, certified through the power."""
        model = EigenModel(Geometric(1.0, 0.5))
        ev = evaluate_sum(model, "qpt-alg", 1, CriterionParams(tau2=0.005, c_tilde=1.0), ABS)
        assert (ev.value, ev.status, ev.remainder_bound) == (math.inf, SumStatus.HEURISTIC, None)
        assert ev.note == "finite inner sum, outer power exceeds the double range"
        ev = evaluate_sum(model, "qpt-alg", 1, CriterionParams(tau2=0.01, c_tilde=1.0), ABS)
        with mpmath.workdps(30):
            q = mpmath.mpf(2) ** -mpmath.mpf(0.01)
            ref = float((q / (1 - q)) ** 100)
        assert ev.certified and math.isclose(ev.value, 5.8459e215, rel_tol=1e-4)
        assert abs(ev.value - ref) <= ev.remainder_bound

    def test_alg_outer_power_keeps_a_rounding_remainder(self):
        """A Tabulated prefix of 1.5/j**2 with its power-law tail: the inner
        sum's remainder, 1.1e-16, is below half an ulp of it, so both sides
        of the outer power round to one double.  The remainder stays
        positive, and a 10x longer sum lies within it."""
        prefix = tuple(1.5 / (j * j) for j in range(1, 201))
        model = EigenModel(Tabulated(prefix, TailEnvelope(PowerLawTail(1.5, 2.0), valid_from=201)))
        params = CriterionParams(tau1=0.0, tau2=1.0, c_tilde=1.0)
        ev = evaluate_sum(model, "qpt-alg", 2, params, ABS)
        assert ev.certified and ev.remainder_bound >= math.ulp(ev.value)
        extended = evaluate_sum(model, "qpt-alg", 2, params, ABS, min_terms=10 * ev.terms_used)
        assert abs(extended.value - ev.value) <= ev.remainder_bound

    def test_exp_zeta3_minus_one(self, exp2):
        ev = sum_qpt_exp(exp2, 1, 3.0, ABS)
        ref = brute(lambda j: (1.0 + j) ** -3.0, 1, 2_000_000)
        assert ev.certified
        assert ev.value == pytest.approx(ref, rel=1e-9)

    def test_exp_nor_harmonic_divergence(self, geo):
        ev = sum_qpt_exp(geo, 1, 1.0, NOR)
        assert ev.divergent
        assert "harmonic" in ev.note

    def test_exp_expression_sums_its_logarithms(self):
        """exp(-1.05 j/d) is below 1e-300 from j = 658 on.  Its terms come
        from ln lambda = -1.05 j, not from the clamp, so the sum converges
        near the certified value of the same spectrum as ExpDecay(1, 1.05, 1)
        instead of running the whole term budget."""
        params = CriterionParams(tau=2.0)
        ev = evaluate_sum(EigenModel(Expression("exp(0-1.05*j/d)")), "qpt-exp", 1, params, NOR)
        twin = evaluate_sum(EigenModel(ExpDecay(1.0, 1.05, 1.0)), "qpt-exp", 1, params, NOR)
        assert twin.certified and twin.value == pytest.approx(2.488150, abs=1e-6)
        assert ev.converged and ev.terms_used < 200_000
        assert ev.value == pytest.approx(twin.value, abs=1e-4)

    def test_clamp_contributes_unit_terms(self):
        model = EigenModel(Expression("min(1, 2^(5-j))"))  # five ratios >= 1 at d>=5
        ev = sum_qpt_exp(model, 1, 2.0, ABS, max_terms=32_768)
        # the first five terms are exactly 1 each
        assert ev.value * 1.0 >= 5.0 - 1e-9


class TestWtAlg:
    def test_poly_closed_form(self, poly2):
        ev = sum_wt_alg(poly2, 1, 1.0, 1.0, 1.0, ABS)
        ref = math.exp(-1.0) / (math.e - 1.0)
        assert ev.certified
        assert ev.value == pytest.approx(ref, rel=1e-12)

    def test_nor_first_term_exact(self, geo, poly2):
        for model in (geo, poly2):
            c = 0.8125
            ev = sum_wt_alg(model, 1, c, 1.0, 1.0, NOR)
            # first inner term is exp(-c) exactly; with the prefactor the
            # value is at least exp(-c d^t) * exp(-c)
            assert ev.value >= math.exp(-c) * math.exp(-c) * (1 - 1e-12)

    def test_scale_power_below_the_double_range_certifies(self):
        """ExpDecay(1, 1, 1/2) under NOR at s = 1e308: scale**(-s/2) underflows
        to 0 and grow(x) overflows, so the ratio tail's g is formed from
        logarithms, not as 0 * inf.  Past j = 1 the terms vanish: e**-1 times
        the prefactor e**-1, certified after one chunk."""
        model = EigenModel(ExpDecay(1.0, 1.0, 0.5))
        params = CriterionParams(c=1.0, s=1e308, t=1.0)
        ev = evaluate_sum(model, "wt-alg", 1, params, NOR)
        assert (ev.value, ev.status, ev.terms_used) == (math.exp(-2.0), SumStatus.CERTIFIED, CHUNK)
        extended = evaluate_sum(model, "wt-alg", 1, params, NOR, min_terms=10 * CHUNK)
        assert abs(extended.value - ev.value) <= ev.remainder_bound + 1e-12 * ev.value


class TestWtExp:
    def test_prefactor_past_the_double_range_is_zero(self, geo):
        # 2**2000 leaves the double range; exp(-c d**t) is then 0.0.
        ev = sum_wt_exp(geo, 2, 1.0, 1.0, 2000.0, ABS)
        assert ev.value == 0.0 and ev.certified

    def test_exp_decay_closed_form(self, exp2):
        ev = sum_wt_exp(exp2, 1, 1.0, 1.0, 1.0, ABS)
        ref = math.exp(-1.0) * brute(
            lambda j: math.exp(-(1.0 + math.log(2.0) + 2.0 * j)), 1, 500
        )
        assert ev.certified
        assert ev.value == pytest.approx(ref, rel=1e-12)

    def test_harmonic_divergence_power_law(self, poly1):
        ev = sum_wt_exp(poly1, 1, 1.0, 1.0, 1.0, ABS)
        assert ev.divergent
        assert "harmonic" in ev.note

    def test_s_below_one_diverges_on_power_law(self, poly2):
        ev = sum_wt_exp(poly2, 1, 1.0, 0.5, 1.0, ABS)
        assert ev.divergent
        assert ev.note == "divergent (harmonic: terms >= 1/j from j=64)"

    def test_s_above_one_certified(self, poly2):
        ev = sum_wt_exp(poly2, 1, 1.0, 2.0, 1.0, ABS)
        ref = math.exp(-1.0) * brute(
            lambda j: math.exp(-((1.0 + math.log(2.0) + 2.0 * math.log(j)) ** 2)), 1, 60_000
        )
        assert ev.certified
        assert ev.value == pytest.approx(ref, rel=1e-9)

    def test_clamped_terms_exact(self):
        model = EigenModel(Expression("min(1, 2^(4-j))"))
        c, s = 0.75, 1.5
        ev = sum_wt_exp(model, 1, c, s, 1.0, ABS, max_terms=32_768)
        unit = math.exp(-c * (1.0 + math.log(2.0)) ** s)
        assert ev.value >= math.exp(-c) * 4.0 * unit * (1 - 1e-12)


class TestUwtStatistic:
    def test_poly_alg_value(self, poly1):
        stat = uwt_statistic(poly1, 16, 3, "ALG", ABS)
        assert stat == pytest.approx(math.log(16) / math.log(math.log(16)), rel=1e-12)

    def test_poly_exp_is_exactly_one_for_alpha_one(self, poly1):
        for n in (16, 100, 10_000, 1_000_000):
            assert uwt_statistic(poly1, n, 2, "EXP", ABS) == pytest.approx(1.0, abs=1e-12)

    def test_exp_decay_grows(self, exp1):
        stat = uwt_statistic(exp1, 100, 2, "EXP", ABS)
        assert stat == pytest.approx(math.log(100) / math.log(math.log(100)), rel=1e-12)

    def test_expression_past_the_clamp(self):
        """At n = 10**4 the numerator is least at d = 9, where exp(-1.05 n/d)
        is about 1e-507: the statistic is 1.05 n / (9 ln ln n), not the
        clamp's ln(1e300) / ln ln n = 311.1."""
        model = EigenModel(Expression("exp(0-1.05*j/d)"))
        n = 10_000
        stat = uwt_statistic(model, n, 1, "ALG", ABS)
        assert stat == pytest.approx(1.05 * n / (9 * math.log(math.log(n))), rel=1e-13)
        assert round(stat, 3) == 525.448

    def test_k_independent_for_d_independent_models(self, poly2):
        values = {uwt_statistic(poly2, 1000, k, "ALG", ABS) for k in (1, 2, 3)}
        assert len(values) == 1

    def test_finite_rank_infinite_past_support(self):
        model = EigenModel(FiniteRank((1.0, 0.5)))
        assert math.isinf(uwt_statistic(model, 100, 1, "ALG", ABS))

    def test_nor_stops_at_d1_when_the_scale_cancels(self, monkeypatch):
        plain = uwt_statistic(EigenModel(PolyDecay(1.0, 2.0)), 10_000, 2, "ALG", NOR)
        scaled = EigenModel(PolyDecay(1.0, 2.0), d_scale=exprdsl.parse("d^(0-1)"))
        dims = []
        log_ratios = criteria.log_ratios
        monkeypatch.setattr(
            criteria, "log_ratios", lambda m, d, *a: dims.append(d.tolist()) or log_ratios(m, d, *a)
        )
        assert uwt_statistic(scaled, 10_000, 2, "ALG", NOR) == plain
        assert dims == [[[1]]]

    @pytest.mark.parametrize(
        "family, d_scale",
        [
            (Expression("exp(0-1.05*j/d)"), None),
            (Expression("(1+d)*j^(0-2)"), "d^(0-0.95)"),
            (PolyDecay(1.0, 2.25), "d"),
            (PolyDecay(1.0, 2.25), "d^(0-0.95)"),
            (ExpDecay(1.0, 1.0, 0.5), "d"),
            (FiniteRank((1.0, 0.5, 0.25)), "d^(0-0.95)"),
        ],
    )
    @pytest.mark.parametrize("criterion", [ABS, NOR])
    def test_matches_a_per_d_reference_loop(self, family, d_scale, criterion):
        model = EigenModel(family, d_scale=exprdsl.parse(d_scale) if d_scale else None)

        def reference(n, k, case):
            # The statistic's definition, one log_ratio per dimension.
            d_hi = max(1, int(math.log(n) ** k))
            if family.d_free and (d_scale is None or criterion is NOR):
                d_hi = 1
            best = math.inf
            for d in range(1, d_hi + 1):
                try:
                    num = -log_ratio(model, d, n, criterion)
                except BeyondRankError:
                    num = math.inf
                if case == "EXP" and math.isfinite(num):
                    num = math.log(max(1.0, num))
                best = min(best, num / math.log(math.log(n)) if math.isfinite(num) else math.inf)
            return best

        for n in (3, 100, 10_000):
            for k in (1, 2, 3):
                for case in ("ALG", "EXP"):
                    assert uwt_statistic(model, n, k, case, criterion) == reference(n, k, case)

    def test_requires_n_at_least_three(self, poly1):
        with pytest.raises(ValueError):
            uwt_statistic(poly1, 2, 1, "ALG", ABS)


class TestSupOverD:
    def test_d_independent_is_bounded(self, geo):
        sweep = sup_over_d(geo, "spt-alg", CriterionParams(tau=1.0), ABS, 50)
        assert sweep.trend == "Bounded"
        assert len(set(sweep.values)) == 1

    def test_growing_multiplicity(self):
        model = EigenModel(Expression("min(1, 2^(d-j))"))
        sweep = sup_over_d(
            model, "spt-alg", CriterionParams(tau=1.0), NOR, 32, max_terms=32_768
        )
        assert sweep.trend == "Growing"
        assert sweep.values[31] == pytest.approx(33.0, rel=1e-6)

    def test_wt_alg_exploding_multiplicity(self):
        model = EigenModel(Expression("min(1, 2^(pow(2,d)-j))"))
        sweep = sup_over_d(
            model, "wt-alg", CriterionParams(c=0.125, s=1.0, t=1.0), ABS, 16,
            max_terms=65_536,
        )
        assert sweep.trend == "Growing"

    def test_divergent_d_poisons_status(self, poly1):
        sweep = sup_over_d(poly1, "wt-exp", CriterionParams(c=1.0, s=1.0, t=1.0), ABS, 4)
        assert sweep.status is SumStatus.DIVERGENT

    @pytest.mark.parametrize(
        "values, trend",
        [
            ([1, 1, 1, 1, 2, 1, 2, 1], "Mixed"),  # an oscillating tail above the head
            ([1, 5], "Bounded"),  # two points show no trend
        ],
    )
    def test_trend_of_a_sweep(self, values, trend):
        assert _classify_trend(values) == trend


class TestConvergencePlan:
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("spt-alg", dict(tau=-1.0)),
            ("pt-alg", dict(tau2=1.0, c_tilde=0.0)),
            ("pt-exp", dict(tau2=1.0, tau3=-1.0)),
            ("qpt-alg", dict(tau2=1.0, c_tilde=0.0)),
            ("qpt-exp", dict(tau=0.0)),
        ],
    )
    def test_rejects_what_evaluate_sum_rejects(self, geo, kind, params):
        # Out-of-domain params do not construct, so each is built inside the
        # raises block.
        with pytest.raises(ValueError):
            evaluate_sum(geo, kind, 1, CriterionParams(**params), ABS)
        with pytest.raises(ValueError):
            convergence_plan(geo, kind, 1, CriterionParams(**params), ABS)

    def test_plan_agrees_with_evaluation_status(self, geo, tabulated_geo, expr_poly2):
        models = {
            "poly-half": EigenModel(PolyDecay(1.0, 0.5)),
            "poly-two": EigenModel(PolyDecay(1.0, 2.0)),
            "exp-half": EigenModel(ExpDecay(1.0, 1.0, 0.5)),
            "geometric": geo,
            "tabulated": tabulated_geo,
            "expression": expr_poly2,  # no envelope: every plan is None
        }
        wt = CriterionParams(c=1.0, s=1.0, t=1.0)
        params = {
            "spt-alg": CriterionParams(tau=1.0),
            "spt-exp": CriterionParams(tau=0.5),
            "pt-alg": CriterionParams(tau1=1.0, tau2=1.0, tau3=1.0, c_tilde=1.0),
            "pt-exp": CriterionParams(tau1=1.0, tau2=0.5, tau3=1.0, c_tilde=2.0),
            "qpt-alg": CriterionParams(tau1=1.0, tau2=1.0, c_tilde=1.0),
            "qpt-exp": CriterionParams(tau=1.0),
            "wt-alg": wt,
            "wt-exp": wt,
        }
        mismatches = []
        for kind in SUM_KINDS:
            for name, model in models.items():
                for criterion in (ABS, NOR):
                    for d in (1, 3):
                        plan = convergence_plan(model, kind, d, params[kind], criterion)
                        ev = evaluate_sum(
                            model, kind, d, params[kind], criterion, tol=1e-6, max_terms=1 << 14
                        )
                        if isinstance(plan, Divergence) != ev.divergent or (
                            plan is None and ev.certified
                        ):
                            mismatches.append((kind, name, criterion.value, d, plan, ev.status))
        assert mismatches == []


# Per field: a value just past its bound, and the smallest value it takes.
# A new field needs an entry here, so no field can skip the domain rule.
_TINY = math.ulp(0.0)
_DOMAIN = {
    "tau": (0.0, _TINY),
    "tau1": (-_TINY, 0.0),
    "tau2": (0.0, _TINY),
    "tau3": (-_TINY, 0.0),
    "c_tilde": (0.0, _TINY),
    "c": (0.0, _TINY),
    "s": (0.0, _TINY),
    "t": (0.0, _TINY),
    "k": (0, 1),
}


class TestParamDomain:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CriterionParams)])
    def test_each_field_checks_its_own_domain(self, name):
        past, least = _DOMAIN[name]
        for bad in (math.nan, math.inf, -math.inf, past):
            with pytest.raises(ValueError, match=rf"^{name} .*{re.escape(repr(bad))}$"):
                CriterionParams(**{name: bad})
        for good in (least, least + 2):
            assert getattr(CriterionParams(**{name: good}), name) == good

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="tau2"):
            dataclasses.replace(CriterionParams(tau2=1.0), tau2=-1.0)

    def test_sum_specs_carry_no_domain(self):
        # CriterionParams owns the domain; a per-sum copy would drift from it.
        assert {f.name for f in dataclasses.fields(SumSpec)}.isdisjoint({"domain", "domain_error"})


class TestStartIndexRange:
    @pytest.mark.parametrize(
        "kind, params, d",
        [
            ("pt-alg", dict(tau2=1.0, tau3=100.0), 2),  # 2**100: past int64
            ("pt-exp", dict(tau2=1.0, tau3=2000.0), 2),  # 2**2000: past the double range
            ("qpt-alg", dict(tau2=1.0, tau1=2000.0), 2),
            ("spt-alg", dict(tau=1.0, c_tilde=1e300), 1),
            ("pt-alg", dict(tau2=1.0, c_tilde=math.nextafter(2.0**62, math.inf)), 1),
        ],
    )
    def test_start_past_int64_is_a_value_error(self, geo, kind, params, d):
        message = rf"^{kind} start index exceeds 2\*\*62 at d={d}$"
        with pytest.raises(ValueError, match=message):
            evaluate_sum(geo, kind, d, CriterionParams(**params), ABS)
        with pytest.raises(ValueError, match=message):
            convergence_plan(geo, kind, d, CriterionParams(**params), ABS)

    def test_largest_start_is_kept(self, geo):
        plan = convergence_plan(geo, "pt-alg", 1, CriterionParams(tau2=1.0, c_tilde=2.0**62), ABS)
        assert plan.from_j == 2**62


class TestOnsetPastInt64:
    @pytest.mark.parametrize("criterion", [ABS, NOR])
    @pytest.mark.parametrize(
        "kind, params, note",
        [
            ("spt-exp", dict(tau=0.001), "divergent (term-limit: terms >= 0.5 from j=2**23084)"),
            ("pt-exp", dict(tau2=0.001), "divergent (term-limit: terms >= 0.5 from j=2**23084)"),
            ("qpt-exp", dict(tau=1100.0), "divergent (harmonic: terms >= 1/j from j=2**25369)"),
        ],
    )
    def test_onset_is_kept_as_its_exponent(self, poly2, kind, params, note, criterion):
        """The onset is past int64 (and its decimal past Python's 4300-digit
        limit): the certificate keeps it as 2**k."""
        ev = evaluate_sum(poly2, kind, 1, CriterionParams(**params), criterion)
        assert ev.divergent and ev.note == note
        plan = convergence_plan(poly2, kind, 1, CriterionParams(**params), criterion)
        assert plan.j0 is None and note.endswith(f"2**{plan.log2_j0})")

    @pytest.mark.parametrize(
        "kind, params, log_term",
        [
            # term = exp(-j**-tau * 2 ln j) >= 1/2 where 2 u e**(-tau u) <= ln 2
            ("spt-exp", dict(tau=1e-305), lambda u: -2 * u * mpmath.exp(-mpmath.mpf(1e-305) * u)),
            ("spt-exp", dict(tau=1e-308), lambda u: -2 * u * mpmath.exp(-mpmath.mpf(1e-308) * u)),
            # term = (1 + u)**-T >= 1/j = e**-u
            ("qpt-exp", dict(tau=1e306), lambda u: -mpmath.mpf(1e306) * mpmath.log(1 + u)),
            # subnormal tau: the float 1/tau, where the search starts, overflows
            ("spt-exp", dict(tau=1e-310), lambda u: -2 * u * mpmath.exp(-mpmath.mpf(1e-310) * u)),
            ("spt-exp", dict(tau=5e-324), lambda u: -2 * u * mpmath.exp(-mpmath.mpf(5e-324) * u)),
        ],
    )
    def test_onset_past_the_double_range(self, poly2, kind, params, log_term):
        """Where u = ln j of the onset, or 2 u, exceeds the double range, the
        search reads ln u: the divergence is certified (it was a heuristic
        sum).  The certificate's floor holds at the onset, by mpmath."""
        ev = evaluate_sum(poly2, kind, 1, CriterionParams(**params), ABS)
        assert ev.divergent and ev.terms_used == 0
        plan = convergence_plan(poly2, kind, 1, CriterionParams(**params), ABS)
        u = plan.log2_j0 * mpmath.log(2)
        assert 2 * u > sys.float_info.max
        floor = mpmath.log(plan.floor) - (u if plan.reason == "harmonic" else 0)
        assert log_term(u) >= floor

    def test_onsets_up_to_2_62_stay_ints(self):
        def always(u):
            return np.ones(np.shape(u), dtype=bool)

        ln2 = math.log(2.0)
        start = (61.9 * ln2).as_integer_ratio()
        assert criteria._log_divergence("harmonic", 1.0, always, start, 1) == Divergence("harmonic", 2**62, 1.0)
        start = (62.1 * ln2).as_integer_ratio()
        assert criteria._log_divergence("harmonic", 1.0, always, start, 1) == Divergence(
            "harmonic", None, 1.0, log2_j0=63
        )

    def test_tiny_tau_allocates_no_onset_int(self):
        """spt-exp at tau = 1e-9 and 1e-12 puts the onset near 2**(1.4e9) and
        2**(1.4e12).  A child process capped at 2 GiB of address space must
        still certify the divergence quickly: building the onset as an int
        would take gigabytes."""
        code = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from tract import CriterionParams, EigenModel, ErrorCriterion, PolyDecay, evaluate_sum\n"
            "for tau in (1e-9, 1e-12):\n"
            "    ev = evaluate_sum(EigenModel(PolyDecay(1.0, 2.0)), 'spt-exp', 1, CriterionParams(tau=tau),"
            " ErrorCriterion.ABS)\n"
            "    print(ev.status.value)\n"
        )
        src = os.path.dirname(os.path.dirname(criteria.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        began = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout.split() == ["DivergenceCertified"] * 2, out.stderr[-2000:]
        assert time.perf_counter() - began < 20.0


class TestOrderInvariance:
    def test_permuted_prefix_changes_nothing_measurable(self):
        rng = np.random.default_rng(11)
        base = 1.0 / np.arange(1.0, 1001.0) ** 2
        tail = TailEnvelope(GeometricTail(base[-1] * 2.0, 0.5), valid_from=1001)
        reference = None
        for trial in range(8):
            perm = base.copy() if trial == 0 else rng.permutation(base)
            model = EigenModel(Tabulated(tuple(perm), tail))
            values = [
                evaluate_sum(model, "spt-alg", 1, CriterionParams(tau=2.0), ABS).value,
                evaluate_sum(model, "qpt-exp", 1, CriterionParams(tau=3.0), ABS).value,
                evaluate_sum(model, "wt-alg", 1, CriterionParams(c=1.0, s=1.0, t=1.0), ABS).value,
                evaluate_sum(model, "wt-exp", 1, CriterionParams(c=1.0, s=2.0, t=1.0), ABS).value,
            ]
            if reference is None:
                reference = values
            else:
                for got, want in zip(values, reference):
                    assert got == pytest.approx(want, rel=1e-12)


class TestCertificationSoundness:
    def test_ten_fold_extension_within_remainder(self, geo, poly2, exp1, exp2):
        cases = [
            (geo, "spt-alg", CriterionParams(tau=1.0), ABS),
            (poly2, "spt-alg", CriterionParams(tau=1.5), ABS),
            (poly2, "qpt-alg", CriterionParams(tau1=0.0, tau2=1.0, c_tilde=1.0), ABS),
            (exp2, "qpt-exp", CriterionParams(tau=3.0), ABS),
            (exp1, "spt-exp", CriterionParams(tau=0.5, c_tilde=1.0), ABS),
            (poly2, "wt-alg", CriterionParams(c=1.0, s=1.0, t=1.0), ABS),
            (exp2, "wt-exp", CriterionParams(c=1.0, s=1.0, t=1.0), ABS),
            (poly2, "wt-exp", CriterionParams(c=1.0, s=2.0, t=1.0), ABS),
            # grow(x) = 2**x overflows at x = 1024 while scale_pow is still normal
            (EigenModel(Geometric(4e307, 0.5)), "wt-alg", CriterionParams(c=0.01, s=2.0, t=1.0), ABS),
        ]
        for model, kind, params, criterion in cases:
            for d in (1, 2, 3):
                ev = evaluate_sum(model, kind, d, params, criterion, tol=1e-8)
                assert ev.certified
                extended = evaluate_sum(
                    model, kind, d, params, criterion, tol=1e-8,
                    min_terms=10 * ev.terms_used,
                )
                assert abs(extended.value - ev.value) <= ev.remainder_bound + 1e-12 * abs(ev.value)

    def test_abs_d_scale_past_the_double_range(self):
        """c_d * lambda(d, j) leaves the double range below and above; the
        envelope carries ln c_d, as log_ratios adds it to the terms."""
        tiny = EigenModel(Geometric(1e-300, 0.5), d_scale=exprdsl.parse("1e-300"))
        ev = evaluate_sum(tiny, "spt-alg", 1, CriterionParams(tau=1.0), ABS)
        assert (ev.status, ev.value, ev.remainder_bound) == (SumStatus.CERTIFIED, 0.0, 0.0)
        huge = EigenModel(ExpDecay(1e300, 1.0, 1.0), d_scale=exprdsl.parse("1e300"))
        params = CriterionParams(tau=2.0)
        ev = evaluate_sum(huge, "qpt-exp", 1, params, ABS)
        assert ev.certified
        extended = evaluate_sum(huge, "qpt-exp", 1, params, ABS, min_terms=10 * ev.terms_used)
        assert abs(extended.value - ev.value) <= ev.remainder_bound + 1e-12 * abs(ev.value)


def test_ceil_stable_snaps_near_integers():
    assert ceil_stable(3.0000000000000004) == 3
    assert ceil_stable(2.9999999999999996) == 3
    assert ceil_stable(3.5) == 4
    assert ceil_stable(4.0) == 4
