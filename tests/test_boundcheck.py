import math

import pytest

from tract import (
    BoundSpec,
    CriterionParams,
    ErrorCriterion,
    bound_t1,
    bound_t2,
    bound_t3,
    diagnostics,
    sup_over_d,
    verify_domination,
)
from tract.eigenmodel import EigenModel, Geometric
from tract.summation import SumEvaluation, SumStatus

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR


def certified(value: float) -> SumEvaluation:
    return SumEvaluation(value, 0, 1e-12, SumStatus.CERTIFIED)


def t1_spec(M=1.0, tau1=0.0, c_tilde=1.0, tau3=0.0, tau2=1.0) -> BoundSpec:
    return BoundSpec(
        "T1",
        CriterionParams(tau1=tau1, tau2=tau2, tau3=tau3, c_tilde=c_tilde),
        SumEvaluation(M, 0, 0.0, SumStatus.CERTIFIED),
        ABS,
    )


def t2_spec(M=1.0, tau=1.0) -> BoundSpec:
    return BoundSpec(
        "T2", CriterionParams(tau=tau), SumEvaluation(M, 0, 0.0, SumStatus.CERTIFIED), ABS
    )


def t3_spec(mu=1.0, c=1.0, s=1.0, t=1.0) -> BoundSpec:
    return BoundSpec(
        "T3", CriterionParams(c=c, s=s, t=t), SumEvaluation(mu, 0, 0.0, SumStatus.CERTIFIED), ABS
    )


class TestBoundFormulas:
    def test_t1_large_eps_drops_third_term(self):
        assert bound_t1(t1_spec(), 5, 1.0) == 3  # floor(e) + 1 + 0

    def test_t1_at_inverse_e(self):
        assert bound_t1(t1_spec(), 1, math.exp(-1.0)) == 5  # 2 + 1 + 2

    def test_t1_with_growth_exponents(self):
        spec = t1_spec(M=1.0, tau1=1.0, c_tilde=2.0, tau3=1.0, tau2=0.5)
        assert bound_t1(spec, 3, math.exp(-1.0)) == 18  # 8 + 6 + 4

    def test_t1_zero_c_tilde_rejected(self):
        with pytest.raises(ValueError):
            bound_t1(t1_spec(c_tilde=0.0, tau3=1.0), 4, 0.1)

    def test_t1_unset_params_take_defaults(self):
        unset = BoundSpec("T1", CriterionParams(tau2=1.0), certified(1.0), ABS)
        assert bound_t1(unset, 4, 0.1) == bound_t1(t1_spec(M=unset.constant_upper), 4, 0.1)

    def test_t2_bracket_vanishes_for_large_eps(self):
        assert bound_t2(t2_spec(), 1, math.e) == 2  # ceil(1 + 1 + 0)

    def test_t2_at_eps_one(self):
        assert bound_t2(t2_spec(), 1, 1.0) == 3

    def test_t2_with_dimension(self):
        # 1 + 6 + 6 * 2^(1 + ln 3), ceiled
        value = 1.0 + 6.0 + 6.0 * 2.0 ** (1.0 + math.log(3.0))
        assert bound_t2(t2_spec(M=2.0), 3, math.exp(-1.0)) == math.ceil(value)

    def test_t3_bracket_clamps_to_zero(self):
        # 2/eps^2 = 1/e makes the bracket max(0, 1 + ln(1/e)) = 0
        eps = math.sqrt(2.0 * math.e)
        assert bound_t3(t3_spec(), 1, eps) == 3  # ceil(e)

    def test_t3_at_eps_one(self):
        assert bound_t3(t3_spec(), 1, 1.0) == 15  # ceil(2 e^2)

    def test_t3_squared_bracket(self):
        # ceil(exp((1+ln 2)^2 + 2)) computed directly
        expected = math.ceil(math.exp((1.0 + math.log(2.0)) ** 2 + 2.0))
        assert bound_t3(t3_spec(mu=0.5, s=2.0), 2, 1.0) == expected
        assert expected == 130

    def test_uncertified_constant_rejected(self):
        bad = SumEvaluation(1.0, 0, None, SumStatus.HEURISTIC)
        with pytest.raises(ValueError, match="certified"):
            BoundSpec("T1", CriterionParams(tau2=1.0), bad, ABS)

    def test_monotone_in_eps_and_d(self):
        spec2, spec3 = t2_spec(M=1.5, tau=2.0), t3_spec(mu=1.5, c=0.5, s=1.5, t=1.0)
        eps_grid = [10 ** (-k / 3.0) for k in range(12)]
        for spec, fn in ((t1_spec(), bound_t1), (spec2, bound_t2), (spec3, bound_t3)):
            for d in (1, 2, 5):
                vals = [fn(spec, d, eps) for eps in eps_grid]
                assert all(a <= b for a, b in zip(vals, vals[1:]))
            for eps in (0.5, 0.05):
                vals = [fn(spec, d, eps) for d in range(1, 9)]
                assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestDomination:
    def _eps_grid(self, count=8):
        return [10 ** (-1 - 5 * i / (count - 1)) for i in range(count)]

    def test_t1_geometric(self, geo):
        params = CriterionParams(tau1=0.0, tau2=0.5, tau3=0.0, c_tilde=1.0)
        sweep = sup_over_d(geo, "pt-exp", params, ABS, 8)
        assert sweep.status is SumStatus.CERTIFIED
        constant = SumEvaluation(sweep.sup_observed, 0, 1e-10, SumStatus.CERTIFIED)
        spec = BoundSpec("T1", params, constant, ABS)
        report = verify_domination(geo, spec, self._eps_grid(), range(1, 9))
        assert report.ok

    def test_t2_exp_decay(self, exp2):
        params = CriterionParams(tau=3.0)
        sweep = sup_over_d(exp2, "qpt-exp", params, ABS, 8)
        constant = SumEvaluation(sweep.sup_observed, 0, 1e-10, SumStatus.CERTIFIED)
        spec = BoundSpec("T2", params, constant, ABS)
        report = verify_domination(exp2, spec, self._eps_grid(), range(1, 9))
        assert report.ok

    def test_t3_exp_decay(self, exp2):
        params = CriterionParams(c=1.0, s=1.0, t=1.0)
        sweep = sup_over_d(exp2, "wt-exp", params, ABS, 8)
        constant = SumEvaluation(sweep.sup_observed, 0, 1e-10, SumStatus.CERTIFIED)
        spec = BoundSpec("T3", params, constant, ABS)
        report = verify_domination(exp2, spec, self._eps_grid(), range(1, 9))
        assert report.ok

    def test_oracle_zero_rows_trivially_dominated(self, geo):
        spec = t1_spec()
        report = verify_domination(geo, spec, [2.0, 5.0], [1, 2])
        assert report.ok
        assert all(r.oracle_n == 0 for r in report.rows)


class TestDiagnostics:
    def test_fast_decay_has_empty_slow_set(self, exp2):
        # every ratio satisfies lambda_j <= exp(-j**tau2) for tau2 = 1
        spec = t1_spec(M=1.0, tau2=1.0)
        out = diagnostics(exp2, spec, 1, 0.5)
        assert out["B_d_size"] == 0

    def test_j1_star_zero_for_nor(self, geo, exp2):
        spec = BoundSpec(
            "T2", CriterionParams(tau=3.0), SumEvaluation(1.0, 0, 0.0, SumStatus.CERTIFIED), NOR
        )
        for model in (geo, exp2):
            assert diagnostics(model, spec, 3, 0.5)["j1_star"] == 0

    def test_j1_star_counts_large_eigenvalues(self):
        model = EigenModel(Geometric(4.0, 0.5))
        spec = t2_spec(M=4.0, tau=1.0)
        out = diagnostics(model, spec, 1, 0.5)
        assert out["j1_star"] == 1  # lambda_1 = 2 > 1, lambda_2 = 1 not above
        assert out["j1_star_ok"]

    def test_b_d_respects_theorem_inequality(self, geo):
        params = CriterionParams(tau1=0.0, tau2=0.5, tau3=0.0, c_tilde=1.0)
        sweep = sup_over_d(geo, "pt-exp", params, ABS, 4)
        constant = SumEvaluation(sweep.sup_observed, 0, 1e-10, SumStatus.CERTIFIED)
        spec = BoundSpec("T1", params, constant, ABS)
        for d in (1, 2, 4):
            out = diagnostics(geo, spec, d, 0.5)
            assert out["B_d_ok"]

    def test_t1_slow_set_starts_where_the_pt_exp_sum_starts(self, geo):
        # ABS starts at ceil(2 * 2) = 4; NOR sums from 1, where the ratios
        # 1, 1/2, 1/4 give terms above 1/e at tau2 = 1/2.
        params = CriterionParams(tau1=0.0, tau2=0.5, tau3=1.0, c_tilde=2.0)
        for criterion, size in ((ABS, 0), (NOR, 3)):
            spec = BoundSpec("T1", params, certified(10.0), criterion)
            assert diagnostics(geo, spec, 2, 0.5)["B_d_size"] == size

    def test_t3_threshold_index(self, exp2):
        spec = t3_spec()
        out = diagnostics(exp2, spec, 1, 0.5, big_c=5)
        assert out["j_eps_d"] >= 1
        assert out["k1_star"] >= 1
