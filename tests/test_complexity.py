import inspect
import math

import numpy as np
import pytest

from tract import (
    ComplexityQuery,
    EigenModel,
    ErrorCriterion,
    ExpDecay,
    FiniteRank,
    Geometric,
    GeometricTail,
    PolyDecay,
    Tabulated,
    TailEnvelope,
    count_oracle,
    info_complexity,
    nth_minimal_error,
)
from tract import exprdsl
from tract.boundcheck import _count_above_cri
from tract.classifier import _count_ratios_at_least_one
from tract.complexity import first_index
from tract.errors import UnboundedError

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR


class TestInfoComplexity:
    def test_geometric_abs(self, geo):
        # threshold 1/4: lambda_1 = 1/2 above, lambda_2 = 1/4 at it (ties count)
        assert info_complexity(geo, ComplexityQuery(3, 0.5, ABS)).n == 1

    def test_geometric_nor(self, geo):
        # threshold = eps^2 lambda_1 = 1/8: lambda_3 = 1/8 satisfies it
        assert info_complexity(geo, ComplexityQuery(3, 0.5, NOR)).n == 2

    def test_zero_at_large_eps_abs(self, geo, poly2, exp1):
        for model in (geo, poly2, exp1):
            norm = math.sqrt(1.0)  # lambda(1,1) <= 1 for these fixtures
            res = info_complexity(model, ComplexityQuery(1, max(1.0, norm), ABS))
            assert res.n == 0

    def test_zero_at_eps_one_nor(self, geo, poly2, exp1):
        for model in (geo, poly2, exp1):
            for d in (1, 2, 7):
                assert info_complexity(model, ComplexityQuery(d, 1.0, NOR)).n == 0

    def test_finite_rank_caps(self):
        model = EigenModel(FiniteRank((1.0, 0.5)))
        res = info_complexity(model, ComplexityQuery(1, 0.01, ABS))
        assert res.n == 2 and res.capped

    def test_unbounded_reported(self, geo):
        with pytest.raises(UnboundedError):
            info_complexity(geo, ComplexityQuery(1, 1e-200, ABS), j_max=64)


class TestCountOracle:
    def test_geometric(self, geo):
        assert count_oracle(geo, ComplexityQuery(1, 0.5, ABS), 100).n == 1

    def test_poly_decay(self, poly2):
        # j^-2 > 0.01 exactly for j <= 9
        assert count_oracle(poly2, ComplexityQuery(1, 0.1, ABS), 10_000).n == 9

    def test_finite_rank_capped(self):
        model = EigenModel(FiniteRank((1.0, 0.5)))
        res = count_oracle(model, ComplexityQuery(1, 0.01, ABS))
        assert res.n == 2 and res.capped

    def test_finite_rank_is_a_multiset(self):
        # Initial error sqrt(2), so the NOR threshold at eps = 0.8 is 1.28:
        # only the entry 2 lies above it, whatever the input order.
        query = ComplexityQuery(1, 0.8, NOR)
        for entries in ((1.0, 2.0, 0.5), (0.5, 1.0, 2.0), (2.0, 1.0, 0.5)):
            model = EigenModel(FiniteRank(entries))
            assert info_complexity(model, query).n == 1, entries
            assert count_oracle(model, query).n == 1, entries

    def test_tabulated_prefix_is_a_multiset(self):
        query = ComplexityQuery(1, 0.8, NOR)
        tail = TailEnvelope(GeometricTail(0.5, 0.5), valid_from=4)
        for prefix in ((1.0, 2.0, 0.5), (0.5, 1.0, 2.0), (2.0, 1.0, 0.5)):
            model = EigenModel(Tabulated(prefix, tail))
            assert info_complexity(model, query).n == 1, prefix
            assert count_oracle(model, query).n == 1, prefix


class TestOracleEquivalence:
    def test_exact_agreement_on_grids(self, geo, poly2, exp1):
        rng = np.random.default_rng(7)
        for model, j_max in ((geo, 3000), (poly2, 3000), (exp1, 3000)):
            for criterion in (ABS, NOR):
                eps_values = np.exp(rng.uniform(np.log(0.05), np.log(2.0), size=40))
                for d in (1, 2, 5, 32):
                    for eps in eps_values:
                        q = ComplexityQuery(d, float(eps), criterion)
                        assert (
                            info_complexity(model, q).n
                            == count_oracle(model, q, j_max).n
                        )

    def test_agreement_at_geometric_ties(self):
        # eps = r under NOR puts the threshold r^3 = lambda_3 exactly on an
        # eigenvalue, where libm and numpy's vector pow can round apart.
        for r in np.linspace(0.1, 0.95, 200):
            model = EigenModel(Geometric(1.0, float(r)))
            q = ComplexityQuery(1, float(r), NOR)
            assert info_complexity(model, q).n == count_oracle(model, q).n, r

    @pytest.mark.parametrize("eps,n", [(0.36842568459380204, 15), (0.1528051057040072, 37)])
    def test_settling_steps_past_the_scalar_crossing(self, eps, n):
        # libm rounds lambda at the crossing to the other side of the
        # threshold (a scalar search would answer n - 1); both routes read
        # the array values.
        model = EigenModel(ExpDecay(1.0, 0.3, 0.7))
        q = ComplexityQuery(1, eps, ABS)
        assert info_complexity(model, q).n == n
        assert count_oracle(model, q).n == n

    def test_d_scale_cancels_at_a_nor_tie(self):
        # eps**2 sits on a ratio here: scaling before dividing once counted
        # 1867 for the scaled model.
        alpha, d, eps = 1.6204837511179113, 18, 0.0022355967400540687
        plain = EigenModel(PolyDecay(1.0, alpha))
        scaled = EigenModel(PolyDecay(1.0, alpha), d_scale=exprdsl.parse("1/d"))
        q = ComplexityQuery(d, eps, NOR)
        assert info_complexity(plain, q).n == 1868
        assert info_complexity(scaled, q).n == 1868
        assert count_oracle(scaled, q).n == 1868

    @pytest.mark.xfail(strict=True, raises=UnboundedError,
                       reason="NOR ratios clamp lambda(d, j) and lambda(d, 1) at 1e-300 before dividing")
    @pytest.mark.parametrize("route", [info_complexity, count_oracle])
    def test_nor_count_ignores_a_scale_below_the_clamp(self, route):
        # NOR counts do not depend on the scale: Geometric(1, 0.999) gives 1386.
        q = ComplexityQuery(1, 0.5, NOR)
        assert route(EigenModel(Geometric(1.0, 0.999)), q).n == 1386
        assert route(EigenModel(Geometric(1e-305, 0.999)), q).n == 1386

    @pytest.mark.parametrize("route", [info_complexity, count_oracle])
    def test_routes_leave_cri_to_ratios(self, route):
        assert "ErrorCriterion" not in inspect.getsource(route)
        assert "ratios(" in inspect.getsource(route)

    def test_eps_monotonicity(self, poly2):
        values = [
            info_complexity(poly2, ComplexityQuery(1, eps, ABS)).n
            for eps in np.geomspace(0.05, 2.0, 60)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestNthMinimalError:
    def test_initial_error_is_norm(self, geo):
        assert nth_minimal_error(geo, 1, 0) == pytest.approx(math.sqrt(0.5))

    def test_poly(self, poly2):
        assert nth_minimal_error(poly2, 1, 2) == pytest.approx(1.0 / 3.0)

    def test_exhausted_rank_gives_zero(self):
        model = EigenModel(FiniteRank((1.0,)))
        assert nth_minimal_error(model, 1, 1) == 0.0

    def test_consistency_with_complexity(self, geo, poly2):
        # ulp slack: an exact threshold tie can flip under the square root
        for model in (geo, poly2):
            for criterion in (ABS, NOR):
                root_cri = nth_minimal_error(model, 2, 0) if criterion is NOR else 1.0
                for eps in np.geomspace(0.06, 0.9, 25):
                    n = info_complexity(model, ComplexityQuery(2, float(eps), criterion)).n
                    if n >= 1:
                        assert nth_minimal_error(model, 2, n) <= eps * root_cri * (1 + 4e-16)
                        assert nth_minimal_error(model, 2, n - 1) > eps * root_cri * (1 - 4e-16)

    def test_abs_nor_coincide_when_top_eigenvalue_is_one(self, poly2):
        for eps in np.geomspace(0.05, 3.0, 30):
            a = info_complexity(poly2, ComplexityQuery(3, float(eps), ABS)).n
            b = info_complexity(poly2, ComplexityQuery(3, float(eps), NOR)).n
            assert a == b


def _recording(switch: int, calls: list):
    """An index-array predicate true from switch on that records each call."""

    def pred(j: np.ndarray) -> np.ndarray:
        assert j.dtype == np.int64
        calls.append(j)
        return j >= switch

    return pred


class TestFirstIndex:
    def test_matches_linear_scan(self):
        for cap in range(1, 65):
            for switch in range(1, cap + 2):  # cap + 1: never true
                calls = []
                linear = next((j for j in range(1, cap + 1) if j >= switch), None)
                assert first_index(_recording(switch, calls), cap) == linear, (cap, switch)
                assert all(j.min() >= 1 and j.max() <= cap for j in calls)

    @pytest.mark.parametrize("cap", [65, 100, 128, 4097, 8192, 8193, 10**6, 1 << 26, 1 << 62])
    def test_call_budget(self, cap):
        # One call finds a crossing at or below 64, two one at or below
        # 8192; no call leaves [1, cap].
        switches = {1, 2, 63, 64, 65, 127, 128, 129, 4097, 8191, 8192, 8193}
        switches |= {cap // 3, cap - 1, cap, cap + 1}
        for switch in sorted(s for s in switches if 1 <= s <= cap + 1):
            calls = []
            expected = switch if switch <= cap else None
            assert first_index(_recording(switch, calls), cap) == expected, (cap, switch)
            assert all(j.min() >= 1 and j.max() <= cap for j in calls), (cap, switch)
            if switch <= 64:
                assert len(calls) == 1, (cap, switch)
            elif switch <= 8192:
                assert len(calls) <= 2, (cap, switch)

    def test_cap_beyond_int64_indices(self):
        with pytest.raises(ValueError):
            first_index(lambda j: j >= 1, (1 << 62) + 1)

    def test_tie_semantics_of_the_ratio_counts(self):
        # ratios 2, 1, 1, 0.5: three are >= 1, one is > 1
        model = EigenModel(FiniteRank((2.0, 1.0, 1.0, 0.5)))
        assert _count_ratios_at_least_one(model, 1, ABS) == 3
        assert _count_above_cri(model, 1, ABS, 4) == 1
