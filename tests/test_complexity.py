import ast
import inspect
import math
import pathlib
import re

import mpmath
import numpy as np
import pytest

import tract
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
from tract.boundcheck import diagnostics
from tract.classifier import _decide_wt
from tract.complexity import count_above, first_index
from tract.errors import UnboundedError

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR

# What each count reads its ratios through: info_complexity is the search
# of count_above, and the two counts compare with compare_ratios.
_READS = {info_complexity: "count_above(", count_above: "compare_ratios(", count_oracle: "compare_ratios("}
# The two ratio counts outside the query path, read through count_above: the
# T1/T2 diagnostics count ratios > 1 and the WT multiplicities ratios >= 1.
_RATIO_COUNTS = [
    pytest.param(diagnostics, "count_above(model, d, crit, 1.0, cap)", id="_count_above_cri"),
    pytest.param(
        _decide_wt,
        "count_above(model, d, notion.criterion, 1.0, 1 << 22, at_least=True)",
        id="_count_ratios_at_least_one",
    ),
]


class TestInfoComplexity:
    def test_geometric_abs(self, geo):
        # threshold 1/4: lambda_1 = 1/2 above, lambda_2 = 1/4 at it (ties count)
        assert info_complexity(geo, ComplexityQuery(3, 0.5, ABS)).n == 1

    def test_geometric_nor(self, geo):
        # threshold = eps^2 lambda_1 = 1/8: lambda_3 = 1/8 satisfies it, a
        # tie (ln lambda_3 - ln lambda_1 rounds above ln 1/4).
        with mpmath.workdps(50):
            assert mpmath.mpf(0.5) ** 3 / mpmath.mpf(0.5) == mpmath.mpf(0.5 * 0.5)
        assert info_complexity(geo, ComplexityQuery(3, 0.5, NOR)).n == 2
        assert count_oracle(geo, ComplexityQuery(3, 0.5, NOR)).n == 2

    def test_near_tie_follows_the_real_ratio(self):
        # lambda_3/lambda_1 = r**2 lies 1.3e-17 below fl(r*r) = eps**2, so
        # lambda_3 satisfies the threshold although the doubles round above it.
        r = 0.6752128032309727
        with mpmath.workdps(50):
            gap = mpmath.mpf(r) ** 2 - mpmath.mpf(r * r)
        assert -1.4e-17 < gap < -1.3e-17
        model, q = EigenModel(Geometric(1.875, r)), ComplexityQuery(1, r, NOR)
        assert info_complexity(model, q).n == 2
        assert count_oracle(model, q).n == 2

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

    def test_scans_in_blocks_of_at_most_8192(self, poly2, monkeypatch):
        sizes = []

        def compare(model, d, j, criterion, t):
            sizes.append(j.size)
            return tract.eigenmodel.compare_ratios(model, d, j, criterion, t)

        monkeypatch.setattr(tract.complexity, "compare_ratios", compare)
        count_oracle(poly2, ComplexityQuery(1, 0.1, ABS), 20_000)
        assert sum(sizes) == 20_000 and max(sizes) <= 8192


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
        # 1867 for the scaled model.  The 1868th ratio lies 1.4e-16 above
        # eps**2, relative, and the 1869th below it.
        alpha, d, eps = 1.6204837511179113, 18, 0.0022355967400540687
        with mpmath.workdps(50):
            rho = [mpmath.mpf(j) ** -mpmath.mpf(alpha) for j in (1868, 1869)]
            assert rho[0] > mpmath.mpf(eps * eps) > rho[1]
        plain = EigenModel(PolyDecay(1.0, alpha))
        scaled = EigenModel(PolyDecay(1.0, alpha), d_scale=exprdsl.parse("1/d"))
        q = ComplexityQuery(d, eps, NOR)
        assert info_complexity(plain, q).n == 1868
        assert info_complexity(scaled, q).n == 1868
        assert count_oracle(scaled, q).n == 1868

    @pytest.mark.parametrize("route", [info_complexity, count_oracle])
    def test_nor_count_ignores_a_tiny_scale(self, route):
        # NOR counts do not depend on the scale: Geometric(1, 0.999) gives 1386.
        q = ComplexityQuery(1, 0.5, NOR)
        assert route(EigenModel(Geometric(1.0, 0.999)), q).n == 1386
        assert route(EigenModel(Geometric(1e-305, 0.999)), q).n == 1386

    @pytest.mark.parametrize(
        "route, call", [*(pytest.param(r, c, id=r.__name__) for r, c in _READS.items()), *_RATIO_COUNTS]
    )
    def test_every_count_reads_the_one_comparison(self, route, call):
        assert call in inspect.getsource(route)

    def test_only_the_counts_call_the_comparison(self):
        callers = set()
        for path in pathlib.Path(tract.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef):
                    calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
                    if any(getattr(c.func, "id", None) == "compare_ratios" for c in calls):
                        callers.add(node.name)
        assert callers == {"count_above", "count_oracle"}

    @pytest.mark.parametrize("route", list(_READS))
    def test_routes_leave_cri_to_ratios(self, route):
        source = inspect.getsource(route)
        assert not re.search(r"ErrorCriterion\.|\b(ABS|NOR|cri)\b|criterion (is|==)", source)
        assert _READS[route] in source

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
        assert count_above(model, 1, ABS, 1.0, 1 << 22, at_least=True) == 3
        assert count_above(model, 1, ABS, 1.0, 1 << 22) == 1
