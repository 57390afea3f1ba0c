import math

import pytest
from hypothesis import given, settings, strategies as st

from tract import (
    EigenModel,
    ErrorCriterion,
    ExpDecay,
    Expression,
    FiniteRank,
    Geometric,
    Limits,
    Notion,
    PolyDecay,
    check_implications,
    classify_all,
    decide,
    exponent_bracket,
    growth_fit,
)
from tract.classifier import TractabilityVerdict, standard_notions
from tract.errors import DegenerateGridError
from tract.exprdsl import parse

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR
LIM = Limits()

EPS_GRID = [10 ** (-1 - 5 * i / 24) for i in range(25)]
D_GRID = list(range(1, 9))


class TestDecideSummable:
    def test_poly_alg_spt_holds_with_witness(self, poly2):
        verdict = decide(poly2, Notion("SPT", "ALG", ABS), LIM)
        assert verdict.status == "Holds"
        assert verdict.witness.tau == pytest.approx(0.75)

    def test_poly_exp_chain_fails(self, poly2):
        for kind in ("SPT", "PT", "QPT"):
            verdict = decide(poly2, Notion(kind, "EXP", ABS), LIM)
            assert verdict.status == "Fails", kind

    def test_exp_decay_exp_spt_holds(self, exp1):
        verdict = decide(exp1, Notion("SPT", "EXP", ABS), LIM)
        assert verdict.status == "Holds"
        assert verdict.witness.tau < 1.0

    def test_finite_rank_everything_holds(self):
        model = EigenModel(FiniteRank((1.0, 0.5, 0.25)))
        for notion in standard_notions(ABS):
            assert decide(model, notion, LIM).status == "Holds", notion.name

    @pytest.mark.parametrize(
        "d_scale, status", [("d^(0-1)", "Holds"), ("d", "Inconclusive")]
    )
    def test_abs_certificate_needs_a_nonincreasing_scale(self, d_scale, status):
        """Under ABS a d-free family keeps its d = 1 certificate only when the
        probed scale does not grow with d."""
        model = EigenModel(PolyDecay(1.0, 2.0), d_scale=parse(d_scale))
        verdict = decide(model, Notion("SPT", "ALG", ABS), LIM)
        assert verdict.status == status
        if status == "Holds":
            assert verdict.evidence["certificate"].startswith("sup over d attained at d=1")

    def test_expression_gets_finite_evidence_only(self):
        # j*j + j reads as no closed form, so the model has no envelope.
        model = EigenModel(Expression("1/(j*j+j)"))
        verdict = decide(model, Notion("SPT", "ALG", ABS), LIM)
        assert verdict.status == "SupportedUpTo"

    def test_verdict_monotone_in_limits(self, poly2):
        small = decide(poly2, Notion("SPT", "EXP", ABS), Limits(d_max=4, n_max=10_000))
        large = decide(poly2, Notion("SPT", "EXP", ABS), Limits(d_max=64, n_max=1_000_000))
        assert small.status == large.status == "Fails"


class TestDecideWt:
    def test_poly_exp_wt_one_fails_with_c_witness(self, poly1):
        verdict = decide(poly1, Notion("WT", "EXP", ABS, s=1.0, t=1.0), LIM)
        assert verdict.status == "Fails"
        assert verdict.witness.c <= 0.5

    def test_poly_exp_wt_two_holds(self, poly1):
        verdict = decide(poly1, Notion("WT", "EXP", ABS, s=2.0, t=2.0), LIM)
        assert verdict.status == "Holds"

    def test_poly_alg_wt_holds(self, poly1):
        verdict = decide(poly1, Notion("WT", "ALG", ABS, s=1.0, t=1.0), LIM)
        assert verdict.status == "Holds"

    def test_divergent_inner_sum_fails_on_the_evidence_path(self):
        """The growing scale rules out the d = 1 certificate; the evidence path
        still finds the s < 1 power-law inner sum divergent at c = 1."""
        model = EigenModel(PolyDecay(1.0, 2.0), d_scale=parse("d"))
        verdict = decide(model, Notion("WT", "EXP", ABS, s=0.5, t=1.0), LIM)
        assert verdict.status == "Fails"
        assert verdict.evidence == {"certificate": "divergent inner sum", "witness_c": 1.0}

    def test_divergent_inner_sum_fails_on_the_family_path(self):
        """On the d-free power law the quantifier names c = 1 for s < 1, and the
        certified probe confirms the divergence there."""
        verdict = decide(EigenModel(PolyDecay(1.0, 2.0)), Notion("WT", "EXP", ABS, s=0.5, t=1.0), LIM)
        assert verdict.status == "Fails"
        assert verdict.evidence == {
            "certificate": "divergent inner sum at c=1 (power-law spectrum under the doubly logarithmic terms)"
        }

    def test_undecided_inner_sum_is_inconclusive(self):
        """An Expression that reads as no closed form has no exact envelope
        (max(j, 1) is j on every index, but a max is never read as a form), so
        the evidence path runs; at c = 0.5 the power-law inner sum is neither
        certified nor divergent."""
        model = EigenModel(Expression("max(j, 1)^(0-2)"))
        verdict = decide(model, Notion("WT", "EXP", ABS, s=1.0, t=1.0), Limits(d_max=4, n_max=10**4))
        assert verdict.status == "Inconclusive"
        assert verdict.evidence == {"note": "inner sum undecided within budget at c=0.5"}

    def test_multiplicity_growth_fails(self):
        model = EigenModel(Expression("min(1, 2^(pow(2,d)-j))"))
        verdict = decide(model, Notion("WT", "ALG", ABS, s=1.0, t=1.0), Limits(d_max=20))
        assert verdict.status == "Fails"
        assert "multiplicity" in verdict.evidence["certificate"]

    def test_damping_past_the_double_range_is_zero(self):
        """d**t overflows at t = 1e308: the multiplicity bound reads the sum
        table's damping factor, 0 there, as the sums do."""
        model = EigenModel(Expression("exp(0-j/d)"))
        verdict = decide(model, Notion("WT", "EXP", ABS, s=1.0, t=1e308), Limits(d_max=4, c_min=0.5))
        assert verdict.status == "SupportedUpTo"


class TestDecideUwt:
    def test_poly_alg_supported(self):
        for alpha in (0.5, 1.0, 2.0):
            model = EigenModel(PolyDecay(1.0, alpha))
            verdict = decide(model, Notion("UWT", "ALG", ABS), LIM)
            assert verdict.status == "SupportedUpTo", alpha

    def test_poly_exp_fails_by_plateau(self):
        for alpha in (0.5, 1.0, 2.0):
            model = EigenModel(PolyDecay(1.0, alpha))
            verdict = decide(model, Notion("UWT", "EXP", ABS), LIM)
            assert verdict.status == "Fails", alpha
            assert "plateau" in verdict.evidence["certificate"]

    def test_exp_decay_holds(self):
        for gamma in (0.5, 1.0):
            model = EigenModel(ExpDecay(1.0, 1.0, gamma))
            verdict = decide(model, Notion("UWT", "EXP", ABS), LIM)
            assert verdict.status == "Holds", gamma

    def test_finite_rank_holds(self):
        model = EigenModel(FiniteRank((1.0, 0.5)))
        verdict = decide(model, Notion("UWT", "EXP", ABS), LIM)
        assert verdict.status == "Holds"


class TestExponentBracket:
    def test_alg_spt_poly(self, poly2):
        br = exponent_bracket(poly2, Notion("SPT", "ALG", ABS), LIM)
        assert br.hi - br.lo <= 0.011
        assert br.lo <= 1.0 <= br.hi + 1e-12

    def test_exp_spt_exp_decay(self, exp1):
        br = exponent_bracket(exp1, Notion("SPT", "EXP", ABS), LIM)
        assert br.lo <= 1.0 <= br.hi + 1e-12
        assert 0.98 <= br.lo and br.hi <= 1.02

    def test_geometric_floor_bracket(self, geo):
        br = exponent_bracket(geo, Notion("SPT", "ALG", ABS), LIM)
        assert br.lo == 0.0
        assert br.hi <= 0.02

    def test_alg_qpt_matches_spt_for_d_independent(self, poly2):
        spt = exponent_bracket(poly2, Notion("SPT", "ALG", ABS), LIM)
        qpt = exponent_bracket(poly2, Notion("QPT", "ALG", ABS), LIM)
        assert qpt.lo <= spt.hi and qpt.hi >= spt.lo

    def test_bisection_moves_the_failing_end(self):
        # tau = 1/4 fails and 1/2 passes: the bisection lifts the failing
        # end towards the exponent 2/3 of PolyDecay(1, 3).
        br = exponent_bracket(EigenModel(PolyDecay(1.0, 3.0)), Notion("SPT", "ALG", ABS), LIM)
        assert (br.lo, br.hi) == (0.6640625, 0.671875)
        assert br.lo <= 2.0 / 3.0 <= br.hi and br.hi - br.lo <= 0.01

    def test_exp_qpt(self, exp1):
        br = exponent_bracket(exp1, Notion("QPT", "EXP", ABS), LIM)
        assert br.lo <= 1.0 <= br.hi + 1e-12

    def test_cli_notion_flags_are_the_notions_with_an_exponent(self):
        """The CLI keeps its own copy of the bracketable notions: parsing its
        flags must not load the classifier."""
        from tract.classifier import _AXES
        from tract.cli import _NOTION_FLAGS

        with_exponent = [key for key, axis in _AXES.items() if axis.exponent is not None]
        assert sorted(_NOTION_FLAGS.values()) == sorted(with_exponent)


class TestGrowthFit:
    def test_alg_slope_near_one(self, poly2):
        fit = growth_fit(poly2, "ALG", ABS, EPS_GRID, D_GRID, LIM)
        assert fit.p == pytest.approx(1.0, abs=0.05)
        assert fit.q == pytest.approx(0.0, abs=0.05)

    def test_exp_slope_frozen_value(self, exp1):
        # The log-log relation ln n = ln(2u) vs ln(1+u) carries an upward
        # finite-grid bias: the fitted slope over this eps range computes to
        # about 1.22, approaching 1 only as eps -> 0.
        fit = growth_fit(exp1, "EXP", ABS, EPS_GRID, D_GRID, LIM)
        assert fit.p == pytest.approx(1.2217, abs=0.02)
        assert fit.q == pytest.approx(0.0, abs=0.05)

    def test_degenerate_grid_rejected(self, poly2):
        with pytest.raises(DegenerateGridError):
            growth_fit(poly2, "ALG", ABS, EPS_GRID[:4], D_GRID, LIM)


# The stated implications within one case and criterion, by the kind part
# of the notion name: SPT => PT => QPT => WT(s,t); WT(s2,t2) => WT(s1,t1)
# for s1 >= s2, t1 >= t2; UWT => WT(s,t).
_STATED = {
    "SPT": {"PT", "QPT", "WT(1,1)", "WT(2,2)"},
    "PT": {"QPT", "WT(1,1)", "WT(2,2)"},
    "QPT": {"WT(1,1)", "WT(2,2)"},
    "WT(1,1)": {"WT(2,2)"},
    "WT(2,2)": set(),
    "UWT": {"WT(1,1)", "WT(2,2)"},
}
_STANDARD = standard_notions(ABS) + standard_notions(NOR)
_STATUSES = ["Holds", "Fails", "SupportedUpTo", "Inconclusive"]


def _reference_flags(verdicts: list) -> list[dict]:
    """Every Holds => Fails pair linked by a stated implication: groups in
    sorted (case, criterion) order, pairs in input order within a group."""
    flags = []
    for case, crit in sorted({(v.notion.case, v.notion.criterion.value) for v in verdicts}):
        group = [v for v in verdicts if (v.notion.case, v.notion.criterion.value) == (case, crit)]
        for up in group:
            for down in group:
                if (up.status, down.status) != ("Holds", "Fails"):
                    continue
                if down.notion.name.split("-")[1] in _STATED[up.notion.name.split("-")[1]]:
                    flags.append({
                        "case": case, "criterion": crit,
                        "upstream": up.notion.name, "downstream": down.notion.name,
                        "detail": f"{up.notion.name} Holds but {down.notion.name} Fails",
                    })
    return flags


class TestImplications:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(_STATUSES), min_size=len(_STANDARD), max_size=len(_STANDARD)),
        st.permutations(range(len(_STANDARD))),
    )
    def test_flags_are_the_stated_implications(self, statuses, order):
        """Exact flags, in order, for the standard notion order; the same
        flags for a shuffled one."""
        verdicts = [TractabilityVerdict(n, s, None, {}, LIM) for n, s in zip(_STANDARD, statuses)]
        expected = _reference_flags(verdicts)
        assert check_implications(verdicts) == expected
        shuffled = check_implications([verdicts[i] for i in order])

        def as_set(flags):
            return sorted(tuple(sorted(f.items())) for f in flags)

        assert as_set(shuffled) == as_set(expected)

    def test_builtin_families_consistent(self, poly2, exp1, geo):
        for model in (poly2, exp1, geo):
            for criterion in (ABS, NOR):
                verdicts = [decide(model, nt, LIM) for nt in standard_notions(criterion)]
                assert check_implications(verdicts) == []

    def test_injected_fault_is_flagged(self, poly2):
        verdicts = [decide(poly2, nt, LIM) for nt in standard_notions(ABS)]
        forged = []
        for v in verdicts:
            if v.notion.kind == "SPT" and v.notion.case == "ALG":
                forged.append(TractabilityVerdict(v.notion, "Holds", v.witness, v.evidence, v.limits))
            elif v.notion.kind == "PT" and v.notion.case == "ALG":
                forged.append(TractabilityVerdict(v.notion, "Fails", None, {}, v.limits))
            else:
                forged.append(v)
        issues = check_implications(forged)
        assert any(
            i["upstream"] == "ALG-SPT-ABS" and i["downstream"] == "ALG-PT-ABS" for i in issues
        )

    def test_wt_monotone_fault_flagged(self, poly2):
        n1 = Notion("WT", "ALG", ABS, s=1.0, t=1.0)
        n2 = Notion("WT", "ALG", ABS, s=2.0, t=2.0)
        good = decide(poly2, n1, LIM)
        forged = TractabilityVerdict(n2, "Fails", None, {}, LIM)
        issues = check_implications([good, forged])
        assert issues and issues[0]["downstream"] == "ALG-WT(2,2)-ABS"

    @pytest.mark.parametrize(
        "upstream",
        [Notion("SPT", "ALG", ABS), Notion("UWT", "ALG", ABS)],
        ids=["chain", "uwt"],
    )
    def test_holds_above_failing_wt_is_flagged(self, upstream):
        wt = Notion("WT", "ALG", ABS, s=1.0, t=1.0)
        issues = check_implications(
            [
                TractabilityVerdict(upstream, "Holds", None, {}, LIM),
                TractabilityVerdict(wt, "Fails", None, {}, LIM),
            ]
        )
        assert [(i["upstream"], i["downstream"]) for i in issues] == [(upstream.name, wt.name)]
        assert upstream.name in issues[0]["detail"] and wt.name in issues[0]["detail"]

    def test_supported_downstream_of_holds_is_fine(self, poly2):
        verdicts = [
            decide(poly2, Notion("QPT", "ALG", ABS), LIM),
            decide(poly2, Notion("WT", "ALG", ABS, s=1.0, t=1.0), LIM),
            decide(poly2, Notion("UWT", "ALG", ABS), LIM),
        ]
        assert check_implications(verdicts) == []


class TestClassifyAll:
    def test_c_min_above_one_is_rejected(self, geo):
        with pytest.raises(ValueError, match=r"c_min must lie in \(0, 1\]"):
            classify_all(geo, ABS, Limits(c_min=2))

    def test_report_shape_and_consistency(self, geo):
        report = classify_all(geo, ABS, LIM)
        assert len(report["verdicts"]) == 12
        assert report["inconsistencies"] == []

    def test_abs_nor_coincide_when_top_eigenvalue_is_one(self, poly2, exp1):
        # lambda(d, 1) = 1 makes CRI identical under both criteria.
        for model in (poly2,):
            for n_abs, n_nor in zip(standard_notions(ABS), standard_notions(NOR)):
                a = decide(model, n_abs, LIM)
                b = decide(model, n_nor, LIM)
                assert a.status == b.status, n_abs.name

    @pytest.mark.parametrize(
        "formula, twin",
        [
            ("j^(0-2.1)", PolyDecay(1.0, 2.1)),
            ("1.3*exp(0-0.32*j)", Geometric(1.3, math.exp(-0.32))),
            ("exp(0-1.1*sqrt(j))", ExpDecay(1.0, 1.1, 0.5)),
        ],
    )
    @pytest.mark.parametrize("criterion", [ABS, NOR], ids=["ABS", "NOR"])
    def test_a_closed_form_formula_classifies_as_its_twin(self, formula, twin, criterion):
        """The formula reads as its twin's form, so its exact envelope gives
        the same verdicts and witnesses."""
        limits = Limits(d_max=8, n_max=10**4)
        verdicts = [
            [(v["notion"], v["status"], v["witness"]) for v in classify_all(model, criterion, limits)["verdicts"]]
            for model in (EigenModel(Expression(formula)), EigenModel(twin))
        ]
        assert verdicts[0] == verdicts[1]

    def test_randomised_models_stay_consistent(self):
        import numpy as np

        from tract import Geometric, Tabulated, TailEnvelope
        from tract.eigenmodel import GeometricTail

        rng = np.random.default_rng(1234)
        prefix = np.sort(rng.uniform(0.1, 1.0, 12))[::-1]
        tail_scale = prefix[-1] * 0.9 / 0.5**13
        models = [
            EigenModel(Geometric(rng.uniform(0.3, 3.0), rng.uniform(0.1, 0.95))),
            EigenModel(PolyDecay(rng.uniform(0.3, 3.0), rng.uniform(0.3, 4.0))),
            EigenModel(ExpDecay(rng.uniform(0.3, 3.0), rng.uniform(0.2, 3.0), rng.uniform(0.3, 2.0))),
            EigenModel(FiniteRank(tuple(np.sort(rng.uniform(0.01, 3.0, 9))[::-1]))),
            EigenModel(
                Tabulated(tuple(prefix), TailEnvelope(GeometricTail(tail_scale, 0.5), valid_from=13))
            ),
        ]
        limits = Limits(d_max=8, n_max=100_000)
        for model in models:
            for criterion in (ABS, NOR):
                report = classify_all(model, criterion, limits)
                assert report["inconsistencies"] == []
