"""Acceptance gate: one test (or small group) per release criterion.

Each group prints into the per-criterion summary emitted at the end of the
run (see conftest).  Three checks are known-red and kept faithful rather
than loosened to force them green:

  c3a  the doubly-logarithmic decay statistic of exp(-n**alpha) at n = 1e4
       is alpha*ln(n)/ln(ln(n)) = 2.07 (alpha=1/2) and 4.15 (alpha=1),
       which cannot exceed the stated threshold 5;
  c4c  the exponential-case growth fit over eps in [1e-6, 1e-1] computes to
       about 1.22 because ln(2u) vs ln(1+u) has slope (1+u)/u > 1 at finite
       u, outside the stated bracket+-0.1 window;
  c5a  the index-coupled constant for the first bound family on a geometric
       spectrum at tau2 = 1 has constant terms r^(j/j) = r, so no certified
       (finite) constant exists at that parameter.
"""

import json
import math
import time

import numpy as np
import pytest

from tract import (
    BoundSpec,
    ComplexityQuery,
    CriterionParams,
    EigenModel,
    ErrorCriterion,
    ExpDecay,
    Expression,
    FiniteRank,
    Geometric,
    GeometricTail,
    Limits,
    Notion,
    PolyDecay,
    Tabulated,
    TailEnvelope,
    check_implications,
    count_oracle,
    decide,
    evaluate_sum,
    exponent_bracket,
    growth_fit,
    info_complexity,
    sup_over_d,
    uwt_statistic,
    verify_domination,
)
from tract.classifier import standard_notions
from tract.cli import main
from tract.eigenmodel import ensure_valid
from tract.summation import SumEvaluation, SumStatus

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR
LIMITS = Limits()


# ---------------------------------------------------------------------------
# Criterion 1: info_complexity == count_oracle on randomized validated models
# ---------------------------------------------------------------------------


def _random_models(count: int, rng: np.random.Generator):
    """Mixed-family models with per-family eps ranges keeping counts scannable."""
    out = []
    while len(out) < count:
        pick = len(out) % 6
        if pick == 0:
            model = EigenModel(Geometric(rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.9)))
            eps_range, j_max = (0.01, 2.0), 4000
        elif pick == 1:
            model = EigenModel(PolyDecay(rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)))
            eps_range, j_max = (0.05, 2.0), 5000
        elif pick == 2:
            model = EigenModel(
                ExpDecay(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5))
            )
            eps_range, j_max = (0.02, 2.0), 4000
        elif pick == 3:
            size = int(rng.integers(3, 40))
            values = np.sort(rng.uniform(0.01, 2.0, size=size))[::-1]
            model = EigenModel(FiniteRank(tuple(values)))
            eps_range, j_max = (0.005, 2.0), size
        elif pick == 4:
            size = 20
            prefix = np.sort(rng.uniform(0.1, 1.0, size=size))[::-1]
            scale = prefix[-1] * 0.9 / 0.5 ** (size + 1)
            tail = TailEnvelope(GeometricTail(scale, 0.5), valid_from=size + 1)
            model = EigenModel(Tabulated(tuple(prefix), tail))
            eps_range, j_max = (0.01, 2.0), 2000
        else:
            formula = ["j^(0-1.5)", "exp(0-j/d)"][len(out) % 2]
            model = EigenModel(Expression(formula))
            eps_range, j_max = (0.05, 2.0), 4000
        out.append((model, eps_range, j_max))
    return out


def test_c1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20260810)
    mismatches = 0
    for index, (model, (eps_lo, eps_hi), j_max) in enumerate(_random_models(20, rng)):
        ensure_valid(model, d_max=32, j_probe=2048)
        criterion = ABS if index % 2 == 0 else NOR
        eps_values = np.geomspace(eps_lo, eps_hi, 100)
        for d in range(1, 33):
            for eps in eps_values:
                query = ComplexityQuery(d, float(eps), criterion)
                a = info_complexity(model, query).n
                b = count_oracle(model, query, j_max).n
                if a != b:
                    mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 2: polynomial decay is enough for the algebraic uniform-weak
# notion and not enough for the exponential one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_c2_polynomial_decay_uwt(alpha):
    start = time.monotonic()
    model = EigenModel(PolyDecay(1.0, alpha))

    alg = decide(model, Notion("UWT", "ALG", ABS), LIMITS)
    assert alg.status == "SupportedUpTo"
    grid = alg.evidence["n_grid"]
    stats = alg.evidence["statistics"]["1"]
    assert grid[-1] == LIMITS.n_max == 1_000_000
    assert stats[-1] > math.log(math.log(grid[-1]))

    exp = decide(model, Notion("UWT", "EXP", ABS), LIMITS)
    assert exp.status == "Fails"
    assert "plateau" in exp.evidence["certificate"]
    # The statistic matches the bounded closed form to 1e-12 on the grid.
    for n, got in zip(exp.evidence["n_grid"], exp.evidence["statistics"]["1"]):
        closed = math.log(max(1.0, alpha * math.log(n))) / math.log(math.log(n))
        assert got == pytest.approx(closed, abs=1e-12)
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: stretched-exponential decay reaches the exponential
# uniform-weak notion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_c3a_statistic_exceeds_five_at_ten_thousand(alpha):
    # Known red: the statistic equals alpha*ln(n)/ln(ln(n)) = 2.07 / 4.15
    # at n = 1e4, below the stated threshold.  Kept faithful.
    model = EigenModel(ExpDecay(1.0, 1.0, alpha))
    stat = uwt_statistic(model, 10_000, 1, "EXP", ABS)
    assert stat > 5.0


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_c3b_statistic_monotone_over_grid(alpha):
    start = time.monotonic()
    model = EigenModel(ExpDecay(1.0, 1.0, alpha))
    grid = [16 * 2**i for i in range(13)] + [1_000_000]
    stats = [uwt_statistic(model, n, 1, "EXP", ABS) for n in grid]
    assert all(b > a for a, b in zip(stats, stats[1:]))
    assert time.monotonic() - start < 30.0


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_c3c_classify_holds(alpha):
    start = time.monotonic()
    model = EigenModel(ExpDecay(1.0, 1.0, alpha))
    verdict = decide(model, Notion("UWT", "EXP", ABS), LIMITS)
    assert verdict.status == "Holds"
    assert "closed-form" in verdict.evidence["certificate"]
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# Criterion 4: exponent brackets and growth-fit corroboration
# ---------------------------------------------------------------------------

_EPS_FIT = [10 ** (-1 - 5 * i / 24) for i in range(25)]
_D_FIT = list(range(1, 9))


def test_c4a_alg_spt_bracket():
    start = time.monotonic()
    model = EigenModel(PolyDecay(1.0, 2.0))
    bracket = exponent_bracket(model, Notion("SPT", "ALG", ABS), LIMITS)
    assert 0.98 <= bracket.lo <= 1.0 + 1e-12
    assert 1.0 - 1e-12 <= bracket.hi <= 1.02
    fit = growth_fit(model, "ALG", ABS, _EPS_FIT, _D_FIT, LIMITS)
    assert bracket.lo - 0.1 <= fit.p <= bracket.hi + 0.1
    assert time.monotonic() - start < 120.0


def test_c4b_exp_spt_bracket():
    start = time.monotonic()
    model = EigenModel(ExpDecay(1.0, 1.0, 1.0))
    bracket = exponent_bracket(model, Notion("SPT", "EXP", ABS), LIMITS)
    assert 0.98 <= bracket.lo <= 1.0 + 1e-12
    assert 1.0 - 1e-12 <= bracket.hi <= 1.02
    assert time.monotonic() - start < 120.0


def test_c4c_exp_growth_fit_inside_bracket():
    # Known red: the least-squares slope of ln(2 ln(1/eps)) against
    # ln(1 + ln(1/eps)) over this grid computes to about 1.22.
    model = EigenModel(ExpDecay(1.0, 1.0, 1.0))
    bracket = exponent_bracket(model, Notion("SPT", "EXP", ABS), LIMITS)
    fit = growth_fit(model, "EXP", ABS, _EPS_FIT, _D_FIT, LIMITS)
    assert bracket.lo - 0.1 <= fit.p <= bracket.hi + 0.1


# ---------------------------------------------------------------------------
# Criterion 5: explicit bounds dominate the oracle
# ---------------------------------------------------------------------------

_EPS_DOM = [10 ** (-1 - 5 * i / 24) for i in range(25)]
_D_DOM = list(range(1, 17))


def _certified_constant(model, kind, params, criterion, d_max=16) -> SumEvaluation:
    sweep = sup_over_d(model, kind, params, criterion, d_max)
    assert sweep.status is SumStatus.CERTIFIED, f"constant not certified: {sweep.status}"
    return SumEvaluation(sweep.sup_observed, 0, 1e-10, SumStatus.CERTIFIED)


def test_c5a_t1_geometric_at_stated_parameter():
    # Known red: at tau2 = 1 the index-coupled terms are r^(j * j^-1) = r,
    # a constant sequence, so the supremum diverges and no certified
    # constant exists.
    model = EigenModel(Geometric(1.0, 0.5))
    params = CriterionParams(tau1=0.0, tau2=1.0, tau3=0.0, c_tilde=1.0)
    constant = _certified_constant(model, "pt-exp", params, ABS)
    spec = BoundSpec("T1", params, constant, ABS)
    report = verify_domination(model, spec, _EPS_DOM, _D_DOM)
    assert report.ok


def test_c5a_t1_geometric_certified_variant():
    # The same check at tau2 = 1/2, where the constant certifies.
    start = time.monotonic()
    model = EigenModel(Geometric(1.0, 0.5))
    params = CriterionParams(tau1=0.0, tau2=0.5, tau3=0.0, c_tilde=1.0)
    constant = _certified_constant(model, "pt-exp", params, ABS)
    spec = BoundSpec("T1", params, constant, ABS)
    report = verify_domination(model, spec, _EPS_DOM, _D_DOM)
    assert report.ok
    assert len(report.rows) == 25 * 16
    assert time.monotonic() - start < 60.0


def test_c5b_t2_exp_decay():
    model = EigenModel(ExpDecay(1.0, 2.0, 1.0))
    params = CriterionParams(tau=3.0)
    constant = _certified_constant(model, "qpt-exp", params, ABS)
    spec = BoundSpec("T2", params, constant, ABS)
    report = verify_domination(model, spec, _EPS_DOM, _D_DOM)
    assert report.ok


def test_c5c_t3_exp_decay():
    model = EigenModel(ExpDecay(1.0, 2.0, 1.0))
    params = CriterionParams(c=1.0, s=1.0, t=1.0)
    constant = _certified_constant(model, "wt-exp", params, ABS)
    spec = BoundSpec("T3", params, constant, ABS)
    report = verify_domination(model, spec, _EPS_DOM, _D_DOM)
    assert report.ok


# ---------------------------------------------------------------------------
# Criterion 6: certification soundness under 10x extension
# ---------------------------------------------------------------------------


def test_c6_certification_soundness():
    start = time.monotonic()
    geo = EigenModel(Geometric(1.0, 0.5))
    geo2 = EigenModel(Geometric(2.0, 0.25))
    poly15 = EigenModel(PolyDecay(1.0, 1.5))
    poly2 = EigenModel(PolyDecay(1.0, 2.0))
    poly3 = EigenModel(PolyDecay(2.0, 3.0))
    exp1 = EigenModel(ExpDecay(1.0, 1.0, 1.0))
    exp2 = EigenModel(ExpDecay(1.0, 2.0, 1.0))
    exph = EigenModel(ExpDecay(1.0, 1.0, 0.5))
    cases = []
    for model in (geo, geo2, poly2, poly3, exp1, exp2):
        cases.append((model, "spt-alg", CriterionParams(tau=1.0)))
        cases.append((model, "spt-alg", CriterionParams(tau=2.0)))
        cases.append((model, "pt-alg", CriterionParams(tau1=1.0, tau2=1.5, tau3=1.0, c_tilde=1.0)))
        cases.append((model, "qpt-alg", CriterionParams(tau1=0.0, tau2=1.0, c_tilde=1.0)))
        cases.append((model, "wt-alg", CriterionParams(c=1.0, s=1.0, t=1.0)))
        cases.append((model, "wt-alg", CriterionParams(c=0.25, s=2.0, t=1.0)))
    for model in (geo, exp1, exp2, exph):
        cases.append((model, "spt-exp", CriterionParams(tau=0.25, c_tilde=1.0)))
        cases.append((model, "qpt-exp", CriterionParams(tau=3.0)))
        cases.append((model, "wt-exp", CriterionParams(c=1.0, s=1.0, t=1.0)))
    for model in (poly15, poly2, poly3):
        cases.append((model, "wt-exp", CriterionParams(c=1.0, s=2.0, t=1.0)))
        cases.append((model, "qpt-exp", CriterionParams(tau=4.0)))

    checked = 0
    for model, kind, params in cases:
        for d in (1, 2, 3):
            for criterion in (ABS, NOR):
                ev = evaluate_sum(model, kind, d, params, criterion, tol=1e-8)
                if not ev.certified:
                    continue
                extended = evaluate_sum(
                    model, kind, d, params, criterion, tol=1e-8,
                    min_terms=10 * ev.terms_used,
                )
                assert abs(extended.value - ev.value) <= ev.remainder_bound + 1e-12 * abs(
                    ev.value
                ), (model.kind, kind, params, d, criterion)
                checked += 1
    assert checked >= 200
    assert time.monotonic() - start < 45.0


# ---------------------------------------------------------------------------
# Criterion 7: order invariance of value-only-term sums
# ---------------------------------------------------------------------------


def test_c7_order_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    base = 1.0 / np.arange(1.0, 1001.0) ** 2
    scale = base[-1] * 0.9 / 0.5**1001
    tail = TailEnvelope(GeometricTail(scale, 0.5), valid_from=1001)

    def values_for(table):
        model = EigenModel(Tabulated(tuple(table), tail))
        return [
            evaluate_sum(model, "wt-alg", 1, CriterionParams(c=1.0, s=1.0, t=1.0), ABS).value,
            evaluate_sum(model, "wt-exp", 1, CriterionParams(c=1.0, s=2.0, t=1.0), ABS).value,
            evaluate_sum(model, "qpt-exp", 1, CriterionParams(tau=3.0), ABS).value,
            evaluate_sum(model, "spt-alg", 1, CriterionParams(tau=2.0), ABS).value,
        ]

    reference = values_for(base)
    for _ in range(50):
        shuffled = rng.permutation(base)
        for got, want in zip(values_for(shuffled), reference):
            assert abs(got - want) <= 1e-12 * abs(want)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# Criterion 8: implication chain
# ---------------------------------------------------------------------------


def test_c8_implication_chain_builtin_families():
    start = time.monotonic()
    models = [
        EigenModel(Geometric(1.0, 0.5)),
        EigenModel(PolyDecay(1.0, 0.5)),
        EigenModel(PolyDecay(1.0, 1.0)),
        EigenModel(PolyDecay(1.0, 2.0)),
        EigenModel(ExpDecay(1.0, 1.0, 0.5)),
        EigenModel(ExpDecay(1.0, 1.0, 1.0)),
        EigenModel(ExpDecay(1.0, 2.0, 1.0)),
        EigenModel(FiniteRank((1.0, 0.5, 0.25))),
        EigenModel(
            Tabulated((1.0, 0.5), TailEnvelope(GeometricTail(1.0, 0.5), valid_from=3))
        ),
    ]
    for model in models:
        for criterion in (ABS, NOR):
            verdicts = [decide(model, notion, LIMITS) for notion in standard_notions(criterion)]
            issues = check_implications(verdicts)
            assert issues == [], (model.kind, criterion, issues)
    assert time.monotonic() - start < 120.0


def test_c8_injected_fault_is_flagged():
    from tract.classifier import TractabilityVerdict

    model = EigenModel(PolyDecay(1.0, 2.0))
    spt = decide(model, Notion("SPT", "ALG", ABS), LIMITS)
    pt = decide(model, Notion("PT", "ALG", ABS), LIMITS)
    forged_pt = TractabilityVerdict(pt.notion, "Fails", None, {}, pt.limits)
    issues = check_implications([spt, forged_pt])
    assert len(issues) == 1
    assert issues[0]["upstream"] == "ALG-SPT-ABS"
    assert issues[0]["downstream"] == "ALG-PT-ABS"


# ---------------------------------------------------------------------------
# Criterion 9: determinism across worker counts
# ---------------------------------------------------------------------------


def test_c9_classify_byte_identical_across_workers(tmp_path, capsys):
    config = {
        "model": {"kind": "PolyDecay", "params": {"a": 1.0, "alpha": 2.0}},
        "criterion": "ABS",
        "limits": {"d_max": 16, "n_max": 100000},
        "output": {"format": "json"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    for workers in ("1", "4", "16"):
        assert main(["classify", "--config", str(path), "--threads", workers]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
