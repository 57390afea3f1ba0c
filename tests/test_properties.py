"""Property tests for the cross-module invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tract import (
    ComplexityQuery,
    CriterionParams,
    EigenModel,
    ErrorCriterion,
    ExpDecay,
    FiniteRank,
    Geometric,
    PolyDecay,
    count_oracle,
    evaluate_sum,
    info_complexity,
    nth_minimal_error,
)
from tract.eigenmodel import eigenvalues, probe_indices

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR


_families = st.one_of(
    st.builds(
        Geometric,
        a=st.floats(0.25, 4.0),
        r=st.floats(0.1, 0.95),
    ),
    st.builds(
        PolyDecay,
        a=st.floats(0.25, 4.0),
        alpha=st.floats(1.0, 4.0),
    ),
    st.builds(
        ExpDecay,
        a=st.floats(0.25, 4.0),
        b=st.floats(0.25, 2.0),
        gamma=st.floats(0.4, 2.0),
    ),
    st.lists(st.floats(0.01, 4.0), min_size=1, max_size=30).map(
        lambda vs: FiniteRank(tuple(sorted(vs, reverse=True)))
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    family=_families,
    d=st.integers(1, 32),
    eps=st.floats(0.05, 4.0),
    criterion=st.sampled_from([ABS, NOR]),
)
# The threshold r^3 sits on lambda_3, where libm and numpy round apart.
@example(family=Geometric(1.0, 0.910002624721785), d=1, eps=0.910002624721785, criterion=NOR)
def test_search_equals_count(family, d, eps, criterion):
    model = EigenModel(family)
    query = ComplexityQuery(d, eps, criterion)
    # The slowest member of the strategy (ExpDecay a=4, b=1/4, gamma=0.4 at
    # eps=0.05, ABS) needs about 4.7e3 terms, past a 4000 cap, so the oracle
    # keeps its default cap.
    assert info_complexity(model, query).n == count_oracle(model, query).n


@settings(max_examples=40, deadline=None)
@given(family=_families, d=st.integers(1, 16))
def test_sequences_nonincreasing_and_positive(family, d):
    model = EigenModel(family)
    idx = probe_indices(2000)
    if isinstance(family, FiniteRank):
        idx = idx[idx <= family.rank]
    vals = eigenvalues(model, d, idx)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 0)


@settings(max_examples=40, deadline=None)
@given(
    family=_families,
    d=st.integers(1, 8),
    criterion=st.sampled_from([ABS, NOR]),
    eps=st.floats(0.05, 1.0),
)
def test_error_inversion(family, d, eps, criterion):
    # The exact statement lives on the eigenvalues; the square-root form can
    # flip an exact tie by an ulp, so it gets a correspondingly tiny slack.
    from tract import cri, eigenvalue
    from tract.eigenmodel import support

    model = EigenModel(family)
    n = info_complexity(model, ComplexityQuery(d, eps, criterion)).n
    threshold = eps * eps * cri(model, d, criterion)
    rank = support(model, d)
    if rank is None or n + 1 <= rank:
        assert eigenvalue(model, d, n + 1) <= threshold
    if n >= 1:
        assert eigenvalue(model, d, n) > threshold
    root_cri = math.sqrt(cri(model, d, criterion))
    assert nth_minimal_error(model, d, n) <= eps * root_cri * (1 + 4e-16)
    if n >= 1:
        assert nth_minimal_error(model, d, n - 1) > eps * root_cri * (1 - 4e-16)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    r=st.floats(0.2, 0.8),
    tau=st.floats(0.5, 4.0),
    d=st.integers(1, 6),
)
def test_geometric_power_sum_matches_closed_form(a, r, tau, d):
    model = EigenModel(Geometric(a, r))
    ev = evaluate_sum(model, "spt-alg", d, CriterionParams(tau=tau), ABS, tol=1e-11)
    assert ev.certified
    q = r**tau
    closed = a**tau * q / (1.0 - q)
    assert ev.value == pytest.approx(closed, rel=1e-9)


def test_clamp_identity_exact():
    # Ratios at or above one contribute literal constants to the doubly
    # logarithmic sums.
    model = EigenModel(FiniteRank((2.0, 1.5, 1.0, 0.5)))
    T = 2.0
    ev = evaluate_sum(model, "qpt-exp", 1, CriterionParams(tau=T), ABS)
    last = (1.0 + 0.5 * (-math.log(0.5))) ** -T
    assert ev.value == 3.0 + last  # three unit terms, exactly

    c, s = 0.75, 1.5
    ev = evaluate_sum(model, "wt-exp", 1, CriterionParams(c=c, s=s, t=1.0), ABS)
    unit = math.exp(-c * (1.0 + math.log(2.0)) ** s)
    tail_term = math.exp(-c * (1.0 + math.log(2.0) - math.log(0.5)) ** s)
    assert ev.value == math.exp(-c) * math.fsum([unit, unit, unit, tail_term])


def test_growth_fit_detects_d_dependence():
    from tract import Expression, Limits, growth_fit

    model = EigenModel(Expression("exp(0-j/d)"))
    eps = [10 ** (-1 - 4 * i / 15) for i in range(16)]
    fit = growth_fit(model, "ALG", ABS, eps, range(1, 9), Limits())
    assert fit.q == pytest.approx(1.0, abs=0.05)
