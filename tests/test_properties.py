"""Property tests for the cross-module invariants."""

import math
from fractions import Fraction

import mpmath
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
    GeometricTail,
    PolyDecay,
    Tabulated,
    TailEnvelope,
    count_oracle,
    eigenvalue,
    evaluate_sum,
    info_complexity,
    nth_minimal_error,
)
from tract.complexity import count_above
from tract.eigenmodel import log_ratios, probe_indices

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
    # In logarithms: exp underflows to 0 from j of about 1075 on Geometric(1, 1/2).
    logs = log_ratios(model, d, idx, ABS)
    assert np.all(np.isfinite(logs))
    assert np.all(np.diff(logs) <= 0)


def _mp_eigenvalue(family, j: int):
    """lambda(j) of a family of the strategy, in the current mpmath precision."""
    if isinstance(family, FiniteRank):
        return mpmath.mpf(family.entries[j - 1])
    a = mpmath.mpf(family.a)
    if isinstance(family, Geometric):
        return a * mpmath.mpf(family.r) ** j
    if isinstance(family, PolyDecay):
        return a * mpmath.mpf(j) ** -mpmath.mpf(family.alpha)
    return a * mpmath.exp(-mpmath.mpf(family.b) * mpmath.mpf(j) ** mpmath.mpf(family.gamma))


# Entries m * 2**e, some repeated: many ratios, and so many thresholds
# drawn from them, are exact doubles, and the counts meet real ties.
_ENTRIES = st.lists(
    st.one_of(
        st.builds(lambda m, e: m * 2.0**e, st.sampled_from([1, 3, 5]), st.integers(-6, 6)),
        st.floats(1e-3, 1e3),
    ),
    min_size=1,
    max_size=8,
).flatmap(lambda vs: st.lists(st.sampled_from(vs), max_size=6).map(lambda repeats: vs + repeats))


@settings(max_examples=200, deadline=None)
@given(
    entries=_ENTRIES,
    tabulated=st.booleans(),
    criterion=st.sampled_from([ABS, NOR]),
    data=st.data(),
)
def test_count_above_ties_follow_the_rationals(entries, tabulated, criterion, data):
    # A Tabulated continuation starts at half the smallest entry, below
    # every threshold drawn here, so only the entries count.
    n, low = len(entries), min(entries)
    family = (
        Tabulated(tuple(entries), TailEnvelope(GeometricTail(low * 2.0**n, 0.5), valid_from=n + 1))
        if tabulated else FiniteRank(tuple(entries))
    )
    model = EigenModel(family)
    cri = max(entries) if criterion is NOR else 1.0
    t = data.draw(st.sampled_from(entries)) / cri
    exact = [Fraction(v) / Fraction(cri) for v in entries]
    above = sum(r > Fraction(t) for r in exact)
    at_least = sum(r >= Fraction(t) for r in exact)
    assert count_above(model, 1, criterion, t, 1000) == above
    assert count_above(model, 1, criterion, t, 1000, at_least=True) == at_least


@settings(max_examples=40, deadline=None)
@given(
    family=_families,
    d=st.integers(1, 8),
    criterion=st.sampled_from([ABS, NOR]),
    eps=st.floats(0.05, 1.0),
)
# Ties under NOR, where lambda_n/lambda_1 = eps^2 but lambda_n and eps^2 lambda_1
# round apart by an ulp: the counts compare the ratio.
@example(family=Geometric(0.6415056733948675, 0.6415056733948675), d=1, eps=0.6415056733948675, criterion=NOR)
@example(family=Geometric(1.6665826222078564, 0.75), d=1, eps=0.75, criterion=NOR)
@example(family=Geometric(1.875, 0.6752128032309727), d=1, eps=0.6752128032309727, criterion=NOR)
# The same tie, lost when lambda_3 was the exp of its double logarithm, several ulps off.
@example(family=Geometric(0.25, 0.17232592975636857), d=1, eps=0.17232592975636857, criterion=NOR)
def test_error_inversion(family, d, eps, criterion):
    # The exact statement lives on the eigenvalues: under ABS lambda_j against
    # eps^2, under NOR the ratio lambda_j/lambda_1 against eps^2, as the counts
    # compare them, here in 50-digit arithmetic.  The square-root form can
    # flip an exact tie by an ulp, so it gets a correspondingly tiny slack.
    model = EigenModel(family)
    n = info_complexity(model, ComplexityQuery(d, eps, criterion)).n

    def above(j):
        with mpmath.workdps(50):
            rho = _mp_eigenvalue(family, j)
            if criterion is NOR:
                rho /= _mp_eigenvalue(family, 1)
            return rho > mpmath.mpf(eps * eps)

    rank = model.family.rank
    if rank is None or n + 1 <= rank:
        assert not above(n + 1)
    if n >= 1:
        assert above(n)
    root_cri = math.sqrt(eigenvalue(model, d, 1) if criterion is NOR else 1.0)
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
