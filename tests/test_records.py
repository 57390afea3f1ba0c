"""Records defined as NamedTuples keep what they had as frozen dataclasses.

Their reprs appear in notes and error messages, so each stays byte for byte
the dataclass repr; equal records compare and hash equal (a record holding a
dict is unhashable, as it was).  They are tuples underneath, so the package
never compares them with plain tuples and never iterates them.
"""

import math

import pytest

from tract import CriterionParams, Limits
from tract.boundcheck import DominationReport, DominationRow
from tract.classifier import ExponentBracket, GrowthFit, Notion, TractabilityVerdict
from tract.cli import RunConfig
from tract.complexity import ComplexityResult
from tract.criteria import SupEvaluation
from tract.eigenmodel import (
    EigenModel,
    ErrorCriterion,
    Geometric,
    GeometricTail,
    TailEnvelope,
    ValidationReport,
    Violation,
)
from tract.exprdsl import BinOp, Call, Neg, Num, Var, _Token
from tract.summation import Divergence, PolyLogTail, RatioTail, SumEvaluation, SumStatus

ABS = ErrorCriterion.ABS

# One instance of each record, and its repr as a frozen dataclass.
RECORDS = [
    (lambda: SumEvaluation(1.5, 3, 0.25, SumStatus.CERTIFIED, "n"),
     "SumEvaluation(value=1.5, terms_used=3, remainder_bound=0.25, "
     "status=<SumStatus.CERTIFIED: 'Certified'>, note='n', converged=True)"),
    (lambda: PolyLogTail(1.0, 2.0, 0.5, 1.5, from_j=4),
     "PolyLogTail(c=1.0, K=2.0, beta=0.5, s=1.5, from_j=4)"),
    (lambda: RatioTail(math.exp, from_j=3),
     "RatioTail(log_g=<built-in function exp>, from_j=3)"),
    (lambda: Divergence("harmonic", 8, 0.5),
     "Divergence(reason='harmonic', j0=8, floor=0.5, log2_j0=None)"),
    (lambda: TailEnvelope(GeometricTail(1.0, 0.5), 3, True),
     "TailEnvelope(form=GeometricTail(scale=1.0, ratio=0.5), valid_from=3, exact=True, log_factor=0.0)"),
    (lambda: Violation("increase", 2, 5, "detail"),
     "Violation(kind='increase', d=2, j=5, detail='detail')"),
    (lambda: ValidationReport(True, (Violation("nonfinite", 1, 2, "value nan"),), 8, 100, 512),
     "ValidationReport(ok=True, violations=(Violation(kind='nonfinite', d=1, j=2, detail='value nan'),), "
     "d_max=8, j_probe=100, probed_indices=512)"),
    (lambda: Num(2.0),
     "Num(value=2.0)"),
    (lambda: Var("j"),
     "Var(name='j')"),
    (lambda: Neg(Var("d")),
     "Neg(operand=Var(name='d'))"),
    (lambda: BinOp("^", Var("j"), Num(-2.0)),
     "BinOp(op='^', left=Var(name='j'), right=Num(value=-2.0))"),
    (lambda: Call("max", (Var("d"), Num(1.0))),
     "Call(func='max', args=(Var(name='d'), Num(value=1.0)))"),
    (lambda: _Token("num", "2", 0),
     "_Token(kind='num', text='2', offset=0)"),
    (lambda: ComplexityResult(5, False, "search"),
     "ComplexityResult(n=5, capped=False, method='search')"),
    (lambda: TractabilityVerdict(Notion("SPT", "ALG", ABS), "Holds", CriterionParams(tau=1.0), {"k": 1}, Limits()),
     "TractabilityVerdict(notion=Notion(kind='SPT', case='ALG', criterion=<ErrorCriterion.ABS: 'ABS'>, "
     "s=None, t=None), status='Holds', witness=CriterionParams(tau=1.0, tau1=None, tau2=None, tau3=None, "
     "c_tilde=None, c=None, s=None, t=None, k=None), evidence={'k': 1}, limits=Limits(d_max=64, "
     "j_max=67108864, n_max=1000000, tol=1e-10, c_min=0.0009765625))"),
    (lambda: ExponentBracket(0.5, 1.0, None, CriterionParams(tau=2.0)),
     "ExponentBracket(lo=0.5, hi=1.0, lo_witness=None, hi_witness=CriterionParams(tau=2.0, tau1=None, "
     "tau2=None, tau3=None, c_tilde=None, c=None, s=None, t=None, k=None))"),
    (lambda: GrowthFit(1.0, 2.0, 0.5, 0.01),
     "GrowthFit(C=1.0, p=2.0, q=0.5, residual=0.01)"),
    (lambda: SupEvaluation((1.0, 2.0), 2.0, "Bounded", SumStatus.CERTIFIED, "spt-alg", 2),
     "SupEvaluation(values=(1.0, 2.0), sup_observed=2.0, trend='Bounded', "
     "status=<SumStatus.CERTIFIED: 'Certified'>, kind='spt-alg', d_max=2, all_converged=True, upper=inf)"),
    (lambda: DominationRow(1, 0.1, 3, 4),
     "DominationRow(d=1, eps=0.1, oracle_n=3, bound=4)"),
    (lambda: DominationReport((DominationRow(1, 0.1, 3, math.inf),), "T1"),
     "DominationReport(rows=(DominationRow(d=1, eps=0.1, oracle_n=3, bound=inf),), theorem='T1')"),
    (lambda: RunConfig(EigenModel(Geometric()), ABS, Limits(), "json", None, {}, "ab"),
     "RunConfig(model=EigenModel(family=Geometric(a=1.0, r=0.5), d_scale=None, declared_tail=None), "
     "criterion=<ErrorCriterion.ABS: 'ABS'>, limits=Limits(d_max=64, j_max=67108864, n_max=1000000, "
     "tol=1e-10, c_min=0.0009765625), output_format='json', output_path=None, analysis={}, digest='ab')"),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_repr_equality_and_hash(make, text):
    first, second = make(), make()
    assert repr(first) == text
    assert first == second and not first != second
    if "{" in text:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)
