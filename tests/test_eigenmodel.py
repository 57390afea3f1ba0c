import ast
import math
import pathlib

import numpy as np
import pytest

import tract
from tract import (
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
    eigenvalue,
    eigenvalues,
    validate,
)
from tract.criteria import CriterionParams, evaluate_sum
from tract.eigenmodel import ensure_valid, log_ratio, log_ratios, ratio, ratio_envelope
from tract.errors import BeyondRankError, EvalDomainError, ValidationFailedError
from tract import eigenmodel, exprdsl

ABS = ErrorCriterion.ABS
NOR = ErrorCriterion.NOR


class TestEigenvalue:
    def test_geometric(self, geo):
        assert eigenvalue(geo, 3, 4) == 0.0625

    def test_poly(self, poly2):
        # The exp of the logarithm -2 ln 3, which is exact in the log reading.
        assert log_ratio(poly2, 1, 3, ABS) == -2.0 * math.log(3.0)
        assert eigenvalue(poly2, 1, 3) == pytest.approx(1.0 / 9.0, rel=1e-15, abs=0)

    def test_exp_matches_expression_model(self):
        model = EigenModel(ExpDecay(1.0, 1.0, 1.0))
        expr = EigenModel(Expression("exp(0-j)"))
        for j in range(1, 50):
            assert eigenvalue(model, 5, j) == pytest.approx(
                eigenvalue(expr, 5, j), rel=1e-15
            )

    def test_beyond_rank(self):
        model = EigenModel(FiniteRank((1.0, 0.5)))
        assert eigenvalue(model, 1, 2) == 0.5
        with pytest.raises(BeyondRankError):
            eigenvalue(model, 1, 3)

    def test_underflow_reads_zero_and_keeps_its_logarithm(self):
        model = EigenModel(ExpDecay(1.0, 2.0, 1.0))
        assert eigenvalue(model, 1, 10_000) == 0.0
        assert log_ratio(model, 1, 10_000, ABS) == -20_000.0

    def test_negative_formula_rejected(self):
        model = EigenModel(Expression("1 - j"))
        with pytest.raises(EvalDomainError):
            eigenvalue(model, 1, 5)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda m: eigenvalue(m, 1, 1),
            lambda m: eigenvalues(m, 1, np.arange(1, 5)),
            lambda m: log_ratios(m, 1, np.arange(1, 5), ABS),
            lambda m: evaluate_sum(m, "spt-alg", 1, CriterionParams(tau=1.0), ABS),
        ],
        ids=["eigenvalue", "eigenvalues", "log_ratios", "evaluate_sum"],
    )
    def test_one_domain_rule_on_every_path(self, evaluate):
        """1/(j-1) divides by zero at j = 1; exp(-inf) = 0 must not hide it."""
        model = EigenModel(Expression("exp(0-1/(j-1))"))
        with pytest.raises(EvalDomainError) as err:
            evaluate(model)
        assert (err.value.d, err.value.j) == (1, 1)
        assert "division by zero" in str(err.value)

    def test_d_sweep_names_the_smallest_failing_d(self):
        # Negative at d = 1 and 2, a division by zero at d = 3: a loop over d
        # stops at d = 1, and so does the sweep.
        model = EigenModel(Expression("1/(d-3)*j^(0-2)"))
        with pytest.raises(EvalDomainError, match="negative") as err:
            eigenvalues(model, np.arange(1, 5)[:, None], np.array([7]))
        assert (err.value.d, err.value.j) == (1, 7)
        scaled = EigenModel(PolyDecay(1.0, 2.0), d_scale=exprdsl.parse("1/(d-3)"))
        with pytest.raises(EvalDomainError, match="negative") as err:
            scaled.log_d_scale(np.arange(1, 5))
        assert err.value.d == 1

    def test_vectorised_agrees_with_scalar(self, geo, poly2, exp1):
        js = np.arange(1, 64)
        for model in (geo, poly2, exp1):
            vec = eigenvalues(model, 2, js)
            assert vec == pytest.approx([eigenvalue(model, 2, int(j)) for j in js], rel=0)

    def test_only_the_output_views_read_a_linear_eigenvalue(self):
        """Searches, counts, sums and checks read logarithms; a linear value is
        read only by the views that print one."""
        callers = set()
        for path in pathlib.Path(tract.__file__).parent.glob("*.py"):
            owner = {}
            # ast.walk is breadth-first, so an inner function overwrites its outer one.
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef):
                    owner.update((child, node.name) for child in ast.walk(node))
                elif isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name in ("eigenvalue", "eigenvalues"):
                        callers.add(owner.get(node, "<module>"))
        assert callers == {"eigenvalue", "nth_minimal_error"}


class TestCri:
    def test_abs_is_one(self, geo):
        # CRI_d = 1: under ABS the ratios are the family's own logarithms.
        lead = geo.family.log_values(7, np.ones(1, dtype=np.int64))[0]
        assert log_ratio(geo, 7, 1, ABS) == lead

    def test_nor_geometric(self, geo):
        assert eigenvalue(geo, 2, 1) == 0.5

    def test_nor_scaled_poly(self):
        model = EigenModel(PolyDecay(3.0, 1.0))
        assert eigenvalue(model, 1, 1) == pytest.approx(3.0, rel=1e-15, abs=0)  # exp(ln 3)


class TestTailBound:
    def test_geometric_is_its_own_envelope(self, geo):
        env = ratio_envelope(geo, 1, ABS, 10)
        assert isinstance(env.form, GeometricTail)
        assert env.form.ratio == 0.5
        assert env.valid_from == 10
        assert env.exact

    def test_declared_envelope_keeps_its_onset(self):
        # A Tabulated continuation gives the values, exactly, past the prefix.
        tail = TailEnvelope(PowerLawTail(2.0, 3.0), valid_from=50)
        model = EigenModel(Tabulated(tuple(1.0 / (j + 1) for j in range(60)), tail))
        env = ratio_envelope(model, 4, ABS, 10)
        assert isinstance(env.form, PowerLawTail)
        assert math.exp(env.log_scale) == 2.0 and env.form.beta == 3.0
        assert env.valid_from == 61
        assert env.exact

    def test_expression_without_tail_has_none(self):
        # j + 1 reads as no closed form: a sum of a constant and a power of j.
        model = EigenModel(Expression("1/(j+1)"))
        assert ratio_envelope(model, 1, ABS, 100) is None

    def test_expression_with_declared_tail_under_nor(self):
        tail = TailEnvelope(PowerLawTail(2.0, 3.0), valid_from=1)
        model = EigenModel(Expression("2/(j*j*j)"), declared_tail=tail)
        env = ratio_envelope(model, 1, NOR, 1)
        assert env is not None
        # normalised by lambda(d, 1) = 2
        assert math.exp(env.log_scale) == pytest.approx(1.0)

    def test_a_recognised_form_wins_over_the_declared_tail(self):
        """j**-2 reads as its own exact power law, which the sums read; the
        declared tail, below the values, is still what validate checks."""
        tail = TailEnvelope(PowerLawTail(1e-9, 3.0), valid_from=2)
        model = EigenModel(Expression("j^(0-2)"), declared_tail=tail)
        env = ratio_envelope(model, 1, ABS, 1)
        assert env.exact and env.form == PowerLawTail(1.0, 2.0) and env.log_factor == 0.0
        assert {v.kind for v in validate(model, d_max=1, j_probe=100).violations} == {"envelope"}

    @pytest.mark.parametrize(
        "family",
        [PolyDecay(1.0, 2.0), Tabulated((1.0, 0.5), TailEnvelope(GeometricTail(1.0, 0.5), valid_from=3))],
        ids=["PolyDecay", "Tabulated"],
    )
    def test_declared_tail_needs_a_family_without_an_envelope(self, family):
        """ratio_envelope reads the family's own envelope first, so a tail
        declared beside it would be read by validate alone."""
        tail = TailEnvelope(PowerLawTail(1e-9, 3.0), valid_from=2)
        with pytest.raises(ValueError, match=f"^{family.__class__.__name__} has an envelope of its own"):
            EigenModel(family, declared_tail=tail)

    def test_d_scale_rescales_envelope(self):
        model = EigenModel(Geometric(1.0, 0.5), d_scale=exprdsl.parse("1/d"))
        env = ratio_envelope(model, 4, ABS, 1)
        assert math.exp(env.log_scale) == pytest.approx(0.25)

    def test_d_scale_underflow_keeps_its_logarithm(self):
        model = EigenModel(PolyDecay(1.0, 2.0), d_scale=exprdsl.parse("exp(0-d)"))
        assert eigenvalue(model, 2000, 1) == 0.0
        assert log_ratio(model, 2000, 1, ABS) == -2000.0

    def test_d_scale_below_the_double_range_keeps_its_logarithm(self):
        """c_8 = 8**-400 is about 1e-361.  The eigenvalue underflows to 0; the
        terms and the envelope both add the exact ln c_8 = -400 ln 8."""
        model = EigenModel(PolyDecay(1.0, 2.0), d_scale=exprdsl.parse("d^(0-400)"))
        log_c = -400 * math.log(8)
        assert eigenvalue(model, 8, 1) == 0.0
        assert model.log_d_scale(8) == log_c
        assert log_ratios(model, 8, np.array([1, 2]), ABS).tolist() == [log_c, log_c - 2 * math.log(2)]
        assert ratio_envelope(model, 8, ABS, 1).log_factor == log_c

    def test_d_scale_negative_rejected(self):
        model = EigenModel(PolyDecay(1.0, 2.0), d_scale=exprdsl.parse("1-d"))
        with pytest.raises(EvalDomainError):
            eigenvalue(model, 3, 1)


class TestValidate:
    def test_monotone_family_passes(self, geo):
        assert validate(geo, d_max=10, j_probe=10_000).ok

    def test_non_monotone_table_fails_with_witness(self):
        # 1, 0.5, 0.7, 1/4, 1/5, ...: a Tabulated prefix is sorted when the
        # model is built, so the non-monotone table is written as a formula.
        model = EigenModel(Expression("max(1/j, 0.7*max(0, 1-(j-3)^2))"))
        report = validate(model, d_max=1, j_probe=3)
        assert not report.ok
        witnesses = {(v.d, v.j) for v in report.violations if v.kind == "increase"}
        assert (1, 3) in witnesses

    def test_envelope_violation_detected(self):
        # envelope(3) = 0.125 < lambda(3) = 0.25: domination fails at j=3.
        model = EigenModel(
            Tabulated((1.0, 1.0, 0.25), TailEnvelope(GeometricTail(1.0, 0.5), valid_from=3))
        )
        report = validate(model, d_max=1, j_probe=3)
        assert not report.ok
        assert any(v.kind == "envelope" and v.j == 3 for v in report.violations)

    def test_probed_monotonicity_on_every_index(self, poly2):
        report = validate(poly2, d_max=4, j_probe=10_000)
        assert report.ok

    def test_one_log_read_per_dimension(self, monkeypatch):
        """The probed indices, their successors and the envelope grid are one
        log_ratios read per d; no linear value is read."""
        reads = []

        def counted(model, d, j, criterion):
            reads.append(d)
            return log_ratios(model, d, j, criterion)

        def linear(*args):
            raise AssertionError("validate read a linear eigenvalue")

        monkeypatch.setattr(eigenmodel, "log_ratios", counted)
        monkeypatch.setattr(eigenmodel, "eigenvalues", linear)
        model = EigenModel(Expression("j^(0-2)"), declared_tail=TailEnvelope(PowerLawTail(1.0, 2.0), valid_from=600))
        assert validate(model, d_max=3, j_probe=2048).ok
        assert reads == [1, 2, 3]

    def test_increase_below_the_double_range(self):
        """Every value lies below 1e-308 and rises from j = 101 on: the
        logarithms show the increase that the linear values, all 0, hide."""
        model = EigenModel(Expression("exp(0-800) * j^(0-2) * max(1, j/100)^3"))
        report = validate(model, d_max=1, j_probe=2048)
        first = report.violations[0]
        assert (first.kind, first.d, first.j) == ("increase", 1, 101)
        assert first.detail.startswith("ln lambda(d,101)=-809.2")

    def test_values_past_the_double_range_are_nonfinite(self):
        """ln lambda = ln 1e300 + 700 - 2 ln j lies above ln DBL_MAX at every
        probed j; each is reported with its logarithm, and no exp overflows."""
        model = EigenModel(PolyDecay(1e300, 2.0), d_scale=exprdsl.parse("exp(700)"))
        report = validate(model, d_max=1, j_probe=600)
        assert [v.kind for v in report.violations] == ["nonfinite"] * report.probed_indices
        assert report.violations[0].detail.startswith("ln lambda=1390.77")

    def test_domain_error_on_the_envelope_grid_is_a_violation(self):
        """The formula turns negative at j = 20000, inside the envelope's grid
        (3000 to 30000) but past the probed indices."""
        model = EigenModel(
            Expression("1/(j*(20000-j))"), declared_tail=TailEnvelope(PowerLawTail(1.0, 1.5), valid_from=3000)
        )
        report = validate(model, d_max=1, j_probe=2048)
        assert [v.kind for v in report.violations] == ["eval-domain"]
        assert "negative eigenvalue" in report.violations[0].detail

    def test_ensure_valid_raises_with_the_first_violation(self):
        model = EigenModel(Expression("max(1/j, 0.7*max(0, 1-(j-3)^2))"))
        with pytest.raises(ValidationFailedError) as info:
            ensure_valid(model, d_max=1, j_probe=3)
        report = info.value.report
        assert not report.ok
        assert str(info.value) == f"model validation failed: {report.summary()}"
        assert "first: increase at (d=1, j=3): ln lambda(d,3)=" in str(info.value)


class TestRatios:
    def test_nor_normalisation(self, geo):
        js = np.arange(1, 300)
        vals = np.exp(log_ratios(geo, 3, js, NOR))
        assert vals[0] == 1.0
        assert np.all(vals <= 1.0)

    def test_nor_scale_invariance_exact(self):
        base = EigenModel(Geometric(1.0, 0.5))
        scaled = EigenModel(Geometric(1.0, 0.5), d_scale=exprdsl.parse("exp(d)"))
        js = np.arange(1, 200)
        for d in (1, 3, 9):
            a = np.exp(log_ratios(base, d, js, NOR))
            b = np.exp(log_ratios(scaled, d, js, NOR))
            assert np.array_equal(a, b)
            assert np.array_equal(
                log_ratios(base, d, js, NOR), log_ratios(scaled, d, js, NOR)
            )

    def test_log_ratios_consistent_with_linear(self, exp2):
        js = np.arange(1, 100)
        lin = np.log(np.exp(log_ratios(exp2, 1, js, ABS)))
        logs = log_ratios(exp2, 1, js, ABS)
        assert logs == pytest.approx(lin, rel=1e-12, abs=1e-12)

    def test_log_ratios_avoid_clamp_saturation(self, exp2):
        # Far past the underflow clamp the log keeps tracking the true decay.
        val = log_ratios(exp2, 1, np.asarray([1000]), ABS)[0]
        assert val == pytest.approx(-2000.0)

    def test_ratio_scalar(self, geo):
        assert ratio(geo, 2, 3, NOR) == math.exp(log_ratio(geo, 2, 3, NOR))
        assert ratio(geo, 2, 3, NOR) == pytest.approx(0.25, rel=1e-15, abs=0)

    def test_nor_log_ratios_evaluate_the_family_once(self):
        calls = []

        class Family:  # a bare family that records every index array it is asked for
            def log_values(self, d, j):
                calls.append(np.asarray(j).tolist())
                return -2.0 * np.log(np.asarray(j, dtype=float))

        model = EigenModel(Family())
        logs = log_ratios(model, 1, np.asarray([2, 3]), NOR)
        assert calls == [[2, 3, 1]]
        assert logs.tolist() == (-2.0 * np.log([2.0, 3.0])).tolist()

    def test_nor_error_names_the_index_before_the_lead(self):
        # Negative at j = 1 and at j = 5: the error names j = 5, the index asked for.
        model = EigenModel(Expression("1-(j-3)^2/2"))
        with pytest.raises(EvalDomainError) as err:
            log_ratios(model, 1, np.asarray([5]), NOR)
        assert err.value.j == 5


class TestTabulatedOrder:
    def test_prefix_is_stored_sorted(self):
        tail = TailEnvelope(GeometricTail(0.5, 0.5), valid_from=4)
        assert Tabulated((1.0, 2.0, 0.5), tail) == Tabulated((2.0, 1.0, 0.5), tail)
        assert Tabulated((1.0, 2.0, 0.5), tail).prefix == (2.0, 1.0, 0.5)
        assert eigenvalue(EigenModel(Tabulated((0.5, 1.0, 2.0), tail)), 1, 1) == 2.0

    def test_continuation_above_the_last_entry_is_rejected(self):
        # 2 * 0.5**3 = 0.25 at j = 3, above the smallest entry 0.2.
        with pytest.raises(ValueError, match=r"j=3 \(0\.25\).*0\.2"):
            Tabulated((0.2, 1.0), TailEnvelope(GeometricTail(2.0, 0.5), valid_from=3))
        Tabulated((0.25, 1.0), TailEnvelope(GeometricTail(2.0, 0.5), valid_from=3))  # ties pass

    def test_continuation_join_reads_its_log_factor(self):
        # 0.5**3 = 0.125 at j = 3, times e: 0.34, above the smallest entry 0.2;
        # 2 * 0.5**3 = 0.25, times 1/e: 0.092, below it.
        with pytest.raises(ValueError, match=r"j=3 \(0\.339"):
            Tabulated((0.2, 1.0), TailEnvelope(GeometricTail(1.0, 0.5), valid_from=3, log_factor=1.0))
        model = EigenModel(Tabulated((0.2, 1.0), TailEnvelope(GeometricTail(2.0, 0.5), valid_from=3, log_factor=-1.0)))
        assert eigenvalue(model, 1, 3) == pytest.approx(0.25 / math.e, rel=1e-15)


class TestConfigIngestion:
    def test_roundtrip_geometric(self):
        from tract import model_from_config

        model = model_from_config({"kind": "Geometric", "params": {"a": 1, "r": 0.5}})
        assert eigenvalue(model, 1, 2) == 0.25

    def test_unknown_key_rejected(self):
        from tract import model_from_config

        with pytest.raises(ValueError, match="frequency"):
            model_from_config({"kind": "Geometric", "params": {"frequency": 2}})

    def test_tabulated_requires_tail(self):
        from tract import model_from_config

        with pytest.raises(ValueError, match="tail"):
            model_from_config({"kind": "Tabulated", "params": {"prefix": [1.0, 0.5]}})

    def test_declared_powerlaw_needs_beta_above_one(self):
        from tract import model_from_config

        with pytest.raises(ValueError, match="beta"):
            model_from_config(
                {
                    "kind": "Expression",
                    "params": {"formula": "1/j"},
                    "tail": {"form": "PowerLaw", "A": 1.0, "beta": 0.5},
                }
            )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"kind": "Geometric", "params": {"a": Infinity, "r": 0.5}}', "Geometric a must be finite"),
            ('{"kind": "PolyDecay", "params": {"a": Infinity}}', "PolyDecay a must be finite"),
            ('{"kind": "ExpDecay", "params": {"gamma": NaN}}', "ExpDecay gamma must be finite"),
            (
                '{"kind": "Expression", "params": {"formula": "2**-j"},'
                ' "tail": {"form": "Geometric", "A": Infinity, "r": 0.5}}',
                "GeometricTail scale must be finite",
            ),
        ],
    )
    def test_non_finite_numbers_rejected(self, spec, message):
        # Python's JSON reader accepts Infinity and NaN.
        import json

        from tract import model_from_config

        with pytest.raises(ValueError, match=message):
            model_from_config(json.loads(spec))

    def test_d_scale_parsed(self):
        from tract import model_from_config

        model = model_from_config(
            {"kind": "Geometric", "params": {"a": 1, "r": 0.5}, "d_scale": "1/d"}
        )
        assert eigenvalue(model, 4, 1) == pytest.approx(0.125, rel=1e-15, abs=0)
