import csv
import json
import math

import pytest

from tract import CriterionParams, EigenModel, ErrorCriterion, ExpDecay, PolyDecay, evaluate_sum
from tract.boundcheck import BoundSpec, bound_t2
from tract.cli import main
from tract.summation import SumEvaluation, SumStatus


def write_config(tmp_path, name="config.json", **overrides):
    payload = {
        "model": {"kind": "Geometric", "params": {"a": 1.0, "r": 0.5}},
        "criterion": "ABS",
        "limits": {
            "d_max": 16,
            "j_max": 67108864,
            "n_max": 1000000,
            "tol": 1e-10,
            "c_min": 0.0009765625,
        },
        "output": {"format": "json"},
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestComplexityCommand:
    def test_single_point_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["complexity", "--config", cfg, "--eps", "0.5", "--d", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 1
        assert out["manifest"]["version"]

    def test_grid_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(
            ["complexity", "--config", cfg, "--eps-grid", "0.1:0.5:3", "--d-grid", "1:2"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,eps,criterion,n,capped"
        assert len(lines) == 1 + 6

    def test_out_file_with_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "res.json"
        assert main(
            ["complexity", "--config", cfg, "--eps", "0.5", "--d", "3", "--out", str(out_path)]
        ) == 0
        data = json.loads(out_path.read_text())
        assert data["n"] == 1
        manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
        assert manifest["command"] == "complexity"
        assert manifest["config_sha256"]


class TestManifest:
    def test_file_manifest_equals_embedded_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "spt.json"
        assert main(
            ["criterion", "--config", cfg, "--sum", "spt-alg", "--tau", "1", "--d", "3",
             "--out", str(out_path)]
        ) == 0
        embedded = json.loads(out_path.read_text())["manifest"]
        on_file = json.loads((tmp_path / "spt.json.manifest.json").read_text())
        assert on_file == embedded
        assert on_file["parameters"] == {"sum": "spt-alg", "tau": 1.0, "d": 3}

    def test_verify_bounds_records_the_sum_parameters(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "bounds.csv"
        assert main(
            ["verify-bounds", "--config", cfg, "--theorem", "t1",
             "--tau1", "0", "--tau2", "0.5", "--tau3", "0", "--c-tilde", "1",
             "--eps-grid", "1e-4:1e-1:5", "--d-grid", "1:4", "--out", str(out_path)]
        ) == 0
        on_stdout = json.loads(capsys.readouterr().out)["manifest"]
        on_file = json.loads((tmp_path / "bounds.csv.manifest.json").read_text())
        assert on_file == on_stdout
        assert on_file["parameters"] == {
            "theorem": "T1", "eps_grid": "1e-4:1e-1:5", "d_grid": "1:4",
            "tau1": 0.0, "tau2": 0.5, "tau3": 0.0, "c_tilde": 1.0,
        }


class TestFiniteSpectrumOrder:
    @pytest.mark.parametrize(
        "argv",
        [
            ["complexity", "--eps", "0.8", "--d", "1"],
            ["complexity", "--eps", "0.8", "--d", "1", "--oracle"],
            ["complexity", "--eps-grid", "0.05:0.95:7", "--d-grid", "1:2"],
            ["criterion", "--sum", "spt-alg", "--tau", "1"],
            ["criterion", "--sum", "wt-exp", "--c", "1", "--s", "1", "--t", "1", "--sup", "--d-max", "3"],
            ["classify"],
            ["exponent", "--notion", "alg-spt"],
            ["verify-bounds", "--theorem", "t1", "--tau2", "0.5", "--eps-grid", "1e-4:1e-1:3", "--d-grid", "1:2"],
            ["validate"],
        ],
        ids=["point", "oracle", "grid", "criterion", "sup", "classify", "exponent", "verify-bounds", "validate"],
    )
    def test_permuted_spectrum_gives_the_same_output(self, tmp_path, capsys, argv):
        outputs = []
        for name, values in (("sorted", [2.0, 1.0, 0.5]), ("permuted", [1.0, 2.0, 0.5])):
            model = {"kind": "FiniteRank", "params": {"values": values}}
            cfg = write_config(tmp_path, name=f"{name}.json", model=model, criterion="NOR")
            assert main([argv[0], "--config", cfg, *argv[1:]]) == 0
            out = capsys.readouterr().out
            if out.startswith("{"):
                out = json.loads(out)
                out.pop("manifest")  # the config hash differs
            outputs.append(out)
        assert outputs[0] == outputs[1]
        if argv[1:2] == ["--eps"]:
            assert outputs[0]["n"] == 1


    def test_permuted_tabulated_prefix_gives_the_same_classify(self, tmp_path, capsys):
        outputs = []
        for name, prefix in (("sorted", [2.0, 1.0, 0.5]), ("permuted", [1.0, 0.5, 2.0])):
            model = {
                "kind": "Tabulated",
                "params": {"prefix": prefix},
                "tail": {"form": "Geometric", "A": 0.5, "r": 0.5, "valid_from": 4},
            }
            cfg = write_config(tmp_path, name=f"{name}.json", model=model, criterion="NOR")
            assert main(["classify", "--config", cfg]) == 0
            out = json.loads(capsys.readouterr().out)
            out.pop("manifest")  # the config hash differs
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_tabulated_continuation_above_the_prefix_is_a_config_error(self, tmp_path, capsys):
        model = {
            "kind": "Tabulated",
            "params": {"prefix": [1.0, 0.2]},
            "tail": {"form": "Geometric", "A": 2.0, "r": 0.5, "valid_from": 3},
        }
        cfg = write_config(tmp_path, model=model)
        assert main(["classify", "--config", cfg]) == 2
        assert "j=3" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_invalid_model_exits_one_with_witness(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={
                "kind": "Expression",
                "params": {"formula": "max(1/j, 0.7*max(0, 1-(j-3)^2))"},  # 1, 0.5, 0.7, 1/4, ...
            },
        )
        assert main(["validate", "--config", cfg]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert any(v["kind"] == "increase" and v["j"] == 3 for v in out["violations"])


class TestConfigStrictness:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra_key=1)
        assert main(["validate", "--config", cfg]) == 2
        assert "extra_key" in capsys.readouterr().err

    def test_unknown_limit_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, limits={"d_max": 4, "dmax": 4})
        assert main(["validate", "--config", cfg]) == 2
        assert "dmax" in capsys.readouterr().err

    def test_bad_tolerance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, limits={"tol": 2.0})
        assert main(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "limits,message",
        [
            ({"d_max": 0}, "limits must be positive"),
            ({"tol": 1}, "tol must lie in (0, 1)"),
            ({"c_min": 0}, "c_min must lie in (0, 1]"),
            ({"c_min": 2}, "c_min must lie in (0, 1]"),
        ],
        ids=["d_max-0", "tol-1", "c_min-0", "c_min-2"],
    )
    def test_limit_out_of_range_is_a_config_error(self, tmp_path, capsys, limits, message):
        cfg = write_config(tmp_path, limits=limits)
        assert main(["classify", "--config", cfg]) == 2
        # One config error line, no traceback.
        assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"limits": {"tol": None}},
            {"limits": {"d_max": [1]}},
            {"model": {"kind": "PolyDecay", "params": {"a": None}}},
            {"model": {"kind": "FiniteRank", "params": {"values": [1.0, None]}}},
            {"model": {"kind": "FiniteRank", "params": {"values": 3}}},
            {"model": {"kind": "Expression", "params": {"formula": "1/(j*j)"},
                       "tail": {"form": "PowerLaw", "A": None, "beta": 2.0}}},
            {"model": {"kind": "Expression", "params": {"formula": "1/(j*j)"}, "tail": "x"}},
            {"criterion": None},
            {"model": {"kind": "Geometric", "params": {"a": 1.0, "r": 0.5}, "d_scale": 5}},
        ],
        ids=["tol-null", "d_max-list", "param-null", "value-null", "values-number",
             "tail-field-null", "tail-string", "criterion-null", "d_scale-number"],
    )
    def test_wrong_json_type_is_a_config_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestCriterionCommand:
    def test_sum_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["criterion", "--config", cfg, "--sum", "spt-alg", "--tau", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Certified"
        assert out["value"] == pytest.approx(1.0, abs=1e-10)

    def test_sup_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(
            ["criterion", "--config", cfg, "--sum", "spt-alg", "--tau", "1", "--sup", "--d-max", "4"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,value"
        assert len(lines) == 5

    def test_uwt_statistic(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(
            ["criterion", "--config", cfg, "--sum", "uwt-exp", "--n", "100", "--k", "2"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["statistic"] > 1.0

    def test_missing_parameter_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["criterion", "--config", cfg, "--sum", "spt-alg"]) == 2
        assert capsys.readouterr().err == "config error: missing parameter tau\n"

    def test_bad_parameter_value_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(
            ["criterion", "--config", cfg, "--sum", "wt-alg", "--c", "-1", "--s", "1", "--t", "1"]
        ) == 2

    @pytest.mark.parametrize("s", ["400", "1e308"])
    def test_wt_alg_coefficient_below_the_double_range(self, tmp_path, capsys, s):
        """B = c * 100**(-s/2) underflows to 0.  At s = 400 the stretched tail
        carries ln B and certifies 9/e + 1/e**2 (terms j < 10 are 1, j = 10 is
        1/e, the rest vanish); at s = 1e308 ln B leaves the range too and the
        sum has no certificate.  Either way the valid input is answered."""
        cfg = write_config(tmp_path, model={"kind": "PolyDecay", "params": {"a": 100.0, "alpha": 2.0}})
        assert main(["criterion", "--config", cfg, "--sum", "wt-alg", "--c", "1", "--s", s, "--t", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["value"] == pytest.approx(9 / math.e + math.exp(-2.0), rel=1e-15)
        assert out["status"] == ("Certified" if s == "400" else "Heuristic")
        if out["status"] == "Certified":
            extended = evaluate_sum(
                EigenModel(PolyDecay(100.0, 2.0)), "wt-alg", 1, CriterionParams(c=1.0, s=float(s), t=1.0),
                ErrorCriterion.ABS, min_terms=10 * out["terms_used"],
            )
            assert abs(extended.value - out["value"]) <= out["remainder_bound"] + 1e-12 * out["value"]

    def test_wt_exp_coefficient_below_the_double_range(self, tmp_path, capsys):
        """On Geometric(1, 1/2), B = c * ln(2)**s underflows to 0 at s = 1e308;
        the tail carries ln B, and every term is 0."""
        cfg = write_config(tmp_path)
        assert main(["criterion", "--config", cfg, "--sum", "wt-exp", "--c", "1", "--s", "1e308", "--t", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["status"], out["value"], out["remainder_bound"]) == ("Certified", 0.0, 0.0)

    def test_nor_lead_below_the_clamp(self, tmp_path, capsys):
        """Under NOR on Geometric(1e-305, 0.999) the terms are 0.999**(j-1);
        the certificate brackets their sum, 1000."""
        model = {"kind": "Geometric", "params": {"a": 1e-305, "r": 0.999}}
        cfg = write_config(tmp_path, model=model, criterion="NOR")
        assert main(["criterion", "--config", cfg, "--sum", "spt-alg", "--tau", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Certified"
        assert abs(out["value"] - 1000.0) <= out["remainder_bound"]

    def test_onset_past_the_double_range_is_certified(self, tmp_path, capsys):
        """spt-exp on PolyDecay(1, 2) at a tiny tau: the terms tend to 1, and
        the divergence onset ln j lies past the double range (for a subnormal
        tau, 1/tau does too).  The sum is certified divergent, not a
        heuristic partial sum near pi**2/6."""
        cfg = write_config(tmp_path, model={"kind": "PolyDecay", "params": {"a": 1.0, "alpha": 2.0}})
        for tau in ("1e-308", "1e-310", "5e-324"):
            assert main(["criterion", "--config", cfg, "--sum", "spt-exp", "--tau", tau]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            out = json.loads(captured.out)
            assert (out["status"], out["value"], out["terms_used"]) == ("DivergenceCertified", "inf", 0), tau
            assert out["note"].startswith("divergent (term-limit: terms >= 0.5 from j=2**")

    def test_onset_past_2_62_comes_from_its_logarithm(self, tmp_path, capsys):
        """qpt-exp on ExpDecay(1, 1, 1e-6) diverges from j = 2**(10**6) on; that
        power once overflowed, and the sum ran its whole term budget."""
        cfg = write_config(tmp_path, model={"kind": "ExpDecay", "params": {"a": 1.0, "b": 1.0, "gamma": 1e-6}})
        assert main(["criterion", "--config", cfg, "--sum", "qpt-exp", "--tau", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert (out["status"], out["terms_used"]) == ("DivergenceCertified", 0)
        assert out["note"] == "divergent (harmonic: terms >= 1/j from j=2**1000002)"

    @pytest.mark.parametrize("kind", ["pt-alg", "pt-exp", "qpt-alg"])
    def test_zero_c_tilde_is_config_error(self, tmp_path, capsys, kind):
        # zero is a value, not "unset": it must not fall back to c_tilde = 1
        cfg = write_config(tmp_path)
        assert main(
            ["criterion", "--config", cfg, "--sum", kind, "--tau2", "1", "--c-tilde", "0"]
        ) == 2
        assert "config error" in capsys.readouterr().err


_POLY = {"kind": "PolyDecay", "params": {"a": 1.0, "alpha": 2.0}}
_GEO = {"kind": "Geometric", "params": {"a": 1.0, "r": 0.5}}


class TestInvalidInput:
    # Each must end in a result or a config error: no NaN, no answer
    # silently computed from an invalid parameter, no raw traceback.
    @pytest.mark.parametrize(
        "model, criterion, argv, code",
        [
            (_POLY, "ABS", "criterion --sum spt-alg --tau inf", 2),
            (_POLY, "NOR", "criterion --sum spt-alg --tau inf", 2),
            (_POLY, "ABS", "criterion --sum spt-alg --tau 1 --c-tilde inf", 2),
            (_POLY, "ABS", "criterion --sum spt-alg --tau 1 --c-tilde -5", 2),
            (_POLY, "ABS", "criterion --sum uwt-alg --n 100 --k 0", 2),
            ({**_GEO, "params": {"a": math.inf, "r": 0.5}}, "ABS", "classify", 2),
            ({**_POLY, "params": {"a": math.inf}}, "ABS", "classify", 2),
            (_GEO, "ABS", "criterion --sum pt-alg --tau2 1 --tau3 100 --d 2", 2),
            (_GEO, "ABS", "criterion --sum pt-alg --tau2 1 --tau3 2000 --d 2", 2),
            (_GEO, "ABS", "criterion --sum spt-alg --tau 1 --c-tilde 1e300", 2),
            (_GEO, "ABS", "criterion --sum wt-exp --c 1 --s 1 --t 2000 --d 2", 0),
            (_GEO, "ABS", "verify-bounds --theorem t1 --tau2 1 --tau3 2000 --d-grid 1:2", 2),
            (_POLY, "ABS", "criterion --sum wt-alg --c 1 --s 1e308 --t 1", 0),
            ({**_POLY, "params": {"a": 100.0, "alpha": 2.0}}, "ABS", "criterion --sum wt-alg --c 1 --s 316 --t 1", 0),
            ({"kind": "ExpDecay", "params": {"gamma": 0.5}}, "ABS", "criterion --sum wt-exp --c 1 --s 1e308 --t 1", 0),
            ({"kind": "ExpDecay", "params": {"gamma": 2000}}, "ABS", "criterion --sum spt-exp --tau 1100", 0),
            ({"kind": "ExpDecay", "params": {"gamma": 2000}}, "NOR", "criterion --sum spt-exp --tau 1100", 0),
            ({"kind": "ExpDecay", "params": {"gamma": 2000}}, "ABS", "criterion --sum pt-exp --tau2 1100", 0),
            (_POLY, "ABS", "criterion --sum spt-exp --tau 0.001", 0),
            (_POLY, "NOR", "criterion --sum pt-exp --tau2 0.001", 0),
            (_POLY, "ABS", "criterion --sum qpt-exp --tau 1100", 0),
            ({"kind": "ExpDecay", "params": {"gamma": 0.5}}, "NOR", "criterion --sum wt-alg --c 1 --s 1e308 --t 1", 0),
        ],
    )
    def test_exits_cleanly(self, tmp_path, capsys, model, criterion, argv, code):
        cfg = write_config(tmp_path, model=model, criterion=criterion)
        command, *flags = argv.split()
        assert main([command, "--config", cfg, *flags]) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err and '"nan"' not in out
        assert err.startswith("config error: ") if code == 2 else err == ""

    @pytest.mark.parametrize(
        "argv",
        ["--sum spt-alg --tau 1 --d 0", "--sum spt-alg --tau 1 --d -3", "--sum pt-alg --tau2 1 --d -3"],
    )
    def test_d_below_one_is_config_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, model=_GEO)
        assert main(["criterion", "--config", cfg, *argv.split()]) == 2
        assert capsys.readouterr().err == "config error: d must be >= 1\n"


class TestClassifyCommand:
    def test_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["classify", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["verdicts"]) == 12
        assert out["inconsistencies"] == []

    def test_polynomial_decay_reports_exp_uwt_fails(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, model={"kind": "PolyDecay", "params": {"a": 1.0, "alpha": 1.0}}
        )
        assert main(["classify", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        by_name = {v["notion"]: v["status"] for v in out["verdicts"]}
        assert by_name["EXP-UWT-ABS"] == "Fails"
        assert by_name["ALG-UWT-ABS"] == "SupportedUpTo"

    def test_byte_identical_across_workers(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outputs = []
        for workers in ("1", "4", "16"):
            assert main(["classify", "--config", cfg, "--threads", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("criterion", ["ABS", "NOR"])
    @pytest.mark.parametrize(
        "model",
        [
            {"kind": "PolyDecay", "params": {"a": 1e308, "alpha": 1e-9}},
            {"kind": "ExpDecay", "params": {"a": 1.0, "b": 1.0, "gamma": 1e-6}},
        ],
        ids=["poly-huge-scale", "exp-tiny-gamma"],
    )
    def test_planner_overflow_is_no_certificate(self, tmp_path, capsys, model, criterion):
        cfg = write_config(tmp_path, model=model, criterion=criterion)
        assert main(["classify", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["inconsistencies"] == []


class TestExponentCommand:
    def test_bracket(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, model={"kind": "PolyDecay", "params": {"a": 1.0, "alpha": 2.0}}
        )
        assert main(["exponent", "--config", cfg, "--notion", "alg-spt"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lo"] <= 1.0 <= out["hi"] + 1e-9


class TestVerifyBoundsCommand:
    def test_t1_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(
            [
                "verify-bounds", "--config", cfg, "--theorem", "t1",
                "--tau1", "0", "--tau2", "0.5", "--tau3", "0", "--c-tilde", "1",
                "--eps-grid", "1e-4:1e-1:5", "--d-grid", "1:4",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True and out["violations"] == 0

    @pytest.mark.parametrize("criterion, noted", [("NOR", False), ("ABS", True)])
    def test_d_dependence_note_follows_the_ratios(self, tmp_path, capsys, criterion, noted):
        """Under NOR a d_scale cancels, so the ratios and the constant do not
        depend on d and the note stays silent; under ABS it is printed."""
        scaled = {"kind": "Geometric", "params": {"a": 1.0, "r": 0.5}, "d_scale": "d^(0-1)"}
        cfg = write_config(tmp_path, model=scaled, criterion=criterion)
        code = main(
            [
                "verify-bounds", "--config", cfg, "--theorem", "t1",
                "--tau1", "0", "--tau2", "0.5", "--tau3", "0", "--c-tilde", "1",
                "--eps-grid", "1e-4:1e-1:5", "--d-grid", "1:4",
            ]
        )
        assert code == 0
        assert ("for d-dependent models" in capsys.readouterr().err) is noted

    def test_csv_rows_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "bounds.csv"
        code = main(
            [
                "verify-bounds", "--config", cfg, "--theorem", "t1",
                "--tau1", "0", "--tau2", "0.5", "--tau3", "0", "--c-tilde", "1",
                "--eps-grid", "1e-4:1e-1:5", "--d-grid", "1:4", "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "d,eps,oracle_n,bound,ok"
        assert len(lines) == 1 + 20
        assert (tmp_path / "bounds.csv.manifest.json").exists()

    def test_t2_constant_covers_every_certified_upper_bound(self, tmp_path, capsys):
        """ExpDecay(1, 1.1, 0.5), T2 at tau = 3: d = 1 stops at the term budget
        with a remainder of 0.068, so the constant must reach the largest
        value + remainder over d (3.1288), not sup * (1 + tol) = 3.0608."""
        exp = {"kind": "ExpDecay", "params": {"a": 1.0, "b": 1.1, "gamma": 0.5}}
        cfg = write_config(tmp_path, model=exp)
        out_path = tmp_path / "t2.csv"
        code = main(
            [
                "verify-bounds", "--config", cfg, "--theorem", "t2", "--tau", "3",
                "--eps-grid", "1e-6:1e-1:5", "--d-grid", "1:2", "--out", str(out_path),
            ]
        )
        assert code == 0
        model = EigenModel(ExpDecay(1.0, 1.1, 0.5))
        params = CriterionParams(tau=3.0)
        evals = [evaluate_sum(model, "qpt-exp", d, params, ErrorCriterion.ABS) for d in range(1, 17)]
        upper = max(e.upper() for e in evals)
        spec = BoundSpec("T2", params, SumEvaluation(upper, 0, 0.0, SumStatus.CERTIFIED), ErrorCriterion.ABS)
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 10
        for row in rows:
            assert int(row["bound"]) >= bound_t2(spec, int(row["d"]), float(row["eps"]))
        assert json.loads(capsys.readouterr().out)["constant"] == max(e.value for e in evals)

    def test_bound_past_the_double_range_dominates(self, tmp_path, capsys):
        """T3 at s = 2 and eps = 1e-7 exceeds the double range: the bound is
        inf, above every count, so its rows are ok and print inf."""
        exp = {"kind": "ExpDecay", "params": {"a": 1.0, "b": 2.0, "gamma": 1.0}}
        cfg = write_config(tmp_path, model=exp)
        out_path = tmp_path / "t3.csv"
        code = main(
            [
                "verify-bounds", "--config", cfg, "--theorem", "t3",
                "--c", "1", "--s", "2", "--t", "1",
                "--eps-grid", "1e-7:1e-1:3", "--d-grid", "1:2", "--out", str(out_path),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert [r["bound"] for r in rows if float(r["eps"]) < 1e-6] == ["inf", "inf"]
        assert all(r["ok"] == "True" for r in rows)


class TestAnalysisSection:
    def test_config_supplies_flag_defaults(self, tmp_path, capsys):
        cfg = write_config(tmp_path, analysis={"sum": "spt-alg", "tau": 1.0, "d": 1})
        assert main(["criterion", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(1.0, abs=1e-10)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, analysis={"sum": "spt-alg", "tau": 1.0})
        assert main(["criterion", "--config", cfg, "--tau", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(1.0 / 3.0, abs=1e-10)  # sum 4^-j

    def test_config_driven_verify_bounds(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            analysis={
                "theorem": "t1", "tau1": 0.0, "tau2": 0.5, "tau3": 0.0,
                "c_tilde": 1.0, "eps_grid": "1e-3:1e-1:4", "d_grid": "1:3",
            },
        )
        assert main(["verify-bounds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    def test_unknown_analysis_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, analysis={"tua": 1.0})
        assert main(["validate", "--config", cfg]) == 2
        assert "tua" in capsys.readouterr().err


class TestDeterminismOfGrids:
    def test_complexity_grid_thread_invariant(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outputs = []
        for workers in ("1", "8"):
            assert main(
                [
                    "complexity", "--config", cfg,
                    "--eps-grid", "1e-5:0.5:20", "--d-grid", "1:8",
                    "--threads", workers,
                ]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
