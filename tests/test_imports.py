"""The package loads only what a caller uses.

These tests check the import graph, not timings: each runs a fresh
interpreter and lists the ``tract`` modules it loaded.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import tract

SRC = os.path.dirname(os.path.dirname(tract.__file__))
SUM_MODULES = {"tract.criteria", "tract.summation", "tract.classifier", "tract.boundcheck"}


def _loaded_after(code: str) -> set[str]:
    """The tract modules a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('tract'))))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_import_tract_loads_no_submodule():
    assert _loaded_after("import tract") == {"tract"}


def test_dir_covers_all():
    assert set(tract.__all__) <= set(dir(tract))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tract.no_such_name  # noqa: B018


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from tract import *", namespace)
    assert set(tract.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "argv, not_loaded",
    [
        (["validate", "--j-probe", "100"], SUM_MODULES),
        (["complexity", "--eps", "0.1", "--d", "2"], SUM_MODULES),
        (["classify"], {"tract.boundcheck"}),
        (["criterion", "--sum", "spt-alg", "--tau", "1"], {"tract.boundcheck"}),
        (["exponent", "--notion", "alg-spt"], {"tract.boundcheck"}),
    ],
)
def test_subcommand_loads_only_what_it_uses(tmp_path, argv, not_loaded):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"kind": "Geometric", "params": {"a": 1.0, "r": 0.5}}}))
    code = (
        "import contextlib, io, tract.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert tract.cli.main({argv + ['--config', str(config)]!r}) == 0\n"
    )
    loaded = _loaded_after(code)
    assert "tract.eigenmodel" in loaded
    assert loaded.isdisjoint(not_loaded)


_GEOMETRIC = {"kind": "Geometric", "params": {"a": 1.0, "r": 0.5}}
_COMPLEXITY = ["complexity", "--d", "2", "--eps"]


def _formula(formula: str) -> dict:
    return {"kind": "Expression", "params": {"formula": formula}}


@pytest.mark.parametrize(
    "criterion, model, argv, loaded",
    [
        # Geometric(1, 1/2): at eps = 0.1 no ratio is near eps**2; under NOR at
        # eps = 1/2, lambda_3/lambda_1 = 1/4 is a tie, decided at 40 digits.
        pytest.param("ABS", _GEOMETRIC, [*_COMPLEXITY, "0.1"], False, id="ABS-0.1-False"),
        pytest.param("NOR", _GEOMETRIC, [*_COMPLEXITY, "0.5"], True, id="NOR-0.5-True"),
        # The WT multiplicities count ratios >= 1: under NOR the lead ratio is
        # 1 exactly and needs no digits, while under ABS lambda(d, 1) = 1**-2.1
        # is a real near tie.
        pytest.param("NOR", _formula("exp(0-1.05*j/d)"), ["classify"], False, id="NOR-classify-exp"),
        pytest.param("NOR", _formula("j^(0-2.1)"), ["classify"], False, id="NOR-classify-power"),
        pytest.param("ABS", _formula("j^(0-2.1)"), ["classify"], True, id="ABS-classify-power"),
    ],
)
def test_decimal_loads_only_at_a_near_tie(tmp_path, criterion, model, argv, loaded):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model, "criterion": criterion}))
    argv = [*argv, "--config", str(config)]
    script = (
        "import contextlib, io, sys, tract.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert tract.cli.main({argv!r}) == 0\n"
        "print('decimal' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [str(loaded)]


def test_every_exported_name_resolves():
    # A name left in a module's __all__ after its definition is deleted.
    for info in pkgutil.iter_modules(tract.__path__):
        module = importlib.import_module(f"tract.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
