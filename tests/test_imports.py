"""The package loads only what a caller uses.

These tests check the import graph, not timings: each runs a fresh
interpreter and lists the ``tract`` modules it loaded.
"""

import json
import os
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


@pytest.mark.parametrize("criterion, eps, loaded", [("ABS", "0.1", False), ("NOR", "0.5", True)])
def test_decimal_loads_only_at_a_near_tie(tmp_path, criterion, eps, loaded):
    # Geometric(1, 1/2): at eps = 0.1 no ratio is near eps**2; under NOR at
    # eps = 1/2, lambda_3/lambda_1 = 1/4 is a tie, decided at 40 digits.
    config = tmp_path / "config.json"
    model = {"kind": "Geometric", "params": {"a": 1.0, "r": 0.5}}
    config.write_text(json.dumps({"model": model, "criterion": criterion}))
    argv = ["complexity", "--eps", eps, "--d", "2", "--config", str(config)]
    script = (
        "import contextlib, io, sys, tract.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert tract.cli.main({argv!r}) == 0\n"
        "print('decimal' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [str(loaded)]
