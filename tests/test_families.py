"""The family contract: every eigenvalue family answers for itself.

Each family provides ``values``, ``log_values``, ``envelope``, ``rank`` and
``d_free``, answering arrays of indices only; nothing outside
:mod:`tract.eigenmodel` dispatches on the family class.  The envelopes the
model functions build from those answers are pinned against
``data/family_envelopes.json``; regenerate it with ``PYTHONPATH=src python
tests/test_families.py`` only when an envelope is meant to change.
"""

import ast
import dataclasses
import importlib
import json
import math
import pathlib
import pkgutil

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
    StretchedExpTail,
    Tabulated,
    TailEnvelope,
    exprdsl,
)
from tract.eigenmodel import log_ratios, ratio_envelope, ratios, support

GOLDEN = pathlib.Path(__file__).parent / "data" / "family_envelopes.json"

_POWER_TAIL = TailEnvelope(PowerLawTail(1.0, 2.0), valid_from=2)

# name -> (family, declared tail, rank, d_free)
FAMILIES = {
    "poly": (PolyDecay(2.0, 1.5), None, None, True),
    "exp": (ExpDecay(1.5, 0.5, 0.7), None, None, True),
    "geo": (Geometric(0.8, 0.5), None, None, True),
    "rank": (FiniteRank((2.0, 1.0, 0.5)), None, 3, True),
    "tab-power": (
        Tabulated((1.0, 0.3, 0.2), TailEnvelope(PowerLawTail(1.0, 1.5), valid_from=4)),
        None, None, True,
    ),
    "tab-geo": (
        Tabulated((1.0, 0.5), TailEnvelope(GeometricTail(1.0, 0.5), valid_from=3)),
        None, None, True,
    ),
    "tab-stretched": (
        Tabulated((1.0, 0.7), TailEnvelope(StretchedExpTail(2.0, 0.5, 0.8), valid_from=3)),
        None, None, True,
    ),
    "expr": (Expression("j^(0-2)"), None, None, True),
    "expr-tail": (Expression("j^(0-2)"), _POWER_TAIL, None, True),
    "expr-d": (Expression("j^(0-2)/d"), None, None, False),
    "expr-d-tail": (Expression("j^(0-2)/d"), _POWER_TAIL, None, False),
}

CASES = [(name, scaled) for name in FAMILIES for scaled in (False, True)]
IDS = [f"{name}{'+scale' if scaled else ''}" for name, scaled in CASES]


def _model(name: str, scaled: bool) -> EigenModel:
    family, tail, _, _ = FAMILIES[name]
    d_scale = exprdsl.parse("1.5/d") if scaled else None
    return EigenModel(family, d_scale=d_scale, declared_tail=tail)


def _indices(model: EigenModel) -> np.ndarray:
    rank = support(model, 1)
    if rank is not None:
        return np.arange(1, rank + 1, dtype=np.int64)
    grid = np.round(np.geomspace(3000, 1e5, 40)).astype(np.int64)
    return np.unique(np.concatenate([np.arange(1, 3000, dtype=np.int64), grid]))


def _encode(env: TailEnvelope | None):
    """[form name, scale, other form fields, valid_from, exact]; the scale is
    the envelope's, e**log_scale."""
    if env is None:
        return None
    _, *shape = dataclasses.astuple(env.form)
    return [type(env.form).__name__, math.exp(env.log_scale), *shape, env.valid_from, env.exact]


def _envelopes(name: str, scaled: bool) -> dict:
    """The ratio_envelope results the contract pins for one case."""
    case_id = IDS[CASES.index((name, scaled))]
    model = _model(name, scaled)
    table = {}
    for d in (1, 4):
        for start in (1, 10):
            for crit in ErrorCriterion:
                env = ratio_envelope(model, d, crit, start)
                table[f"{case_id}/ratio_envelope/{crit.value}/d{d}/start{start}"] = _encode(env)
    return table


@pytest.mark.parametrize("name,scaled", CASES, ids=IDS)
class TestFamilyContract:
    def test_log_values_match_values(self, name, scaled):
        model = _model(name, scaled)
        j = _indices(model)
        for d in (1, 4):
            pairs = [(model.family.log_values(d, j), model.family.values(d, j))]
            pairs += [(log_ratios(model, d, j, c), ratios(model, d, j, c)) for c in ErrorCriterion]
            for logs, values in pairs:
                keep = values > 1e-290
                assert keep.any()
                np.testing.assert_allclose(np.exp(logs[keep]), values[keep], rtol=1e-13, atol=0)

    def test_envelopes_match_recorded(self, name, scaled):
        # The scale is e**log_scale, so it matches the recorded one to within
        # the rounding of a logarithm and an exponential; the rest exactly.
        recorded = json.loads(GOLDEN.read_text())
        for key, env in _envelopes(name, scaled).items():
            if env is None or recorded[key] is None:
                assert env == recorded[key], key
                continue
            (kind, scale, *rest), (kind0, scale0, *rest0) = env, recorded[key]
            assert [kind, *rest] == [kind0, *rest0], key
            assert abs(scale - scale0) <= 2 * math.ulp(scale0), (key, scale, scale0)

    def test_rank_and_d_independence(self, name, scaled):
        model = _model(name, scaled)
        _, _, rank, d_free = FAMILIES[name]
        assert model.family.rank == rank
        assert support(model, 4) == rank
        assert model.family.d_free is d_free
        assert model.d_independent is (d_free and not scaled)


@pytest.mark.parametrize(
    "family", [ExpDecay(1.0, 2.0, 1.0), Geometric(1.0, 0.5), PolyDecay(1.0, 300.0)], ids=repr
)
def test_closed_form_logs_survive_underflow(family):
    j = np.arange(10_000, 1_000_001, 997, dtype=np.int64)
    with np.errstate(under="ignore"):
        assert np.all(family.values(1, j) == 0.0)  # the linear values are gone
    logs = family.log_values(1, j)
    assert np.all(np.isfinite(logs))
    assert np.all(np.diff(logs) < 0)


@pytest.mark.parametrize(
    "cls, args",
    [
        (PolyDecay, (1.0, 2.0)),
        (ExpDecay, (1.0, 1.0, 0.5)),
        (Geometric, (1.0, 0.5)),
        (PowerLawTail, (1.0, 2.0)),
        (GeometricTail, (1.0, 0.5)),
        (StretchedExpTail, (1.0, 1.0, 0.5)),
    ],
)
def test_numbers_must_be_finite(cls, args):
    cls(*args)
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    assert len(names) == len(args)
    for i, name in enumerate(names):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"^{cls.__name__} {name} must be finite"):
                cls(*args[:i], bad, *args[i + 1 :])


def test_closed_forms_are_their_tail_form():
    for family, form in [
        (PolyDecay(2.0, 1.5), PowerLawTail(2.0, 1.5)),
        (ExpDecay(1.5, 0.5, 0.7), StretchedExpTail(1.5, 0.5, 0.7)),
        (Geometric(0.8, 0.5), GeometricTail(0.8, 0.5)),
    ]:
        assert family.envelope == TailEnvelope(form, 1, exact=True)
        j = np.arange(1, 100, dtype=np.int64)
        assert np.array_equal(family.values(1, j), form.value_array(j))
        assert family == dataclasses.replace(family)
        assert hash(family) == hash(dataclasses.replace(family))
        assert "envelope" not in repr(family)


_FAMILY_CLASSES = {"PolyDecay", "ExpDecay", "Geometric", "FiniteRank", "Tabulated", "Expression"}


def _isinstance_targets(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = node.args[1]
            for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
                yield node.lineno, getattr(cls, "id", getattr(cls, "attr", None))


def test_no_scalar_eigenvalue_path():
    # One path: a single eigenvalue is a one-element array call, so every
    # search, count and sum reads the same values.
    classes = [getattr(tract, name) for name in sorted(_FAMILY_CLASSES)]
    classes += [PowerLawTail, GeometricTail, StretchedExpTail, TailEnvelope]
    assert [cls.__name__ for cls in classes if hasattr(cls, "value")] == []
    assert not hasattr(TailEnvelope, "bound")


def test_no_family_dispatch_outside_eigenmodel():
    package = pathlib.Path(tract.__file__).parent
    offenders = [
        f"{path.name}:{line} isinstance(..., {name})"
        for path in sorted(package.glob("*.py"))
        if path.name != "eigenmodel.py"
        for line, name in _isinstance_targets(ast.parse(path.read_text()))
        if name in _FAMILY_CLASSES
    ]
    assert offenders == []


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module


def test_no_worker_pool_in_tract():
    # Evaluation is sequential: the work is GIL-bound NumPy, so a pool only
    # costs time and opens a second code path.
    package = pathlib.Path(tract.__file__).parent
    offenders = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in _imported_modules(ast.parse(path.read_text()))
        if name.split(".")[0] in ("concurrent", "threading", "multiprocessing")
    ]
    assert offenders == []


def test_every_export_resolves():
    modules = [tract] + [
        importlib.import_module(f"tract.{info.name}")
        for info in pkgutil.iter_modules(tract.__path__)
        if not info.name.startswith("_")
    ]
    dangling = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1 and dangling == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {k: v for case in CASES for k, v in _envelopes(*case).items()}
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {GOLDEN}")
