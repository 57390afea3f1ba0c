"""Tests of the benchmark's own pieces: run with ``python3 -m pytest perfbench/tests``."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 0, ""),
        ("a", 1.0, 4.0, 0, 0, ""),
        ("b", 5.0, 9.0, 0, 0, ""),
        ("c", 2.0, 3.0, 1, 0, ""),
        ("d", 6.0, 8.0, 2, 0, ""),
        ("e", 7.0, 9.5, 2, 0, ""),  # overlaps d and overruns b: counted once, clipped
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.5])


def test_layer_metrics_count_children_and_normalise_per_pass():
    spans = [
        ("complexity.info_complexity", 0.0, 4.0, -1, 0, ""),
        ("eigenmodel.eigenvalue", 0.5, 1.0, 0, 0, ""),
        ("eigenmodel.eigenvalue", 1.0, 1.5, 0, 0, ""),
        ("eigenmodel.eigenvalue", 2.0, 3.0, 0, 0, ""),
        ("summation.certified_sum", 5.0, 6.0, -1, 2048, "certified"),
        ("summation.terms_fn", 5.2, 5.4, 4, 1024, ""),
        ("summation.terms_fn", 5.5, 5.7, 4, 1024, ""),
    ]
    totals = tracer.Totals()
    totals.add(spans)
    metrics = tracer.layer_metrics(totals, passes=2)
    assert metrics["complexity.info_complexity.calls"] == 0.5
    assert metrics["complexity.info_complexity.self_s"] == pytest.approx(1.0)
    assert metrics["complexity.info_complexity.probes"] == 1.5
    assert metrics["complexity.info_complexity.probes_per_call"] == 3.0
    assert metrics["summation.certified_sum.chunks"] == 1.0
    assert metrics["summation.certified_sum.self_s"] == pytest.approx(0.3)
    assert metrics["summation.certified_sum.terms_per_s"] == pytest.approx(2048.0)
    assert metrics["summation.certified_ratio"] == 1.0


def _cli_inputs(seed, workdir):
    ops = workloads.build("cli-mix", seed, str(workdir))
    configs = {name: (workdir / name).read_text() for name in sorted(os.listdir(workdir))}
    return [op.name for op in ops], configs


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for workload in ("oracle-grid", "certified-sums"):
        first = [op.name for op in workloads.build(workload, 7, str(tmp_path))]
        assert first == [op.name for op in workloads.build(workload, 7, str(tmp_path))]
        assert first != [op.name for op in workloads.build(workload, 8, str(tmp_path))]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for path in dirs:
        path.mkdir()
    first = _cli_inputs(7, dirs[0])
    assert first == _cli_inputs(7, dirs[1])
    assert first != _cli_inputs(8, dirs[2])


def _bindings():
    """Every (module, attribute) of a tract module that holds a traced function."""
    import tract  # noqa: F401

    for target in tracer.TARGETS:
        __import__(target.module)
    originals = {id(getattr(sys.modules[t.module], t.attr)) for t in tracer.TARGETS}
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "tract" or name.startswith("tract.")
        for attr, value in vars(module).items()
        if id(value) in originals
    }


def _traced_run(workload, seed, keep=lambda name: True):
    ops = [op for op in workloads.build(workload, seed, "") if keep(op.name)]
    outcome = worker.Outcome({})
    _, _, (totals, traced_walls) = worker.run_in_process(ops, 0.01, True, outcome)
    assert outcome.failures == []
    return tracer.layer_metrics(totals, len(traced_walls))


def test_traced_run_restores_every_patched_attribute():
    before = _bindings()
    metrics = _traced_run("certified-sums", 3, lambda name: name.startswith(("sum/geometric", "sum/poly")))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert metrics["summation.certified_sum.calls"] > 0  # the wrappers did see the calls


def test_oracle_grid_does_no_summation():
    metrics = _traced_run("oracle-grid", 3)
    assert metrics["complexity.info_complexity.calls"] > 0
    assert metrics["summation.certified_sum.calls"] == 0
