"""One benchmark worker: set up a workload, run it, print one JSON result.

The parent (``run.py``) times the worker from spawn to its ``READY`` line:
that span is the set-up (interpreter start, ``import tract``, input
generation).  The worker then runs passes over the workload's fixed op set
until ``--seconds`` have been spent, times every op, checks every output and
prints its result as the last line of stdout.

In-process workloads first run one untimed pass that warms caches, records
each op's result digest and runs the (costly) independent checks; the timed
passes must then reproduce those digests.  cli-mix ops are fresh processes,
so its first pass is timed and checked at once.  With ``--trace 1`` the time
is split: untraced passes first, then traced passes, and the ratio of their
median pass times is the tracing overhead.

Each op's latency is its fastest over the run's passes, and ``wall_s`` is
the sum of those: the time the op set takes when the machine lets it run at
full speed.  On the 2-core machine this was tuned on, each core switches
between a fast and a 30-40% slower state every second or so, and a process
can sit on a slow core for a whole run; median pass times then differed by
up to 40% between runs.  Timed in-process passes therefore alternate between
the allowed cores, and the fastest repetition of each op is kept, as
``timeit`` advises: slower repetitions measure the interference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
KNOWN_RED = os.path.join(HERE, "known_red.json")
MAX_TRACED_SPANS = 400_000  # keeps a traced run's span memory bounded


def import_tract():
    sys.path.insert(0, SRC)
    import tract

    if not os.path.abspath(tract.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"tract imported from {tract.__file__}, not from {SRC}")
    return tract


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta-weighted mean of all order statistics: on cli-mix, with about 45
    ops a run, it is steadier than the one or two order statistics that an
    interpolated percentile reads.  With many samples the two agree.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n, q = len(ordered), p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cells = 20000
    mid = (np.arange(cells) + 0.5) / cells
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, cells + 1), cdf))
    return float(weights @ ordered)


class Outcome:
    """Digests and failures gathered over a run.

    Ops named in ``known_red.json`` fail their check on the commit that
    defined the benchmark because of a recorded defect in tract.  They still
    run and are checked every time; their failures are reported by name but
    kept out of the failure count, and the run says when one starts passing.
    """

    def __init__(self, known_red: dict[str, str]):
        self.digests: dict[str, str] = {}
        self.groups: dict[str, set[str]] = defaultdict(set)
        self.attempted = 0
        self.failures: list[str] = []
        self.known_red = known_red
        self.known_red_failing: set[str] = set()

    def record(self, op, result, error: str | None, check: bool) -> None:
        from workloads import digest

        self.attempted += 1
        if error is None and check:
            error = op.check(result)
        if error is None:
            value = digest(op.key(result))
            first = self.digests.setdefault(op.name, value)
            if first != value:
                error = f"result changed between passes ({first} -> {value})"
            elif op.group:
                self.groups[op.group].add(value)
        if error is None:
            return
        if op.name in self.known_red:
            self.known_red_failing.add(op.name)
        else:
            self.failures.append(f"{op.name}: {error}")

    def known_red_report(self) -> dict[str, list[str]]:
        passing = [name for name in self.digests if name in self.known_red and name not in self.known_red_failing]
        return {"failing": sorted(self.known_red_failing), "passing": sorted(passing)}

    def group_failures(self) -> list[str]:
        return [f"{group}: outputs differ across thread counts"
                for group, values in self.groups.items() if len(values) > 1]


def run_in_process(ops, seconds: float, trace: bool, outcome: Outcome):
    from tracer import Totals, Tracer, install

    for op in ops:  # warm-up and check pass
        try:
            result, error = op.run(), None
        except Exception as exc:  # a raised error is a failed op, not a crashed run
            result, error = None, f"{type(exc).__name__}: {exc}"
        outcome.record(op, result, error, check=True)

    cpus = sorted(os.sched_getaffinity(0))

    def timed_passes(budget: float, stop=lambda: False) -> tuple[list[float], list[list[float]]]:
        walls, per_op = [], [[] for _ in ops]
        deadline = time.perf_counter() + budget
        try:
            while True:
                os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
                wall = 0.0
                for op, samples in zip(ops, per_op):
                    start = time.perf_counter()
                    try:
                        result, error = op.run(), None
                    except Exception as exc:
                        result, error = None, f"{type(exc).__name__}: {exc}"
                    samples.append(time.perf_counter() - start)
                    wall += samples[-1]
                    outcome.record(op, result, error, check=False)
                walls.append(wall)
                if time.perf_counter() >= deadline or stop():
                    return walls, per_op
        finally:
            os.sched_setaffinity(0, cpus)

    if not trace:
        return timed_passes(seconds)
    walls, per_op = timed_passes(seconds / 2)
    tracer = Tracer()
    patch = install(tracer)
    try:
        traced_walls, _ = timed_passes(seconds / 2, lambda: len(tracer.spans) > MAX_TRACED_SPANS)
    finally:
        patch.restore()
    totals = Totals()
    totals.add(tracer.export())
    return walls, per_op, (totals, traced_walls)


def run_cli_mix(ops, seconds: float, trace: bool, outcome: Outcome, workdir: str):
    from tracer import Totals

    per_op = [[] for _ in ops]

    def one_pass(totals=None) -> float:
        wall = 0.0
        for index, (op, samples) in enumerate(zip(ops, per_op)):
            spans_path = os.path.join(workdir, f"spans-{index}.json") if totals else None
            start = time.perf_counter()
            try:
                result, error = op.run(spans_path), None
            except subprocess.TimeoutExpired:
                result, error = None, "timed out"
            spent = time.perf_counter() - start
            wall += spent
            if totals is None:
                samples.append(spent)
            outcome.record(op, result, error, check=True)
            if totals is not None and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    totals.add(json.load(handle))
                os.remove(spans_path)
        return wall

    walls = []
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    while True:
        walls.append(one_pass())
        if time.perf_counter() >= deadline:
            break
    if not trace:
        return walls, per_op
    totals = Totals()
    return walls, per_op, (totals, [one_pass(totals)])


def import_breakdown() -> dict[str, float]:
    """Interpreter start and ``import tract`` split by package (-X importtime)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    interp = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        interp.append(time.perf_counter() - start)
    samples = defaultdict(list)
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tract"],
                              capture_output=True, text=True, check=True, env=env, cwd=ROOT)
        sums = defaultdict(float)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            own_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            package = name.split(".")[0]
            if name == "tract":
                sums["cli.import.tract_s"] = int(cumulative_us) / 1e6
            if package in ("tract", "scipy", "numpy"):
                key = "cli.import.tract_own_s" if package == "tract" else f"cli.import.{package}_s"
                sums[key] += int(own_us) / 1e6
        for key in ("cli.import.tract_s", "cli.import.tract_own_s", "cli.import.scipy_s",
                    "cli.import.numpy_s"):
            samples[key].append(sums[key])
    out = {key: statistics.median(values) for key, values in samples.items()}
    out["cli.interp_s"] = statistics.median(interp)
    return out


def drift_report(workload: str, digests: dict[str, str]) -> dict[str, list[str]]:
    """Ops whose digest differs from the recorded one, and ops never recorded."""
    with open(DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle).get(workload, {})
    changed = sorted(name for name, value in digests.items() if name in recorded and recorded[name] != value)
    missing = sorted(name for name in digests if name not in recorded)
    return {"changed": changed, "unrecorded": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_tract()
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        with open(KNOWN_RED, encoding="utf-8") as handle:
            outcome = Outcome(json.load(handle).get(args.workload, {}))
        trace = bool(args.trace)
        if args.workload == "cli-mix":
            measured = run_cli_mix(ops, args.seconds, trace, outcome, workdir)
        else:
            measured = run_in_process(ops, args.seconds, trace, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls, per_op = measured[0], measured[1]
    failures = outcome.failures + outcome.group_failures()
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    fastest_ms = [min(samples) * 1e3 for samples in per_op]
    p90 = percentile(fastest_ms, 90)
    result = {
        "attempted": outcome.attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {
            "wall_s": sum(fastest_ms) / 1e3,
            "op_p50_ms": percentile(fastest_ms, 50),
            "op_p90_ms": p90,
            "peak_rss_mb": peak_kib / 1024.0,
        },
        "samples": {
            "ops_per_pass": len(ops),
            "passes": len(walls),
            "beyond_p90": sum(1 for v in fastest_ms if v > p90),
            "pass_s_quartiles": quartiles(walls),
            "op_ms_quartiles": quartiles(fastest_ms),
        },
        "drift": drift_report(args.workload, outcome.digests),
        "known_red": outcome.known_red_report(),
    }
    if trace:
        from tracer import layer_metrics

        totals, traced_walls = measured[2]
        per_layer = layer_metrics(totals, len(traced_walls))
        per_layer["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        per_layer.update(import_breakdown())
        result["per_layer"] = per_layer
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
