"""Benchmark for tract: end-to-end metrics per workload, or per-layer with --trace 1.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run from the root of a checkout; the package is imported from ``src/``.  The
metric names, units and workloads are those declared in ``BENCHMARK.json``.
Before the result the command prints an environment record, the output-drift
report and a table; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 5  # worker starts per run whose set-up time is sampled
RUN_LIMIT_S = 170  # a run never takes longer than this


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "tract", "__init__.py")):
        raise BenchError(f"no tract sources under {os.path.join(ROOT, 'src')}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def start_worker(args: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Spawn a worker and wait for READY; returns its set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return setup, proc


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []

    def setup_only(count: int) -> None:
        for _ in range(count):
            setup, proc = start_worker(base + ["--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup)

    # Set-up samples come from both ends of the run, so one slow moment of
    # the machine does not set the median.
    extra = 0 if trace else SETUP_STARTS - 1
    setup_only(extra // 2)
    setup, proc = start_worker(base, deadline)
    setups.append(setup)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    setup_only(extra - extra // 2)
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["samples"]["setup_starts"] = len(setups)
    result["samples"]["setup_s_quartiles"] = (
        statistics.quantiles(setups, n=4) if len(setups) > 1 else setups * 3
    )
    return result


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, cwd=ROOT, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **versions,
            **git_state(), "seed": seed}


def metric_block(spec: dict, result: dict, trace: int) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["per_layer"] if trace else result["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        seconds = args.seconds or spec["run_seconds"]
        env = environment(args.seed)
        results = {}
        for workload in [args.workload] if args.workload else names:
            result = run_workload(workload, args.seed, seconds, args.trace)
            results[workload] = (result, metric_block(spec, result, args.trace))
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    metrics = {}
    for workload, (result, block) in results.items():
        for failure in result["failures"]:
            sys.stderr.write(f"FAILED {workload} {failure}\n")
        drift, red = result["drift"], result["known_red"]
        for name in red["failing"]:
            print(f"known-red {workload}: still fails: {name}")
        for name in red["passing"]:
            print(f"known-red {workload}: now passes: {name}")
        env.setdefault("runs", {})[workload] = {
            "samples": result["samples"],
            "fail_ratio": result["failed"] / result["attempted"],
        }
        print(f"drift {workload}: {len(drift['changed'])} op(s) differ from the recorded digests"
              + "".join(f"\n  changed {name}" for name in drift["changed"])
              + (f"\n  {len(drift['unrecorded'])} op(s) have no recorded digest" if drift["unrecorded"] else ""))
        for name, metric in block.items():
            print(f"{workload:15s} {name:55s} {metric['value']:.6g} {metric['unit']}")
        prefix = "" if args.workload else f"{workload}/"
        metrics.update({prefix + name: metric for name, metric in block.items()})
    print("env " + json.dumps(env, sort_keys=True))
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
