"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload oracle-grid --seeds 1-10

For every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4), the spread (Q3 - Q1) / median, and that spread as a share of the
metric's bound from ``BENCHMARK.json``.  A benchmark is steady when every
spread except that of setup_s stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", "0"]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
    for metric in spec["end_to_end"]:
        name, series = metric["name"], values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        print(f"{args.workload:15s} {name:12s} median {median:.5g} q1 {q1:.5g} q3 {q3:.5g} "
              f"spread {spread:.4f} = {spread / metric['bound']:.2f} x bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
