"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload serve-hot --seeds 1-5 [-- EXTRA RUN.PY ARGS]

Prints, per metric, the median and the inter-quartile distance over the
median (``statistics.quantiles(values, n=4)``) across the runs — the
steadiness figure the benchmark's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.metrics import quantile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="16")
    parser.add_argument("--trace", default="0")
    parser.add_argument("extra", nargs="*", help="further run.py arguments")
    args = parser.parse_args()
    low, high = (int(part) for part in args.seeds.split("-"))
    values = {}
    for seed in range(low, high + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace, *args.extra],
            capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()
        result = json.loads(out[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={json.loads(out[-2])['wall_s']:.1f}s "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = quantile_spread(series) if len(series) >= 2 and statistics.median(series) else 0.0
        print(f"{name:42s} median {statistics.median(series):14.6g}  spread {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
