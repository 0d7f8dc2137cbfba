"""Run one workload on several seeds and report each end-to-end metric's
median and quartile spread (IQR / median).

    python3 perfbench/steadiness.py --workload cli --seeds 1 2 3 4 5

A metric is steady when its spread is below a third of its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, v in res["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        print(f"seed {seed}: correct={res['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 or m["name"] == "setup_s" else "  WIDE"
        print(f"{m['name']:14s} {med:12.6g} {spread:8.4f} {m['bound'] / 3:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
