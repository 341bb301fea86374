#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, for tuning the benchmark.

    python3 perfbench/spread.py --workload train-small --seeds 10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints per
metric the median of the runs and the distance between the first and third
quartile as a share of that median, next to a third of the metric's bound
in BENCHMARK.json. Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:<16} median {med:.5g} {m['unit']:<4} spread {(q3 - q1) / med:.4f} "
              f"(a third of the bound: {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
