#!/usr/bin/env python3
"""Self-test: count metrics of the traced run repeat exactly for a seed.

    python3 perfbench/selftest.py                      # every workload
    python3 perfbench/selftest.py --workload train-small

Runs the traced benchmark twice per workload with the same seed and fails
unless every count metric (``tracer.COUNT_METRICS``) is identical in both.
Counts come from the first traced iteration, so the run length does not
change them. Run it from the root of the checkout; exit code 0 on success.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: float) -> dict[str, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: traced run failed\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNT_METRICS}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        differ = {k: (first[k], second[k]) for k in COUNT_METRICS if first[k] != second[k]}
        nonzero = sum(1 for v in first.values() if v)
        if differ:
            ok = False
            print(f"FAIL {workload}: counts differ between runs: {differ}")
        else:
            print(f"ok   {workload}: {len(first)} counts identical ({nonzero} nonzero)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
