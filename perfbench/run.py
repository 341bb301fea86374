#!/usr/bin/env python3
"""meshseg benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload raw-mesh --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports meshseg from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics and the spans are written to
``.perfbench/trace-<workload>-seed<n>.json``. The line before it is a JSON
report: environment, per-input stats, and the end-to-end figures under the
names of the stages they time. Exit code 0 when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("raw-mesh", "train-small", "train-paper")


def pin_blas_threads() -> int:
    """Pin BLAS to one thread (at most nproc); must run before numpy loads.

    One thread beat two on train-small, and two make OpenBLAS spin the
    second core, which adds noise on a shared host.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def meminfo_mb() -> dict[str, float]:
    out = {}
    with open("/proc/meminfo") as fh:
        for line in fh:
            key, value = line.split(":", 1)
            if key in ("MemTotal", "MemAvailable"):
                out[key] = int(value.split()[0]) / 1024
    return out


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int, mem: dict[str, float]) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})  # numpy >= 1.25
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(mem.get("MemTotal", 0.0), 1),
        "mem_available_mb": round(mem.get("MemAvailable", 0.0), 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(ROOT),
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    from workloads import WORKLOADS, Log

    wl = WORKLOADS[name](seed, workdir)
    setup_s = []
    for _ in range(wl.setup_repeats):
        t0 = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - t0)
    log = Log()
    wl.check_setup(log)
    wl.warmup()

    tracer = None
    if trace:
        from tracer import Tracer

        # iteration 0 untraced, then again traced from the same state: the
        # difference is the tracing overhead
        state = wl.checkpoint()
        t0 = perf_counter()
        wl.iteration(0, log, None)
        untraced_s = perf_counter() - t0
        wl.restore(state)
        tracer = Tracer()
        tracer.install()

    iterations = 0
    start = perf_counter()
    while iterations < wl.min_iterations or perf_counter() - start < seconds:
        if tracer:
            tracer.begin_iteration(iterations)
        t0 = perf_counter()
        wl.iteration(iterations, log, tracer)
        if tracer:
            tracer.end_iteration()
            if iterations == 0:
                overhead_s = perf_counter() - t0 - untraced_s
        iterations += 1
    measured_s = perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "iterations": iterations,
        "measured_s": measured_s,
        "attempted": log.attempted,
        "failed": log.failed,
        "failed_share": log.failed / max(log.attempted, 1),
        "problems": log.problems[:20],
        "inputs": [wl.inputs[k] for k in sorted(wl.inputs)],
        "setup_s_each": setup_s,
    }
    if tracer:
        metrics = tracer.metrics(iterations, overhead_s)
        report["trace_overhead_share"] = overhead_s / untraced_s
        report["not_traced"] = tracer.missing
        trace_path = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics, by_stage = wl.results()
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = peak_rss_mb
        report["stages"] = {
            **by_stage,
            "setup_s": {"value": metrics["setup_s"], "unit": "s", "n": len(setup_s)},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "failed_share": {"value": report["failed_share"], "unit": "share"},
        }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "meshseg" / "__init__.py").is_file():
        print(f"perfbench: no meshseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    mem = meminfo_mb()
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, report = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = environment(threads, mem)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    correct = report["failed"] == 0
    print(json.dumps({"perfbench": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
