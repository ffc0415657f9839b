"""Benchmark of semihoc, end to end and layer by layer.

    python3 perfbench/run.py --workload ref-train --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. The workload's inputs are generated from `--seed`. Set-up runs
several times and is timed apart from the measured phase, which repeats
whole passes until `--seconds` have gone by. Then the outputs are checked.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics of the traced run with `--trace 1`.
Full results go to perfbench/out/<workload>/seed<n>[.trace].json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

# Fixed here rather than inherited, before numpy is first imported (by the
# workloads, below). One thread is within any machine's core count, and it
# keeps run-to-run spread low.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SEMIHOC_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ref-train", "wide-tree", "eval-cli")
END_TO_END = {"setup_s": "s", "run_s": "s", "op_ms.p50": "ms", "peak_rss_mb": "MB", "output_mb": "MB"}


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: p90 of 100 epochs leaves 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(args) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    scratch = workloads.reset_dir(HERE / "scratch" / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    # Half the set-ups run after the measured phase, so that their median
    # samples the host's speed across the whole run, not one instant.
    before = (workload.setups + 1) // 2

    def timed_setups(n: int, where: Path, trace_last: bool = False):
        times, state = [], None
        for i in range(n):
            if trace_last and i == n - 1:
                workload.start_trace(scratch)
            t0 = time.perf_counter()
            state = workload.setup(args.seed, where)
            times.append(time.perf_counter() - t0)
        return times, state

    try:
        setup_times, state = timed_setups(before, scratch / "setup", trace_last=bool(args.trace))
        setup_record = workload.take_trace() if args.trace else None

        passes = []
        start = time.perf_counter()
        while True:
            passes.append(workload.run_pass(state, scratch / f"pass{len(passes)}"))
            if passes[-1].failed or time.perf_counter() - start >= args.seconds:
                break
        measured_record = None
        if args.trace:
            measured_record = workload.take_trace()
            workload.stop_trace()
            measured_record["counters"]["cli.bytes_written"] = sum(p.output_bytes for p in passes)

        failed = sum(p.failed for p in passes)
        try:
            problems = ["operations failed; outputs not checked"] if failed else workload.check(state, passes)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"outputs could not be read: {exc!r}"]
        setup_times += timed_setups(workload.setups - before, scratch / "setup-again")[0]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = [s for p in passes for s in p.op_seconds]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "setup_s": setup_times,
        "pass_s": [p.seconds for p in passes],
        "op_ms": [s * 1e3 for s in ops],
        "op_ms.p90": percentile(ops, 0.9) * 1e3 if ops else None,
    }
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(p.seconds for p in passes),
            "op_ms.p50": statistics.median(ops) * 1e3,
            "peak_rss_mb": max(p.peak_rss_kb for p in passes) * 1024 / 1e6,
            "output_mb": statistics.median(p.output_bytes for p in passes) / 1e6,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        return result

    result["metrics"] = tracing.per_layer_metrics(measured_record, setup_record)
    untraced = HERE / "out" / args.workload / f"seed{args.seed}.json"
    traced_run_s = statistics.median(p.seconds for p in passes)
    overhead = {"estimated_ms": measured_record["estimated_overhead_ms"], "traced_calls": measured_record["calls"]}
    overhead["traced_run_s"] = traced_run_s
    if untraced.is_file():
        base = json.loads(untraced.read_text())["metrics"]["run_s"]["value"]
        overhead.update(untraced_run_s=base, share=traced_run_s / base - 1.0)
    result["trace_overhead"] = overhead
    result["trace"] = {"setup": setup_record, "measured": measured_record}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "semihoc" / "__init__.py").is_file():
        print(f"error: no semihoc sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run(args)
    out = HERE / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    name = f"seed{args.seed}.trace.json" if args.trace else f"seed{args.seed}.json"
    (out / name).write_text(json.dumps(result, indent=1) + "\n")

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    env = result["environment"]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{args.workload} seed {args.seed}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    if args.trace:
        print(f"  trace overhead: {json.dumps(result['trace_overhead'])}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
