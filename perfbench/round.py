"""One round of a workload, in a process of its own.

    python3 perfbench/round.py <workload> <seed> <trace 0|1> <trace file>

Run from the root of a checkout.  Imports the program from src/, builds the
round's inputs from the seed, runs the operations one after another with
only the reference kernel of `calibrate` in between, then checks every
answer.  The last line of standard output is a JSON object with the
timings, the kernel times, the counts and, when traced, the per-layer
totals of this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import calibrate  # noqa: E402


def run_ops(ops: list) -> tuple:
    """Run each operation once, in order: ([(seconds, answer, error)],
    kernel times).  The reference kernel runs once before the first
    operation and once after each, outside the operations' timers, so
    kernel point i and i + 1 bracket operation i."""
    calibrate.sample()  # the first pass in a process runs cold; not kept
    results, points = [], [calibrate.point()]
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - t0, out, err))
        points.append(calibrate.point())
    return results, points


def judge(ops: list, results: list) -> tuple:
    """(failed, wrong): operations that raised or whose answer is wrong, and
    the wrong ones alone.  Each problem is reported on stderr."""
    failed = wrong = 0
    for op, (_, out, err) in zip(ops, results):
        if err is not None:
            failed += 1
            print(f"perfbench: {op.name} failed: {err}", file=sys.stderr)
            continue
        try:
            problems = op.check(out)
        except Exception:
            problems = ["checker raised:\n" + traceback.format_exc()]
        if problems:
            failed += 1
            wrong += 1
            print(f"perfbench: {op.name} is wrong: {'; '.join(problems)}", file=sys.stderr)
    return failed, wrong


def main(argv: list) -> int:
    workload, seed, traced, trace_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import arquiver  # noqa: F401  (the import is part of set-up)

    import workloads

    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    ops = workloads.build(workload, seed)

    first = time.perf_counter()
    results, points = run_ops(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, wrong = judge(ops, results)

    report = {
        "first_op": first,
        "round_s": sum(r[0] for r in results),
        "op_s": [r[0] for r in results],
        "kernel_s": points,
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write(trace_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
