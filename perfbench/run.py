"""Benchmark entry point.

    python3 perfbench/run.py --workload {accept,ar-family,decompose} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A run is a series of rounds; each round is
a fresh `python3 perfbench/round.py` process, started only after the last
one has ended, so no round is served by a cache or slowed by a leak from an
earlier one.  Rounds are started while the time used so far plus the mean
round time fits in S seconds; there is always at least one.  The last line
of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1; every time in it is
rescaled to the reference speed of `calibrate`.  Each run's rounds, with
their times as measured, are also saved under perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(HERE, "runs")
ROUND_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads  # noqa: E402


def run_round(workload: str, seed: int, trace: int, index: int) -> dict:
    trace_path = os.path.join(RUNS, f"trace-{workload}-seed{seed}-round{index}.npz")
    cmd = [sys.executable, os.path.join(HERE, "round.py"), workload, str(seed), str(trace), trace_path]
    # the kernel point that, with the round's first one, brackets its set-up
    before = calibrate.point()
    start = time.perf_counter()
    # leaving the with block waits for the process, whatever is raised
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit(f"perfbench: round {index} exceeded {ROUND_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: round {index} exited {proc.returncode} without a result")
    report = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    report["setup_s"] = report["first_op"] - start
    report["kernel_s"].insert(0, before)
    return report


def rescaled(rounds: list) -> list:
    """Per round, (set-up, [operation times]) at the reference speed: each
    interval times `calibrate.factor` of the two kernel points around it."""
    out = []
    for r in rounds:
        points = r["kernel_s"]  # before the process, before op 0, after each op
        scale = [calibrate.factor(a + b) for a, b in zip(points, points[1:])]
        out.append((r["setup_s"] * scale[0], [s * f for s, f in zip(r["op_s"], scale[1:])]))
    return out


def summarize(rounds: list, trace: int) -> dict:
    times = rescaled(rounds)
    if trace:
        import layertrace

        # layer times are not bracketed; they take their round's mean scale
        whole = [sum(ops) / r["round_s"] for r, (_, ops) in zip(rounds, times)]
        metrics = {}
        for name, unit, _ in layertrace.per_layer_names():
            if name == "trace.round_s":
                values = [sum(ops) for _, ops in times]
            else:
                values = [r["layers"][name] * (f if unit == "s" else 1) for r, f in zip(rounds, whole)]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        return metrics
    return {
        "setup_s": {"value": statistics.median(setup for setup, _ in times), "unit": "s"},
        "round_s": {"value": statistics.median(sum(ops) for _, ops in times), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(s for _, ops in times for s in ops) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "arquiver", "__init__.py")):
        print("perfbench: run from the root of an arquiver checkout (no src/arquiver)", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)

    calibrate.sample()  # the first pass in a process runs cold; not kept
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(args.workload, args.seed, args.trace, len(rounds)))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(rounds) > args.seconds:
            break

    wrong = sum(r["wrong"] for r in rounds)
    result = {
        "correct": wrong == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": summarize(rounds, args.trace),
    }
    record = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "rounds": rounds, "result": result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
