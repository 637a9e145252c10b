#!/usr/bin/env python3
"""Time `linalg.rref` by matrix size and print the timings as one JSON object.

Three families of inputs, all built from fixed seeds over F_32003:

* dense n x n matrices with uniform random entries, n in SIZES; the small
  ones are the sizes of End and coordinate computations in the workloads;
* the Hom(M, M) commuting system of the Kronecker postprojective P(k),
  k in KRON: once with P(k) in normal form (a = [I; 0], b = [0; I]), a
  sparse system, and once after a seeded change of basis at both vertices,
  which spreads every block.  The system is built here the way Hom systems
  are built in the package: per arrow a: s -> t, the rows
  [kron(I, M_a^T) at vertex t | -kron(M_a, I) at vertex s] on vec(f);
* the Hom(M, M) system of P(k) + P(k) after a seeded change of basis,
  k in PAIRS: 96 x 100 to 448 x 452, shapes the ar-family benchmark
  workload solves (the middle terms of its AR sequences are P(k)^2).  On
  these and on the small dense inputs much of the cost of rref is the
  fixed cost of each pivot, not its arithmetic.

Each input is timed REPEATS times; each time is the mean of as many calls
as fill MIN_REPEAT_S, so small inputs are timed over many calls.  Only the
public `linalg` API is used, so the same script times any version of the
package.  Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/bench_linalg.py > timings.json
"""

import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from arquiver import linalg

P = 32003
SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)
KRON = (12, 16, 24)
PAIRS = (3, 4, 5, 6, 7)
REPEATS = 3
MIN_REPEAT_S = 0.05


def dense(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, P, (n, n))


def kron_post(k: int) -> tuple:
    a = np.vstack([np.eye(k, dtype=np.int64), np.zeros((1, k), dtype=np.int64)])
    b = np.vstack([np.zeros((1, k), dtype=np.int64), np.eye(k, dtype=np.int64)])
    return (k, k + 1), [a, b]


def hidden(dims: tuple, maps: list, seed: int) -> list:
    """maps after a seeded random change of basis at both vertices."""
    rng = np.random.default_rng(seed)
    gs = []
    for d in dims:
        g = rng.integers(0, P, (d, d))
        while not linalg.is_invertible(g, P):
            g = rng.integers(0, P, (d, d))
        gs.append(g)
    g_inv = linalg.matrix_inverse(gs[0], P)
    return [linalg.matmul(linalg.matmul(gs[1], m, P), g_inv, P) for m in maps]


def end_system(dims: tuple, maps: list) -> np.ndarray:
    """The commuting system of End(M) for a Kronecker module (arrows 1 -> 2)."""
    d1, d2 = dims
    blocks = []
    for m in maps:
        left = np.kron(np.eye(d2, dtype=np.int64), m.T)  # f_2 @ M_a
        right = np.kron(m, np.eye(d1, dtype=np.int64))  # M_a @ f_1
        blocks.append(np.hstack([-right % P, left]))
    return np.vstack(blocks) % P


def twice(dims: tuple, maps: list) -> tuple:
    """M + M for a Kronecker module M: each arrow block-diagonal."""
    zero = np.zeros_like(maps[0])
    return tuple(2 * d for d in dims), [np.block([[m, zero], [zero, m]]) for m in maps]


def time_rref(m: np.ndarray) -> dict:
    t0 = time.perf_counter()
    _, pivots = linalg.rref(m, P)
    number = max(1, int(MIN_REPEAT_S / max(time.perf_counter() - t0, 1e-6)))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            linalg.rref(m, P)
        times.append((time.perf_counter() - t0) / number)
    return {
        "shape": list(m.shape),
        "nonzeros": int(np.count_nonzero(m)),
        "rank": len(pivots),
        "repeats": REPEATS,
        "calls_per_repeat": number,
        "median_s": round(statistics.median(times), 6),
        "min_s": round(min(times), 6),
    }


def main() -> int:
    cases = {}
    for n in SIZES:
        cases[f"dense n={n}"] = time_rref(dense(n, seed=n))
    for k in KRON:
        dims, maps = kron_post(k)
        for label, ms in (("normal", maps), ("hidden", hidden(dims, maps, seed=k))):
            cases[f"End P({k}) {label}"] = time_rref(end_system(dims, ms))
    for k in PAIRS:
        dims, maps = twice(*kron_post(k))
        ms = hidden(dims, maps, seed=100 + k)
        cases[f"End P({k})+P({k}) hidden"] = time_rref(end_system(dims, ms))
    out = {
        "prime": P,
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python "
        f"{platform.python_version()}, numpy {np.__version__}",
        "cases": cases,
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
