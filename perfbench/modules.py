"""Modules in normal form, built from their textbook matrices.

Each builder returns (dims, maps) with plain integer matrices; nothing here
calls the program.  The checkers compare the program's answers with these.
"""

from __future__ import annotations

import numpy as np


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def kron_post(k: int) -> tuple:
    """Kronecker postprojective P(k): dims (k, k+1), a = [I; 0], b = [0; I]."""
    a = np.vstack([_eye(k), _zeros(1, k)])
    b = np.vstack([_zeros(1, k), _eye(k)])
    return (k, k + 1), {"a": a, "b": b}


def kron_pre(k: int) -> tuple:
    """Kronecker preinjective Q(k): dims (k+1, k), a = [I 0], b = [0 I]."""
    a = np.hstack([_eye(k), _zeros(k, 1)])
    b = np.hstack([_zeros(k, 1), _eye(k)])
    return (k + 1, k), {"a": a, "b": b}


def kron_simple(v: int) -> tuple:
    dims = (1, 0) if v == 1 else (0, 1)
    return dims, {"a": _zeros(dims[1], dims[0]), "b": _zeros(dims[1], dims[0])}


def a3_interval(i: int, j: int) -> tuple:
    """The A3 (1 -a-> 2 -b-> 3) indecomposable supported on vertices i..j."""
    dims = tuple(1 if i <= v <= j else 0 for v in (1, 2, 3))
    maps = {}
    for name, s in (("a", 1), ("b", 2)):
        m = _zeros(dims[s], dims[s - 1])
        if m.size:
            m[0, 0] = 1
        maps[name] = m
    return dims, maps


def loop_module(n: int) -> tuple:
    """k[x]/(x^2) indecomposable of dimension n in {1, 2}: one Jordan block."""
    x = _zeros(n, n)
    if n == 2:
        x[1, 0] = 1
    return (n,), {"x": x}


def block_sum(arrows, parts) -> tuple:
    """Block-diagonal direct sum of (dims, maps) pairs.

    arrows: [(name, source, target)] with 1-based vertices.
    """
    nverts = len(parts[0][0])
    dims = tuple(sum(d[v] for d, _ in parts) for v in range(nverts))
    maps = {}
    for name, s, t in arrows:
        out = _zeros(dims[t - 1], dims[s - 1])
        ro = co = 0
        for d, m in parts:
            out[ro : ro + d[t - 1], co : co + d[s - 1]] = m[name]
            ro += d[t - 1]
            co += d[s - 1]
        maps[name] = out
    return dims, maps


def change_basis(arrows, maps, gs, gis, p: int) -> dict:
    """maps'[a] = g_t maps[a] g_s^-1: the same module in another basis."""
    return {
        name: gs[t - 1] @ maps[name] % p @ gis[s - 1] % p for name, s, t in arrows
    }
