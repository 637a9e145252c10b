"""Linear algebra over F_p written apart from the program under test.

The checkers use only these routines, so a fault in the program's own
`linalg` cannot make a wrong answer look right.  Entries stay below p, so
int64 products are exact for p < 2**31.
"""

from __future__ import annotations

import numpy as np


def reduce(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def echelon(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, by Gauss-Jordan."""
    r = reduce(a, p).copy()
    rows, cols = r.shape
    pivots: list[int] = []
    for c in range(cols):
        pr = len(pivots)
        if pr == rows:
            break
        nz = np.flatnonzero(r[pr:, c])
        if nz.size == 0:
            continue
        i = pr + int(nz[0])
        r[[pr, i]] = r[[i, pr]]
        r[pr] = r[pr] * pow(int(r[pr, c]), p - 2, p) % p
        others = np.flatnonzero(r[:, c])
        others = others[others != pr]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, c], r[pr])) % p
        pivots.append(c)
    return r, pivots


def rank(a, p: int) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return len(echelon(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Columns spanning {x : a x = 0}."""
    a = reduce(a, p)
    cols = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = echelon(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    out = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for i, pc in enumerate(pivots):
            out[pc, j] = -r[i, fc] % p
    return out


def inverse(a, p: int) -> np.ndarray | None:
    a = reduce(a, p)
    n = a.shape[0]
    if a.shape != (n, n):
        return None
    if n == 0:
        return a.copy()
    r, pivots = echelon(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    if pivots[:n] != list(range(n)):
        return None
    return r[:, n:]


def random_invertible(n: int, p: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly random element of GL_n(F_p) and its inverse."""
    while True:
        g = rng.integers(0, p, size=(n, n), dtype=np.int64)
        inv = inverse(g, p)
        if inv is not None:
            return g, inv
