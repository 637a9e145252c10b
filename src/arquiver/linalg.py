"""Exact linear algebra over the prime field F_p.

All matrices are numpy int64 arrays with entries reduced into [0, p).
Zero-dimensional shapes (0 x n, n x 0) are valid everywhere and denote
maps to or from the zero space.  Every routine is deterministic: pivots
are chosen first-nonzero in column order and free variables are set to
zero, so downstream witnesses are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 32003


class DimensionMismatch(ValueError):
    """Shapes of the operands do not line up; a usage error, not 'no solution'."""


def as_matrix(m, p: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(-1, 1) if a.size else a.reshape(0, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    return a % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


INT64_LIMIT = 2**63


class ModulusTooLarge(OverflowError):
    """An int64 product over F_p could overflow: inner dim * (p-1)**2 >= 2**63."""


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p; stacks of matrices multiply as in numpy.

    Entries are reduced into [0, p), so each accumulated sum is at most
    inner * (p-1)**2; a product that could reach 2**63 raises instead of
    wrapping around in int64.
    """
    inner = a.shape[-1]
    if inner != b.shape[-2 if b.ndim > 1 else 0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    if inner * (p - 1) * (p - 1) >= INT64_LIMIT:
        raise ModulusTooLarge(
            f"inner dimension {inner} at p={p} can overflow int64"
        )
    return (a @ b) % p


def _inv_scalar(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def rref(m, p: int):
    """Reduced row echelon form.

    Returns (R, pivot_columns).  rank = len(pivot_columns).
    """
    r = as_matrix(m, p).copy()
    rows, cols = r.shape
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(r[pr:, c])[0]
        if nz.size == 0:
            continue
        i = pr + int(nz[0])
        if i != pr:
            r[[pr, i]] = r[[i, pr]]
        r[pr] = (r[pr] * _inv_scalar(r[pr, c], p)) % p
        col = r[:, c].copy()
        col[pr] = 0
        r = (r - np.outer(col, r[pr])) % p
        pivots.append(c)
        pr += 1
    return r, pivots


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


def kernel_basis(m, p: int) -> np.ndarray:
    """Columns form a deterministic basis of the null space of m.

    Column count = cols(m) - rank(m).  m @ result == 0 exactly.
    """
    a = as_matrix(m, p)
    rows, cols = a.shape
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    out = zeros(cols, len(free))
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for i, pc in enumerate(pivots):
            out[pc, j] = (-r[i, fc]) % p
    return out


def solve(m, b, p: int):
    """Some x with m @ x = b, or None if inconsistent.

    Deterministic: free variables are set to 0 in pivot order.  b may be a
    vector or a matrix of stacked right-hand sides (then so is the result).
    Dimension mismatch raises DimensionMismatch, distinct from None.
    """
    a = as_matrix(m, p)
    bm = np.asarray(b, dtype=np.int64)
    vector_rhs = bm.ndim == 1
    bm = as_matrix(bm, p)
    if bm.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs has {bm.shape[0]} rows, matrix has {a.shape[0]}")
    rows, cols = a.shape
    aug, pivots = rref(np.hstack([a, bm]), p)
    if any(c >= cols for c in pivots):
        return None
    x = zeros(cols, bm.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = aug[i, cols:]
    return x[:, 0] if vector_rhs else x


def in_span(basis, v, p: int):
    """Whether v lies in the column span of basis.

    Returns (True, coefficients) with basis @ coefficients == v exactly,
    or (False, None).
    """
    c = solve(basis, v, p)
    return (c is not None), c


def first_unit_outside_span(basis, p: int):
    """The first unit vector e_i, in index order, outside the column span of
    basis, or None when the span is the whole space.

    e_i lies in the span iff every y with y @ basis = 0 has y_i = 0, so one
    left null space replaces a membership test per index.
    """
    perp = kernel_basis(as_matrix(basis, p).T, p)
    outside = np.nonzero(perp.any(axis=1))[0]
    if outside.size == 0:
        return None
    e = np.zeros(perp.shape[0], dtype=np.int64)
    e[outside[0]] = 1
    return e


def column_space(m, p: int) -> np.ndarray:
    """Deterministic basis of the column span: the original pivot columns."""
    a = as_matrix(m, p)
    _, pivots = rref(a, p)
    return a[:, pivots]


def subspace_sum(a, b, p: int) -> np.ndarray:
    """Basis of span(a) + span(b); both must have the same row count."""
    am = as_matrix(a, p)
    bm = as_matrix(b, p)
    if am.shape[0] != bm.shape[0]:
        raise DimensionMismatch(f"ambient dims differ: {am.shape[0]} vs {bm.shape[0]}")
    return column_space(np.hstack([am, bm]), p)


def left_null_space(m, p: int) -> np.ndarray:
    """Rows span {y : y @ m = 0}; row count = rows(m) - rank(m)."""
    return kernel_basis(as_matrix(m, p).T, p).T


def right_inverse(m, p: int) -> np.ndarray:
    """A right inverse of a surjective matrix (m @ r = I); raises if not onto."""
    a = as_matrix(m, p)
    r = solve(a, eye(a.shape[0]), p)
    if r is None:
        raise ValueError("matrix is not surjective; no right inverse")
    return r


def matrix_inverse(m, p: int):
    """Inverse of a square matrix, or None if singular."""
    a = as_matrix(m, p)
    if a.shape[0] != a.shape[1]:
        return None
    r, pivots = rref(np.hstack([a, eye(a.shape[0])]), p)
    if len(pivots) != a.shape[0] or any(c >= a.shape[0] for c in pivots):
        return None
    return r[:, a.shape[0]:]


def is_invertible(m, p: int) -> bool:
    a = as_matrix(m, p)
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def matrix_power(m, k: int, p: int) -> np.ndarray:
    a = as_matrix(m, p)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix power needs a square matrix")
    out = eye(a.shape[0])
    base = a.copy()
    while k:
        if k & 1:
            out = matmul(out, base, p)
        base = matmul(base, base, p)
        k >>= 1
    return out


def same_span(a, b, p: int) -> bool:
    """Whether two column families span the same subspace."""
    am = as_matrix(a, p)
    bm = as_matrix(b, p)
    if am.shape[0] != bm.shape[0]:
        raise DimensionMismatch("ambient dims differ")
    ra = rank(am, p)
    rb = rank(bm, p)
    return ra == rb == rank(np.hstack([am, bm]), p)
