"""Exact linear algebra over the prime field F_p.

All matrices are numpy int64 arrays with entries reduced into [0, p).
Zero-dimensional shapes (0 x n, n x 0) are valid everywhere and denote
maps to or from the zero space.  Every routine is deterministic: pivots
are chosen first-nonzero in column order and free variables are set to
zero, so downstream witnesses are reproducible bit for bit.

`rref` is the kernel under everything else and has two modes, which give
the same (R, pivots) because a matrix has exactly one reduced row echelon
form:

* the scalar pivot loop (`_pivot_loop`): one Gauss-Jordan step per pivot
  in int64, touching only the rows with a nonzero in the pivot column and
  only the columns from the pivot on.  It serves every modulus the rest of
  the package accepts ((p-1)**2 < 2**63, so one product fits in int64).
  Most inputs are small sparse Hom systems, where a pivot costs its numpy
  calls rather than its arithmetic, so each pivot makes few of them: find
  the pivot row among the nonzeros of one column view, swap it up, scale
  it in place, read the rows to clear off the same column with the pivot
  entry set to 0 for the moment, then one gathered update
  block -= block[:, :1] * row and one `%` on those rows;
* the blocked mode (`_blocked`), for matrices with at least
  BLOCKED_MIN_ENTRIES entries of which BLOCKED_MIN_NONZEROS are nonzero:
  the scalar loop eliminates a panel of PANEL columns, and the rest of the
  panel's update is a float64 matrix product (BLAS) over the rows it hits,
  ROW_CHUNK rows at a time.  A float64 sum of k products of entries in
  [0, p) is exact while k * (p-1)**2 < 2**53, so the mode runs only when
  PANEL * (p-1)**2 is below that bound (p up to about 1.6e7 at
  PANEL = 32); above it the scalar loop does all the work.  The exact
  float sums are converted to int64 and reduced with the integer `%`,
  which is exact and much faster here than `np.fmod` on float64; nothing
  is rounded through `floor(x / p)`.

`Quotient` gives coordinates on a quotient space V / U, the one way the
package writes "modulo a subspace": End(M)/rad, stable Hom, Ext^1 and the
normal forms of paths modulo the relations all use it.
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


def _pivot_loop(r: np.ndarray, p: int, pr: int = 0):
    """Gauss-Jordan elimination of r in place, the scalar kernel of rref.

    Pivots are searched from row pr down, first nonzero in column order.
    Each pivot clears its column in every other row that has a nonzero
    there; the rows without one would change by zero and are skipped.  The
    pivot row is zero left of its pivot column, so only the columns from
    there on change.  Returns (pivot columns, row swaps made in order).
    """
    rows, cols = r.shape
    pivots: list[int] = []
    swaps: list[tuple[int, int]] = []
    for c in range(cols):
        if pr >= rows:
            break
        col = r[:, c]
        nz = col[pr:].nonzero()[0]
        if not nz.size:
            continue
        i = pr + int(nz[0])
        if i != pr:
            r[[pr, i]] = r[[i, pr]]
            swaps.append((pr, i))
        row = r[pr, c:]
        lead = int(row[0])
        if lead != 1:
            row *= _inv_scalar(lead, p)
            row %= p
        # with the pivot entry at 0, the other rows to clear are the nonzeros
        col[pr] = 0
        hit = col.nonzero()[0]
        col[pr] = 1
        if hit.size:
            block = r[hit, c:]
            block -= block[:, :1] * row
            block %= p
            r[hit, c:] = block
            del block  # freed before the next pivot gathers its rows
        pivots.append(c)
        pr += 1
    return pivots, swaps


# Measured on this package's Hom systems and on seeded dense matrices: the
# blocked mode pays a fixed cost per panel (a k x k inverse, the float
# products), which the scalar loop saves back only where pivots hit many
# rows.  Sparse Hom systems of a few hundred rows run faster in the scalar
# loop; dense ones from 128 x 128 on, and Hom systems of modules hidden by a
# change of basis, run faster blocked.
PANEL = 32
ROW_CHUNK = 128
BLOCKED_MIN_ENTRIES = 2**14
BLOCKED_MIN_NONZEROS = 2**12
FLOAT_EXACT_LIMIT = 2**53


def _float_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as one float64 product; exact while inner * (p-1)**2 < 2**53."""
    return a.astype(np.float64) @ b.astype(np.float64)


def _inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of an invertible square matrix, without a call to rref.

    The blocked mode needs inv(A) @ B for a panel's pivot block A.  Reducing
    [A | B] with the scalar loop gives the same rows but runs its int64
    updates over all of B: timed with scripts/bench_linalg.py, the whole
    rref is then 1-9 % slower on the hidden End P(k) systems and 5-27 %
    slower on dense ones than with this k x k inverse and a float product.
    """
    n = a.shape[0]
    aug = np.hstack([a, eye(n)])
    _pivot_loop(aug, p)
    return aug[:, n:]


def _blocked(r: np.ndarray, p: int) -> list[int]:
    """rref of r in place, PANEL columns at a time; returns the pivots.

    A panel's k pivot rows end as inv(A) @ (their rows), A their k x k block
    in the pivot columns; every other row h ends as h - h[piv] @ (new pivot
    rows).  The scalar loop finds the pivots and the panel's columns; the
    columns right of the panel take both updates as float64 products.
    """
    rows, cols = r.shape
    pivots: list[int] = []
    pr = 0
    for c0 in range(0, cols, PANEL):
        if pr >= rows:
            break
        c1 = min(c0 + PANEL, cols)
        panel = r[:, c0:c1].copy()
        local, swaps = _pivot_loop(panel, p, pr)
        if not local:
            continue
        for i, j in swaps:
            r[[i, j]] = r[[j, i]]
        piv = [c0 + c for c in local]
        top = slice(pr, pr + len(piv))
        if c1 < cols:
            # r[:, c0:c1] still holds the panel as it was before elimination
            upper = _float_matmul(_inverse(r[top, piv], p), r[top, c1:])
            upper = upper.astype(np.int64) % p
            hit = np.flatnonzero(r[:, piv].any(axis=1))
            hit = hit[(hit < top.start) | (hit >= top.stop)]
            # ROW_CHUNK rows at a time: the temporaries stay small
            for start in range(0, hit.size, ROW_CHUNK):
                h = hit[start : start + ROW_CHUNK]
                block = r[h, c1:]
                update = _float_matmul(r[np.ix_(h, piv)], upper)
                np.subtract(block, update, out=block, casting="unsafe")
                block %= p
                r[h, c1:] = block
                del block, update
            r[top, c1:] = upper
        r[:, c0:c1] = panel
        pivots += piv
        pr = top.stop
    return pivots


def rref(m, p: int):
    """Reduced row echelon form.

    Returns (R, pivot_columns).  rank = len(pivot_columns).
    """
    r = as_matrix(m, p)
    if (
        r.size >= BLOCKED_MIN_ENTRIES
        and PANEL * (p - 1) ** 2 < FLOAT_EXACT_LIMIT
        and np.count_nonzero(r) >= BLOCKED_MIN_NONZEROS
    ):
        return r, _blocked(r, p)
    return r, _pivot_loop(r, p)[0]


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


def kernel_basis(m, p: int) -> np.ndarray:
    """Columns form a deterministic basis of the null space of m.

    Column count = cols(m) - rank(m).  m @ result == 0 exactly.  Column j
    is 1 at the j-th free (non-pivot) column of m and 0 at the other free
    columns; its other nonzeros lie at pivot columns left of that, so the
    1 is its last nonzero entry.  A null space has exactly one basis of
    this form (`rep.HomSpace` reads coordinates off it).
    """
    r, pivots = rref(m, p)
    cols = r.shape[1]
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    out = zeros(cols, free.size)
    out[free, np.arange(free.size)] = 1
    out[pivots] = -r[: len(pivots), free] % p
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
    cols = a.shape[1]
    aug, pivots = rref(np.hstack([a, bm]), p)
    if pivots and pivots[-1] >= cols:
        return None
    x = zeros(cols, bm.shape[1])
    x[pivots] = aug[: len(pivots), cols:]
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


class Quotient:
    """Coordinates on V / U, V = F_p^n and U spanned by the columns of sub_cols.

    The canonical representative of a coset clears the pivot coordinates of
    the rref of U; the other coordinates (`indices`, in increasing order) are
    the quotient coordinates.  `reduce`, `contains`, `to_coords` and `lift`
    take a vector or a matrix whose columns are vectors.
    """

    def __init__(self, sub_cols, n: int, p: int):
        self.p = p
        self.n = n
        if np.size(sub_cols):
            self._rows, self.pivots = rref(np.asarray(sub_cols).T, p)
        else:
            self._rows, self.pivots = zeros(0, n), []
        pivots = set(self.pivots)
        self.indices = [i for i in range(n) if i not in pivots]
        self.dim = len(self.indices)

    def reduce(self, v) -> np.ndarray:
        """The canonical representative of v + U (of each column of v)."""
        x = np.asarray(v, dtype=np.int64) % self.p
        for row, pc in zip(self._rows, self.pivots):
            if x[pc].any():
                x = (x - np.multiply.outer(row, x[pc])) % self.p
        return x

    def contains(self, v) -> bool:
        """Whether v (every column of v) lies in U."""
        return not self.reduce(v).any()

    def to_coords(self, v) -> np.ndarray:
        return self.reduce(v)[self.indices]

    def lift(self, q) -> np.ndarray:
        """The canonical representative with quotient coordinates q."""
        q = np.asarray(q, dtype=np.int64)
        v = np.zeros((self.n,) + q.shape[1:], dtype=np.int64)
        v[self.indices] = q % self.p
        return v
