"""The category mod(Lambda): representations, homomorphisms, duality,
decomposition and indecomposability certification.

A left module is a covariant quiver representation: a space at every
vertex and, for each arrow a: s -> t, a matrix of shape dim_t x dim_s.
Morphisms are one matrix per vertex subject to the commuting conditions.
"""

from __future__ import annotations

import copy
import functools
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import Algebra
from .fpoly import factor_mod as _factor_mod  # a module global, so it can be wrapped
from .linalg import matmul
from .memo import key_of, kept, memoized, private, remember

DEFAULT_SEED = 1


class AlgebraMismatch(ValueError):
    pass


class ZeroModuleError(ValueError):
    pass


class PrimeTooSmall(ValueError):
    """p <= dim End(M): the trace-form radical criterion is not valid."""


class BruteForceCapExceeded(ValueError):
    pass


@dataclass(eq=False)
class Rep:
    """A finite dimensional representation of a bound quiver algebra."""

    algebra: Algebra
    dims: tuple
    maps: dict  # arrow name -> matrix, shape dim_target x dim_source
    name: str = ""

    def __post_init__(self):
        alg = self.algebra
        p = alg.p
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != alg.quiver.n:
            raise ValueError("dimension vector length differs from vertex count")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        maps = {}
        for a in alg.quiver.arrows:
            m = self.maps.get(a.name)
            want = (self.dims[a.target - 1], self.dims[a.source - 1])
            if m is None:
                m = linalg.zeros(*want)
            m = linalg.as_matrix(m, p)
            if m.shape != want:
                raise ValueError(
                    f"arrow {a.name!r} matrix has shape {m.shape}, expected {want}"
                )
            m.setflags(write=False)
            maps[a.name] = m
        self.maps = maps
        for rel in alg.relations:
            acc = None
            for coeff, arrows in rel.terms:
                term = (coeff % p) * self.evaluate_arrows(arrows)
                acc = term if acc is None else acc + term
            if acc is not None and (acc % p).any():
                raise ValueError("representation does not satisfy the relations")

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_at(self, v: int) -> int:
        return self.dims[v - 1]

    def evaluate_arrows(self, arrows) -> np.ndarray:
        """Matrix of a path given by arrow names in application order."""
        alg = self.algebra
        if not arrows:
            raise ValueError("need a source vertex for the trivial path")
        v = alg.quiver.by_name[arrows[0]].source
        m = linalg.eye(self.dim_at(v))
        for name in arrows:
            m = matmul(self.maps[name], m, self.p)
        return m

    @functools.cached_property
    def content_key(self) -> tuple:
        """(dims, map bytes in arrow order): equal exactly for modules over
        one algebra that are equal entry for entry."""
        return self.dims, b"".join(b.tobytes() for b in self.maps.values())

    @functools.cached_property
    def dual_content_key(self) -> tuple:
        """content_key of dual(self): the maps transposed, over the opposite
        algebra."""
        return self.dims, b"".join(b.T.tobytes() for b in self.maps.values())

    def equal(self, other: "Rep") -> bool:
        return self.algebra is other.algebra and self.content_key == other.content_key

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Rep{label}(dims={self.dims})"


def zero_rep(alg: Algebra) -> Rep:
    return Rep(alg, (0,) * alg.quiver.n, {})


def simple(alg: Algebra, v: int) -> Rep:
    dims = [0] * alg.quiver.n
    dims[v - 1] = 1
    return Rep(alg, tuple(dims), {}, name=f"S{v}")


@dataclass(eq=False)
class RepMap:
    """A homomorphism of representations: one matrix per vertex."""

    source: Rep
    target: Rep
    blocks: tuple
    check: bool = True

    def __post_init__(self):
        alg = self.source.algebra
        if self.target.algebra is not alg:
            raise AlgebraMismatch("source and target live over different algebras")
        p = alg.p
        blocks = []
        for v, want in enumerate(zip(self.target.dims, self.source.dims), 1):
            b = linalg.as_matrix(self.blocks[v - 1], p)
            if b.shape != want:
                raise ValueError(f"block at vertex {v} has shape {b.shape}, want {want}")
            b.setflags(write=False)
            blocks.append(b)
        self.blocks = tuple(blocks)
        if self.check:
            for a in self.source.algebra.quiver.arrows:
                lhs = matmul(self.block(a.target), self.source.maps[a.name], p)
                rhs = matmul(self.target.maps[a.name], self.block(a.source), p)
                if not np.array_equal(lhs, rhs):
                    raise ValueError(f"map does not commute with arrow {a.name!r}")

    @classmethod
    def _reduced(cls, source: Rep, target: Rep, blocks: tuple) -> "RepMap":
        """The map with these blocks, taken as they are: int64, reduced mod
        p and of the right shapes by construction (a product, a sum, the
        blocks of another map), so nothing is copied or checked.  Each block
        is made read-only."""
        f = cls.__new__(cls)
        for b in blocks:
            b.setflags(write=False)
        f.source, f.target, f.blocks, f.check = source, target, blocks, False
        return f

    def reanchored(self, source: Rep, target: Rep) -> "RepMap":
        """This map between modules of the contents of its own source and
        target, over the same algebra, as a map source -> target: the same
        blocks, shared.  Raises AlgebraMismatch over another algebra and
        ValueError for other dims; contents are not compared."""
        alg = self.source.algebra
        if source.algebra is not alg or target.algebra is not alg:
            raise AlgebraMismatch("re-anchored across different algebras")
        if source.dims != self.source.dims or target.dims != self.target.dims:
            raise ValueError("re-anchored onto modules of other dims")
        return RepMap._reduced(source, target, self.blocks)

    @property
    def p(self) -> int:
        return self.source.algebra.p

    def block(self, v: int) -> np.ndarray:
        return self.blocks[v - 1]

    def compose(self, other: "RepMap") -> "RepMap":
        """self after other."""
        if other.target is not self.source and not other.target.equal(self.source):
            raise ValueError("composition mismatch")
        p = self.p
        return RepMap._reduced(
            other.source,
            self.target,
            tuple(matmul(a, b, p) for a, b in zip(self.blocks, other.blocks)),
        )

    def __add__(self, other: "RepMap") -> "RepMap":
        if other.source.dims != self.source.dims or other.target.dims != self.target.dims:
            raise ValueError("sum of maps between modules of other dims")
        p = self.p
        return RepMap._reduced(
            self.source,
            self.target,
            tuple((a + b) % p for a, b in zip(self.blocks, other.blocks)),
        )

    def scale(self, c: int) -> "RepMap":
        p = self.p
        c = int(c) % p
        return RepMap._reduced(self.source, self.target, tuple(c * b % p for b in self.blocks))

    def __sub__(self, other: "RepMap") -> "RepMap":
        return self + other.scale(self.p - 1)

    def flatten(self) -> np.ndarray:
        parts = [b.reshape(-1) for b in self.blocks]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    @property
    def is_zero(self) -> bool:
        return not any(b.any() for b in self.blocks)

    def is_injective(self) -> bool:
        return all(
            linalg.rank(b, self.p) == b.shape[1] for b in self.blocks
        )

    def is_surjective(self) -> bool:
        return all(
            linalg.rank(b, self.p) == b.shape[0] for b in self.blocks
        )

    def is_invertible(self) -> bool:
        return all(linalg.is_invertible(b, self.p) for b in self.blocks)

    def equal(self, other: "RepMap") -> bool:
        return all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))

    def inverse(self) -> "RepMap":
        """The inverse of an isomorphism, block by block; raises ValueError
        if a block is singular."""
        blocks = tuple(linalg.matrix_inverse(b, self.p) for b in self.blocks)
        if any(b is None for b in blocks):
            raise ValueError("map is not invertible")
        return RepMap(self.target, self.source, blocks, check=False)

    def __repr__(self):
        return f"RepMap({self.source.dims} -> {self.target.dims})"


def identity_map(m: Rep) -> RepMap:
    return RepMap._reduced(m, m, tuple(linalg.eye(d) for d in m.dims))


def zero_map(src: Rep, tgt: Rep) -> RepMap:
    return RepMap(
        src,
        tgt,
        tuple(linalg.zeros(tgt.dims[i], src.dims[i]) for i in range(len(src.dims))),
        check=False,
    )


def map_from_flat(src: Rep, tgt: Rep, flat: np.ndarray) -> RepMap:
    """The map whose blocks, flattened row-major in vertex order, are flat
    (`RepMap.flatten`).  flat must be reduced mod p, as a HomSpace's
    normal-form matrix and a `matmul` are: the blocks are reshaped views
    of it, taken as they are (`RepMap._reduced`)."""
    blocks = []
    pos = 0
    for i in range(len(src.dims)):
        r, c = tgt.dims[i], src.dims[i]
        blocks.append(np.asarray(flat[pos : pos + r * c], dtype=np.int64).reshape(r, c))
        pos += r * c
    return RepMap._reduced(src, tgt, tuple(blocks))


@dataclass(eq=False)
class HomSpace:
    """Hom(source, target) as its normal-form matrix.

    Column j of `flat_matrix` is basis map j flattened (`RepMap.flatten`),
    in the normal form of `linalg.kernel_basis`: map j is 1 at the j-th free
    position, which is its last nonzero entry, and 0 at every other free
    position.  The matrix is the identity on those rows, so the coordinates
    of a map are its entries there.  Each subspace has exactly one basis of
    this form.

    The maps of the basis are built only when `basis` is read.  Composites
    with a fixed map come from the matrix, one product per vertex: `after`
    and `before` give them as flattened columns, which `coords_of` of the
    space they land in reads.

    A space rebound from the memo onto a caller's modules (`_hom_on`) keeps
    the space it was rebound from as `_kept` and reads that space's `_rows`
    and `_starts`, so each is worked out once per content pair.
    """

    source: Rep
    target: Rep
    flat_matrix: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.flat_matrix.shape[1]

    @functools.cached_property
    def basis(self) -> list:
        return [
            map_from_flat(self.source, self.target, self.flat_matrix[:, j])
            for j in range(self.dim)
        ]

    def basis_map(self, j: int) -> RepMap:
        """Basis map j, built alone unless `basis` has been read."""
        built = self.__dict__.get("basis")
        if built is not None:
            return built[j]
        return map_from_flat(self.source, self.target, self.flat_matrix[:, j])

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """The free position of each basis map: its last nonzero entry."""
        kept = self.__dict__.get("_kept")
        if kept is not None:
            return kept._rows
        a = self.flat_matrix
        if not a.size:
            return np.zeros(0, dtype=np.intp)
        rows = a.shape[0] - 1 - np.argmax(a[::-1] != 0, axis=0)
        if not np.array_equal(a[rows], linalg.eye(self.dim)):
            raise RuntimeError("hom basis is not in kernel_basis normal form")
        return rows

    @functools.cached_property
    def _starts(self) -> list:
        """The row of flat_matrix where the blocks of each vertex start, and
        the row count last."""
        kept = self.__dict__.get("_kept")
        if kept is not None:
            return kept._starts
        sizes = (t * s for t, s in zip(self.target.dims, self.source.dims))
        return list(itertools.accumulate(sizes, initial=0))

    def _rows_at(self, v: int) -> np.ndarray:
        """The rows of flat_matrix that hold the blocks at vertex v."""
        return self.flat_matrix[self._starts[v - 1] : self._starts[v]]

    def blocks(self, v: int) -> np.ndarray:
        """The blocks at vertex v of the basis maps, stacked: (dim, t_v, s_v),
        contiguous, as stacked products run fastest on."""
        t, s = self.target.dim_at(v), self.source.dim_at(v)
        stacked = self._rows_at(v).reshape(t, s, self.dim).transpose(2, 0, 1)
        return np.ascontiguousarray(stacked)

    def after(self, f: RepMap) -> np.ndarray:
        """f . b for every basis map b, flattened into columns."""
        p, e = self.source.p, self.dim
        parts = []
        for v, s in enumerate(self.source.dims, 1):
            fv = f.block(v)
            rows = self._rows_at(v).reshape(fv.shape[1], s * e)
            parts.append(matmul(fv, rows, p).reshape(fv.shape[0] * s, e))
        return np.vstack(parts)

    def before(self, g: RepMap) -> np.ndarray:
        """b . g for every basis map b, flattened into columns."""
        p, e = self.source.p, self.dim
        parts = []
        for v, t in enumerate(self.target.dims, 1):
            gv = g.block(v)
            rows = self._rows_at(v).reshape(t, gv.shape[0], e)
            parts.append(matmul(gv.T, rows, p).reshape(t * gv.shape[1], e))
        return np.vstack(parts)

    def coords_of(self, maps) -> np.ndarray:
        """Coefficients of maps, a list of maps or their flattened columns, as
        the columns of one matrix: their entries at the free positions, then
        one product to verify; raises ValueError if a map lies outside."""
        p = self.source.p
        if isinstance(maps, np.ndarray):
            v = maps % p
        elif maps:
            v = np.stack([f.flatten() for f in maps], axis=1) % p
        else:
            v = linalg.zeros(self.flat_matrix.shape[0], 0)
        c = v[self._rows]
        if not np.array_equal(matmul(self.flat_matrix, c, p), v):
            raise ValueError("map lies outside this Hom space")
        return c

    def from_coords(self, coords) -> RepMap:
        p = self.source.p
        c = np.asarray(coords, dtype=np.int64) % p
        return map_from_flat(self.source, self.target, matmul(self.flat_matrix, c, p))


def _hom_on(hs: HomSpace, m: Rep, n: Rep) -> HomSpace:
    """hs, a Hom space between modules of the contents of m and n, as
    Hom(m, n): the same matrix, and the free positions and vertex offsets
    hs works out once (`_rows`, `_starts`, read through `_kept`).  Contents
    name no algebra, so a kept space is never handed to modules over two
    algebras."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    out = HomSpace(m, n, hs.flat_matrix)
    out._kept = hs
    return out


def _normal_form(spanning: np.ndarray, p: int) -> np.ndarray:
    """The basis in kernel_basis normal form (HomSpace) of the span of the
    rows of spanning, as columns: their rref with the columns reversed,
    read back reversed."""
    r, pivots = linalg.rref(spanning[:, ::-1], p)
    return np.ascontiguousarray(r[: len(pivots)][::-1, ::-1].T)


def _hom_system(m: Rep, n: Rep) -> np.ndarray:
    """The commuting conditions on Hom(m, n), one row per condition.

    A hom f: M -> N is the blocks f_v (n_v x m_v), flattened row-major and
    concatenated in vertex order.  Each arrow a: s -> t gives n_t * m_s
    rows, row (i, j) reading (f_t M_a - N_a f_s)[i, j]: M_a[k, j] at column
    (i, k) of f_t and -N_a[i, l] at column (l, j) of f_s; on a loop (s = t)
    the two share their columns and add.  The entries stay in (-p, p); rref
    reduces the system mod p once.
    """
    sizes = [n.dims[i] * m.dims[i] for i in range(len(m.dims))]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rows = []
    for a in m.algebra.quiver.arrows:
        s, t = a.source, a.target
        n_t, m_t, n_s, m_s = n.dim_at(t), m.dim_at(t), n.dim_at(s), m.dim_at(s)
        if n_t * m_s == 0:
            continue
        block = np.zeros((n_t, m_s, total), dtype=np.int64)
        f_t = block[:, :, offsets[t - 1] : offsets[t]].reshape(n_t, m_s, n_t, m_t)
        f_s = block[:, :, offsets[s - 1] : offsets[s]].reshape(n_t, m_s, n_s, m_s)
        i, j = np.arange(n_t), np.arange(m_s)
        f_t[i, :, i, :] = m.maps[a.name].T
        f_s[:, j, :, j] -= n.maps[a.name]
        rows.append(block.reshape(n_t * m_s, total))
    return np.vstack(rows) if rows else linalg.zeros(0, total)


def _dual_hom(m: Rep, n: Rep):
    """Hom(m, n) read off Hom(D n, D m) over the opposite algebra, when that
    space is kept in the opposite algebra's memo, under the dual contents
    of n and m; else None.

    f -> D f transposes every block, so the dual space's basis maps,
    transposed, span Hom(m, n): on the flat matrix that permutes the rows
    within each vertex.  Its normal form is the one hom_basis(m, n) solves.
    """
    op = m.algebra._op
    if op is None:
        return None
    hs = kept(op, (_solve_hom, n.dual_content_key, m.dual_content_key))
    if hs is None:
        return None
    order, start = [], 0
    for mv, nv in zip(m.dims, n.dims):
        # entry (i, j) of the n_v x m_v block is entry (j, i) of the dual one
        order.append(start + np.arange(mv * nv).reshape(mv, nv).T.reshape(-1))
        start += mv * nv
    return _normal_form(hs.flat_matrix[np.concatenate(order)].T, m.p)


def record_split(m: Rep, make, lazy: bool = False) -> None:
    """Keep a split of m under m's content (`memo.remember`), unless one
    is kept already: make() gives parts = [(x, incl: x -> m, proj: m -> x)]
    with the incl . proj summing to the identity of m, and the maps are
    kept anchored on the algebra's own modules of those contents
    (`memo.private`).  hom_basis then reads Hom spaces into and out of
    that content off those of the parts (`_split_hom`).  Raises ValueError
    unless the sum is the identity.

    Two kinds of split are kept: an AR verification's split of a term into
    members, made and checked now, and the coordinate split of a shared
    sum of indecomposable projectives or injectives (`homological`), kept
    with lazy: make() runs, and is checked, when the split is first read,
    since many such sums are never read.

    No split is kept for the zero module, nor for a module equal to one of
    its parts: the Hom spaces of that part would be read off themselves."""
    own = private(m)

    def checked():
        parts = make()
        for v, d in enumerate(own.dims, 1):
            incls = np.hstack([linalg.zeros(d, 0)] + [i.block(v) for _, i, _ in parts])
            projs = np.vstack([linalg.zeros(0, d)] + [q.block(v) for _, _, q in parts])
            if not np.array_equal(matmul(incls, projs, own.p), linalg.eye(d)):
                raise ValueError("split maps do not sum to the identity")
        if own.is_zero or any(x.content_key == own.content_key for x, _, _ in parts):
            return None
        anchored = []
        for x, i, q in parts:
            x = private(x)
            anchored.append((x, i.reanchored(x, own), q.reanchored(own, x)))
        return tuple(anchored)

    remember(m.algebra, key_of(_SPLIT, m), checked, lazy=lazy)


# record_split as written, captured at import: the key of the kept splits
_SPLIT = record_split


def _kept_split(m: Rep):
    """The split kept for m's content, unless one of its parts keeps a
    split too: a chain of splits could lead back to m."""
    alg = m.algebra
    parts = kept(alg, key_of(_SPLIT, m))
    if parts is None or any(kept(alg, key_of(_SPLIT, x)) is not None for x, _, _ in parts):
        return None
    return parts


def _split_hom(m: Rep, n: Rep):
    """Hom(m, n) read off the Hom spaces of the parts of a split kept for
    n or, failing that, for m (`record_split`); else None.

    Hom is additive: Hom(m, sum x_j) is the span of incl_j . Hom(m, x_j),
    and Hom(sum x_j, n) that of Hom(x_j, n) . proj_j.  One product per
    vertex over each part's basis (`HomSpace.after`, `before`) gives a
    basis, and its normal form is the one hom_basis(m, n) would solve for.

    A coordinate split (a direct_sum's) sends flat positions to flat
    positions in increasing order, and its parts to disjoint positions, so
    each part's basis keeps its normal form and the stacked columns,
    sorted by their last nonzero entry, are the identity on those rows:
    that is the normal form already, and no rref is run.  Any other split
    (through isomorphisms, as an AR verification's) goes through
    `_normal_form`.
    """
    parts = _kept_split(n)
    if parts is not None:
        spans = [hom_basis(m, x).after(incl) for x, incl, _ in parts]
    else:
        parts = _kept_split(m)
        if parts is None:
            return None
        spans = [hom_basis(x, n).before(proj) for x, _, proj in parts]
    span = np.hstack(spans)
    if not span.size:
        return span
    last = span.shape[0] - 1 - np.argmax(span[::-1] != 0, axis=0)
    order = np.argsort(last, kind="stable")
    span, last = span[:, order], last[order]
    if np.array_equal(span[last], linalg.eye(len(last))):
        return np.ascontiguousarray(span)
    return _normal_form(span.T, m.p)


@memoized(rebind=_hom_on)
def hom_basis(m: Rep, n: Rep) -> HomSpace:
    """Hom(m, n): the kernel of its commuting conditions (`_hom_system`),
    basis in kernel_basis order.

    Memoized (memo.memoized) on the algebra, keyed by the contents of m
    and n, since verification sweeps ask for the same pair many times:
    modules equal entry for entry share one solve.

    When Hom(D n, D m) over the opposite algebra is kept already, the
    space is read off it instead (`_dual_hom`): Hom_L(M, N) ~
    Hom_Lop(DN, DM) by transposing every block, and one rref brings the
    transposed basis to normal form.  A subspace has one basis in that
    form, so the answer is the one the solve would give, bit for bit.

    Otherwise, when a split of n or of m into parts is kept
    (`record_split`: an AR verification keeps each term it has written as a
    direct sum of members, and each shared sum of indecomposable
    projectives or injectives keeps its coordinate split), the space is
    read off the parts' Hom spaces (`_split_hom`), again in the one normal
    form: Hom(P0, N) off the Hom(P_w, N), each solved once per content of
    N, and Hom(I, N) of an injective envelope off the Hom(I_v, N).
    """
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    flat = _dual_hom(m, n)
    if flat is None:
        flat = _split_hom(m, n)
    if flat is None:
        flat = linalg.kernel_basis(_hom_system(m, n), m.p)
    return HomSpace(m, n, flat)


# hom_basis as written, captured at import: the key of its memo entries,
# whatever wrapper is later bound to the module global
_solve_hom = hom_basis.__wrapped__


@dataclass(eq=False)
class HomQuotient:
    """A Hom space modulo a subspace: stable Hom, Ext^1 as cocycles modulo
    coboundaries.  It answers `dim`, `coords_of`, `from_coords` as a
    HomSpace does, in class coordinates (those of `quotient`)."""

    hom: HomSpace
    quotient: linalg.Quotient

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def ideal_dim(self) -> int:
        return self.hom.dim - self.quotient.dim

    def coords_of(self, maps) -> np.ndarray:
        return self.quotient.to_coords(self.hom.coords_of(maps))

    def class_of(self, f: RepMap) -> np.ndarray:
        return self.coords_of([f])[:, 0]

    def from_coords(self, coords) -> RepMap:
        """The map whose Hom coordinates are the canonical lift of a class."""
        return self.hom.from_coords(self.quotient.lift(coords))


def hom_quotient(hs: HomSpace, maps: list) -> HomQuotient:
    """hs modulo the span of maps (each in hs), a list or flattened columns."""
    return HomQuotient(hs, linalg.Quotient(hs.coords_of(maps), hs.dim, hs.source.p))


def dual(m: Rep) -> Rep:
    """The k-linear dual over the opposite algebra; an exact involution."""
    op = m.algebra.opposite()
    maps = {a.name: m.maps[a.name].T.copy() for a in m.algebra.quiver.arrows}
    return Rep(op, m.dims, maps, name=f"D({m.name})" if m.name else "")


def dual_map(f: RepMap) -> RepMap:
    """Contravariant: source and target swap, vertexwise transpose."""
    return RepMap(
        dual(f.target),
        dual(f.source),
        tuple(b.T.copy() for b in f.blocks),
        check=False,
    )


def direct_sum(ms) -> tuple:
    """Block-diagonal sum. Returns (rep, injections, projections)."""
    ms = list(ms)
    total = sum_rep(ms)
    return (total, *sum_maps(ms, total))


def sum_rep(ms: list) -> Rep:
    """The module of direct_sum(ms), without its maps."""
    if not ms:
        raise ValueError("direct_sum of nothing needs an algebra; use zero_rep")
    alg = ms[0].algebra
    if any(m.algebra is not alg for m in ms):
        raise AlgebraMismatch("summands live over different algebras")
    n = alg.quiver.n
    dims = tuple(sum(m.dims[i] for m in ms) for i in range(n))
    maps = {}
    for a in alg.quiver.arrows:
        blocks = [m.maps[a.name] for m in ms]
        out = linalg.zeros(dims[a.target - 1], dims[a.source - 1])
        ro = co = 0
        for b in blocks:
            out[ro : ro + b.shape[0], co : co + b.shape[1]] = b
            ro += b.shape[0]
            co += b.shape[1]
        maps[a.name] = out
    return Rep(alg, dims, maps)


def sum_maps(ms: list, total: Rep) -> tuple:
    """The (injections, projections) of total = sum_rep(ms), summand by
    summand."""
    eyes = [linalg.eye(d) for d in total.dims]
    offsets = np.cumsum([[0] * len(eyes)] + [m.dims for m in ms], axis=0)
    injections, projections = [], []
    for m, offs in zip(ms, offsets):
        at = [slice(o, o + d) for o, d in zip(offs, m.dims)]
        injections.append(RepMap(m, total, tuple(e[:, s] for e, s in zip(eyes, at)), check=False))
        projections.append(RepMap(total, m, tuple(e[s] for e, s in zip(eyes, at)), check=False))
    return injections, projections


def _induced_arrow(sub_t, sub_s, big_map, p):
    """kappa with sub_t @ kappa = big_map @ sub_s (sub_t has full column rank)."""
    rhs = matmul(big_map, sub_s, p)
    kappa = linalg.solve(sub_t, rhs, p)
    if kappa is None:
        raise RuntimeError("subspace family is not invariant")
    return kappa


def kernel_of(f: RepMap) -> tuple:
    """(kernel rep, inclusion)."""
    alg = f.source.algebra
    p = f.p
    bases = [linalg.kernel_basis(f.block(v), p) for v in range(1, alg.quiver.n + 1)]
    return subrep_from_subspaces(f.source, bases)


def subrep_from_subspaces(m: Rep, bases) -> tuple:
    """Subrepresentation spanned by the given (invariant) vertex subspaces."""
    alg = m.algebra
    p = m.p
    dims = tuple(b.shape[1] for b in bases)
    maps = {}
    for a in alg.quiver.arrows:
        maps[a.name] = _induced_arrow(
            bases[a.target - 1], bases[a.source - 1], m.maps[a.name], p
        )
    sub = Rep(alg, dims, maps)
    incl = RepMap(sub, m, tuple(bases), check=False)
    return sub, incl


def cokernel_of(f: RepMap) -> tuple:
    """(cokernel rep, projection)."""
    alg = f.source.algebra
    p = f.p
    pis = [linalg.left_null_space(f.block(v), p) for v in range(1, alg.quiver.n + 1)]
    dims = tuple(pi.shape[0] for pi in pis)
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        if dims[t - 1] == 0 or dims[s - 1] == 0:
            maps[a.name] = linalg.zeros(dims[t - 1], dims[s - 1])
            continue
        rinv = linalg.right_inverse(pis[s - 1], p)
        maps[a.name] = matmul(matmul(pis[t - 1], f.target.maps[a.name], p), rinv, p)
    cok = Rep(alg, dims, maps)
    proj = RepMap(f.target, cok, tuple(pis), check=True)
    return cok, proj


def image_of(f: RepMap) -> tuple:
    """(image rep, inclusion into target)."""
    bases = [
        linalg.column_space(f.block(v), f.p)
        for v in range(1, f.source.algebra.quiver.n + 1)
    ]
    return subrep_from_subspaces(f.target, bases)


def factor_through_left(f: RepMap, h: RepMap):
    """Some x with f . x = h (x: h.source -> f.source), or None."""
    hs = hom_basis(h.source, f.source)
    ok, c = linalg.in_span(hs.after(f), h.flatten(), f.p)
    return hs.from_coords(c) if ok else None


def factor_through_right(g: RepMap, h: RepMap):
    """Some x with x . g = h (x: g.target -> h.target), or None."""
    hs = hom_basis(g.target, h.target)
    ok, c = linalg.in_span(hs.before(g), h.flatten(), g.p)
    return hs.from_coords(c) if ok else None


# -- endomorphism algebras -------------------------------------------------


class EndAlgebra:
    """End(M) with its trace-form radical and End(M)/rad (`quotient`).

    Products are compositions of maps, read back through the checked
    `coords`.  `gram` is the regular trace form tr(L_{xy}) on the basis; its
    radical is rad End(M) whenever p > dim End(M) (`require_radical`).
    """

    def __init__(self, m: Rep):
        self.module = m
        self.p = m.p
        self._hs = hom_basis(m, m)
        self.dim = self._hs.dim
        self.gram = self._trace_gram()
        self.radical_coords = linalg.kernel_basis(self.gram, self.p)
        self.radical_dim = self.radical_coords.shape[1]
        # End(M)/rad, in the coordinates the rref of the radical leaves free
        self.quotient = linalg.Quotient(self.radical_coords, self.dim, self.p)

    @property
    def basis(self) -> list:
        return self._hs.basis

    def _trace_gram(self) -> np.ndarray:
        """gram[i, j] = tr(L_{b_i b_j}) for the basis maps b_i.

        coords(f) is the entries of f at the free positions of the basis
        (HomSpace): basis map k is read at entry (r_k, c_k) of its block at
        some vertex.  With B_k the vertex-v blocks, tr(L_x) = sum_v <X_v, Q_v>
        for Q_v the sum of column c_k of B_k put in row r_k, over the k read
        at v, so gram[i, j] = sum_v <B_i, Q_v B_j^T>.
        """
        p, hs = self.p, self._hs
        e = self.dim
        gram = linalg.zeros(e, e)
        offsets = np.cumsum([0] + [d * d for d in self.module.dims])
        vertex = np.searchsorted(offsets, hs._rows, side="right") - 1
        for v, d in enumerate(self.module.dims):
            blocks = hs.blocks(v + 1)
            ks = np.flatnonzero(vertex == v)
            r, c = np.divmod(hs._rows[ks] - offsets[v], d)
            q = linalg.zeros(d, d)
            np.add.at(q, r, blocks[ks, :, c])
            q_bt = matmul(q % p, blocks.transpose(0, 2, 1), p).reshape(e, d * d)
            gram = (gram + matmul(blocks.reshape(e, d * d), q_bt.T, p)) % p
        return gram

    def require_radical(self) -> None:
        """Raise PrimeTooSmall unless p > dim End, where the trace-form
        radical is rad End(M)."""
        if self.p <= self.dim:
            raise PrimeTooSmall(
                f"p={self.p} <= dim End = {self.dim}; rerun over a larger prime field"
            )

    def coords(self, f: RepMap) -> np.ndarray:
        return self._hs.coords_of([f])[:, 0]

    def from_coords(self, coords) -> RepMap:
        return self._hs.from_coords(coords)

    def identity_coords(self) -> np.ndarray:
        return self.coords(identity_map(self.module))

    def minpoly(self, w) -> list:
        """Minimal polynomial of an element given in coordinates: monic,
        coefficients in ascending degree."""
        p = self.p
        wmap = self.from_coords(w)
        power = identity_map(self.module)
        powers = [self.coords(power)]
        while True:
            power = power.compose(wmap)
            nxt = self.coords(power)
            ok, c = linalg.in_span(np.stack(powers, axis=1), nxt, p)
            if ok:
                return [(-int(ci)) % p for ci in c] + [1]
            powers.append(nxt)

    def quotient_commutative(self) -> bool:
        """Whether End(M)/rad is commutative: the basis maps at the quotient
        indices commute modulo rad, pair by pair.  Only the maps a pair
        reads are built, each once."""
        b = functools.cache(self._hs.basis_map)
        return all(
            self.quotient.contains(self.coords(b(i).compose(b(j)) - b(j).compose(b(i))))
            for i, j in itertools.combinations(self.quotient.indices, 2)
        )

    def frobenius_matrix(self) -> np.ndarray:
        """Matrix of x -> x^p on End(M)/rad in quotient coordinates."""
        p = self.p
        powered = [
            RepMap(
                self.module,
                self.module,
                tuple(linalg.matrix_power(b, p, p) for b in self._hs.basis_map(i).blocks),
                check=False,
            )
            for i in self.quotient.indices
        ]
        return self.quotient.to_coords(self._hs.coords_of(powered))


def _end_on(end: EndAlgebra, m: Rep) -> EndAlgebra:
    """end, the End algebra of a module of m's content, as End(m): its Hom
    space rebound, the gram, radical and quotient shared."""
    out = copy.copy(end)
    out.module = m
    out._hs = hom_basis(m, m)
    return out


@memoized(rebind=_end_on)
def end_algebra(m: Rep) -> EndAlgebra:
    """End(M), memoized (memo.memoized) by content: the Hom(M, M) basis
    is the bulk of every indecomposability check."""
    return EndAlgebra(m)


EXHAUSTIVE_CHUNK_ENTRIES = 1 << 20


def _exhaustive_idempotent_split(end: EndAlgebra) -> bool:
    """True iff End contains a nontrivial idempotent (exhaustive search).

    Only feasible when p ** dim End is tiny; used as the small-field route.
    Candidates go in chunks of about EXHAUSTIVE_CHUNK_ENTRIES map entries.
    Vertex by vertex, one product with the flat basis gives the blocks of
    the candidates still standing, and one stacked matmul tests f o f = f.
    """
    p, e = end.p, end.dim
    ident = end.identity_coords()
    place = p ** np.arange(e - 1, -1, -1, dtype=np.int64)
    chunk = max(1, EXHAUSTIVE_CHUNK_ENTRIES // max(1, end._hs.flat_matrix.shape[0]))
    for start in range(0, p**e, chunk):
        index = np.arange(start, min(start + chunk, p**e), dtype=np.int64)
        coeffs = index[:, None] // place % p  # the order of itertools.product
        coeffs = coeffs[coeffs.any(axis=1) & (coeffs != ident).any(axis=1)]
        for v, d in enumerate(end.module.dims, 1):
            f = matmul(coeffs, end._hs.blocks(v).reshape(e, d * d), p)
            f = f.reshape(len(coeffs), d, d)
            coeffs = coeffs[(matmul(f, f, p) == f).all(axis=(1, 2))]
        if len(coeffs):
            return True
    return False


EXHAUSTIVE_END_LIMIT = 1 << 16


@memoized
def is_indecomposable(m: Rep) -> bool:
    """Certify indecomposability via End(M)/rad; memoized (memo.memoized)
    by content.

    Large p (p > dim End): radical of the trace form, then E/rad must be
    F_p itself, or commutative with a 1-dimensional Frobenius fixed space.
    Small p falls back to exhaustive idempotent search when feasible, else
    raises.
    """
    if m.is_zero:
        raise ZeroModuleError("the zero module is neither dec nor indecomposable")
    end = end_algebra(m)
    if m.p <= end.dim and m.p ** end.dim <= EXHAUSTIVE_END_LIMIT:
        return not _exhaustive_idempotent_split(end)
    end.require_radical()
    if end.quotient.dim == 1:
        return True
    if not end.quotient_commutative():
        return False
    fr = end.frobenius_matrix()
    fixed = linalg.kernel_basis(
        (fr - linalg.eye(end.quotient.dim)) % m.p, m.p
    ).shape[1]
    return fixed == 1


# -- decomposition ----------------------------------------------------------


def _poly_of_endo(f: RepMap, coeffs: list) -> RepMap:
    """Evaluate a polynomial on an endomorphism, vertexwise."""
    p = f.p
    out_blocks = []
    for b in f.blocks:
        acc = linalg.zeros(*b.shape)
        power = linalg.eye(b.shape[0])
        for c in coeffs:
            acc = (acc + (c % p) * power) % p
            power = matmul(power, b, p)
        out_blocks.append(acc)
    return RepMap(f.source, f.target, tuple(out_blocks), check=False)


@dataclass
class Summand:
    """One isomorphism class of indecomposable summands, with one pair of
    split maps per copy.  Copy k's maps run between the module and copy k's
    own Fitting piece, `inclusions[k].source`: `rep` itself for the first
    copy, a module isomorphic to `rep` but not the same object for the
    others.  `decompose` has matched each such piece with `iso(rep,
    piece)` at its seed, which `iso`'s memo keeps."""

    rep: Rep
    multiplicity: int
    inclusions: list = field(default_factory=list)
    projections: list = field(default_factory=list)


class DecompositionFailed(RuntimeError):
    pass


SWEEP_RANDOM_TRIES = 64


def candidate_sweep(basis: np.ndarray, rng: random.Random, p: int):
    """Candidates from the column span of basis: its columns, then seeded
    random combinations.  Coefficients are drawn lazily, so rng advances
    only as far as the caller reads."""
    k = basis.shape[1]
    for j in range(k):
        yield basis[:, j]
    for _ in range(SWEEP_RANDOM_TRIES):
        coeffs = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
        yield matmul(basis, coeffs, p)


def fitting_pieces(end: EndAlgebra, w) -> list:
    """Fitting decomposition of the module of end along w (coordinates).

    One (factor, subrep, inclusion) per distinct monic irreducible factor g
    of the minimal polynomial of w, the subrep being ker g(w)^N, N = total
    dim.  Pieces are ordered by (deg g, dim piece / deg g, coefficients of g
    from the top); dim piece / deg g is the multiplicity of g in the
    characteristic polynomial, so this is the order in which `_factor_mod`
    lists the factors of the characteristic polynomial.
    """
    m = end.module
    p = end.p
    factors = [g for g, _ in _factor_mod(end.minpoly(w), p)]
    if len(factors) < 2:
        # a single factor's piece is all of m; no kernel to compute
        return [(factors[0], m, identity_map(m))]
    f = end.from_coords(w)
    total = m.total_dim
    pieces = []
    for g in factors:
        g_power = RepMap(
            m,
            m,
            tuple(
                linalg.matrix_power(b, total, p) for b in _poly_of_endo(f, g).blocks
            ),
            check=False,
        )
        pieces.append((g, *kernel_of(g_power)))
    pieces.sort(
        key=lambda pc: (len(pc[0]), pc[1].total_dim // (len(pc[0]) - 1), pc[0][::-1])
    )
    return pieces


def split_projections(m: Rep, pieces) -> list:
    """Projections of m onto (subrep, inclusion) pieces whose inclusions
    together form a change of basis of m: row blocks of its inverse."""
    p = m.p
    inverses = [
        linalg.matrix_inverse(np.hstack([incl.block(v) for _, incl in pieces]), p)
        for v in range(1, m.algebra.quiver.n + 1)
    ]
    if any(inv is None for inv in inverses):
        raise DecompositionFailed("piece inclusions do not span")
    out = []
    row_off = [0] * len(m.dims)
    for sub, _ in pieces:
        proj_blocks = []
        for i in range(len(m.dims)):
            d = sub.dims[i]
            proj_blocks.append(inverses[i][row_off[i] : row_off[i] + d, :])
            row_off[i] += d
        out.append(RepMap(m, sub, tuple(proj_blocks), check=True))
    return out


def _split_once(m: Rep, rng: random.Random):
    """Return a list of >= 2 (subrep, incl) Fitting pieces, or None if no
    splitting endomorphism was found among the sweep candidates."""
    end = end_algebra(m)
    for w in candidate_sweep(linalg.eye(end.dim), rng, m.p):
        pieces = [(sub, incl) for _, sub, incl in fitting_pieces(end, w)]
        if len(pieces) < 2:
            continue
        if sum(s.total_dim for s, _ in pieces) != m.total_dim:
            continue
        if any(s.total_dim == 0 for s, _ in pieces):
            continue
        return pieces
    return None


def _corner_end(end: EndAlgebra, n: Rep, incl: RepMap, proj: RepMap) -> HomSpace:
    """Hom(n, n) for a summand n of end.module with split maps incl and
    proj, read off End(M) without solving n's commuting system.

    End(n) = proj . End(M) . incl: vertex by vertex, two stacked products
    over the basis give a spanning set of flattened maps.  Its
    `_normal_form` is the one basis of End(n) in kernel_basis normal form
    (HomSpace), so it is what hom_basis(n, n) would compute.
    """
    p, e = end.p, end.dim
    parts = []
    for v, d in enumerate(n.dims, 1):
        blocks = end._hs.blocks(v)
        corner = matmul(matmul(proj.block(v), blocks, p), incl.block(v), p)
        parts.append(corner.reshape(e, d * d))
    return HomSpace(n, n, _normal_form(np.hstack(parts), p))


def _split_indecomposables(m: Rep, rng: random.Random):
    """Full Fitting splitting: list of (indec rep, incl into m, proj from m).

    Each piece's End, read off End(m) (`_corner_end`), is kept as its
    hom_basis, anchored on the algebra's own module of the piece's content
    (`memo.private`), before the piece is tested."""
    if m.is_zero:
        return []
    if is_indecomposable(m):
        ident = identity_map(m)
        return [(m, ident, ident)]
    pieces = _split_once(m, rng)
    if pieces is None:
        raise DecompositionFailed("no splitting endomorphism found")
    end = end_algebra(m)
    out = []
    for (sub, incl), proj in zip(pieces, split_projections(m, pieces)):
        end_key = key_of(_solve_hom, sub, sub)
        remember(m.algebra, end_key, lambda: _corner_end(end, private(sub), incl, proj))
        split = _split_indecomposables(sub, rng)
        for piece, sub_incl, sub_proj in split:
            out.append(
                (piece, incl.compose(sub_incl), sub_proj.compose(proj))
            )
    return out


def decompose(m: Rep, seed: int = DEFAULT_SEED) -> list:
    """Decompose into indecomposables grouped up to isomorphism.

    Returns a list of Summand records; inclusion/projection witnesses are
    the split maps into/out of m (one pair per copy).

    The answer is a function of the content of m and the seed, so it is
    kept once per content on the algebra (`memo.memoized`): a module equal
    to m entry for entry gets the same pieces, the algebra's own modules
    shared by every caller of that content, with the witnesses re-anchored
    on it (`_summands_on`).
    """
    return _decompose(m, seed)


def _summands_on(groups: list, m: Rep, seed: int) -> list:
    """groups, a decomposition of the algebra's own module of m's content
    (`memo.private`), as one of m: the same pieces and witness blocks, the
    witnesses running into and out of m, and m itself as the piece of an
    indecomposable m."""
    own = private(m)
    out = []
    for g in groups:
        pieces = [m if incl.source is own else incl.source for incl in g.inclusions]
        incls = [i.reanchored(x, m) for x, i in zip(pieces, g.inclusions)]
        projs = [q.reanchored(m, x) for x, q in zip(pieces, g.projections)]
        out.append(Summand(pieces[0], g.multiplicity, incls, projs))
    return out


@memoized(rebind=_summands_on)
def _decompose(m: Rep, seed: int) -> list:
    rng = random.Random(seed)
    pieces = _split_indecomposables(m, rng)
    groups: list[Summand] = []
    for rep_piece, incl, proj in pieces:
        for g in groups:
            if iso(g.rep, rep_piece, seed=seed) is not None:
                g.multiplicity += 1
                g.inclusions.append(incl)
                g.projections.append(proj)
                break
        else:
            groups.append(Summand(rep_piece, 1, [incl], [proj]))
    return groups


def iso(m: Rep, n: Rep, seed: int = DEFAULT_SEED):
    """An isomorphism witness, or None.

    Basis sweep, then seeded random combinations, then a sound
    decompose-and-match fallback (basis sweep alone is complete for
    indecomposable pairs since non-isos form a proper subspace).

    The witness is a function of the two contents and the seed, so it is
    kept once per pair of contents on the algebra (`memo.memoized`) and
    its blocks are re-anchored on m and n, or None.
    """
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    if m.dims != n.dims:
        return None
    if m.is_zero:
        return zero_map(m, n)
    return _iso(m, n, seed)


@memoized(rebind=lambda f, m, n, seed: None if f is None else f.reanchored(m, n))
def _iso(m: Rep, n: Rep, seed: int):
    hs = hom_basis(m, n)
    if hs.dim == 0:
        return None
    p = m.p
    for w in candidate_sweep(linalg.eye(hs.dim), random.Random(seed), p):
        f = hs.from_coords(w)
        if f.is_invertible():
            return f
    # sound fallback: split both sides and match the summands
    rng2 = random.Random(seed + 1)
    left = _split_indecomposables(m, rng2)
    right = list(_split_indecomposables(n, rng2))
    if len(left) != len(right):
        return None
    used = [False] * len(right)
    p_blocks = [linalg.zeros(n.dims[i], m.dims[i]) for i in range(len(m.dims))]
    for lp, l_incl, l_proj in left:
        found = None
        for j, (rp, r_incl, _r_proj) in enumerate(right):
            if used[j]:
                continue
            w = _indec_iso(lp, rp)
            if w is not None:
                found = (j, w, r_incl)
                break
        if found is None:
            return None
        j, w, r_incl = found
        used[j] = True
        term = r_incl.compose(w).compose(l_proj)
        for i in range(len(p_blocks)):
            p_blocks[i] = (p_blocks[i] + term.block(i + 1)) % p
    f = RepMap(m, n, tuple(p_blocks), check=True)
    return f if f.is_invertible() else None


def _indec_iso(m: Rep, n: Rep):
    """Iso test for indecomposables: a hom-basis sweep is complete here."""
    if m.dims != n.dims:
        return None
    hs = hom_basis(m, n)
    for f in hs.basis:
        if f.is_invertible():
            return f
    return None


# -- brute-force oracle over F_2 --------------------------------------------

BRUTE_TOTAL_DIM_CAP = 5


def _gl_generators(d: int):
    """Generators (with inverses) of GL(d, 2) as integer matrices."""
    if d <= 1:
        return []
    gens = []
    swap = np.eye(d, dtype=np.int64)
    swap[[0, 1]] = swap[[1, 0]]
    gens.append(swap)
    if d > 2:
        cyc = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            cyc[(i + 1) % d, i] = 1
        gens.append(cyc)
        gens.append(cyc.T.copy())
    trans = np.eye(d, dtype=np.int64)
    trans[0, 1] = 1
    gens.append(trans)  # self-inverse over F_2
    return gens


def brute_indec_classes(alg: Algebra, dimvector) -> list:
    """All indecomposables with the given dimension vector over F_2, one
    representative per iso class, by exhaustive orbit enumeration.

    Independent oracle: iso classes are orbits of the vertexwise base
    change group; indecomposability is exhaustive idempotent search.
    """
    dimvector = tuple(int(d) for d in dimvector)
    if sum(dimvector) > BRUTE_TOTAL_DIM_CAP:
        raise BruteForceCapExceeded(
            f"total dimension {sum(dimvector)} exceeds cap {BRUTE_TOTAL_DIM_CAP}"
        )
    if alg.p == 2:
        alg2 = alg
    else:
        alg2 = Algebra(alg.quiver, alg.relations, p=2)
    quiver = alg2.quiver
    shapes = [
        (dimvector[a.target - 1], dimvector[a.source - 1]) for a in quiver.arrows
    ]
    entry_counts = [r * c for r, c in shapes]

    def tuple_key(mats):
        return tuple(bytes(m.reshape(-1).astype(np.uint8)) for m in mats)

    all_tuples = []
    for bits in itertools.product((0, 1), repeat=sum(entry_counts)):
        mats = []
        pos = 0
        for (r, c), cnt in zip(shapes, entry_counts):
            mats.append(np.array(bits[pos : pos + cnt], dtype=np.int64).reshape(r, c))
            pos += cnt
        try:
            rep = Rep(
                alg2, dimvector, {a.name: m for a, m in zip(quiver.arrows, mats)}
            )
        except ValueError:
            continue
        all_tuples.append((tuple_key(mats), mats, rep))

    gens_per_vertex = [_gl_generators(d) for d in dimvector]
    gl_actions = []
    for v in range(quiver.n):
        for g in gens_per_vertex[v]:
            ginv = linalg.matrix_inverse(g, 2)
            gl_actions.append((v + 1, g, ginv))

    index = {key: i for i, (key, _, _) in enumerate(all_tuples)}
    visited = [False] * len(all_tuples)
    reps_out = []
    for i, (key, mats, rep) in enumerate(all_tuples):
        if visited[i]:
            continue
        orbit = [i]
        visited[i] = True
        stack = [mats]
        while stack:
            cur = stack.pop()
            for v, g, ginv in gl_actions:
                new = []
                for a, mcur in zip(quiver.arrows, cur):
                    m2 = mcur
                    if a.target == v:
                        m2 = matmul(g, m2, 2)
                    if a.source == v:
                        m2 = matmul(m2, ginv, 2)
                    new.append(m2)
                k = tuple_key(new)
                j = index.get(k)
                if j is not None and not visited[j]:
                    visited[j] = True
                    orbit.append(j)
                    stack.append(new)
        rep0 = all_tuples[min(orbit)][2]
        if rep0.is_zero:
            continue
        end = EndAlgebra(rep0)
        if not _exhaustive_idempotent_split(end):
            reps_out.append(rep0)
    return reps_out
