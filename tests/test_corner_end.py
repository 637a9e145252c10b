"""Differential tests of the two ways `rep` avoids re-solving a Hom system.

Corner End: `rep._split_indecomposables` keeps, for each Fitting piece N of
M with split maps incl and proj, the span proj . End(M) . incl in
kernel_basis normal form as hom_basis(N, N).  It must equal what
`hom_basis.__wrapped__(N, N)` solves, bit for bit.

Coordinates: `HomSpace.coords_of` reads a map's coordinates off the free
positions of the basis.  `oracle_coords_of` and `oracle_gram` are the rref
solver it replaced (the rref of the transposed flat matrix picks an
invertible row block, whose inverse maps entries to coordinates); both
must give the same coordinates, trace form and radical on every Hom and
End space of the corpus.
"""

import random

import numpy as np
import pytest

from arquiver import linalg, rep
from arquiver.linalg import matmul
from arquiver.rep import EndAlgebra, HomSpace, PrimeTooSmall, decompose, hom_basis
from test_end_algebra import _hidden_sums


def oracle_solver(hs: HomSpace):
    """(rows, inverse of the flat matrix on those rows), by rref."""
    p = hs.source.p
    a = hs.flat_matrix
    _, pivots = linalg.rref(a.T, p)
    rows = list(pivots)
    binv = linalg.matrix_inverse(a[rows, :], p)
    assert binv is not None
    return rows, binv


def oracle_coords_of(hs: HomSpace, maps) -> np.ndarray:
    p = hs.source.p
    v = np.stack([f.flatten() for f in maps], axis=1) % p
    rows, binv = oracle_solver(hs)
    c = matmul(binv, v[rows], p)
    assert np.array_equal(matmul(hs.flat_matrix, c, p), v)
    return c


def oracle_gram(end: EndAlgebra) -> np.ndarray:
    """The trace form through the rref solver: psi[:, rows] = binv."""
    p, e, hs = end.p, end.dim, end._hs
    gram = linalg.zeros(e, e)
    rows, binv = oracle_solver(hs)
    psi = linalg.zeros(e, hs.flat_matrix.shape[0])
    psi[:, rows] = binv
    offsets = np.cumsum([0] + [d * d for d in end.module.dims])
    for v, d in enumerate(end.module.dims):
        blocks = np.stack([b.blocks[v] for b in end.basis])
        bt = blocks.transpose(0, 2, 1)
        psi_v = psi[:, offsets[v] : offsets[v + 1]].reshape(e, d, d)
        q = matmul(psi_v.transpose(1, 0, 2).reshape(d, e * d), bt.reshape(e * d, d), p)
        q_bt = matmul(q, bt, p).reshape(e, d * d)
        gram = (gram + matmul(blocks.reshape(e, d * d), q_bt.T, p)) % p
    return gram


def _same_space(a: HomSpace, b: HomSpace) -> bool:
    return a.dim == b.dim and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for f, g in zip(a.basis, b.basis)
        for x, y in zip(f.blocks, g.blocks)
    )


def _corpus(p: int) -> list:
    return [m for seed in (p, p + 1) for m in _hidden_sums(p, seed=seed, copies=2)]


@pytest.mark.parametrize("p", [7, 32003])
def test_corner_end_is_the_solved_hom_basis(p, monkeypatch):
    corners = []
    corner_end = rep._corner_end

    def recorded(end, n, incl, proj):
        hs = corner_end(end, n, incl, proj)
        corners.append((n, hs))
        return hs

    monkeypatch.setattr(rep, "_corner_end", recorded)
    for m in _corpus(p):
        # one level by hand, so every piece is checked whatever p allows
        end = EndAlgebra(m)
        pieces = rep._split_once(m, random.Random(p))
        if pieces is not None:
            for (sub, incl), proj in zip(pieces, rep.split_projections(m, pieces)):
                recorded(end, sub, incl, proj)
        # and every level, as decompose asks for them
        try:
            decompose(m, seed=p)
        except PrimeTooSmall:
            pass
    assert len(corners) >= 10
    for n, hs in corners:
        assert _same_space(hs, hom_basis.__wrapped__(n, n))


@pytest.mark.parametrize("p", [7, 32003])
def test_coordinates_match_the_rref_solver(p):
    rng = np.random.default_rng(p)
    by_algebra = {}
    for m in _corpus(p):
        by_algebra.setdefault(id(m.algebra), []).append(m)
    spaces = 0
    for mods in by_algebra.values():
        for m in mods:
            end = EndAlgebra(m)
            gram = oracle_gram(end)
            assert np.array_equal(end.gram, gram)
            assert np.array_equal(end.radical_coords, linalg.kernel_basis(gram, p))
            products = [f.compose(g) for f in end.basis[:4] for g in end.basis[:4]]
            assert np.array_equal(
                end._hs.coords_of(products), oracle_coords_of(end._hs, products)
            )
            for n in mods:
                hs = hom_basis.__wrapped__(m, n)
                if not hs.dim:
                    continue
                spaces += 1
                coords = rng.integers(0, p, size=(hs.dim, 5))
                maps = hs.basis + [hs.from_coords(c) for c in coords.T]
                got = hs.coords_of(maps)
                assert np.array_equal(got, oracle_coords_of(hs, maps))
                assert np.array_equal(got[:, hs.dim:], coords)
    assert spaces >= 10


def test_a_map_outside_the_space_raises():
    m = _corpus(32003)[0]
    hs = hom_basis.__wrapped__(m, m)
    free = set(int(r) for r in hs._rows)
    # agrees with basis map 0 at every free position, not at a pivot one
    pivot = next(i for i in range(hs.flat_matrix.shape[0]) if i not in free)
    flat = hs.flat_matrix[:, 0].copy()
    flat[pivot] = (flat[pivot] + 1) % m.p
    f = rep.map_from_flat(m, m, flat)
    with pytest.raises(ValueError, match="outside this Hom space"):
        hs.coords_of([f])


def test_a_basis_out_of_normal_form_is_refused():
    m = _corpus(32003)[0]
    hs = hom_basis.__wrapped__(m, m)
    assert hs.dim >= 2
    flat = hs.flat_matrix
    mixed = HomSpace(m, m, np.stack([(flat[:, 0] + flat[:, 1]) % m.p, flat[:, 1]], axis=1))
    with pytest.raises(RuntimeError, match="normal form"):
        mixed.coords_of([hs.basis[0]])
