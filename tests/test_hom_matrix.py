"""Differential tests of the matrix-backed `rep.HomSpace`.

A Hom space holds only its normal-form matrix.  `after(f)` and `before(g)`
compose every basis map with a fixed map straight from that matrix, one
product per vertex; they must equal the composites built map by map
(`RepMap.compose`, then `flatten`), bit for bit, also where the space is
zero or a module is zero at a vertex.  A space used only through its
matrix never builds the maps of its basis.
"""

import random

import numpy as np
import pytest

from arquiver import linalg
from arquiver.rep import Rep, RepMap, hom_basis, hom_quotient, zero_map
from test_end_algebra import _corpus_modules, _hidden_sums


def stacked(maps: list, source: Rep, target: Rep) -> np.ndarray:
    """The flattened maps source -> target as columns, the old way."""
    if not maps:
        return linalg.zeros(sum(t * s for t, s in zip(target.dims, source.dims)), 0)
    return np.stack([f.flatten() for f in maps], axis=1)


def some_map(m: Rep, n: Rep, rng: random.Random) -> RepMap:
    hs = hom_basis(m, n)
    if not hs.dim:
        return zero_map(m, n)
    return hs.from_coords([rng.randrange(m.p) for _ in range(hs.dim)])


def _by_algebra(p: int) -> list:
    groups = {}
    for m in _corpus_modules(p) + _hidden_sums(p, seed=p, copies=2):
        groups.setdefault(id(m.algebra), []).append(m)
    return list(groups.values())


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("p", [7, 32003])
def test_composites_match_the_maps_composed_one_by_one(p):
    rng = random.Random(p)
    seen = {"zero space": 0, "zero at a vertex": 0, "spaces": 0}
    for mods in _by_algebra(p):
        for m in mods:
            for n in mods:
                hs = hom_basis.__wrapped__(m, n)
                seen["spaces"] += 1
                seen["zero space"] += hs.dim == 0
                seen["zero at a vertex"] += 0 in m.dims + n.dims
                for v in range(1, len(m.dims) + 1):
                    blocks = np.stack([f.block(v) for f in hs.basis]) if hs.dim else None
                    assert hs.blocks(v).shape == (hs.dim, n.dim_at(v), m.dim_at(v))
                    if hs.dim:
                        assert _same(hs.blocks(v), blocks)
                for x in rng.choices(mods, k=3):
                    f = some_map(n, x, rng)
                    want = stacked([f.compose(b) for b in hs.basis], m, x)
                    assert _same(hs.after(f), want)
                    g = some_map(x, m, rng)
                    want = stacked([b.compose(g) for b in hs.basis], x, n)
                    assert _same(hs.before(g), want)
    assert seen["spaces"] >= 500
    assert seen["zero space"] >= 50 and seen["zero at a vertex"] >= 50


@pytest.mark.parametrize("p", [7, 32003])
def test_a_space_read_through_its_matrix_builds_no_maps(p):
    rng = random.Random(p)
    spaces = 0
    for mods in _by_algebra(p):
        for m, n in zip(mods, mods[1:] + mods[:1]):
            hs = hom_basis.__wrapped__(m, n)
            coords = np.array([rng.randrange(p) for _ in range(hs.dim)], dtype=np.int64)
            f = hs.from_coords(coords)
            assert np.array_equal(hs.coords_of([f])[:, 0], coords)
            assert np.array_equal(hs.coords_of(hs.flat_matrix), linalg.eye(hs.dim))
            hs.after(some_map(n, m, rng))
            hs.before(some_map(n, m, rng))
            hq = hom_quotient(hs, hs.flat_matrix[:, : hs.dim // 2])
            assert hq.dim == hs.dim - hs.dim // 2
            assert "basis" not in hs.__dict__
            spaces += hs.dim > 0
            # the maps, once asked for, are those of the matrix
            assert _same(stacked(hs.basis, m, n), hs.flat_matrix)
    assert spaces >= 10


def test_maps_and_their_columns_give_the_same_coordinates():
    rng = np.random.default_rng(1)
    for mods in _by_algebra(32003):
        m = max(mods, key=lambda x: x.total_dim)
        hs = hom_basis(m, m)
        maps = [hs.from_coords(c) for c in rng.integers(0, 32003, (4, hs.dim))]
        cols = stacked(maps, m, m)
        assert _same(hs.coords_of(cols), hs.coords_of(maps))
        by_cols, by_maps = hom_quotient(hs, cols), hom_quotient(hs, maps)
        assert by_cols.quotient.indices == by_maps.quotient.indices
