"""Differential test of linalg.Quotient, HomSpace.coords_of and HomQuotient.

`CosetSpace` is the quotient class that homological used for Ext^1 (and
stable for stable Hom) before linalg.Quotient; `oracle_stable_hom` is the
stable Hom arithmetic built on it, as the former stable.StableHomSpace did
it.  Both are kept here as oracles: the new code must agree with them bit
for bit, on seeded vectors and matrices and on corpus modules.
"""

import random

import numpy as np
import pytest

from arquiver import corpus, linalg
from arquiver.acceptance import corpus_indecomposables
from arquiver.homological import injective_envelope, projective_cover
from arquiver.rep import RepMap, direct_sum, hom_basis, hom_quotient
from arquiver.stable import stable_hom
from test_rref_kernel import BIG_PRIME

PRIMES = [2, 3, 32003, BIG_PRIME]


def coords(hs, f):
    """Coefficients of one map f in the basis of hs, or None if f lies
    outside hs: coords_of on f alone."""
    try:
        return hs.coords_of([f])[:, 0]
    except ValueError:
        return None


class CosetSpace:
    """Coordinates on a quotient V / U of coefficient spaces.

    U is given by spanning columns; coset representatives zero out the
    pivot coordinates, and the surviving (non-pivot) coordinates are the
    quotient coordinates.
    """

    def __init__(self, sub_cols: np.ndarray, ambient_dim: int, p: int):
        self.p = p
        self.ambient_dim = ambient_dim
        if sub_cols.size:
            r, piv = linalg.rref(sub_cols.T, p)
            self._rows, self._pivots = r, piv
        else:
            self._rows, self._pivots = linalg.zeros(0, ambient_dim), []
        self.indices = [i for i in range(ambient_dim) if i not in self._pivots]
        self.dim = len(self.indices)

    def reduce(self, v) -> np.ndarray:
        x = np.asarray(v, dtype=np.int64) % self.p
        for i, pc in enumerate(self._pivots):
            if x[pc]:
                x = (x - x[pc] * self._rows[i]) % self.p
        return x

    def to_coords(self, v) -> np.ndarray:
        return self.reduce(v)[self.indices]

    def lift(self, q) -> np.ndarray:
        v = np.zeros(self.ambient_dim, dtype=np.int64)
        for qi, i in enumerate(self.indices):
            v[i] = int(q[qi]) % self.p
        return v


def oracle_stable_hom(a, b, variant):
    """(HomSpace, ideal columns, CosetSpace) as stable_hom built them."""
    hs = hom_basis(a, b)
    if variant == "inj":
        isum, mono = injective_envelope(a)
        gens = [g.compose(mono) for g in hom_basis(isum.rep, b).basis]
    else:
        ps, epi = projective_cover(b)
        gens = [epi.compose(g) for g in hom_basis(a, ps.rep).basis]
    if gens and hs.dim:
        ideal = np.stack([coords(hs, g) for g in gens], axis=1)
    else:
        ideal = linalg.zeros(hs.dim, 0)
    return hs, ideal, CosetSpace(ideal, hs.dim, a.p)


def random_subspace(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Spanning columns of a random subspace of F_p^n: random columns with
    zero rows mixed in (so pivots are not just the first coordinates), then
    scaled copies and sums of them (so the columns are dependent)."""
    k = int(rng.integers(0, n + 1))
    cols = rng.integers(0, p, size=(n, k), dtype=np.int64)
    cols[rng.random(n) < 0.3] = 0
    extra = []
    for _ in range(int(rng.integers(0, 3)) if k else 0):
        i, j = rng.integers(0, k, size=2)
        c = int(rng.integers(1, p))
        extra.append((c * cols[:, i] % p + cols[:, j]) % p)
    return np.column_stack([cols] + extra) if extra else cols


def cases(p: int, count: int = 40):
    rng = np.random.default_rng(p % 1000 + 7)
    for _ in range(count):
        n = int(rng.integers(0, 10))
        yield rng, n, random_subspace(rng, n, p)


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_matches_coset_space_on_vectors(p):
    for rng, n, sub in cases(p):
        quot, oracle = linalg.Quotient(sub, n, p), CosetSpace(sub, n, p)
        assert quot.pivots == oracle._pivots
        assert quot.indices == oracle.indices and quot.dim == oracle.dim
        for _ in range(5):
            v = rng.integers(0, p, size=n, dtype=np.int64)
            want = oracle.reduce(v)
            assert np.array_equal(quot.reduce(v), want)
            assert np.array_equal(quot.to_coords(v), oracle.to_coords(v))
            assert quot.contains(v) == (not want.any())
            q = rng.integers(0, p, size=quot.dim, dtype=np.int64)
            assert np.array_equal(quot.lift(q), oracle.lift(q))
            assert np.array_equal(quot.to_coords(quot.lift(q)), q)
        for j in range(sub.shape[1]):
            assert quot.contains(sub[:, j])


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_reduces_the_columns_of_a_matrix(p):
    for rng, n, sub in cases(p):
        quot, oracle = linalg.Quotient(sub, n, p), CosetSpace(sub, n, p)
        k = int(rng.integers(0, 4))
        vs = rng.integers(0, p, size=(n, k), dtype=np.int64)
        cols = [oracle.reduce(vs[:, j]) for j in range(k)]
        want = np.stack(cols, axis=1) if cols else linalg.zeros(n, 0)
        assert np.array_equal(quot.reduce(vs), want)
        assert np.array_equal(quot.to_coords(vs), want[oracle.indices])
        assert quot.contains(vs) == (not want.any())
        assert quot.contains(sub)
        qs = rng.integers(0, p, size=(quot.dim, k), dtype=np.int64)
        lifts = [oracle.lift(qs[:, j]) for j in range(k)]
        assert np.array_equal(
            quot.lift(qs), np.stack(lifts, axis=1) if lifts else linalg.zeros(n, 0)
        )


def corpus_pairs(max_dim: int = 5):
    """Pairs of corpus modules: the small indecomposables, and the sums of
    two of them, on which the stable ideals are mostly proper and nonzero."""
    for name, alg in corpus.corpus().items():
        indecs = [m for m in corpus_indecomposables(alg) if m.total_dim <= max_dim]
        sums = [direct_sum(indecs[i : i + 2])[0] for i in range(len(indecs) - 1)]
        for a in indecs + sums:
            for b in indecs + sums:
                yield name, a, b


def test_coords_of_matches_stacked_coords():
    rng = random.Random(3)
    for _, a, b in corpus_pairs():
        hs = hom_basis(a, b)
        assert hs.coords_of([]).shape == (hs.dim, 0)
        maps = list(hs.basis) + [
            hs.from_coords([rng.randrange(a.p) for _ in range(hs.dim)]) for _ in range(3)
        ]
        want = np.stack([coords(hs, f) for f in maps], axis=1)
        assert np.array_equal(hs.coords_of(maps), want)


def test_coords_of_raises_on_a_map_outside_the_space():
    checked = 0
    for _, a, b in corpus_pairs():
        # all-ones blocks: a linear map at every vertex, a hom only by chance
        blocks = tuple(np.ones((b.dims[i], a.dims[i]), dtype=np.int64) for i in range(len(a.dims)))
        try:
            RepMap(a, b, blocks, check=True)
            continue
        except ValueError:
            f = RepMap(a, b, blocks, check=False)
        hs = hom_basis(a, b)
        checked += 1
        assert coords(hs, f) is None
        with pytest.raises(ValueError):
            hs.coords_of(list(hs.basis) + [f])
        with pytest.raises(ValueError):
            hs.coords_of([f])
    assert checked >= 10


@pytest.mark.parametrize("variant", ["inj", "proj"])
def test_hom_quotient_matches_the_former_stable_hom_space(variant):
    nonzero = 0
    for _, a, b in corpus_pairs():
        sh = stable_hom(a, b, variant)
        hs, ideal, coset = oracle_stable_hom(a, b, variant)
        assert sh.hom.flat_matrix is hs.flat_matrix
        assert sh.dim == coset.dim
        assert sh.ideal_dim == linalg.rank(ideal, a.p)
        classes = [sh.class_of(f) for f in hs.basis]
        for cls, f in zip(classes, hs.basis):
            assert np.array_equal(cls, coset.to_coords(coords(hs, f)))
        if hs.basis:
            assert np.array_equal(sh.coords_of(hs.basis), np.stack(classes, axis=1))
        for q in linalg.eye(sh.dim):
            assert sh.from_coords(q).equal(hs.from_coords(coset.lift(q)))
        nonzero += sh.dim > 0 and sh.ideal_dim > 0
    assert nonzero


def test_hom_quotient_of_the_whole_space_is_zero():
    for _, a, b in corpus_pairs(3):
        hs = hom_basis(a, b)
        hq = hom_quotient(hs, hs.basis)
        assert hq.dim == 0 and hq.ideal_dim == hs.dim
        assert hq.coords_of(hs.basis).shape == (0, hs.dim)
