"""Maps between sums of projectives, read as RepMaps, against the matrices
of algebra elements they were once stored as.

`homological.star` reads Hom(d, Lambda) off the generator columns of d,
reversing paths through `_reversal`.  The oracle below is the earlier
representation: a matrix of algebra elements (`PathCoeffMap`) read off
the generator columns (`_projmap_to_pathcoeff`), starred entry by entry
(`reverse_element`) and expanded back into a RepMap (`to_repmap`), path by
path.  Every map the program builds from generators (star of d1 and d2,
nu of both, the transpose, a cover's augmentation, a random module) must
equal the oracle's bit for bit.
"""

import random
from dataclasses import dataclass

import numpy as np
import pytest

from arquiver import corpus, linalg
from arquiver.algebra import Algebra, Path, Quiver, Relation, path_target
from arquiver.homological import (
    _proj_sum_rep,
    inj,
    min_presentation,
    nakayama_of_projmap,
    proj,
    projective_cover,
    random_module,
    second_step,
    star,
    top_generators,
    transpose,
)
from arquiver.rep import RepMap, cokernel_of, simple
from test_algebra import _square

PRIMES = [2, 7, 32003]


def _cycle(p: int) -> Algebra:
    """The 3-cycle 1 -a-> 2 -b-> 3 -c-> 1 with every path of length 3 zero."""
    q = Quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)])
    rels = [Relation([(1, w)]) for w in (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"))]
    return Algebra(q, rels, p)


ALGEBRAS = {
    **{name: getattr(corpus, name) for name in corpus.corpus(7)},
    "square": _square,
    "cycle": _cycle,
}


# -- the oracle: maps between projective sums as matrices of algebra elements


@dataclass(eq=False)
class _Sum:
    """A sum of projectives with the summands' offsets at each vertex."""

    algebra: Algebra
    vertices: tuple

    @property
    def rep(self):
        return _proj_sum_rep(self.algebra, self.vertices)

    def offset(self, j: int, u: int) -> int:
        return sum(len(self.algebra.basis_paths(w, u)) for w in self.vertices[:j])

    def gen_column(self, j: int) -> int:
        w = self.vertices[j]
        return self.offset(j, w) + self.algebra.basis_paths(w, w).index((w, ()))


def reverse_element(alg: Algebra, x: dict) -> dict:
    """Image of x under the anti-isomorphism Lambda -> Lambda^op."""
    op = alg.opposite()
    out: dict = {}
    for (src, arrows), c in x.items():
        rev: Path = (path_target(alg.quiver, (src, arrows)), tuple(reversed(arrows)))
        for q, d in op.reduce_path(rev).items():
            out[q] = (out.get(q, 0) + c * d) % alg.p
    return {q: c for q, c in out.items() if c}


@dataclass(eq=False)
class PathCoeffMap:
    """entries[i][j] is supported on paths target.vertices[i] ->
    source.vertices[j]; the component P(w_j) -> P(v_i) is right
    multiplication by it."""

    source: _Sum
    target: _Sum
    entries: list

    def to_repmap(self) -> RepMap:
        alg = self.source.algebra
        p = alg.p
        blocks = []
        for u in range(1, alg.quiver.n + 1):
            m = linalg.zeros(self.target.rep.dim_at(u), self.source.rep.dim_at(u))
            for j, w in enumerate(self.source.vertices):
                for qi, q in enumerate(alg.basis_paths(w, u)):
                    col = self.source.offset(j, u) + qi
                    for i, v in enumerate(self.target.vertices):
                        rows = {r: ri for ri, r in enumerate(alg.basis_paths(v, u))}
                        for (xs, xarrows), c in self.entries[i][j].items():
                            for r, d in alg.reduce_path((xs, xarrows + q[1])).items():
                                ri = self.target.offset(i, u) + rows[r]
                                m[ri, col] = (m[ri, col] + c * d) % p
            blocks.append(m)
        return RepMap(self.source.rep, self.target.rep, tuple(blocks), check=True)

    def star(self) -> "PathCoeffMap":
        alg = self.source.algebra
        op_src = _Sum(alg.opposite(), self.target.vertices)
        op_tgt = _Sum(alg.opposite(), self.source.vertices)
        entries = [
            [reverse_element(alg, self.entries[i][j]) for i in range(len(self.target.vertices))]
            for j in range(len(self.source.vertices))
        ]
        return PathCoeffMap(op_src, op_tgt, entries)


def _projmap_to_pathcoeff(src: _Sum, tgt: _Sum, f: RepMap) -> PathCoeffMap:
    alg = src.algebra
    entries = []
    for i, v in enumerate(tgt.vertices):
        row = []
        for j, w in enumerate(src.vertices):
            vec = f.block(w)[:, src.gen_column(j)]
            elem = {}
            for k, q in enumerate(alg.basis_paths(v, w)):
                c = int(vec[tgt.offset(i, w) + k]) % alg.p
                if c:
                    elem[q] = c
            row.append(elem)
        entries.append(row)
    return PathCoeffMap(src, tgt, entries)


def _oracle_cover(m) -> tuple:
    """The blocks of the augmentation onto m, path by path."""
    alg = m.algebra
    blocks = []
    for t in range(1, alg.quiver.n + 1):
        cols = []
        for u, gi in top_generators(m):
            for q in alg.basis_paths(u, t):
                if not q[1]:
                    e = linalg.zeros(m.dim_at(t), 1)[:, 0]
                    e[gi] = 1
                    cols.append(e)
                else:
                    cols.append(m.evaluate_arrows(q[1])[:, gi] % m.p)
        blocks.append(np.stack(cols, axis=1) if cols else linalg.zeros(m.dim_at(t), 0))
    return tuple(blocks)


def _oracle_random_module(alg: Algebra, rng, max_summands: int = 2):
    n = alg.quiver.n
    tgt_vs = tuple(rng.randrange(1, n + 1) for _ in range(rng.randint(1, max_summands)))
    src_vs = tuple(rng.randrange(1, n + 1) for _ in range(rng.randint(0, max_summands)))
    entries = []
    for v in tgt_vs:
        row = []
        for w in src_vs:
            elem = {}
            for q in alg.basis_paths(v, w):
                c = rng.randrange(alg.p)
                if c:
                    elem[q] = c
            row.append(elem)
        entries.append(row)
    f = PathCoeffMap(_Sum(alg, src_vs), _Sum(alg, tgt_vs), entries)
    return cokernel_of(f.to_repmap())[0]


# -- the comparisons ----------------------------------------------------------


def _same_blocks(got: RepMap, want) -> None:
    assert len(got.blocks) == len(want)
    for a, b in zip(got.blocks, want):
        assert a.dtype == np.int64 and a.shape == b.shape and np.array_equal(a, b)


def _modules(alg: Algebra, seed: int) -> list:
    """The simples, indecomposable projectives and injectives, and seeded
    random modules."""
    vs = range(1, alg.quiver.n + 1)
    rng = random.Random(seed)
    fixed = [f(alg, v) for f in (simple, proj, inj) for v in vs]
    return fixed + [random_module(alg, rng, 3) for _ in range(6)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_star_and_nu_match_the_path_coefficient_oracle(name, p):
    alg = ALGEBRAS[name](p)
    op = alg.opposite()
    nonzero = 0
    for m in _modules(alg, seed=p):
        pres = min_presentation(m)
        p2, d2 = second_step(pres)
        starred, wanted = [], []
        for d, src, tgt in ((pres.d1, pres.p1, pres.p0), (d2, p2, pres.p1)):
            oracle = _projmap_to_pathcoeff(_Sum(alg, src.vertices), _Sum(alg, tgt.vertices), d)
            assert oracle.to_repmap().equal(d)
            want = oracle.star().to_repmap()
            got = star(d, src.vertices, tgt.vertices)
            assert got.source is _proj_sum_rep(op, tgt.vertices)
            assert got.target is _proj_sum_rep(op, src.vertices)
            _same_blocks(got, want.blocks)
            nu = nakayama_of_projmap(d, src.vertices, tgt.vertices)
            _same_blocks(nu, [b.T for b in want.blocks])
            starred.append(got)
            wanted.append(want)
            nonzero += not got.is_zero
        # Hom(-, Lambda) of a complex is a complex
        assert starred[1].compose(starred[0]).is_zero
        tr = transpose(m)
        assert tr.algebra is op
        assert tr.content_key == cokernel_of(wanted[0])[0].content_key
    assert nonzero


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_cover_augmentation_matches_the_oracle(name, p):
    alg = ALGEBRAS[name](p)
    for m in _modules(alg, seed=p + 1):
        ps, aug = projective_cover(m)
        assert aug.source is ps.rep and aug.target is m
        _same_blocks(aug, _oracle_cover(m))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_random_module_matches_the_oracle(name, p):
    alg = ALGEBRAS[name](p)
    for seed in range(8):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for summands in (1, 2, 3):
            got = random_module(alg, rng, summands)
            want = _oracle_random_module(alg, oracle_rng, summands)
            assert got.content_key == want.content_key
            assert rng.getstate() == oracle_rng.getstate()
