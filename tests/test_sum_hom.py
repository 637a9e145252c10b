"""Hom spaces into and out of a sum of indecomposable projectives or
injectives, read off its summands (`rep._split_hom`).

`homological._proj_sum_rep` and `_inj_sum_rep` keep the coordinate split
of each sum they build (`rep.record_split`), so `hom_basis` reads
Hom(sum x_j, N) and Hom(N, sum x_j) off Hom(x_j, N) and Hom(N, x_j).  The
inclusions and projections of such a split send flat positions to flat
positions in increasing order, so the stacked spans are in kernel_basis
normal form once their columns are sorted, with no rref.  A subspace has
one basis in that form, so every answer must be the direct solve's, bit
for bit: `solved` (the system `rep._hom_system` builds, handed to
`linalg.kernel_basis`) is the oracle.  Every module lives over an algebra
built for the test, so no memo of another test answers for it.
"""

import random

import numpy as np
import pytest

from arquiver import corpus, homological, linalg, rep
from arquiver.homological import (
    _inj_sum_rep,
    _proj_sum_rep,
    inj,
    injective_envelope,
    min_presentation,
    nakayama_of_projmap,
    proj,
    star,
)
from arquiver.knit import enumerate_indec
from arquiver.memo import key_of, kept
from arquiver.rep import HomSpace, direct_sum, hom_basis, iso, record_split
from arquiver.stable import stable_hom
from test_dual_hom import ALGEBRAS, _count_solves, _fresh, _modules, solved
from test_end_algebra import hidden_sum

PRIMES = [2, 7, 32003]

# vertex tuples of the sums: the zero module, a single summand, repeated
# summands, and summands out of vertex order
VERTICES = {
    "kronecker": [(), (1,), (2,), (1, 1), (2, 1, 1), (1, 2, 2)],
    "a3": [(), (2,), (1, 2, 3), (3, 3, 1)],
    "loop": [(), (1,), (1, 1), (1, 1, 1)],
}


def _sums(alg, name: str) -> list:
    """The sums of projectives and of injectives over the tuples of VERTICES."""
    return [
        build(alg, vs) for build in (_proj_sum_rep, _inj_sum_rep) for vs in VERTICES[name]
    ]


def _count_normal_forms(monkeypatch) -> list:
    calls = []
    normal_form = rep._normal_form

    def counted(spanning, p):
        calls.append(spanning.shape)
        return normal_form(spanning, p)

    monkeypatch.setattr(rep, "_normal_form", counted)
    return calls


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_hom_read_off_a_sum_is_the_solved_one(monkeypatch, name, p):
    mods = _modules(name, p, seed=p)
    alg = mods[0].algebra
    sums = _sums(alg, name)
    normal_forms = _count_normal_forms(monkeypatch)
    dims, read = [], 0
    for s in sums:
        for n in mods + sums:
            for a, b in ((s, n), (n, s)):
                flat = rep._split_hom(a, b)
                want = solved(a, b)
                if flat is not None:
                    read += 1
                    assert flat.dtype == np.int64 and flat.flags.c_contiguous
                    assert np.array_equal(flat, want)
                    HomSpace(a, b, flat)._rows  # raises unless in normal form
                assert np.array_equal(hom_basis(_fresh(a), _fresh(b)).flat_matrix, want)
                dims.append(want.shape[1])
    # a coordinate split is read with no rref
    assert normal_forms == []
    assert read and 0 in dims and max(dims) > 1


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_which_sums_keep_a_split(name):
    alg = ALGEBRAS[name](7)
    for build in (_proj_sum_rep, _inj_sum_rep):
        for vs in VERTICES[name]:
            s = build(alg, vs)
            assert s is build(alg, vs)  # memoized on the algebra
            split = rep._kept_split(s)
            if len(vs) < 2:
                # the zero module and a single summand keep none
                assert split is None
                continue
            assert [x.content_key for x, _, _ in split] == [
                (proj if build is _proj_sum_rep else inj)(alg, v).content_key for v in vs
            ]


def test_a_sum_builds_its_split_maps_on_first_read(monkeypatch):
    alg = corpus.kronecker(7)
    built = []
    sum_maps = homological.sum_maps

    def counted(ms, total):
        built.append(total)
        return sum_maps(ms, total)

    monkeypatch.setattr(homological, "sum_maps", counted)
    s = _proj_sum_rep(alg, (1, 2))
    _inj_sum_rep(alg, (2, 2))
    assert built == []
    assert rep._kept_split(s) is not None
    assert rep._kept_split(s) is not None  # the second read makes nothing
    assert built == [s]


def test_nakayama_maps_run_between_the_shared_injective_sums():
    alg = corpus.a3(7)
    for m in (rep.simple(alg, 1), rep.simple(alg, 2), proj(alg, 1)):
        pres = min_presentation(m)
        src, tgt = pres.p1.vertices, pres.p0.vertices
        nu = nakayama_of_projmap(pres.d1, src, tgt)
        assert nu.source is _inj_sum_rep(alg, pres.p1.vertices)
        assert nu.target is _inj_sum_rep(alg, pres.p0.vertices)
        assert nu.equal(rep.dual_map(star(pres.d1, src, tgt)))


def test_a_single_summand_is_solved(monkeypatch):
    alg = corpus.kronecker(32003)
    n = _modules("kronecker", 32003, seed=5)[-1]
    n = rep.Rep(alg, n.dims, n.maps)
    single = _proj_sum_rep(alg, (1,))
    assert kept(alg, key_of(rep._SPLIT, single)) is None
    calls = _count_solves(monkeypatch)
    hom_basis(single, n)
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_a_pair_read_off_a_sum_solves_nothing(monkeypatch, name):
    n = _modules(name, 32003, seed=6)[-1]
    alg = n.algebra
    for s in _sums(alg, name):
        split = rep._kept_split(s)
        if split is None:
            continue
        want_out, want_in = solved(s, n), solved(n, s)
        for x, _, _ in split:
            hom_basis(x, n), hom_basis(n, x)
        calls = _count_solves(monkeypatch)
        rrefs = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda m, p: rrefs.append(m.shape) or rref(m, p))
        assert np.array_equal(hom_basis(s, n).flat_matrix, want_out)
        assert np.array_equal(hom_basis(n, s).flat_matrix, want_in)
        assert calls == [] and rrefs == []
        monkeypatch.undo()


def test_stable_hom_solves_each_injective_once_per_module(monkeypatch):
    alg = corpus.kronecker(32003)
    post = enumerate_indec(alg, cap=15, direction="from-projectives").members
    assert len(post) == 8
    injectives = {inj(alg, v).content_key: v for v in (1, 2)}
    solves = []
    hom_system = rep._hom_system

    def counted(m, n):
        solves.append((m.content_key, n.content_key))
        return hom_system(m, n)

    monkeypatch.setattr(rep, "_hom_system", counted)
    envelopes = set()
    for g in post:
        isum, _ = injective_envelope(g)
        envelopes.add((isum.vertices, isum.rep.content_key))
        for t in post:
            q = stable_hom(g, t, "inj")
            assert q.dim <= q.hom.dim
    monkeypatch.undo()
    assert any(len(vs) > 1 for vs, _ in envelopes)
    from_injectives = [(injectives[m], n) for m, n in solves if m in injectives]
    assert len(from_injectives) == len(set(from_injectives))
    # no envelope of two or more summands is solved as a whole
    sums = {key for vs, key in envelopes if len(vs) > 1}
    assert not any(m in sums for m, _ in solves)
    for g in post:
        isum, _ = injective_envelope(g)
        for t in post:
            assert np.array_equal(hom_basis(isum.rep, t).flat_matrix, solved(isum.rep, t))


def test_a_split_that_is_not_coordinate_takes_the_normal_form(monkeypatch):
    alg, rng = corpus.kronecker(32003), random.Random(7)
    parts = [proj(alg, 1), proj(alg, 1), proj(alg, 2)]
    total, incls, projs = direct_sum(parts)
    m = hidden_sum(parts, rng)
    f = iso(total, m)
    back = f.inverse()
    record_split(
        m, lambda: [(x, f.compose(i), q.compose(back)) for x, i, q in zip(parts, incls, projs)]
    )
    n = _modules("kronecker", 32003, seed=8)[-1]
    n = rep.Rep(alg, n.dims, n.maps)
    normal_forms = _count_normal_forms(monkeypatch)
    for a, b in ((m, n), (n, m), (m, m)):
        normal_forms.clear()
        flat = rep._split_hom(a, b)
        assert normal_forms and np.array_equal(flat, solved(a, b))
