"""Memo hits that share what they keep, and Ext^1 kept by content.

A map made without its constructor's copy of every block (re-anchored
from the memo by `RepMap.reanchored`, or a composite, sum, multiple or
identity, or a map of a Hom space read off its normal-form matrix, whose
blocks are reduced by construction) must hold what the
checked constructor `RepMap(..., check=True)` makes of the same map: the
same entries, int64 and read-only.  `homological.ext1` keeps each
Ext^1(M, N) once per pair of contents on the algebra, and every caller of
those contents, a realized extension included, rebinds that one space.
"""

import gc
import random

import numpy as np
import pytest

from arquiver import acceptance, corpus, homological
from arquiver.homological import (
    ext1,
    injective_envelope,
    min_presentation,
    projective_cover,
    random_module,
    realize_extension,
)
from arquiver.memo import key_of
from arquiver.rep import (
    AlgebraMismatch,
    HomSpace,
    Rep,
    RepMap,
    decompose,
    hom_basis,
    identity_map,
    iso,
)
from test_end_algebra import _corpus_modules

P = 32003


def _fresh(m: Rep) -> Rep:
    """A new module equal to m entry for entry."""
    return Rep(m.algebra, m.dims, {k: b.copy() for k, b in m.maps.items()})


def _same_as_checked(f: RepMap, blocks) -> None:
    """f holds, entry for entry, what RepMap(..., check=True) makes of
    blocks between f's modules, each block int64 and read-only."""
    want = RepMap(f.source, f.target, tuple(blocks), check=True)
    assert len(f.blocks) == len(want.blocks)
    for got, ref in zip(f.blocks, want.blocks):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.shape == ref.shape and np.array_equal(got, ref)


def _modules() -> list:
    """The corpus modules of test_end_algebra, then seeded random Kronecker
    modules over a new algebra."""
    rng = random.Random(25)
    kronecker = corpus.kronecker(P)
    return _corpus_modules(P) + [random_module(kronecker, rng, 3) for _ in range(12)]


@pytest.fixture(scope="module")
def modules():
    return _modules()


def test_composites_sums_multiples_and_identities_match_the_checked_maps(modules):
    seen = 0
    for m in modules:
        _same_as_checked(identity_map(m), [np.eye(d) for d in m.dims])
        for n in modules:
            if n.algebra is not m.algebra:
                continue
            there, back = hom_basis(m, n).basis[:2], hom_basis(n, m).basis[:2]
            for f in there:
                for g in back:
                    _same_as_checked(f.compose(g), [a @ b for a, b in zip(f.blocks, g.blocks)])
                    _same_as_checked(g.compose(f), [a @ b for a, b in zip(g.blocks, f.blocks)])
                    seen += 1
                for c in (0, 2, -1, P - 1, P + 3):
                    _same_as_checked(f.scale(c), [c * b for b in f.blocks])
                _same_as_checked(f + there[-1], [a + b for a, b in zip(f.blocks, there[-1].blocks)])
                _same_as_checked(f - there[-1], [a - b for a, b in zip(f.blocks, there[-1].blocks)])
    assert seen > 100


def _flat_blocks(hs: HomSpace, flat) -> list:
    """The blocks of the map flattened as flat, sliced out vertex by vertex."""
    return [
        flat[hs._starts[v - 1] : hs._starts[v]].reshape(hs.target.dim_at(v), hs.source.dim_at(v))
        for v in range(1, len(hs.source.dims) + 1)
    ]


def test_hom_basis_maps_and_maps_from_coordinates_match_the_checked_maps(modules):
    rng = random.Random(26)
    seen = 0
    for m in modules:
        for n in modules:
            if n.algebra is not m.algebra:
                continue
            hs = hom_basis(m, n)
            alone = HomSpace(m, n, hs.flat_matrix)  # basis maps built one by one
            for j in range(hs.dim):
                want = _flat_blocks(hs, hs.flat_matrix[:, j])
                _same_as_checked(alone.basis_map(j), want)
                _same_as_checked(hs.basis[j], want)
                seen += 1
            coords = [rng.randrange(-P, 2 * P) for _ in range(hs.dim)]
            # the combination, unreduced: the checked constructor reduces it
            unreduced = hs.flat_matrix @ np.array(coords, dtype=np.int64)
            _same_as_checked(hs.from_coords(coords), _flat_blocks(hs, unreduced))
    assert seen > 100


def test_maps_re_anchored_from_the_memo_match_the_checked_maps(modules):
    for m in modules:
        if m.is_zero:
            continue
        twin = _fresh(m)
        rebound = projective_cover(twin)[1], injective_envelope(twin)[1], min_presentation(twin).aug
        for f in rebound:
            _same_as_checked(f, f.blocks)
        for group in decompose(twin):
            for incl, proj in zip(group.inclusions, group.projections):
                assert incl.target is twin and proj.source is twin
                _same_as_checked(incl, incl.blocks)
                _same_as_checked(proj, proj.blocks)
        f = iso(m, twin)
        assert f.source is m and f.target is twin
        _same_as_checked(f, f.blocks)
        again = f.reanchored(_fresh(m), _fresh(m))
        assert all(a is b for a, b in zip(again.blocks, f.blocks))
        _same_as_checked(again, f.blocks)


def test_realized_extensions_match_the_checked_maps(modules):
    kronecker = [m for m in modules if m.algebra is modules[-1].algebra]
    realized = 0
    for m in kronecker[:6]:
        for n in kronecker[:6]:
            ext = ext1(_fresh(m), _fresh(n))
            for coords in ext.basis_classes()[:2]:
                ses = realize_extension(ext, coords)
                assert ses.f.source is ext.target and ses.g.target is ext.source
                _same_as_checked(ses.f, ses.f.blocks)
                _same_as_checked(ses.g, ses.g.blocks)
                realized += 1
    assert realized


def test_re_anchoring_and_sums_refuse_other_dims_and_other_algebras():
    alg, other = corpus.kronecker(P), corpus.kronecker(P)
    m = random_module(alg, random.Random(3), 3)
    f = identity_map(m)
    bigger = Rep(alg, (m.dims[0] + 1, m.dims[1]), {})
    with pytest.raises(ValueError, match="dims"):
        f.reanchored(bigger, m)
    with pytest.raises(ValueError, match="dims"):
        f.reanchored(m, bigger)
    with pytest.raises(ValueError, match="dims"):
        f + identity_map(bigger)
    elsewhere = Rep(other, m.dims, dict(m.maps))
    with pytest.raises(AlgebraMismatch):
        f.reanchored(elsewhere, elsewhere)
    with pytest.raises(AlgebraMismatch):
        f.reanchored(m, elsewhere)


def test_ext1_rebound_points_at_the_callers_modules():
    alg = corpus.kronecker(P)
    rng = random.Random(5)
    m, n = (random_module(alg, rng, 3) for _ in range(2))
    first = ext1(m, n)
    m2, n2 = _fresh(m), _fresh(n)
    ext = ext1(m2, n2)
    assert ext.source is m2 and ext.target is n2 and ext.pres.module is m2
    assert ext.classes.hom.target is n2 and ext.pres.aug.target is m2
    assert ext.classes.quotient is first.classes.quotient
    assert ext.classes.hom.flat_matrix is first.classes.hom.flat_matrix
    for q in ext.basis_classes():
        w = ext.cocycle_for(q)
        assert w.target is n2
        assert np.array_equal(ext.class_of(w), q)


def _ext_work(monkeypatch, criterion) -> tuple:
    """(Ext^1 spaces worked out, content pairs asked) in one cold run of an
    acceptance criterion: each space worked out is one quotient of
    cocycles by restrictions (`homological.hom_quotient`), and every
    ExtSpace made, hit or miss, names the caller's pair."""
    worked, pairs = [0], set()
    hom_quotient, ext_space = homological.hom_quotient, homological.ExtSpace

    def counted(hs, maps):
        worked[0] += 1
        return hom_quotient(hs, maps)

    class Asked(ext_space):
        def __init__(self, m, n, pres, classes):
            pairs.add((m.algebra, m.content_key, n.content_key))
            super().__init__(m, n, pres, classes)

    monkeypatch.setattr(homological, "hom_quotient", counted)
    monkeypatch.setattr(homological, "ExtSpace", Asked)
    acceptance._corpus.cache_clear()
    assert criterion(1).passed
    acceptance._corpus.cache_clear()
    monkeypatch.undo()
    return worked[0], len(pairs)


def test_a_criterion_works_out_one_ext1_per_content_pair_whenever_the_collector_runs(monkeypatch):
    # criterion 5 asks for 36 content pairs, most of them many times over
    worked, pairs = _ext_work(monkeypatch, acceptance.criterion_5)
    gc.disable()
    try:
        worked_off, pairs_off = _ext_work(monkeypatch, acceptance.criterion_5)
    finally:
        gc.enable()
    assert pairs > 1
    assert worked == pairs and (worked_off, pairs_off) == (worked, pairs)


def test_a_realized_extension_works_out_no_new_ext1(monkeypatch):
    alg = corpus.kronecker(P)
    rng = random.Random(11)
    while True:
        m, n = (random_module(alg, rng, 3) for _ in range(2))
        ext = ext1(m, n)
        if ext.dim:
            break
    cls = ext.basis_classes()[0]
    key = key_of(homological._realize_extension.__wrapped__, m, n, tuple(int(c) for c in cls))
    assert key not in alg._memo
    worked = []
    hom_quotient = homological.hom_quotient

    def counted(hs, maps):
        worked.append(hs)
        return hom_quotient(hs, maps)

    monkeypatch.setattr(homological, "hom_quotient", counted)
    ses = ext.realize(cls)
    assert key in alg._memo and worked == []
    assert ses.left is n and ses.right is m
