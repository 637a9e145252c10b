"""Hom spaces read off a recorded split into members (`rep._split_hom`).

When a module X keeps a split into members x_j (`rep.record_split`, fed by
`approx.member_split` from the matches of the membership test),
`hom_basis` reads Hom(M, X) as the span of incl_j . Hom(M, x_j) and
Hom(X, N) as the span of Hom(x_j, N) . proj_j, brought to normal form,
instead of solving the commuting system of the pair.  A subspace has one
basis in kernel_basis normal form, so the answer must be the direct
solve's, bit for bit: `solved` (the system `rep._hom_system` builds,
handed to `linalg.kernel_basis`) is the oracle.  Every module lives over
an algebra built for the test, so no memo of another test answers for it.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from arquiver import corpus, rep
from arquiver.approx import Subcat, member_matches, member_split
from arquiver.arseq import ar_sequence_global, verify_ar_sequence
from arquiver.homological import SES
from arquiver.knit import enumerate_indec
from arquiver.memo import key_of, kept
from arquiver.rep import (
    HomSpace,
    Rep,
    RepMap,
    decompose,
    hom_basis,
    identity_map,
    iso,
    record_split,
)
from test_dual_hom import _count_solves, _fresh, solved
from test_end_algebra import hidden_sum

ALGEBRAS = {"kronecker": corpus.kronecker, "a3": corpus.a3, "loop": corpus.loop}
PRIMES = [7, 32003]


def _split(sub: Subcat, m: Rep, seed: int) -> list:
    matches = member_matches(sub, m, seed=seed)
    assert matches is not None
    return member_split(matches, seed)


def _indecomposables(alg) -> list:
    """One of each isomorphism class among the simples and the modules
    knitted from the projectives and from the injectives up to dimension
    3."""
    found = []
    candidates = [rep.simple(alg, v) for v in range(1, alg.quiver.n + 1)]
    for direction in ("from-projectives", "from-injectives"):
        candidates += enumerate_indec(alg, cap=3, direction=direction).members
    for m in candidates:
        if all(iso(m, x) is None for x in found):
            found.append(m)
    return found


def _splittable(parts, p: int) -> bool:
    """Whether `decompose` can split the sum of parts over F_p: p > dim End
    (the trace-form radical) or p ** dim End within the exhaustive search."""
    e = sum(hom_basis(a, b).dim for a in parts for b in parts)
    return p > e or p**e <= rep.EXHAUSTIVE_END_LIMIT


def _kept_split(m: Rep):
    """The split kept under m's content, or None."""
    return kept(m.algebra, key_of(rep._SPLIT, m))


def _split_modules(name: str, p: int, seed: int) -> tuple:
    """(members, modules): the indecomposables of `_indecomposables` over a
    new copy of the algebra, and three seeded hidden sums of two or three
    of them that `decompose` can split, the first with a repeated part and
    the others led by a part on which some arrow acts by a nonzero map.
    Each sum keeps its split into members under its content."""
    alg = ALGEBRAS[name](p)
    rng = random.Random(seed)
    members = _indecomposables(alg)
    acting = [x for x in members if any(b.any() for b in x.maps.values())]
    sub = Subcat(alg, "finite", members)
    mods = []
    while len(mods) < 3:
        parts = [rng.choice(acting if mods else members)]
        parts += [rng.choice(members) for _ in range(rng.randint(1, 2))]
        if not mods:
            parts[1] = parts[0]
        if not _splittable(parts, p):
            continue
        m = hidden_sum(parts, rng)
        record_split(m, lambda: _split(sub, m, seed))
        mods.append(m)
    return members, mods


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_transported_hom_is_the_solved_one(name, p):
    members, mods = _split_modules(name, p, seed=p)
    splits = [_kept_split(m) for m in mods]
    assert all(s is not None for s in splits)
    # the repeated part is split off twice, through two different pieces
    assert len(splits[0]) > len({x.content_key for x, _, _ in splits[0]})
    dims = []
    for m in members + mods:
        for n in members + mods:
            if m in members and n in members:
                continue  # neither side keeps a split
            flat = rep._split_hom(m, n)
            want = solved(m, n)
            assert flat is not None
            assert flat.dtype == np.int64 and flat.flags.c_contiguous
            assert np.array_equal(flat, want)
            HomSpace(m, n, flat)._rows  # raises unless in normal form
            assert np.array_equal(hom_basis(_fresh(m), _fresh(n)).flat_matrix, want)
            dims.append(want.shape[1])
    assert max(dims) > 1
    if name != "loop":  # over k[x]/x^2 no Hom between nonzero modules is 0
        assert 0 in dims


def test_copies_of_one_summand_meet_their_member_through_their_own_pieces():
    alg, rng = corpus.kronecker(32003), random.Random(11)
    members = enumerate_indec(alg, cap=4).members
    sub = Subcat(alg, "finite", list(members))
    m = hidden_sum([members[0]] * 3, rng)
    (g,) = decompose(m)
    pieces = [incl.source for incl in g.inclusions]
    assert g.multiplicity == 3 and pieces[0] is g.rep
    assert all(piece is not g.rep for piece in pieces[1:])
    parts = _split(sub, m, seed=1)
    assert [x for x, _, _ in parts] == [members[0]] * 3
    for x, incl, proj in parts:
        assert incl.source is x and incl.target is m
        assert proj.compose(incl).equal(identity_map(x))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_no_system_is_solved_for_a_transported_pair(monkeypatch, name):
    members, mods = _split_modules(name, 32003, seed=1)
    for x in members:
        for y in members:
            hom_basis(x, y)
    calls = _count_solves(monkeypatch)
    for m in mods:
        for x in members:
            assert rep._dual_hom(x, m) is None and rep._dual_hom(m, x) is None
            assert np.array_equal(hom_basis(x, m).flat_matrix, solved(x, m))
            assert np.array_equal(hom_basis(m, x).flat_matrix, solved(m, x))
        assert np.array_equal(hom_basis(m, mods[0]).flat_matrix, solved(m, mods[0]))
    # the oracle's own solves are the only ones
    assert len(calls) == len(mods) * (2 * len(members) + 1)


def test_a_split_that_does_not_sum_to_the_identity_raises():
    alg, rng = corpus.a3(7), random.Random(3)
    members = enumerate_indec(alg, cap=4).members
    sub = Subcat(alg, "finite", list(members))
    m = hidden_sum([members[0], members[-1]], rng)
    parts = _split(sub, m, seed=1)
    doubled = [(x, incl, proj.scale(2)) for x, incl, proj in parts]
    with pytest.raises(ValueError, match="identity"):
        record_split(m, lambda: doubled)
    with pytest.raises(ValueError, match="identity"):
        record_split(m, lambda: parts[:1])
    assert _kept_split(m) is None
    record_split(m, lambda: parts)
    assert _kept_split(m) is not None


def test_a_module_equal_to_one_of_its_parts_keeps_no_split():
    alg = corpus.kronecker(7)
    x = enumerate_indec(alg, cap=4).members[0]
    same = _fresh(x)
    assert same.content_key == x.content_key
    ident = identity_map(x)
    to_same = RepMap(x, same, ident.blocks, check=False)
    from_same = RepMap(same, x, ident.blocks, check=False)
    record_split(same, lambda: [(x, to_same, from_same)])
    record_split(x, lambda: [(x, ident, ident)])
    assert _kept_split(x) is None
    assert rep._split_hom(x, same) is None
    assert np.array_equal(hom_basis(x, same).flat_matrix, solved(x, x))


def test_a_part_with_a_split_of_its_own_is_solved_not_chained(monkeypatch):
    # x and y are isomorphic and each is recorded as split into the other:
    # chaining the two splits would recurse without end
    alg, rng = corpus.kronecker(32003), random.Random(4)
    members = enumerate_indec(alg, cap=4).members
    x = members[0]
    y = hidden_sum([x], rng)
    f = iso(x, y)
    assert f is not None and not y.equal(x)
    record_split(x, lambda: [(y, f.inverse(), f)])
    record_split(y, lambda: [(x, f, f.inverse())])
    assert _kept_split(x) is not None and _kept_split(y) is not None
    t = hidden_sum([members[1], x], rng)
    assert rep._split_hom(t, x) is None and rep._split_hom(y, t) is None
    calls = _count_solves(monkeypatch)
    assert np.array_equal(hom_basis(t, x).flat_matrix, solved(t, x))
    assert np.array_equal(hom_basis(y, t).flat_matrix, solved(y, t))
    assert len(calls) == 4  # two by hom_basis, two by the oracle


def _moved(m: Rep, alg) -> Rep:
    """m as a module over alg, a new copy of its algebra."""
    return Rep(alg, m.dims, dict(m.maps))


def test_verification_keeps_splits_that_free_with_the_sequence():
    # 0 -> P(1) -> P(2)^2 -> P(3) -> 0 over the Kronecker quiver, found over
    # one copy of the algebra and verified over a new one, in the
    # subcategory of hidden copies of its three terms: there no module is
    # kept alive by the algebra (a projective, a knit table)
    old, rng = corpus.kronecker(7), random.Random(6)
    knitted = {x.dims: x for x in enumerate_indec(old, cap=8).members}
    found = ar_sequence_global(knitted[(3, 4)])
    alg = corpus.kronecker(7)
    members = [
        _moved(hidden_sum([knitted[d]], rng), alg) for d in [(1, 2), (2, 3), (3, 4)]
    ]
    sub = Subcat(alg, "finite", members)
    left, middle, right = (
        _moved(t, alg) for t in (found.left, found.middle, found.right)
    )
    ses = SES(RepMap(left, middle, found.f.blocks), RepMap(middle, right, found.g.blocks))
    del left, right
    assert middle.dims == (4, 6)
    report = verify_ar_sequence(ses, sub)
    assert report.passed
    for term in (ses.left, ses.middle, ses.right):
        assert _kept_split(term) is not None
    # the splits are kept on the algebra, anchored on private copies, so
    # the terms themselves go with the sequence
    gone = weakref.ref(middle)
    del ses, report, sub, members, term, middle
    gc.collect()
    assert gone() is None
