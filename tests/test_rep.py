import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import corpus, linalg, rep
from arquiver.homological import dtr_data, injective_envelope, proj, projective_cover
from arquiver.rep import (
    EndAlgebra,
    Rep,
    RepMap,
    brute_indec_classes,
    cokernel_of,
    decompose,
    direct_sum,
    dual,
    dual_map,
    factor_through_left,
    factor_through_right,
    hom_basis,
    identity_map,
    image_of,
    is_indecomposable,
    iso,
    kernel_of,
    simple,
    zero_rep,
)
from test_dual_hom import _count_solves
from test_end_algebra import hidden_sum


@pytest.fixture(scope="module")
def p1(alg_a2):
    # the indecomposable projective at vertex 1: dims (1, 1), a acts as 1
    return Rep(alg_a2, (1, 1), {"a": [[1]]}, name="P1")


def test_simple_modules(alg_a2):
    s1 = simple(alg_a2, 1)
    assert s1.dims == (1, 0)
    assert s1.total_dim == 1
    assert not s1.is_zero
    assert zero_rep(alg_a2).is_zero


def test_relation_validation(alg_loop):
    with pytest.raises(ValueError):
        Rep(alg_loop, (1,), {"x": [[1]]})  # x^2 = 1 != 0
    m = Rep(alg_loop, (2,), {"x": [[0, 0], [1, 0]]})
    assert m.total_dim == 2


def test_hom_dims_a2(alg_a2, p1):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    assert hom_basis(s1, s1).dim == 1
    assert hom_basis(s1, s2).dim == 0
    assert hom_basis(s2, s1).dim == 0
    assert hom_basis(p1, s1).dim == 1
    # Hom(P(1), S2) = e_1 * S2 = 0: S2 is the socle, not a quotient
    assert hom_basis(p1, s2).dim == 0
    assert hom_basis(s1, p1).dim == 0
    assert hom_basis(s2, p1).dim == 1
    assert hom_basis(p1, p1).dim == 1


def test_repmap_commuting_enforced(alg_a2, p1):
    s2 = simple(alg_a2, 2)
    # v2 component of a map P1 -> S2 is forced to anything; v1 is 1x0... use
    # P1 -> P1 with mismatched blocks instead
    with pytest.raises(ValueError):
        RepMap(p1, p1, ([[1]], [[2]]))
    f = RepMap(p1, p1, ([[3]], [[3]]))
    assert not f.is_zero


def test_module_and_map_arrays_are_read_only(alg_a2, p1):
    given = np.array([[1]], dtype=np.int64)
    m = Rep(alg_a2, (1, 1), {"a": given})
    with pytest.raises(ValueError, match="read-only"):
        m.maps["a"][0, 0] = 2
    f = RepMap(m, p1, (given, given))
    with pytest.raises(ValueError, match="read-only"):
        f.block(1)[0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        hom_basis(m, p1).basis[0].blocks[1] += 1
    # the caller's array is copied, not frozen
    given[0, 0] = 5
    assert m.maps["a"][0, 0] == 1 and f.block(1)[0, 0] == 1


def test_modules_and_maps_refuse_entries_that_are_not_integers(alg_a2, p1):
    with pytest.raises(ValueError, match="integers"):
        Rep(alg_a2, (1, 1), {"a": [[1.5]]})
    with pytest.raises(ValueError, match="integers"):
        Rep(alg_a2, (1, 1), {"a": [[np.nan]]})
    with pytest.raises(ValueError, match="integers"):
        RepMap(p1, p1, ([[0.5]], [[0.5]]))
    assert Rep(alg_a2, (1, 1), {"a": np.eye(1)}).content_key == p1.content_key


def test_hom_coords_roundtrip(alg_a2, p1):
    hs = hom_basis(p1, p1)
    f = identity_map(p1).scale(7)
    c = hs.coords_of([f])[:, 0]
    assert hs.from_coords(c).equal(f)


def test_dual_is_involution(alg_a2, p1):
    d = dual(p1)
    assert d.algebra is alg_a2.opposite()
    dd = dual(d)
    assert dd.algebra is alg_a2
    assert dd.equal(p1)


def test_dual_map_contravariant(alg_a2, p1):
    s1 = simple(alg_a2, 1)
    f = hom_basis(p1, s1).basis[0]
    df = dual_map(f)
    assert df.source.equal(dual(s1))
    assert df.target.equal(dual(p1))


def test_dual_preserves_hom_dims(alg_kronecker):
    m = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[0]]})
    n = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[1]]})
    assert hom_basis(m, n).dim == hom_basis(dual(n), dual(m)).dim


def test_kernel_of_cover_is_s2(alg_a2, p1):
    s1 = simple(alg_a2, 1)
    f = hom_basis(p1, s1).basis[0]
    ker, incl = kernel_of(f)
    assert ker.dims == (0, 1)
    assert f.compose(incl).is_zero


def test_cokernel_of_socle_is_s1(alg_a2, p1):
    s2 = simple(alg_a2, 2)
    f = hom_basis(s2, p1).basis[0]
    cok, proj = cokernel_of(f)
    assert cok.dims == (1, 0)
    assert proj.compose(f).is_zero
    assert proj.is_surjective()


def test_image_of_composite(alg_a2, p1):
    s1 = simple(alg_a2, 1)
    f = hom_basis(p1, s1).basis[0]
    img, incl = image_of(f)
    assert img.dims == (1, 0)
    # f corestricted to its image, solved vertex by vertex
    epi = RepMap(
        f.source,
        img,
        tuple(
            linalg.solve(incl.block(v), f.block(v), f.p)
            for v in range(1, alg_a2.quiver.n + 1)
        ),
        check=True,
    )
    assert incl.compose(epi).equal(f)
    assert incl.is_injective() and epi.is_surjective()


def test_iso_fallback_refuses_different_summand_counts(alg_a2, p1):
    # S1 + S2 and P1 share dims (1, 1); no basis map is invertible, and the
    # fallback splits S1 + S2 into two summands but P1 into one
    s12 = direct_sum([simple(alg_a2, 1), simple(alg_a2, 2)])[0]
    assert iso(s12, p1) is None


def test_iso_fallback_matches_summands(alg_a2, monkeypatch):
    # no basis map of End(S1^2) is invertible; with no random tries, only the
    # decompose-and-match fallback can find a witness
    monkeypatch.setattr(rep, "SWEEP_RANDOM_TRIES", 0)
    s1 = simple(alg_a2, 1)
    left, right = direct_sum([s1, s1])[0], direct_sum([s1, s1])[0]
    w = iso(left, right)
    assert w is not None and w.is_invertible()


def test_direct_sum_layout(alg_a2, p1):
    s2 = simple(alg_a2, 2)
    total, injs, projs = direct_sum([p1, s2])
    assert total.dims == (1, 2)
    for i in range(2):
        assert projs[i].compose(injs[i]).equal(
            identity_map([p1, s2][i])
        )
    assert projs[0].compose(injs[1]).is_zero


def test_factor_through(alg_a2, p1):
    s1 = simple(alg_a2, 1)
    f = hom_basis(p1, s1).basis[0]
    # identity on S1 factors through the cover f on the left
    x = factor_through_right(f, identity_map(s1).scale(0))
    assert x is not None
    y = factor_through_left(f, f)
    assert y is not None
    assert f.compose(y).equal(f)


def test_end_algebra_p1_plus_s1(alg_a2, p1):
    s1 = simple(alg_a2, 1)
    m, _, _ = direct_sum([p1, s1])
    end = EndAlgebra(m)
    assert end.dim == 3
    assert end.radical_dim == 1
    assert end.quotient.dim == 2


def test_indecomposable_simples_and_projective(alg_a2, p1):
    assert is_indecomposable(simple(alg_a2, 1))
    assert is_indecomposable(simple(alg_a2, 2))
    assert is_indecomposable(p1)


def test_decomposable_sum_detected(alg_a2, p1):
    s2 = simple(alg_a2, 2)
    m, _, _ = direct_sum([p1, s2])
    assert not is_indecomposable(m)


def test_zero_module_raises(alg_a2):
    with pytest.raises(rep.ZeroModuleError):
        is_indecomposable(zero_rep(alg_a2))


def test_loop_regular_module_indecomposable(alg_loop):
    m = Rep(alg_loop, (2,), {"x": [[0, 0], [1, 0]]})
    # End is k[x]/(x^2): local but not semisimple
    end = EndAlgebra(m)
    assert end.dim == 2 and end.radical_dim == 1
    assert is_indecomposable(m)


def test_kronecker_regular_indecomposable(alg_kronecker):
    m = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[3]]})
    assert is_indecomposable(m)


def test_kronecker_preprojective_indecomposable(alg_kronecker):
    m = Rep(alg_kronecker, (1, 2), {"a": [[1], [0]], "b": [[0], [1]]})
    assert is_indecomposable(m)


def test_decompose_sum_of_two(alg_a2, p1):
    s2 = simple(alg_a2, 2)
    m, _, _ = direct_sum([p1, s2])
    parts = decompose(m)
    assert sorted(g.rep.dims for g in parts) == [(0, 1), (1, 1)]
    for g in parts:
        for incl, proj in zip(g.inclusions, g.projections):
            assert proj.compose(incl).equal(identity_map(g.rep))


def test_decompose_multiplicity(alg_a2, p1):
    m, _, _ = direct_sum([p1, p1])
    parts = decompose(m)
    assert len(parts) == 1
    assert parts[0].multiplicity == 2


def test_decompose_two_regulars(alg_kronecker):
    r1 = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[2]]})
    r2 = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[5]]})
    m, _, _ = direct_sum([r1, r2])
    parts = decompose(m)
    assert len(parts) == 2
    assert all(g.multiplicity == 1 for g in parts)


def test_decompose_indecomposable_returns_itself(alg_a2, p1):
    parts = decompose(p1)
    assert len(parts) == 1 and parts[0].multiplicity == 1
    assert parts[0].rep is p1


def test_iso_scaled_projective(alg_a2, p1):
    other = Rep(alg_a2, (1, 1), {"a": [[5]]})
    w = iso(p1, other)
    assert w is not None and w.is_invertible()


def test_iso_distinguishes_regulars(alg_kronecker):
    r1 = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[2]]})
    r2 = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[5]]})
    assert iso(r1, r2) is None
    assert iso(r1, r1) is not None


def test_iso_dimension_mismatch(alg_a2, p1):
    assert iso(p1, simple(alg_a2, 1)) is None


def test_iso_permuted_sum(alg_a2, p1):
    s2 = simple(alg_a2, 2)
    m, _, _ = direct_sum([p1, s2])
    n, _, _ = direct_sum([s2, p1])
    w = iso(m, n)
    assert w is not None and w.is_invertible()


def test_brute_classes_a2(alg_a2):
    assert len(brute_indec_classes(alg_a2, (1, 0))) == 1
    assert len(brute_indec_classes(alg_a2, (0, 1))) == 1
    assert len(brute_indec_classes(alg_a2, (1, 1))) == 1
    assert len(brute_indec_classes(alg_a2, (2, 1))) == 0


def test_brute_classes_kronecker(alg_kronecker):
    # regular (1,1) modules over F_2: the three points of the projective line
    assert len(brute_indec_classes(alg_kronecker, (1, 1))) == 3
    assert len(brute_indec_classes(alg_kronecker, (1, 2))) == 1
    assert len(brute_indec_classes(alg_kronecker, (2, 1))) == 1


def test_brute_classes_loop(alg_loop):
    assert len(brute_indec_classes(alg_loop, (1,))) == 1
    assert len(brute_indec_classes(alg_loop, (2,))) == 1


def test_brute_cap(alg_a2):
    with pytest.raises(rep.BruteForceCapExceeded):
        brute_indec_classes(alg_a2, (4, 4))


# -- randomized structural properties ---------------------------------------


from arquiver import corpus as _corpus

_KRONECKER = _corpus.kronecker()


@st.composite
def kronecker_rep(draw):
    alg = _KRONECKER
    d1 = draw(st.integers(0, 2))
    d2 = draw(st.integers(0, 2))
    a = draw(
        st.lists(
            st.lists(st.integers(0, 50), min_size=d1, max_size=d1),
            min_size=d2,
            max_size=d2,
        )
    )
    b = draw(
        st.lists(
            st.lists(st.integers(0, 50), min_size=d1, max_size=d1),
            min_size=d2,
            max_size=d2,
        )
    )
    return Rep(
        alg,
        (d1, d2),
        {
            "a": np.array(a, dtype=np.int64).reshape(d2, d1),
            "b": np.array(b, dtype=np.int64).reshape(d2, d1),
        },
    )


@given(kronecker_rep(), kronecker_rep())
@settings(max_examples=25, deadline=None)
def test_hom_maps_commute_and_span(m, n):
    hs = hom_basis(m, n)
    for f in hs.basis:
        c = hs.coords_of([f])[:, 0]
        assert hs.from_coords(c).equal(f)


@given(kronecker_rep())
@settings(max_examples=25, deadline=None)
def test_self_iso_and_decompose_total_dim(m):
    if m.is_zero:
        return
    assert iso(m, m) is not None
    parts = decompose(m)
    assert sum(g.rep.total_dim * g.multiplicity for g in parts) == m.total_dim


@given(kronecker_rep(), kronecker_rep())
@settings(max_examples=25, deadline=None)
def test_rank_nullity_for_homs(m, n):
    hs = hom_basis(m, n)
    for f in hs.basis[:3]:
        ker, _ = kernel_of(f)
        img, _ = image_of(f)
        assert ker.total_dim + img.total_dim == m.total_dim
        cok, _ = cokernel_of(f)
        assert img.total_dim + cok.total_dim == n.total_dim


@given(kronecker_rep())
@settings(max_examples=20, deadline=None)
def test_dual_double_dual(m):
    dd = dual(dual(m))
    assert dd.equal(m)


# -- the memo ---------------------------------------------------------------


def test_memo_shares_the_arrays(alg_a2, p1, monkeypatch):
    s1 = simple(alg_a2, 1)
    hs, end = hom_basis(p1, s1), rep.end_algebra(p1)
    cover, envelope, data = projective_cover(s1), injective_envelope(s1), dtr_data(s1)
    calls = _count_solves(monkeypatch)
    assert hom_basis(p1, s1).flat_matrix is hs.flat_matrix
    assert rep.end_algebra(p1).gram is end.gram
    assert projective_cover(s1)[0] is cover[0]
    assert injective_envelope(s1)[0] is envelope[0]
    assert dtr_data(s1).rep is data.rep
    assert calls == []


def test_memo_stores_nothing_when_the_call_raises(alg_a2, alg_kronecker):
    zero = zero_rep(alg_a2)
    keys = set(alg_a2._memo)
    for _ in range(2):
        with pytest.raises(rep.ZeroModuleError):
            is_indecomposable(zero)
    assert set(alg_a2._memo) == keys
    # contents name no algebra: S1 has one content over both algebras, and
    # a space kept for it over one is not handed to a pair across the two
    m, n = simple(alg_a2, 1), simple(alg_kronecker, 1)
    assert m.content_key == n.content_key
    hom_basis(m, m)
    keys = set(alg_a2._memo)
    for _ in range(2):
        with pytest.raises(rep.AlgebraMismatch):
            hom_basis(m, n)
    assert set(alg_a2._memo) == keys


def test_memo_keys_modules_by_content(alg_a2, p1, monkeypatch):
    s1, s1_again = simple(alg_a2, 1), simple(alg_a2, 1)
    assert s1.equal(s1_again)
    hs = hom_basis(p1, s1)
    calls = _count_solves(monkeypatch)
    hs_again = hom_basis(p1, s1_again)
    assert calls == [] and hs_again.flat_matrix is hs.flat_matrix
    assert hs is not hs_again
    assert hs.target is s1 and hs_again.target is s1_again


def test_memo_on_the_algebra(alg_kronecker):
    assert proj(alg_kronecker, 1) is proj(alg_kronecker, 1)
    assert proj(alg_kronecker, 1) is not proj(alg_kronecker, 2)


# -- kept decompositions ------------------------------------------------------


def _table_keys(alg) -> list:
    """The memo keys of the decompositions kept on alg."""
    return [k for k in alg._memo if k[0] is rep._decompose.__wrapped__]


def _entry_copy(m: Rep) -> Rep:
    return Rep(m.algebra, m.dims, {k: b.copy() for k, b in m.maps.items()})


def _decomposition_arrays(groups) -> list:
    """Every piece and witness block of a decomposition, as bytes."""

    def arrays(incl, pr):
        piece = incl.source
        return (
            piece.dims,
            [piece.maps[k].tobytes() for k in sorted(piece.maps)],
            [b.tobytes() for b in incl.blocks],
            [b.tobytes() for b in pr.blocks],
        )

    return [
        (g.multiplicity, [arrays(i, pr) for i, pr in zip(g.inclusions, g.projections)])
        for g in groups
    ]


def _table_modules(p: int) -> list:
    """(module, number of pieces): seeded hidden sums over the Kronecker
    and A3 algebras, and one indecomposable, small enough for End at p = 7."""
    rng = random.Random(p)
    kron, a3 = corpus.kronecker(p), corpus.a3(p)
    return [
        (hidden_sum([simple(kron, 1), simple(kron, 2)], rng), 2),
        (hidden_sum([simple(kron, 1), simple(kron, 1)], rng), 2),
        (hidden_sum([proj(kron, 1), simple(kron, 2)], rng), 2),
        (hidden_sum([simple(a3, 1), simple(a3, 2), simple(a3, 3)], rng), 3),
        (hidden_sum([proj(a3, v) for v in (1, 2, 3)], rng), 3),
        (proj(kron, 2), 1),
    ]


@pytest.mark.parametrize("p", [7, 32003])
def test_decompose_table_serves_entry_identical_copies(p):
    """A miss keeps one entry, so the entries counted before and after a
    call tell a served call from a computed one."""
    for m, pieces in _table_modules(p):
        alg = m.algebra
        decompose(m, seed=5)
        fresh = _entry_copy(m)
        kept = _table_keys(alg)
        served = decompose(fresh, seed=5)
        assert _table_keys(alg) == kept
        for g in served:
            for incl, pr in zip(g.inclusions, g.projections):
                assert incl.target is fresh and pr.source is fresh
                assert incl.source is not m and pr.target is not m
        # a second seed has an entry of its own
        decompose(fresh, seed=6)
        assert [k[-1] for k in _table_keys(alg) if k not in kept] == [6]
        for k in _table_keys(alg):
            del alg._memo[k]
        cold = decompose(_entry_copy(m), seed=5)
        assert _decomposition_arrays(served) == _decomposition_arrays(cold)
        assert sum(g.multiplicity for g in served) == pieces
        if pieces == 1:
            assert served[0].rep is fresh


def test_decompose_table_holds_only_arrays(alg_kronecker):
    """No key of a kept decomposition holds a module, only content keys
    and plain values, and no kept answer refers to a caller's module."""

    def plain(x):
        if isinstance(x, tuple):
            return all(plain(y) for y in x)
        return isinstance(x, (int, bytes))

    callers = [
        hidden_sum([simple(alg_kronecker, 1), proj(alg_kronecker, 2)], random.Random(1)),
        proj(alg_kronecker, 1),
    ]
    for m in callers:
        decompose(m)
    keys = _table_keys(alg_kronecker)
    assert keys
    assert all(plain(k[1:]) for k in keys)
    referred = [
        x
        for k in keys
        for g in alg_kronecker._memo[k]
        for maps in (g.inclusions, g.projections)
        for f in maps
        for x in (g.rep, f.source, f.target)
    ]
    assert referred
    assert not any(x is c for x in referred for c in callers)


def test_decompose_table_keeps_no_module_alive():
    """With the cyclic collector off, the caller's modules are freed by
    reference count alone; the pieces are the algebra's, shared by both
    calls and freed with the algebra's memo."""
    alg = corpus.kronecker()
    gc.disable()
    try:
        m = hidden_sum([simple(alg, 1), simple(alg, 2)], random.Random(2))
        m2 = _entry_copy(m)
        parts = decompose(m)
        again = decompose(m2)
        assert len(parts) == 2
        assert all(g.rep is h.rep for g, h in zip(parts, again))
        callers = [weakref.ref(x) for x in (m, m2)]
        pieces = [weakref.ref(g.rep) for g in parts]
        del m, m2, parts, again
        assert all(r() is None for r in callers)
        assert all(r() is not None for r in pieces)
        alg._memo.clear()
        assert all(r() is None for r in pieces)
    finally:
        gc.enable()
