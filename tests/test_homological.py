import random

import numpy as np
import pytest

from arquiver import homological, linalg
from arquiver.arseq import is_split_epi
from arquiver.homological import (
    NotExact,
    PathCoeffMap,
    ProjSum,
    SES,
    ar_extension,
    dtr,
    dtr_data,
    ext1,
    inj,
    injective_envelope,
    min_presentation,
    proj,
    projective_cover,
    radical_subspaces,
    random_module,
    second_step,
    transpose,
    trd,
)
from arquiver.rep import (
    Rep,
    direct_sum,
    dual,
    identity_map,
    is_indecomposable,
    iso,
    simple,
    zero_map,
)


def test_projectives_a2(alg_a2):
    p1 = proj(alg_a2, 1)
    p2 = proj(alg_a2, 2)
    assert p1.dims == (1, 1)
    assert p2.dims == (0, 1)
    assert np.array_equal(p1.maps["a"], np.array([[1]]))


def test_projectives_kronecker(alg_kronecker):
    assert proj(alg_kronecker, 1).dims == (1, 2)
    assert proj(alg_kronecker, 2).dims == (0, 1)


def test_projective_loop(alg_loop):
    p = proj(alg_loop, 1)
    assert p.dims == (2,)
    assert is_indecomposable(p)


def test_injectives_a2(alg_a2):
    i1 = inj(alg_a2, 1)
    i2 = inj(alg_a2, 2)
    assert i1.dims == (1, 0)  # S1
    assert iso(i2, proj(alg_a2, 1)) is not None


def socle_subspaces(m: Rep) -> list:
    """Per-vertex basis of soc M (joint kernel of all outgoing arrows)."""
    out = []
    for u in range(1, m.algebra.quiver.n + 1):
        rows = [m.maps[a.name] for a in m.algebra.quiver.arrows_from(u)]
        stacked = np.vstack(rows) if rows else linalg.zeros(0, m.dim_at(u))
        out.append(linalg.kernel_basis(stacked, m.p))
    return out


def top_dims(m: Rep) -> tuple:
    rad = radical_subspaces(m)
    return tuple(m.dim_at(u) - b.shape[1] for u, b in enumerate(rad, start=1))


def test_top_and_socle_of_p1(alg_a2):
    p1 = proj(alg_a2, 1)
    assert top_dims(p1) == (1, 0)
    soc = socle_subspaces(p1)
    assert [b.shape[1] for b in soc] == [0, 1]
    rad = radical_subspaces(p1)
    assert [b.shape[1] for b in rad] == [0, 1]


def test_projective_cover_of_simple(alg_a2):
    s1 = simple(alg_a2, 1)
    ps, aug = projective_cover(s1)
    assert ps.vertices == (1,)
    assert aug.is_surjective()


def test_cover_of_projective_is_iso(alg_a2):
    p1 = proj(alg_a2, 1)
    ps, aug = projective_cover(p1)
    assert ps.vertices == (1,)
    assert aug.is_invertible()


def test_min_presentation_s1(alg_a2):
    s1 = simple(alg_a2, 1)
    pres = min_presentation(s1)
    assert pres.p0.vertices == (1,)
    assert pres.p1.vertices == (2,)
    assert pres.omega.dims == (0, 1)
    # the single entry is the arrow path 1 -> 2
    assert pres.d1.entries[0][0] == {(1, ("a",)): 1}


def test_min_presentation_projective(alg_a2):
    pres = min_presentation(proj(alg_a2, 1))
    assert pres.p1.vertices == ()
    assert pres.omega.is_zero


def test_one_presentation_per_module(alg_kronecker, monkeypatch):
    m = Rep(alg_kronecker, (1, 2), {"a": [[1], [0]], "b": [[0], [1]]})
    pres = min_presentation(m)
    # a presentation is worked out once: no second syzygy is taken
    images = []
    image_of = homological.image_of
    monkeypatch.setattr(homological, "image_of", lambda f: images.append(f) or image_of(f))
    same = Rep(alg_kronecker, (1, 2), {"a": [[1], [0]], "b": [[0], [1]]})
    for x in (m, same):
        assert min_presentation(x).omega is pres.omega
        assert dtr_data(x).pres.omega is pres.omega
        a, b = simple(alg_kronecker, 2), proj(alg_kronecker, 2)
        assert ext1(x, a).pres.omega is pres.omega
        assert ext1(x, b).pres.omega is pres.omega
    assert images == []


def test_one_projective_sum_per_vertex_tuple(alg_kronecker):
    # two regular modules with top S1: both presentations have P0 = P1
    m = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[2]]})
    n = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[3]]})
    p0 = min_presentation(m).p0.rep
    assert min_presentation(n).p0.rep is p0
    assert ProjSum(alg_kronecker, (1,)).rep is p0
    assert ProjSum(alg_kronecker, (1, 1)).rep is not p0
    assert min_presentation(m).p1.rep is min_presentation(n).p1.rep


def test_pathcoeffmap_roundtrip(alg_a3):
    ps1 = ProjSum(alg_a3, (3,))
    ps0 = ProjSum(alg_a3, (1,))
    f = PathCoeffMap(ps1, ps0, [[{(1, ("a", "b")): 4}]])
    rm = f.to_repmap()
    assert rm.source is ps1.rep and rm.target is ps0.rep
    st = f.star()
    assert st.source.vertices == (1,) and st.target.vertices == (3,)
    st.to_repmap()  # must commute over the opposite algebra


def test_second_step_exactness(alg_loop):
    s = simple(alg_loop, 1)
    pres = min_presentation(s)
    p2, d2, d2_rep = second_step(pres)
    assert pres.d1_rep.compose(d2_rep).is_zero


def test_nakayama_sends_proj_to_inj(alg_a2, alg_kronecker):
    for alg in (alg_a2, alg_kronecker):
        for v in (1, 2):
            # nu(P) = D Hom(P, Lambda) = D of the opposite projective
            nu = dual(ProjSum(alg.opposite(), (v,)).rep)
            assert iso(nu, inj(alg, v)) is not None


def test_transpose_of_s1(alg_a2):
    tr = transpose(simple(alg_a2, 1))
    assert tr.algebra is alg_a2.opposite()
    assert tr.total_dim == 1


def test_dtr_s1_is_s2(alg_a2):
    t = dtr(simple(alg_a2, 1))
    assert iso(t, simple(alg_a2, 2)) is not None


def test_dtr_of_projective_is_zero(alg_a2):
    assert dtr(proj(alg_a2, 1)).is_zero
    assert dtr(proj(alg_a2, 2)).is_zero


def test_trd_s2_is_s1(alg_a2):
    t = trd(simple(alg_a2, 2))
    assert t.algebra is alg_a2
    assert iso(t, simple(alg_a2, 1)) is not None


def test_trd_of_injective_is_zero(alg_a2):
    assert trd(inj(alg_a2, 1)).is_zero


def test_dtr_agrees_with_dual_transpose(alg_a2, alg_loop):
    for m in (simple(alg_a2, 1), simple(alg_loop, 1)):
        assert iso(dtr(m), dual(transpose(m))) is not None


def test_dtr_loop_simple_fixed(alg_loop):
    s = simple(alg_loop, 1)
    assert iso(dtr(s), s) is not None


def test_dtr_kronecker_postprojective(alg_kronecker):
    # P(2) has dimension vector (2, 3); its translate is P(0) = proj(2)
    p2 = Rep(
        alg_kronecker,
        (2, 3),
        {
            "a": [[1, 0], [0, 1], [0, 0]],
            "b": [[0, 0], [1, 0], [0, 1]],
        },
    )
    assert is_indecomposable(p2)
    t = dtr(p2)
    assert iso(t, proj(alg_kronecker, 2)) is not None


def test_injective_envelope_s2(alg_a2):
    s2 = simple(alg_a2, 2)
    isum, mono = injective_envelope(s2)
    assert isum.vertices == (2,)
    assert iso(isum.rep, proj(alg_a2, 1)) is not None
    assert mono.is_injective()


def test_ext1_dimensions_a2(alg_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    assert ext1(s1, s2).dim == 1
    assert ext1(s1, s1).dim == 0
    assert ext1(s2, s1).dim == 0
    assert ext1(s2, s2).dim == 0


def test_ext1_loop(alg_loop):
    s = simple(alg_loop, 1)
    assert ext1(s, s).dim == 1


def test_realize_nonsplit_extension(alg_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    ext = ext1(s1, s2)
    ses = ext.realize(np.array([1], dtype=np.int64))
    assert ses.left is s2 or ses.left.equal(s2)
    assert ses.right is s1
    assert iso(ses.middle, proj(alg_a2, 1)) is not None
    assert not is_split_epi(ses.g)


def test_realize_zero_class_splits(alg_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    ext = ext1(s1, s2)
    ses = ext.realize(np.array([0], dtype=np.int64))
    assert is_split_epi(ses.g)
    total, _, _ = direct_sum([s2, s1])
    assert iso(ses.middle, total) is not None


def test_class_of_roundtrip(alg_loop):
    s = simple(alg_loop, 1)
    ext = ext1(s, s)
    for q in ext.basis_classes():
        w = ext.cocycle_for(q)
        assert np.array_equal(ext.class_of(w), q)


def test_ses_validation_rejects_non_exact(alg_a2):
    s1 = simple(alg_a2, 1)
    with pytest.raises(NotExact):
        SES(zero_map(s1, s1), zero_map(s1, s1))


def test_ar_extension_a2(alg_a2):
    s1 = simple(alg_a2, 1)
    ses = ar_extension(s1)
    assert ses is not None
    assert iso(ses.left, simple(alg_a2, 2)) is not None
    assert iso(ses.middle, proj(alg_a2, 1)) is not None
    assert not is_split_epi(ses.g)


def test_ar_extension_loop(alg_loop):
    s = simple(alg_loop, 1)
    ses = ar_extension(s)
    assert ses is not None
    assert iso(ses.left, s) is not None
    assert iso(ses.middle, proj(alg_loop, 1)) is not None


def test_ar_extension_kronecker_regular(alg_kronecker):
    r = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[2]]})
    ses = ar_extension(r)
    assert ses is not None
    assert iso(ses.left, dtr(r)) is not None
    assert not is_split_epi(ses.g)


def test_random_modules_are_modules(alg_a3):
    rng = random.Random(7)
    for _ in range(10):
        m = random_module(alg_a3, rng)
        assert m.total_dim >= 0
        if not m.is_zero:
            assert iso(m, m) is not None


def test_pushforward_zero_map_kills_classes(alg_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    ext = ext1(s1, s2)
    ext2 = ext1(s1, s2)
    assert ext2.pres.omega is ext.pres.omega
    mat = ext.pushforward_matrix(zero_map(s2, s2), ext2)
    assert not mat.any()


def test_pushforward_identity_is_identity(alg_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    ext = ext1(s1, s2)
    ext2 = ext1(s1, s2)
    assert ext2.pres.omega is ext.pres.omega
    mat = ext.pushforward_matrix(identity_map(s2), ext2)
    assert np.array_equal(mat % s1.p, np.eye(ext.dim, dtype=np.int64))
