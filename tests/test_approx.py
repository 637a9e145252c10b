import numpy as np
import pytest

from arquiver import approx, corpus
from arquiver.approx import (
    CapExceeded,
    Subcat,
    audit_extension_closed,
    canonical_precover,
    contains,
    dual_subcat,
    is_precover,
    is_preenvelope,
    preenvelope_via_duality,
    right_minimal_reduce,
    right_minimality_certificate,
)
from arquiver.homological import dtr, proj
from arquiver.rep import (
    PrimeTooSmall,
    Rep,
    decompose,
    direct_sum,
    dual,
    identity_map,
    iso,
    simple,
    zero_map,
    zero_rep,
)


@pytest.fixture(scope="module")
def whole_a2(alg_a2):
    p1 = proj(alg_a2, 1)
    return Subcat(alg_a2, "finite", [simple(alg_a2, 1), simple(alg_a2, 2), p1])


def test_subcat_rejects_decomposable_generator(alg_a2):
    both, _, _ = direct_sum([simple(alg_a2, 1), simple(alg_a2, 2)])
    with pytest.raises(ValueError):
        Subcat(alg_a2, "finite", [both])


def test_subcat_rejects_duplicate_generator(alg_a2):
    s1 = simple(alg_a2, 1)
    other = Rep(alg_a2, (1, 0), {})
    with pytest.raises(ValueError):
        Subcat(alg_a2, "finite", [s1, other])


def test_contains_zero_and_sums(alg_a2, whole_a2):
    assert contains(whole_a2, zero_rep(alg_a2))
    s2, p1 = simple(alg_a2, 2), proj(alg_a2, 1)
    m, _, _ = direct_sum([s2, p1])
    sub = Subcat(alg_a2, "finite", [s2, p1])
    assert contains(sub, m)
    assert not contains(sub, simple(alg_a2, 1))


def test_contains_family_and_cap(alg_kronecker):
    pp = Subcat(alg_kronecker, "postprojective", [], cap=13)
    assert contains(pp, proj(alg_kronecker, 1))
    regular = Rep(alg_kronecker, (1, 1), {"a": [[1]], "b": [[0]]})
    assert not contains(pp, regular)
    # decomposable module with big total dim but small summands: decidable
    big_split = Rep(alg_kronecker, (9, 9), {})
    assert not contains(pp, big_split)
    # indecomposable postprojective beyond the cap: undecidable
    n = 7
    a = np.vstack([np.eye(n, dtype=np.int64), np.zeros((1, n), dtype=np.int64)])
    b = np.vstack([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64)])
    p7 = Rep(alg_kronecker, (n, n + 1), {"a": a, "b": b})
    with pytest.raises(CapExceeded):
        contains(pp, p7)


def test_audit_pass_whole_category(whole_a2):
    report = audit_extension_closed(whole_a2)
    assert report.passed


def test_audit_pass_no_ext(alg_a2):
    sub = Subcat(alg_a2, "finite", [proj(alg_a2, 1), simple(alg_a2, 1)])
    assert audit_extension_closed(sub).passed


def test_audit_fail_s1_s2(alg_a2):
    sub = Subcat(alg_a2, "finite", [simple(alg_a2, 1), simple(alg_a2, 2)])
    report = audit_extension_closed(sub)
    assert not report.passed
    z, x, coords, bad = report.failures[0]
    assert bad is not None
    assert iso(bad, proj(alg_a2, 1)) is not None


def test_audit_decomposes_each_class_once(alg_kronecker, monkeypatch):
    # every middle of Ext^1 between the Kronecker simples is regular, so
    # every class fails; its outside summand comes from that one decomposition
    calls = []

    def counting(m, seed):
        calls.append(m)
        return decompose(m, seed=seed)

    monkeypatch.setattr(approx, "decompose", counting)
    sub = Subcat(alg_kronecker, "finite", [simple(alg_kronecker, 1), simple(alg_kronecker, 2)])
    report = audit_extension_closed(sub)
    assert report.classes_checked > 1
    assert len(report.failures) == report.classes_checked
    assert len(calls) == report.classes_checked
    assert all(bad.dims == (1, 1) for _, _, _, bad in report.failures)


def test_audit_postprojective_family(alg_kronecker):
    pp = Subcat(alg_kronecker, "postprojective", [], cap=8)
    report = audit_extension_closed(pp, bound=6)
    assert report.passed


def test_canonical_precover_plain_contains_identity(alg_a2, whole_a2):
    s1 = simple(alg_a2, 1)
    nu, rep = canonical_precover(whole_a2, s1, "plain")
    assert is_precover(nu, whole_a2, "plain").passed
    # identity factors through, so nu is surjective onto Hom(S1, S1)
    assert nu.is_surjective()


def test_canonical_precover_stable_a2(alg_a2):
    s1 = simple(alg_a2, 1)
    s2 = simple(alg_a2, 2)
    sub = Subcat(alg_a2, "finite", [s2])
    tau = dtr(s1)  # iso to S2
    nu, rep = canonical_precover(sub, tau, "stable-inj")
    assert nu.source.dims == s2.dims
    assert is_precover(nu, sub, "stable-inj").passed
    assert rep.contributing[0][1] == 1


def test_canonical_precover_kronecker_family(alg_kronecker):
    pp = Subcat(alg_kronecker, "postprojective", [], cap=13)
    # dtr(P(4)) = P(2): contributing members are P(0), P(1), P(2)
    table_member = Rep(
        alg_kronecker,
        (2, 3),
        {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]},
    )
    nu, rep = canonical_precover(pp, table_member, "stable-inj")
    dims = sorted(g.dims for g, _ in rep.contributing)
    assert dims == [(0, 1), (1, 2), (2, 3)]
    assert is_precover(nu, pp, "stable-inj").passed


def test_canonical_precover_family_raises_below_the_stable_cap(alg_kronecker):
    # P(2): the largest members contribute to its plain precover up to cap 6
    p2 = Rep(
        alg_kronecker,
        (2, 3),
        {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]},
    )
    with pytest.raises(CapExceeded):
        canonical_precover(Subcat(alg_kronecker, "postprojective", cap=5), p2, "plain")
    nu, rep = canonical_precover(Subcat(alg_kronecker, "postprojective", cap=7), p2, "plain")
    assert nu.target is p2 and rep.cap == 7


@pytest.mark.parametrize("variant", ["bogus", "stable-proj"])
def test_is_precover_refuses_unknown_variant(alg_a2, whole_a2, variant):
    nu = zero_map(zero_rep(alg_a2), simple(alg_a2, 1))
    with pytest.raises(ValueError, match="variant must be 'plain' or 'stable-inj'"):
        is_precover(nu, whole_a2, variant)


@pytest.mark.parametrize("variant", ["bogus", "stable-inj"])
def test_is_preenvelope_refuses_unknown_variant(alg_a2, whole_a2, variant):
    mu = zero_map(simple(alg_a2, 1), zero_rep(alg_a2))
    with pytest.raises(ValueError, match="variant must be 'plain' or 'stable-proj'"):
        is_preenvelope(mu, whole_a2, variant)


def test_is_precover_failure_witness(alg_a2, whole_a2):
    s1 = simple(alg_a2, 1)
    nu = zero_map(zero_rep(alg_a2), s1)
    report = is_precover(nu, whole_a2, "plain")
    assert not report.passed
    g, witness = report.failures[0]
    assert witness is not None and not witness.is_zero


def test_right_minimal_keeps_iso(alg_a2):
    s2 = simple(alg_a2, 2)
    f = identity_map(s2)
    out = right_minimal_reduce(f)
    assert out.source.total_dim == 1
    assert right_minimality_certificate(out)


def test_right_minimal_strips_dead_summand(alg_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    src, injs, projs = direct_sum([s2, s1])
    nu = projs[0]  # S2 + S1 -> S2, kills S1
    assert not right_minimality_certificate(nu)
    out = right_minimal_reduce(nu)
    assert out.source.total_dim == 1
    assert out.source.dims == (0, 1)
    assert out.is_surjective()
    assert right_minimality_certificate(out)


def test_right_minimal_zero_map_collapses(alg_a2):
    s2 = simple(alg_a2, 2)
    nu = zero_map(s2, s2)
    out = right_minimal_reduce(nu)
    assert out.source.is_zero


@pytest.mark.parametrize("p", [2, 3])
def test_right_minimality_needs_the_radical_guard(p):
    # End(S1^p) = M_p(F_p): its regular trace form p.tr(xy) is zero, so the
    # trace-form radical would be all of End and the zero map would pass
    alg = corpus.a2(p)
    s1 = simple(alg, 1)
    src, _, _ = direct_sum([s1] * p)
    nu = zero_map(src, s1)
    with pytest.raises(PrimeTooSmall):
        right_minimality_certificate(nu)
    with pytest.raises(PrimeTooSmall):
        right_minimal_reduce(nu)


def test_right_minimal_indecomposable_nonzero_unchanged(alg_a2):
    p1 = proj(alg_a2, 1)
    s1 = simple(alg_a2, 1)
    from arquiver.rep import hom_basis

    nu = hom_basis(p1, s1).basis[0]
    out = right_minimal_reduce(nu)
    assert out.source.total_dim == p1.total_dim


def test_right_minimal_multiplicity(alg_a2):
    # two copies of S2 over S2: one must be stripped
    s2 = simple(alg_a2, 2)
    src, injs, projs = direct_sum([s2, s2])
    nu = projs[0] + projs[1]
    out = right_minimal_reduce(nu)
    assert out.source.total_dim == 1
    assert right_minimality_certificate(out)


def test_dual_subcat_kinds(alg_kronecker, alg_a2):
    pp = Subcat(alg_kronecker, "postprojective", [], cap=13)
    assert dual_subcat(pp).kind == "preinjective"
    sub = Subcat(alg_a2, "finite", [simple(alg_a2, 1)])
    dsub = dual_subcat(sub)
    assert dsub.algebra is alg_a2.opposite()
    assert len(dsub.gens) == 1


def test_preenvelope_identity_component(alg_a2):
    s1 = simple(alg_a2, 1)
    sub = Subcat(alg_a2, "finite", [s1])
    mu, _ = preenvelope_via_duality(sub, s1, "plain")
    assert is_preenvelope(mu, sub, "plain").passed


def test_preenvelope_s2_into_p1(alg_a2):
    s2 = simple(alg_a2, 2)
    p1 = proj(alg_a2, 1)
    sub = Subcat(alg_a2, "finite", [simple(alg_a2, 1), p1])
    mu, _ = preenvelope_via_duality(sub, s2, "plain")
    assert is_preenvelope(mu, sub, "plain").passed
    # the preenvelope embeds S2 into copies of proj(1)
    assert mu.is_injective()


def test_preenvelope_stable_variant(alg_a2):
    s2 = simple(alg_a2, 2)
    sub = Subcat(alg_a2, "finite", [simple(alg_a2, 1), proj(alg_a2, 1)])
    mu, _ = preenvelope_via_duality(sub, s2, "stable-proj")
    assert is_preenvelope(mu, sub, "stable-proj").passed


def test_duality_roundtrip_preenvelope(alg_a2):
    # mu is a preenvelope iff dual(mu) is a precover of the dual
    s2 = simple(alg_a2, 2)
    sub = Subcat(alg_a2, "finite", [simple(alg_a2, 1), proj(alg_a2, 1)])
    mu, _ = preenvelope_via_duality(sub, s2, "plain")
    from arquiver.rep import RepMap

    dmu = RepMap(
        dual(mu.target), dual(s2), tuple(b.T.copy() for b in mu.blocks), check=True
    )
    report = is_precover(dmu, dual_subcat(sub), "plain")
    assert report.passed
