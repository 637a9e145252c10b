import pytest

from arquiver import corpus
from arquiver.homological import (
    dtr_data,
    inj,
    injective_envelope,
    proj,
    projective_cover,
)
from arquiver.rep import (
    RepMap,
    direct_sum,
    factor_through_left,
    factor_through_right,
    hom_basis,
    identity_map,
    simple,
    zero_map,
)
from arquiver.stable import (
    check_equiv_error_vs_stable,
    check_exactness_DP,
    error_term_data,
    error_term_image,
    is_injective_module,
    is_precover_with_error_term,
    is_stable_precover,
    stable_hom,
)


# -- oracles of stable_hom: one factorization per map ------------------------


def factors_through_injective(f: RepMap):
    """(flag, witness): witness = (extension, envelope mono) with
    extension . mono = f when the flag is true."""
    if f.is_zero:
        return True, None
    _, mono = injective_envelope(f.source)
    ext = factor_through_right(mono, f)
    return (False, None) if ext is None else (True, (ext, mono))


def factors_through_projective(f: RepMap):
    """(flag, witness): witness = (lift, cover epi) with epi . lift = f."""
    if f.is_zero:
        return True, None
    _, epi = projective_cover(f.target)
    lift = factor_through_left(epi, f)
    return (False, None) if lift is None else (True, (lift, epi))


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker", "loop"])
def test_stable_hom_ideal_matches_the_oracles(name):
    # a map is 0 in stable Hom exactly when its oracle finds a factorization
    alg = getattr(corpus, name)()
    n = alg.quiver.n
    mods = [simple(alg, v) for v in range(1, n + 1)]
    mods += [proj(alg, v) for v in range(1, n + 1)]
    mods += [inj(alg, v) for v in range(1, n + 1)]
    for variant, oracle in (("inj", factors_through_injective), ("proj", factors_through_projective)):
        for a in mods:
            for b in mods:
                basis = hom_basis(a, b).basis
                quotient = stable_hom(a, b, variant)
                maps = basis + [f + g for f, g in zip(basis, basis[1:])]
                for f in maps:
                    assert oracle(f)[0] == (not quotient.coords_of([f]).any())


def test_factor_injective_out_of_injective(alg_a2):
    i2 = inj(alg_a2, 2)
    f = identity_map(i2)
    ok, wit = factors_through_injective(f)
    assert ok
    ext, mono = wit
    assert ext.compose(mono).equal(f)


def test_factor_injective_false_for_s2_identity(alg_a2):
    s2 = simple(alg_a2, 2)
    ok, _ = factors_through_injective(identity_map(s2))
    assert not ok


def test_factor_injective_zero_map(alg_a2):
    s2 = simple(alg_a2, 2)
    ok, _ = factors_through_injective(zero_map(s2, s2))
    assert ok


def test_factor_projective_into_projective(alg_a2):
    p1 = proj(alg_a2, 1)
    s2 = simple(alg_a2, 2)
    f = hom_basis(s2, p1).basis[0]
    ok, wit = factors_through_projective(f)
    assert ok
    lift, epi = wit
    assert epi.compose(lift).equal(f)


def test_factor_projective_false_for_s1_identity(alg_a2):
    s1 = simple(alg_a2, 1)
    ok, _ = factors_through_projective(identity_map(s1))
    assert not ok


def test_stable_hom_out_of_injective_vanishes(alg_a2):
    for v in (1, 2):
        i = inj(alg_a2, v)
        for b in (simple(alg_a2, 1), simple(alg_a2, 2), proj(alg_a2, 1)):
            assert stable_hom(i, b, "inj").dim == 0


def test_stable_hom_s2_s2_inj(alg_a2):
    s2 = simple(alg_a2, 2)
    sh = stable_hom(s2, s2, "inj")
    assert sh.dim == 1
    assert sh.ideal_dim == 0


def test_stable_hom_s1_s1_proj(alg_a2):
    s1 = simple(alg_a2, 1)
    sh = stable_hom(s1, s1, "proj")
    assert sh.dim == 1


def test_stable_hom_into_projective_vanishes_proj(alg_a2):
    p1 = proj(alg_a2, 1)
    s2 = simple(alg_a2, 2)
    assert stable_hom(s2, p1, "proj").dim == 0


def test_stable_class_roundtrip(alg_a2):
    s2 = simple(alg_a2, 2)
    sh = stable_hom(s2, s2, "inj")
    f = identity_map(s2)
    c = sh.class_of(f)
    assert c.shape == (1,)
    assert c[0] != 0


def test_error_term_hereditary_is_zero(alg_a2):
    s1 = simple(alg_a2, 1)
    etd = error_term_data(s1)
    assert etd.nu_p2.is_zero
    assert etd.f2.is_zero
    hs, cols = error_term_image(etd, simple(alg_a2, 2))
    assert cols.shape[1] == 0


def test_error_term_consistency(alg_loop):
    s = simple(alg_loop, 1)
    etd = error_term_data(s)
    assert etd.j1.compose(etd.f2).equal(etd.nu_d2)
    # nu(P2) is the 2-dimensional injective of the loop algebra
    assert etd.nu_p2.total_dim == 2
    hs, cols = error_term_image(etd, s)
    assert hs.dim == 1
    assert cols.shape[1] <= 1


def test_precover_with_error_term_identity_pass(alg_a2):
    s1 = simple(alg_a2, 1)
    data = dtr_data(s1)
    tau = data.rep  # iso to S2
    nu = identity_map(tau)
    etd = error_term_data(s1, data)
    report = is_precover_with_error_term(nu, [tau], s1, etd)
    assert report.passed


def test_precover_with_error_term_zero_fail(alg_a2):
    s1 = simple(alg_a2, 1)
    data = dtr_data(s1)
    tau = data.rep
    nu = zero_map(tau, tau)
    etd = error_term_data(s1, data)
    report = is_precover_with_error_term(nu, [tau], s1, etd)
    assert not report.passed
    l_mod, witness = report.failures[0]
    assert witness is not None and not witness.is_zero


def test_stable_precover_matches(alg_a2):
    s1 = simple(alg_a2, 1)
    data = dtr_data(s1)
    tau = data.rep
    assert is_stable_precover(identity_map(tau), [tau], s1, data).passed
    assert not is_stable_precover(zero_map(tau, tau), [tau], s1, data).passed


def test_stable_precover_vacuous_on_empty_gens(alg_a2):
    s1 = simple(alg_a2, 1)
    data = dtr_data(s1)
    nu = zero_map(data.rep, data.rep)
    assert is_stable_precover(nu, [], s1, data).passed
    etd = error_term_data(s1, data)
    assert is_precover_with_error_term(nu, [], s1, etd).passed


def test_loop_error_vs_stable_single_instance(alg_loop):
    s = simple(alg_loop, 1)
    data = dtr_data(s)
    tau = data.rep
    etd = error_term_data(s, data)
    for nu in (identity_map(tau), zero_map(tau, tau)):
        err = is_precover_with_error_term(nu, [tau], s, etd)
        stab = is_stable_precover(nu, [tau], s, data)
        assert err.passed == stab.passed


def test_equivalence_harness_small_run():
    report = check_equiv_error_vs_stable(n_instances=12, seed=5)
    assert report.total == 12
    assert report.passed, [
        (i.algebra_name, i.module.dims) for i in report.disagreements
    ]


def test_is_injective_module(alg_a2):
    assert is_injective_module(inj(alg_a2, 1))
    assert is_injective_module(inj(alg_a2, 2))
    assert not is_injective_module(simple(alg_a2, 2))
    both, _, _ = direct_sum([inj(alg_a2, 1), inj(alg_a2, 2)])
    assert is_injective_module(both)


def test_exactness_dp_corpus():
    for alg in corpus.corpus().values():
        mods = [simple(alg, v) for v in range(1, alg.quiver.n + 1)]
        mods += [proj(alg, v) for v in range(1, alg.quiver.n + 1)]
        for v in range(1, alg.quiver.n + 1):
            u = inj(alg, v)
            for m in mods:
                assert check_exactness_DP(u, m)


def test_exactness_dp_rejects_non_injective(alg_a2):
    with pytest.raises(ValueError):
        check_exactness_DP(simple(alg_a2, 2), simple(alg_a2, 1))


def test_ideal_closed_under_composition(alg_loop):
    # I is an ideal: postcomposition keeps factorization through injectives
    s = simple(alg_loop, 1)
    lam = proj(alg_loop, 1)
    for f in hom_basis(s, lam).basis:
        okf, _ = factors_through_injective(f)
        if not okf:
            continue
        for g in hom_basis(lam, s).basis:
            ok, _ = factors_through_injective(g.compose(f))
            assert ok
