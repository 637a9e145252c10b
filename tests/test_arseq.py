import numpy as np
import pytest

from arquiver import arseq, corpus, linalg
from arquiver.acceptance import corpus_indecomposables
from arquiver.approx import Subcat, canonical_precover
from arquiver.arseq import (
    almost_split,
    ar_end_in_subcat,
    ar_sequence_global,
    ar_start_in_subcat,
    check_duality_of_ar,
    is_projective_module,
    is_split_epi,
    is_split_mono,
    radical_hom_basis,
    theorem_harness,
    verify_ar_sequence,
)
from arquiver.homological import SES, ExtSpace, ar_extension, ar_socle_classes, dtr, ext1, proj
from arquiver.knit import knit_both_ends
from arquiver.rep import (
    Rep,
    direct_sum,
    hom_basis,
    identity_map,
    is_indecomposable,
    iso,
    simple,
)


@pytest.fixture(scope="module")
def whole_a2(alg_a2):
    return Subcat(
        alg_a2, "finite", [simple(alg_a2, 1), simple(alg_a2, 2), proj(alg_a2, 1)]
    )


@pytest.fixture(scope="module")
def classical_a2(alg_a2):
    return ar_sequence_global(simple(alg_a2, 1))


def test_split_epi_mono_basics(alg_a2):
    s1 = simple(alg_a2, 1)
    assert is_split_epi(identity_map(s1))
    assert is_split_mono(identity_map(s1))
    p1 = proj(alg_a2, 1)
    cover = hom_basis(p1, s1).basis[0]
    assert not is_split_epi(cover)
    total, injs, projs = direct_sum([s1, p1])
    assert is_split_mono(injs[0])
    assert is_split_epi(projs[1])


def test_is_projective_module(alg_a2):
    assert is_projective_module(proj(alg_a2, 1))
    assert is_projective_module(proj(alg_a2, 2))
    assert not is_projective_module(simple(alg_a2, 1))


def test_right_almost_split_classical(alg_a2, whole_a2):
    p1, s1 = proj(alg_a2, 1), simple(alg_a2, 1)
    cover = hom_basis(p1, s1).basis[0]
    report = almost_split(cover, whole_a2.members(), "right")
    assert report.passed


def test_right_almost_split_rejects_split_projection(alg_a2, whole_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    total, _, projs = direct_sum([s2, s1])
    report = almost_split(projs[1], whole_a2.members(), "right")
    assert not report.passed
    assert not report.not_split


def test_right_almost_split_vacuous(alg_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    # no nonzero non-split-epi test maps S2 -> S1 exist
    from arquiver.rep import zero_map, zero_rep

    f = zero_map(zero_rep(alg_a2), s1)
    report = almost_split(f, [s2], "right")
    assert report.passed and report.vacuous


def test_left_almost_split_classical(alg_a2, whole_a2, classical_a2):
    report = almost_split(classical_a2.f, whole_a2.members(), "left")
    assert report.passed


def test_left_almost_split_rejects_split_inclusion(alg_a2, whole_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    total, injs, _ = direct_sum([s2, s1])
    report = almost_split(injs[0], whole_a2.members(), "left")
    assert not report.passed


def test_ar_sequence_global_a2(alg_a2, classical_a2):
    ses = classical_a2
    assert iso(ses.left, simple(alg_a2, 2)) is not None
    assert iso(ses.middle, proj(alg_a2, 1)) is not None
    assert ses.right.dims == (1, 0)


def test_ar_sequence_global_rejects_projective(alg_a2):
    with pytest.raises(ValueError):
        ar_sequence_global(proj(alg_a2, 1))


def test_ar_sequence_global_kronecker_p2(alg_kronecker):
    p2 = Rep(
        alg_kronecker,
        (2, 3),
        {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]},
    )
    ses = ar_sequence_global(p2)
    assert iso(ses.left, proj(alg_kronecker, 2)) is not None
    assert ses.middle.dims == (2, 4)
    mid = ses.middle
    from arquiver.rep import decompose

    parts = decompose(mid)
    assert len(parts) == 1 and parts[0].multiplicity == 2
    assert iso(parts[0].rep, proj(alg_kronecker, 1)) is not None


def regular_kronecker(alg, n: int) -> Rep:
    """R_n(0): both spaces of dimension n, a = I_n, b = the nilpotent Jordan
    block."""
    eye = np.eye(n, dtype=np.int64)
    return Rep(alg, (n, n), {"a": eye, "b": np.eye(n, k=1, dtype=np.int64)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ar_sequence_global_kronecker_regular(alg_kronecker, n):
    # no regular module is knitted, so only the almost-split checks decide
    ses = ar_sequence_global(regular_kronecker(alg_kronecker, n))
    assert iso(ses.left, regular_kronecker(alg_kronecker, n)) is not None
    parts = [regular_kronecker(alg_kronecker, k) for k in (n - 1, n + 1) if k]
    assert iso(ses.middle, direct_sum(parts)[0]) is not None


# -- the socle certificate of ar_sequence_global against the knitted check ----


def knitted_ar_sequence_global(m: Rep) -> SES:
    """The former ar_sequence_global: the sequence of ar_extension, verified on
    both sides against the modules knitted from both ends."""
    ses = ar_extension(m)
    testset = knit_both_ends(m.algebra, max(14, m.total_dim + 2))
    right = almost_split(ses.g, testset, "right")
    left = almost_split(ses.f, testset, "left")
    if not (right.passed and left.passed):
        raise RuntimeError("constructed sequence failed verification")
    return ses


def _rep_key(m: Rep) -> tuple:
    return m.dims, [(k, m.maps[k].tobytes()) for k in sorted(m.maps)]


def _ses_key(s: SES) -> tuple:
    return tuple(
        (_rep_key(h.source), _rep_key(h.target), [b.tobytes() for b in h.blocks])
        for h in (s.f, s.g)
    )


def _global_cases() -> dict:
    """label -> every non-projective corpus indecomposable, and R_1(0)-R_4(0)."""
    cases = {}
    for name, alg in corpus.corpus().items():
        for k, m in enumerate(corpus_indecomposables(alg)):
            if not is_projective_module(m):
                cases[f"{name}-{k}"] = m
    kron = corpus.kronecker()
    cases.update({f"R{n}(0)": regular_kronecker(kron, n) for n in (1, 2, 3, 4)})
    return cases


GLOBAL_CASES = _global_cases()


@pytest.mark.parametrize("m", GLOBAL_CASES.values(), ids=GLOBAL_CASES.keys())
def test_ar_sequence_global_matches_knitted_check(m):
    ses = ar_sequence_global(m)
    assert _ses_key(ses) == _ses_key(knitted_ar_sequence_global(m))
    # the dual certificate: every radical endomorphism of the left term
    # factors through f
    assert almost_split(ses.f, [ses.left], "left").passed


def _regular_classes(alg, n: int) -> list:
    """(realized basis class of Ext^1(R_n(0), DTr R_n(0)), whether it lies in
    the End-socle)."""
    r = regular_kronecker(alg, n)
    ext, socle = ar_socle_classes(r)
    span = np.stack(socle, axis=1)
    return [
        (ext.realize(q), linalg.in_span(span, q, alg.p)[0])
        for q in ext.basis_classes()
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ar_sequence_global_rejects_non_socle_classes(alg_kronecker, n, monkeypatch):
    r = regular_kronecker(alg_kronecker, n)
    classes = _regular_classes(alg_kronecker, n)
    assert [in_socle for _, in_socle in classes] == [False] * (n - 1) + [True]
    knitted = knit_both_ends(alg_kronecker, max(14, r.total_dim + 2))
    for ses, in_socle in classes:
        monkeypatch.setattr(arseq, "ar_extension", lambda m, ses=ses: ses)
        if in_socle:
            assert ar_sequence_global(r) is ses
        else:
            with pytest.raises(RuntimeError, match="failed verification"):
                ar_sequence_global(r)
        # the dual certificate gives the same verdict; the knitted test set,
        # which holds no regular module, accepts every class
        assert almost_split(ses.f, [ses.left], "left").passed == in_socle
        assert almost_split(ses.g, knitted, "right").passed
        assert almost_split(ses.f, knitted, "left").passed


def test_ar_sequence_global_has_no_test_set_cap(alg_a2):
    with pytest.raises(TypeError):
        ar_sequence_global(simple(alg_a2, 1), testset_cap=14)


def test_verify_ar_sequence_split_fails(alg_a2, whole_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    total, injs, projs = direct_sum([s2, s1])
    split = SES(injs[0], projs[1])
    report = verify_ar_sequence(split, whole_a2)
    assert not report.passed


def test_verify_ar_sequence_classical(alg_a2, whole_a2, classical_a2):
    report = verify_ar_sequence(classical_a2, whole_a2)
    assert report.passed
    assert report.membership == (True, True, True)


def test_ar_end_in_subcat_whole(alg_a2, whole_a2):
    out = ar_end_in_subcat(simple(alg_a2, 1), whole_a2)
    assert out.status == "found"
    assert iso(out.ses.left, simple(alg_a2, 2)) is not None


def test_ar_end_in_subcat_lets_realize_errors_through(alg_a2, whole_a2, monkeypatch):
    # an internal error while realizing a class is a fault, not a verdict
    def broken(self, coords):
        raise RuntimeError("realize broke")

    monkeypatch.setattr(ExtSpace, "realize", broken)
    with pytest.raises(RuntimeError, match="realize broke"):
        ar_end_in_subcat(simple(alg_a2, 1), whole_a2)


def test_ar_end_hypothesis_not_satisfied(alg_a2):
    sub = Subcat(alg_a2, "finite", [proj(alg_a2, 1), simple(alg_a2, 1)])
    out = ar_end_in_subcat(simple(alg_a2, 1), sub)
    assert out.status == "hypothesis-not-satisfied"


def test_ar_end_projective_is_ineligible(alg_a2, whole_a2):
    out = ar_end_in_subcat(proj(alg_a2, 1), whole_a2)
    assert out.status == "hypothesis-not-satisfied"


def test_ar_end_kronecker_postprojective(alg_kronecker):
    pp = Subcat(alg_kronecker, "postprojective", [], cap=13)
    p2 = Rep(
        alg_kronecker,
        (2, 3),
        {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]},
    )
    out = ar_end_in_subcat(p2, pp)
    assert out.status == "found"
    assert iso(out.ses.left, proj(alg_kronecker, 2)) is not None
    assert out.ses.middle.dims == (2, 4)


def test_ar_start_in_subcat_whole(alg_a2, whole_a2):
    out = ar_start_in_subcat(simple(alg_a2, 2), whole_a2)
    assert out.status == "found"
    assert out.ses.left is simple(alg_a2, 2) or out.ses.left.dims == (0, 1)
    assert iso(out.ses.middle, proj(alg_a2, 1)) is not None
    assert iso(out.ses.right, simple(alg_a2, 1)) is not None


def test_ar_start_kronecker_preinjective(alg_kronecker):
    pi = Subcat(alg_kronecker, "preinjective", [], cap=13)
    q2 = Rep(
        alg_kronecker,
        (3, 2),
        {"a": [[1, 0, 0], [0, 1, 0]], "b": [[0, 1, 0], [0, 0, 1]]},
    )
    out = ar_start_in_subcat(q2, pi)
    assert out.status == "found"
    assert out.ses.middle.dims == (4, 2)


def test_ar_start_ineligible(alg_a2):
    sub = Subcat(alg_a2, "finite", [simple(alg_a2, 2)])
    out = ar_start_in_subcat(simple(alg_a2, 2), sub)
    assert out.status == "hypothesis-not-satisfied"
    assert out.diagnostics == "dual side: ext1(M, G) = 0 for every generator"


def test_ar_start_hypotheses_are_checked_on_the_dual_side(alg_a2, whole_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    out = ar_start_in_subcat(direct_sum([s1, s2])[0], whole_a2)
    assert (out.status, out.diagnostics) == (
        "construction-failed", "dual side: M not indecomposable"
    )
    out = ar_start_in_subcat(s2, Subcat(alg_a2, "finite", [s1]))
    assert (out.status, out.diagnostics) == (
        "hypothesis-not-satisfied", "dual side: M not in sub"
    )


def test_duality_of_ar(alg_a2, whole_a2, classical_a2):
    report = check_duality_of_ar(classical_a2, whole_a2)
    assert report.direct_passed and report.dual_passed and report.passed


def test_duality_of_split_sequence(alg_a2, whole_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    total, injs, projs = direct_sum([s2, s1])
    split = SES(injs[0], projs[1])
    report = check_duality_of_ar(split, whole_a2)
    assert not report.direct_passed and not report.dual_passed and report.passed


def test_theorem_harness_a2(alg_a2, whole_a2):
    report = theorem_harness(whole_a2)
    assert report.passed
    by_dims = {r.dims: r for r in report.rows}
    assert by_dims[(1, 0)].i_verdict == "pass"
    assert by_dims[(1, 0)].ii_verdict == "pass"
    assert by_dims[(0, 1)].i_verdict == "n/a"  # projective
    block = report.machine_block()
    assert "agree=true" in block and "agree=false" not in block


def test_theorem_harness_has_no_direction_knob(whole_a2):
    # any direction but three known ones used to turn verdict (i) into
    # "undecided", which counted as agreement
    with pytest.raises(TypeError):
        theorem_harness(whole_a2, direction="bogus")


def test_theorem_harness_kronecker(alg_kronecker):
    pp = Subcat(alg_kronecker, "postprojective", [], cap=13)
    report = theorem_harness(pp)
    assert report.passed
    eligible = [r for r in report.rows if r.eligible]
    assert eligible
    assert all(r.i_verdict == "pass" and r.ii_verdict == "pass" for r in eligible)


def test_theorem_harness_builds_one_precover_per_eligible_row(alg_kronecker, monkeypatch):
    # verdict (i) reads the precover ar_end_in_subcat built for verdict (ii)
    calls = []

    def counting(sub, t, variant):
        calls.append(t)
        return canonical_precover(sub, t, variant)

    monkeypatch.setattr(arseq, "canonical_precover", counting)
    report = theorem_harness(Subcat(alg_kronecker, "postprojective", [], cap=9))
    assert report.passed
    assert len(calls) == sum(r.eligible for r in report.rows) > 0


def test_uniqueness_of_left_term(alg_a2, whole_a2, classical_a2):
    out = ar_end_in_subcat(simple(alg_a2, 1), whole_a2)
    assert iso(out.ses.left, classical_a2.left) is not None


# -- almost_split against the per-map loop it replaced ----------------------


def reference_right_almost_split(f, testset):
    """f: B -> C.  The former loop: one in_span per radical map T -> C.
    Returns (not_split, vacuous, failures)."""
    not_split, vacuous, failures = not is_split_epi(f), True, []
    c = f.target
    for t in testset:
        if not is_indecomposable(t):
            raise ValueError("test modules must be indecomposable")
        tests = radical_hom_basis(t, c)
        if not tests:
            continue
        vacuous = False
        cols = [f.compose(x).flatten() for x in hom_basis(t, f.source).basis]
        mat = (
            np.stack(cols, axis=1)
            if cols
            else linalg.zeros(tests[0].flatten().shape[0], 0)
        )
        for h in tests:
            ok, _ = linalg.in_span(mat, h.flatten(), c.p)
            if not ok:
                failures.append((t, h))
    return not_split, vacuous, failures


def reference_left_almost_split(g, testset):
    """g: A -> B.  The former loop: one in_span per radical map A -> T."""
    not_split, vacuous, failures = not is_split_mono(g), True, []
    a = g.source
    for t in testset:
        if not is_indecomposable(t):
            raise ValueError("test modules must be indecomposable")
        tests = radical_hom_basis(a, t)
        if not tests:
            continue
        vacuous = False
        cols = [x.compose(g).flatten() for x in hom_basis(g.target, t).basis]
        mat = (
            np.stack(cols, axis=1)
            if cols
            else linalg.zeros(tests[0].flatten().shape[0], 0)
        )
        for h in tests:
            ok, _ = linalg.in_span(mat, h.flatten(), a.p)
            if not ok:
                failures.append((t, h))
    return not_split, vacuous, failures


REFERENCE = {"right": reference_right_almost_split, "left": reference_left_almost_split}


def assert_same_as_reference(h, testset, side):
    report = almost_split(h, testset, side)
    not_split, vacuous, failures = REFERENCE[side](h, testset)
    assert (report.not_split, report.vacuous) == (not_split, vacuous)
    assert len(report.failures) == len(failures)
    for (t, x), (rt, rx) in zip(report.failures, failures):
        assert t is rt and x.equal(rx)
    assert report.passed == (not_split and not failures)
    return report


def both_sides(ses: SES) -> list:
    return [(ses.g, "right"), (ses.f, "left")]


def test_almost_split_matches_reference_on_a2(alg_a2, whole_a2, classical_a2):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    _, injs, projs = direct_sum([s2, s1])
    cover = hom_basis(proj(alg_a2, 1), s1).basis[0]
    cases = both_sides(classical_a2) + both_sides(SES(injs[0], projs[1]))
    cases += [(cover, "right"), (projs[1], "right"), (injs[0], "left")]
    for h, side in cases:
        assert_same_as_reference(h, whole_a2.members(), side)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_almost_split_matches_reference_on_kronecker_family(alg_kronecker, n):
    pp = Subcat(alg_kronecker, "postprojective", [], cap=13)
    a, b = np.eye(n + 1, n, dtype=np.int64), np.eye(n + 1, n, k=-1, dtype=np.int64)
    pn = Rep(alg_kronecker, (n, n + 1), {"a": a, "b": b})  # P(n), as P(2) above
    out = ar_end_in_subcat(pn, pp)
    assert out.status == "found"
    for h, side in both_sides(out.ses):
        report = assert_same_as_reference(h, pp.members(), side)
        assert report.passed and not report.vacuous


# Failures per realized basis class e_i of Ext^1(R_n(0), DTr R_n(0)), on each
# side, with the test set [R_n(0)]: only the socle class is almost split.
REGULAR_CLASS_FAILURES = {2: [1, 0], 3: [2, 1, 0]}


@pytest.mark.parametrize("n", [2, 3])
def test_almost_split_matches_reference_on_regular_classes(alg_kronecker, n):
    r = regular_kronecker(alg_kronecker, n)
    ext = ext1(r, dtr(r))
    got = []
    for q in ext.basis_classes():
        ses = ext.realize(q)
        counts = {
            len(assert_same_as_reference(h, [r], side).failures)
            for h, side in both_sides(ses)
        }
        assert len(counts) == 1  # as many failures on the left as on the right
        got.append(counts.pop())
    assert got == REGULAR_CLASS_FAILURES[n]


@pytest.mark.parametrize("side", ["right", "left"])
def test_almost_split_refuses_decomposable_test_modules(alg_a2, classical_a2, side):
    s1, s2 = simple(alg_a2, 1), simple(alg_a2, 2)
    total, _, _ = direct_sum([s1, s2])
    h = classical_a2.g if side == "right" else classical_a2.f
    with pytest.raises(ValueError, match="indecomposable"):
        almost_split(h, [s1, total], side)


def test_almost_split_refuses_unknown_side(classical_a2):
    with pytest.raises(ValueError, match="side"):
        almost_split(classical_a2.g, [], "up")
