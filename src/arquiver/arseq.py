"""Almost split morphisms, Auslander-Reiten sequences, and the two
existence-theorem harnesses.

Construction is heuristic (lift the global AR class through a stable
precover), verification is sound: every returned sequence has passed the
definition-level checks against the declared test set, and failures are
reported rather than papered over.  One routine, `almost_split`, decides
both sides: per test module, the radical maps that are not in the span of
the composites through the map, read off one `linalg.Quotient`.  In mod
Lambda no test set is needed: `ar_sequence_global` certifies its sequence
by the socle criterion (left term DTr M, and every radical endomorphism of
M factors through g).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .approx import (
    CapExceeded,
    Subcat,
    canonical_precover,
    contains,
    dual_subcat,
    is_precover,
    member_matches,
    member_split,
    right_minimal_reduce,
)
from .homological import (
    SES,
    ar_extension,
    ar_socle_classes,
    dtr,
    dtr_data,
    ext1,
    projective_cover,
)
from .rep import (
    DEFAULT_SEED,
    Rep,
    RepMap,
    dual,
    dual_map,
    end_algebra,
    factor_through_left,
    factor_through_right,
    hom_basis,
    identity_map,
    is_indecomposable,
    iso,
    record_split,
)

# Right-minimal reduction builds End(source); skip it for huge sources.
RIGHT_MINIMAL_DIM_CAP = 24


def is_split_epi(f: RepMap) -> bool:
    return factor_through_left(f, identity_map(f.target)) is not None


def is_split_mono(g: RepMap) -> bool:
    return factor_through_right(g, identity_map(g.source)) is not None


def is_projective_module(m: Rep) -> bool:
    if m.is_zero:
        return True
    _, aug = projective_cover(m)
    return aug.is_invertible()


def radical_hom_basis(t: Rep, c: Rep) -> list:
    """Basis of the non-isomorphisms T -> C for indecomposable T, C.

    If T and C are not isomorphic this is all of Hom(T, C); otherwise it is
    the coset w . rad End(T) for any isomorphism w (a subspace because the
    endomorphism rings are local).
    """
    w = iso(t, c)
    if w is None:
        return list(hom_basis(t, c).basis)
    end = end_algebra(t)
    end.require_radical()
    rad = end.radical_coords
    return [
        w.compose(end.from_coords(rad[:, j])) for j in range(rad.shape[1])
    ]


@dataclass
class AlmostSplitReport:
    not_split: bool
    vacuous: bool = True
    failures: list = field(default_factory=list)  # (test module, unfactored map)

    @property
    def passed(self) -> bool:
        return self.not_split and not self.failures


def almost_split(h: RepMap, testset: list, side: str) -> AlmostSplitReport:
    """Whether h is right ("right", h: B -> C) or left ("left", h: A -> B)
    almost split against the test set.

    Every radical map T -> C (A -> T) from (into) an indecomposable test
    module T must factor as h.x (x.h); the report lists those that do not,
    by test module and then in basis order.
    """
    if side not in ("right", "left"):
        raise ValueError(f"unknown side {side!r}")
    right = side == "right"
    report = AlmostSplitReport(not (is_split_epi(h) if right else is_split_mono(h)))
    for t in testset:
        if not is_indecomposable(t):
            raise ValueError("test modules must be indecomposable")
        tests = radical_hom_basis(t, h.target) if right else radical_hom_basis(h.source, t)
        if not tests:
            continue
        report.vacuous = False
        if right:
            through = hom_basis(t, h.source).after(h)
        else:
            through = hom_basis(h.target, t).before(h)
        flat = np.stack([x.flatten() for x in tests], axis=1)
        unfactored = linalg.Quotient(through, flat.shape[0], h.p).reduce(flat).any(axis=0)
        report.failures += [(t, x) for x, bad in zip(tests, unfactored) if bad]
    return report


@dataclass
class ARReport:
    membership: tuple  # (left in sub, middle in sub, right in sub)
    right_report: AlmostSplitReport
    left_report: AlmostSplitReport

    @property
    def passed(self) -> bool:
        split = self.right_report.passed and self.left_report.passed
        return split and all(self.membership)


def verify_ar_sequence(s: SES, sub: Subcat, seed: int = DEFAULT_SEED) -> ARReport:
    """Whether s is an AR sequence in sub: its three terms in sub, g right
    and f left almost split against the members.

    The membership test matches each summand of a term with a member
    (`approx.member_matches`), and a term that passes keeps the split into
    members this gives (`approx.member_split`) under its content
    (`rep.record_split`).  The almost-split checks then read Hom(T, B),
    Hom(B, T), Hom(T, C) and the like off the members' own Hom spaces
    (`rep.hom_basis`), bit for bit the spaces a solve would give.
    """
    testset = sub.members()
    membership = []
    for term in (s.left, s.middle, s.right):
        matches = member_matches(sub, term, seed=seed)
        if matches is not None:
            record_split(term, lambda: member_split(matches, seed))
        membership.append(matches is not None)
    right_rep = almost_split(s.g, testset, "right")
    left_rep = almost_split(s.f, testset, "left")
    return ARReport(tuple(membership), right_rep, left_rep)


def ar_sequence_global(m: Rep) -> SES:
    """The classical AR sequence ending at an indecomposable non-projective
    module M, certified by the socle criterion.

    A non-split 0 -> A -> B -> M -> 0 with A ~ DTr M is almost split iff
    every radical endomorphism of M factors through g, that is, iff its class
    lies in the End(M)-socle of Ext^1(M, A) (Auslander, Reiten, Smalo,
    Representation Theory of Artin Algebras, V.2).  So the test set is [M]
    and holds no capped family."""
    if not is_indecomposable(m):
        raise ValueError("AR sequences end at indecomposable modules")
    if is_projective_module(m):
        raise ValueError("no AR sequence ends at a projective module")
    ses = ar_extension(m)
    if ses is None:
        raise RuntimeError("no candidate AR class found")
    if iso(ses.left, dtr(m)) is None or not almost_split(ses.g, [m], "right").passed:
        raise RuntimeError("constructed sequence failed verification")
    return ses


# -- the theorems in a subcategory ------------------------------------------


@dataclass
class AROutcome:
    status: str  # "found" | "hypothesis-not-satisfied" | "construction-failed"
    ses: SES | None = None
    diagnostics: str = ""
    precover: RepMap | None = None  # the stable precover of DTr M, once built


def ar_end_in_subcat(m: Rep, sub: Subcat, seed: int = DEFAULT_SEED) -> AROutcome:
    """Construct and verify an AR sequence 0 -> X -> Y -> M -> 0 in sub.

    Route: canonical stable-inj precover nu: N -> DTr M, then lift the
    global AR class through the pushforward ext1(M, N) -> ext1(M, DTr M) and
    realize.  Retries sweep candidate sources (`_candidate_sources`), socle
    directions and kernel-adjusted lifts.
    """
    if not is_indecomposable(m):
        return AROutcome("construction-failed", diagnostics="M not indecomposable")
    if is_projective_module(m):
        return AROutcome(
            "hypothesis-not-satisfied", diagnostics="M is projective"
        )
    if not contains(sub, m, seed=seed):
        return AROutcome("hypothesis-not-satisfied", diagnostics="M not in sub")
    if not any(ext1(m, g).dim for g in sub.members()):
        return AROutcome(
            "hypothesis-not-satisfied",
            diagnostics="ext1(M, G) = 0 for every generator",
        )
    try:
        nu0, build = canonical_precover(sub, dtr_data(m).rep, "stable-inj")
    except CapExceeded as exc:
        return AROutcome("construction-failed", diagnostics=str(exc))
    ext_global, socle = ar_socle_classes(m)
    socle = [s for s in socle if s.any()]
    if not socle:
        return AROutcome("construction-failed", diagnostics="empty AR socle", precover=nu0)
    for nu in _candidate_sources(nu0, build):
        if nu.source.is_zero:
            continue
        ext_n = ext1(m, nu.source)
        push = ext_n.pushforward_matrix(nu, ext_global)
        kernel = linalg.kernel_basis(push, m.p)
        for delta in socle:
            lift = linalg.solve(push, delta, m.p)
            if lift is None:
                continue
            lifts = [lift]
            for j in range(min(kernel.shape[1], 4)):
                lifts.append((lift + kernel[:, j]) % m.p)
            for x in lifts:
                ses = ext_n.realize(x)
                if verify_ar_sequence(ses, sub, seed=seed).passed:
                    return AROutcome("found", ses, precover=nu0)
    return AROutcome(
        "construction-failed",
        diagnostics="no lifted class produced a verified sequence",
        precover=nu0,
    )


def _candidate_sources(nu0: RepMap, build):
    """The maps into DTr M whose source may be the left term, lazily: each
    single indecomposable summand of the canonical source (largest dimension
    first, since the minimal left term is usually the deepest contributing
    member), then the right-minimal reduction while its endomorphism algebra
    stays tractable.

    A source with two or more summands from sub cannot pass: the radical maps
    from it to one summand include the projection, and if every projection
    factors through f, then f is split."""
    for _, injs in sorted(build.summand_inclusions, key=lambda gi: -gi[0].total_dim):
        yield nu0.compose(injs[0])
    if nu0.source.total_dim <= RIGHT_MINIMAL_DIM_CAP:
        yield right_minimal_reduce(nu0)


def dualize_ses(s: SES) -> SES:
    """0 -> DC -> DB -> DA -> 0 over the opposite algebra."""
    return SES(dual_map(s.g), dual_map(s.f))


def ar_start_in_subcat(l_mod: Rep, sub: Subcat, seed: int = DEFAULT_SEED) -> AROutcome:
    """AR sequence 0 -> L -> B -> A -> 0 in sub, via duality.

    Runs ar_end_in_subcat for dual(L) in the dual subcategory over the
    opposite algebra, dualizes the sequence back, and re-verifies on this
    side.  The dual run checks every hypothesis: L indecomposable and in
    sub, and Ext^1(G, L) ~ Ext^1(DL, DG) nonzero for some member G.  The
    re-verification reads most of its Hom spaces off the dual run:
    hom_basis(M, N) finds Hom(DN, DM) solved there and transposes it
    (`rep.hom_basis`), so only pairs the dual run never met are solved.
    """
    outcome = ar_end_in_subcat(dual(l_mod), dual_subcat(sub), seed=seed)
    if outcome.status != "found":
        return AROutcome(outcome.status, diagnostics="dual side: " + outcome.diagnostics)
    back = dualize_ses(outcome.ses)
    # re-anchor the left term at l_mod itself (dual-dual is equal, not identical)
    f = RepMap(l_mod, back.middle, back.f.blocks, check=True)
    ses = SES(f, back.g)
    if not verify_ar_sequence(ses, sub, seed=seed).passed:
        return AROutcome(
            "construction-failed", diagnostics="dualized sequence failed verification"
        )
    return AROutcome("found", ses)


# -- harnesses --------------------------------------------------------------


@dataclass
class HarnessRow:
    name: str
    dims: tuple
    eligible: bool
    i_verdict: str  # pass | fail | undecided | n/a
    ii_verdict: str
    agree: bool
    ses: SES | None = None  # the verified sequence when (ii) passed


@dataclass
class HarnessReport:
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.agree for r in self.rows)

    def machine_block(self) -> str:
        lines = []
        for r in self.rows:
            lines.append(
                f"row M={r.name} i={r.i_verdict} ii={r.ii_verdict} "
                f"agree={str(r.agree).lower()}"
            )
        return "\n".join(lines)


def _module_label(m: Rep, index: int) -> str:
    base = m.name if m.name else f"M{index}"
    return f"{base}{list(m.dims)}".replace(" ", "")


def theorem_harness(sub: Subcat, seed: int = DEFAULT_SEED) -> HarnessReport:
    """Per member M: run ar_end_in_subcat, whose hypothesis checks make the
    row n/a; on the other rows decide (i) 'DTr M has a stable precover in
    sub', on the precover that run built, and (ii) 'an AR sequence ending at
    M exists in sub', and assert the biconditional row by row."""
    report = HarnessReport()
    for idx, m in enumerate(sub.members()):
        name = _module_label(m, idx)
        outcome = ar_end_in_subcat(m, sub, seed=seed)
        if outcome.status == "hypothesis-not-satisfied":
            report.rows.append(HarnessRow(name, m.dims, False, "n/a", "n/a", True))
            continue
        if outcome.precover is None:  # the family cap was hit
            i_verdict = "undecided"
        else:
            ok = is_precover(outcome.precover, sub, "stable-inj").passed
            i_verdict = "pass" if ok else "fail"
        ii_verdict = "pass" if outcome.status == "found" else "fail"
        agree = (
            i_verdict == "undecided" or (i_verdict == "pass") == (ii_verdict == "pass")
        )
        report.rows.append(
            HarnessRow(name, m.dims, True, i_verdict, ii_verdict, agree, outcome.ses)
        )
    return report


@dataclass
class DualityReport:
    direct_passed: bool
    dual_passed: bool

    @property
    def passed(self) -> bool:
        return self.direct_passed == self.dual_passed


def check_duality_of_ar(s: SES, sub: Subcat, seed: int = DEFAULT_SEED) -> DualityReport:
    """s is an AR sequence in sub iff its dual is one in the dual subcategory."""
    direct = verify_ar_sequence(s, sub, seed=seed).passed
    ds = dualize_ses(s)
    dsub = dual_subcat(sub)
    dual_ok = verify_ar_sequence(ds, dsub, seed=seed).passed
    return DualityReport(direct, dual_ok)
