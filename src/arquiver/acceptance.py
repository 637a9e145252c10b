"""The eight acceptance criteria as library functions.

Each criterion returns a CriterionResult with a one-line verdict; run_all
executes them in order, threading the sequences found by the theorem
harnesses (criteria 5 and 6) into the duality criterion (7).  The CLI verb
`accept` and tests/test_acceptance.py both call straight into this module.
The suite builds its corpus once per seed (`_corpus`), so the criteria of
one run share its knit tables, projectives and memoized answers, and keeps only
the latest seed's corpus alive.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass, field

from . import corpus
from .approx import (
    Subcat,
    audit_extension_closed,
    canonical_precover,
    is_precover,
    is_preenvelope,
    preenvelope_via_duality,
)
from .arseq import (
    ar_end_in_subcat,
    ar_start_in_subcat,
    check_duality_of_ar,
    theorem_harness,
    verify_ar_sequence,
)
from .fileio import Bundle
from .homological import SES, dtr, dtr_data, ext1, inj, proj, transpose, trd
from .knit import knit_both_ends, knit_cached
from .rep import (
    DEFAULT_SEED,
    brute_indec_classes,
    dual,
    hom_basis,
    is_indecomposable,
    iso,
    simple,
)
from .stable import check_equiv_error_vs_stable, check_exactness_DP, stable_hom

FAMILY_CAP = 13


@dataclass
class CriterionResult:
    index: int
    title: str
    passed: bool
    seconds: float
    detail: str = ""
    artifacts: dict = field(default_factory=dict)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f" -- {self.detail}" if self.detail else ""
        return f"criterion {self.index} [{verdict}] {self.title} ({self.seconds:.2f}s){extra}"


def _timed(index, title, fn):
    t0 = time.perf_counter()
    passed, detail, artifacts = fn()
    return CriterionResult(
        index, title, passed, time.perf_counter() - t0, detail, artifacts
    )


def corpus_indecomposables(alg, cap: int = FAMILY_CAP) -> list:
    """Knit from both ends, add the simples, dedupe by iso."""
    members = knit_both_ends(alg, cap)
    for v in range(1, alg.quiver.n + 1):
        s = simple(alg, v)
        if is_indecomposable(s) and all(iso(s, x) is None for x in members):
            members.append(s)
    return members


@functools.lru_cache(maxsize=1)
def _corpus(seed: int) -> dict:
    """The corpus of one seed's run; the memos on it fill with that seed's
    modules, so the next seed's run starts a new one and drops this one."""
    return corpus.corpus()


# -- criterion 1: ground truth on the smallest quiver ------------------------


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        alg = _corpus(seed)["a2"]
        problems = []
        members = knit_cached(alg, 8, "from-projectives").members
        if len(members) != 3:
            problems.append(f"knitting found {len(members)} != 3 indecomposables")
        s1, s2, p1 = simple(alg, 1), simple(alg, 2), proj(alg, 1)
        if iso(dtr(s1), s2) is None:
            problems.append("dtr(S1) not iso to S2")
        if iso(trd(s2), s1) is None:
            problems.append("trd(S2) not iso to S1")
        for v in (1, 2):
            if not transpose(proj(alg, v)).is_zero:
                problems.append(f"transpose(proj({v})) nonzero")
        f = hom_basis(s2, p1).basis[0]
        g = hom_basis(p1, s1).basis[0]
        ses = SES(f, g)
        sub = Subcat(alg, "finite", list(members))
        if not verify_ar_sequence(ses, sub, seed=seed).passed:
            problems.append("0 -> S2 -> proj(1) -> S1 -> 0 failed verification")
        # independent oracle over F_2 at every dimension vector <= (2,2)
        expected = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
        for dims in itertools.product(range(3), repeat=2):
            if sum(dims) == 0:
                continue
            got = len(brute_indec_classes(alg, dims))
            if got != expected.get(dims, 0):
                problems.append(f"brute count at {dims}: {got}")
        return not problems, "; ".join(problems) or "A2 ground truth exact", {}

    return _timed(1, "A2 ground truth + brute-force oracle", run)


# -- criterion 2: DTr = D Tr and TrD DTr = id on the corpus -------------------


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        problems = []
        checked = 0
        for name, alg in _corpus(seed).items():
            for m in corpus_indecomposables(alg):
                tm = transpose(m)
                if tm.is_zero:  # projective: no translate to compare
                    continue
                checked += 1
                if iso(dtr(m), dual(tm)) is None:
                    problems.append(f"{name} {m.dims}: dtr != dual(transpose)")
                if iso(trd(dtr(m)), m) is None:
                    problems.append(f"{name} {m.dims}: trd(dtr(M)) != M")
        detail = "; ".join(problems) or f"{checked} non-projective indecomposables"
        return not problems, detail, {}

    return _timed(2, "dtr = dual(transpose) and trd(dtr(M)) = M on corpus", run)


# -- criterion 3: the exactness lemma over the corpus -------------------------


def exactness_failures(alg, cap: int = FAMILY_CAP) -> tuple:
    """(pairs checked, inexact pairs (U, M)) over the injectives U and the
    corpus indecomposables M of alg, knitted up to cap."""
    injectives = [inj(alg, v) for v in range(1, alg.quiver.n + 1)]
    pairs = list(itertools.product(injectives, corpus_indecomposables(alg, cap)))
    return len(pairs), [(u, m) for u, m in pairs if not check_exactness_DP(u, m)]


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        problems = []
        pairs = 0
        for name, alg in _corpus(seed).items():
            checked, failures = exactness_failures(alg)
            pairs += checked
            problems += [f"{name}: inexact at U={u.dims} M={m.dims}" for u, m in failures]
        if pairs < 40:
            problems.append(f"only {pairs} pairs (need >= 40)")
        return not problems, "; ".join(problems) or f"{pairs} pairs exact", {}

    return _timed(3, "exactness of Hom(U, nu P.) for injective U", run)


# -- criterion 4: error-term vs stable precover equivalence -------------------


def criterion_4(seed: int = DEFAULT_SEED, out_dir: str | None = None) -> CriterionResult:
    def run():
        report = check_equiv_error_vs_stable(100, seed=seed, algebras=_corpus(seed))
        ok = report.passed and len(report.instances) == 100
        detail = f"{report.agreements}/100 agree (seed {seed})"
        artifacts = {}
        if report.disagreements and out_dir is not None:
            paths = write_equiv_bundles(report.disagreements, seed, out_dir)
            detail += "; counterexamples: " + ", ".join(paths)
            artifacts["bundles"] = paths
        return ok, detail, artifacts

    return _timed(4, "error-term precover == stable precover (100 instances)", run)


def write_equiv_bundles(disagreements: list, seed: int, out_dir: str) -> list:
    """Write each disagreeing instance as a bundle `replay` re-checks; the
    paths, in order."""
    paths = []
    for k, inst in enumerate(disagreements):
        gens = {f"G{j}": g for j, g in enumerate(inst.gens)}
        modules = {"M": inst.module, "N": inst.nu.source, "DTrM": inst.nu.target, **gens}
        check = {
            "verb": "equiv-4x",
            "seed": str(seed),
            "module": "M",
            "nu": "nu",
            "gens": ",".join(gens),
            "error_verdict": str(inst.error_verdict).lower(),
            "stable_verdict": str(inst.stable_verdict).lower(),
        }
        path = os.path.join(out_dir, f"equiv-disagreement-{k}.bundle")
        Bundle(inst.algebra, modules=modules, morphisms={"nu": inst.nu}, check=check).write(path)
        paths.append(path)
    return paths


# -- criterion 5: the A3 theorem harness over all generator subsets ----------


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        alg = _corpus(seed)["a3"]
        indecs = corpus_indecomposables(alg)
        if len(indecs) != 6:
            return False, f"A3 has {len(indecs)} != 6 indecomposables", {}
        problems = []
        audited = 0
        sequences = []
        for r in range(len(indecs) + 1):
            for combo in itertools.combinations(range(len(indecs)), r):
                sub = Subcat(alg, "finite", [indecs[i] for i in combo])
                if not audit_extension_closed(sub, seed=seed).passed:
                    continue
                audited += 1
                report = theorem_harness(sub, seed=seed)
                for row in report.rows:
                    if row.eligible:
                        if row.i_verdict != "pass" or row.ii_verdict != "pass":
                            problems.append(
                                f"subset {combo}: row {row.name} "
                                f"i={row.i_verdict} ii={row.ii_verdict}"
                            )
                        elif row.ses is not None:
                            sequences.append((sub, row.ses))
                    else:
                        if row.i_verdict != "n/a" or row.ii_verdict != "n/a":
                            problems.append(
                                f"subset {combo}: ineligible row {row.name} not n/a"
                            )
                if not report.passed:
                    problems.append(f"subset {combo}: harness disagreement")
        detail = (
            "; ".join(problems)
            or f"{audited}/64 subsets extension-closed, all rows agree"
        )
        return not problems, detail, {"sequences": sequences}

    return _timed(5, "theorem harness on all extension-closed A3 subsets", run)


# -- criterion 6: the Kronecker postprojective example ------------------------


def _kronecker_family(alg, kind: str) -> dict:
    """dims -> member for the capped knitted family."""
    direction = "from-projectives" if kind == "postprojective" else "from-injectives"
    return {m.dims: m for m in knit_cached(alg, FAMILY_CAP, direction).members}


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        alg = _corpus(seed)["kronecker"]
        problems = []
        sequences = []
        pp = Subcat(alg, "postprojective", [], cap=FAMILY_CAP)
        post = _kronecker_family(alg, "postprojective")
        for n in (2, 3, 4):
            m = post[(n, n + 1)]
            data = dtr_data(m)
            nu, _ = canonical_precover(pp, data.rep, "stable-inj")
            if not is_precover(nu, pp, "stable-inj").passed:
                problems.append(f"P({n}): stable precover failed verification")
            outcome = ar_end_in_subcat(m, pp, seed=seed)
            if outcome.status != "found":
                problems.append(f"P({n}): no AR sequence ({outcome.diagnostics})")
                continue
            ses = outcome.ses
            left_want = post[(n - 2, n - 1)]
            if iso(ses.left, left_want) is None:
                problems.append(f"P({n}): left term is not P({n - 2})")
            if ses.middle.dims != (2 * (n - 1), 2 * n):
                problems.append(f"P({n}): middle dims {ses.middle.dims}")
            sequences.append((pp, ses))
        pi = Subcat(alg, "preinjective", [], cap=FAMILY_CAP)
        pre = _kronecker_family(alg, "preinjective")
        for n in (2, 3, 4):
            q = pre[(n + 1, n)]
            outcome = ar_start_in_subcat(q, pi, seed=seed)
            if outcome.status != "found":
                problems.append(f"Q({n}): no AR sequence ({outcome.diagnostics})")
                continue
            ses = outcome.ses
            if ses.middle.dims != (2 * n, 2 * (n - 1)):
                problems.append(f"Q({n}): middle dims {ses.middle.dims}")
            if iso(ses.right, pre[(n - 1, n - 2)]) is None:
                problems.append(f"Q({n}): right term is not Q({n - 2})")
            sequences.append((pi, ses))
        detail = "; ".join(problems) or (
            "P(2..4) and dual Q(2..4) sequences verified within cap "
            f"{FAMILY_CAP}"
        )
        return not problems, detail, {"sequences": sequences}

    return _timed(6, "Kronecker postprojective example (cap 13) + dual run", run)


# -- criterion 7: duality of AR sequences and preenvelopes --------------------


def criterion_7(
    seed: int = DEFAULT_SEED, sequences: list | None = None
) -> CriterionResult:
    def run():
        problems = []
        seqs = sequences
        if seqs is None:
            seqs = _default_sequences(seed)
        for sub, ses in seqs:
            if not check_duality_of_ar(ses, sub, seed=seed).passed:
                problems.append(
                    f"duality check failed for sequence ending at {ses.right.dims}"
                )
        # preenvelopes via duality, re-verified directly on this side
        alg = _corpus(seed)["a3"]
        sub = Subcat(alg, "finite", corpus_indecomposables(alg))
        env_checked = 0
        for l_mod in sub.members():
            mu, _ = preenvelope_via_duality(sub, l_mod, "plain")
            env_checked += 1
            if not is_preenvelope(mu, sub, "plain").passed:
                problems.append(f"preenvelope of {l_mod.dims} failed direct check")
        detail = "; ".join(problems) or (
            f"{len(seqs)} sequences dual-checked, {env_checked} preenvelopes verified"
        )
        return not problems, detail, {}

    return _timed(7, "duality of AR sequences and preenvelope checks", run)


def _default_sequences(seed: int) -> list:
    """Stand-alone sequence pool when criteria 5-6 artifacts are unavailable."""
    out = []
    alg = _corpus(seed)["a2"]
    sub = Subcat(alg, "finite", corpus_indecomposables(alg))
    outcome = ar_end_in_subcat(simple(alg, 1), sub, seed=seed)
    if outcome.status == "found":
        out.append((sub, outcome.ses))
    kron = _corpus(seed)["kronecker"]
    pp = Subcat(kron, "postprojective", [], cap=FAMILY_CAP)
    post = _kronecker_family(kron, "postprojective")
    outcome = ar_end_in_subcat(post[(2, 3)], pp, seed=seed)
    if outcome.status == "found":
        out.append((pp, outcome.ses))
    return out


# -- criterion 8: Ext^1 vs stable Hom into the translate ----------------------


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        problems = []
        pairs = 0
        for name, alg in _corpus(seed).items():
            indecs = corpus_indecomposables(alg)
            for m in indecs:
                dtr_m = dtr(m)
                for n_mod in indecs:
                    pairs += 1
                    lhs = ext1(m, n_mod).dim
                    rhs = stable_hom(n_mod, dtr_m, "inj").dim
                    if lhs != rhs:
                        problems.append(
                            f"{name}: ext1({m.dims},{n_mod.dims})={lhs} "
                            f"!= stable hom {rhs}"
                        )
        detail = "; ".join(problems) or f"{pairs} ordered pairs agree"
        return not problems, detail, {}

    return _timed(8, "dim ext1(M,N) = dim stable Hom(N, dtr M)", run)


# -- driver -------------------------------------------------------------------


def run_all(seed: int = DEFAULT_SEED, out_dir: str | None = None) -> list:
    results = [
        criterion_1(seed),
        criterion_2(seed),
        criterion_3(seed),
        criterion_4(seed, out_dir=out_dir),
        criterion_5(seed),
        criterion_6(seed),
    ]
    sequences = list(results[4].artifacts.get("sequences", [])) + list(
        results[5].artifacts.get("sequences", [])
    )
    results.append(criterion_7(seed, sequences=sequences or None))
    results.append(criterion_8(seed))
    return results


def format_report(results: list, seed: int = DEFAULT_SEED) -> str:
    lines = [f"acceptance suite (seed {seed})"]
    lines.extend(r.line() for r in results)
    verdict = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall [{verdict}] {sum(r.passed for r in results)}/{len(results)}")
    return "\n".join(lines)
