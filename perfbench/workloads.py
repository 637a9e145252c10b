"""The three workloads: their inputs, operations and checks.

`build(name, seed)` runs before the first timed operation and returns the
round's operations.  Each `Op.run` calls the program once and returns its
answer; it raises `OpFailed` when the program itself reports that it could
not answer.  `Op.check` judges the answer with `checks` and returns the
problems found, none when it is right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import modp
import modules

PRIME = 32003

# ar-family: one operation knits both families to total dimension FAMILY_CAP,
# then one AR sequence ends at P(n) and one starts at Q(n) for n in AR_RANGE:
# thirteen operations, an odd count (see DECOMPOSE_CASES).  P(7) and Q(7)
# have total dimension 15, so the whole range lies inside the cap.
FAMILY_CAP = 15
AR_RANGE = range(2, 8)

# decompose: (algebra, [(normal form builder, arguments, copies)]).  Sizes are
# mixed on purpose, so that both small and large End algebras are built.
# Eleven cases, an odd count, so that the median operation time falls inside
# one case's spread of times rather than in the gap between two sizes.
DECOMPOSE_CASES = [
    ("kronecker", [("kron_simple", (1,), k), ("kron_simple", (2,), k)]) for k in (3, 4, 5, 6)
] + [
    ("kronecker", [("kron_post", (n,), k) for n in (1, 2, 3)]) for k in (1, 2)
] + [
    ("kronecker", [("kron_post", (n,), 1) for n in (1, 2, 3)] + [("kron_pre", (n,), 1) for n in (1, 2)]),
] + [
    ("a3", [("a3_interval", (i, j), k) for i in (1, 2, 3) for j in (1, 2, 3) if i <= j])
    for k in (1, 2)
] + [
    ("loop", [("loop_module", (1,), 3), ("loop_module", (2,), 3)]),
    ("loop", [("loop_module", (1,), 2), ("loop_module", (2,), 5)]),
]


class OpFailed(RuntimeError):
    """The program reported that it could not answer."""


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable


def arrows_of(alg) -> list:
    return [(a.name, a.source, a.target) for a in alg.quiver.arrows]


def hidden_rep(alg, dims, maps, rng):
    """The module (dims, maps) after a random change of basis at every vertex."""
    from arquiver.rep import Rep

    arrows = arrows_of(alg)
    pairs = [modp.random_invertible(d, alg.p, rng) for d in dims]
    gs, gis = [g for g, _ in pairs], [gi for _, gi in pairs]
    return Rep(alg, dims, modules.change_basis(arrows, maps, gs, gis, alg.p))


def _accept(seed: int) -> list:
    from arquiver import acceptance

    done: dict = {}

    def criterion(k):
        def run():
            if k == 7:
                seqs = list(done[5].artifacts.get("sequences", [])) + list(
                    done[6].artifacts.get("sequences", [])
                )
                res = acceptance.criterion_7(seed, sequences=seqs or None)
            elif k == 4:
                res = acceptance.criterion_4(seed, out_dir=None)
            else:
                res = getattr(acceptance, f"criterion_{k}")(seed)
            done[k] = res
            return res

        return run

    def check(res):
        return [] if res.passed else [f"criterion {res.index} failed: {res.detail}"]

    return [Op(f"criterion-{k}", criterion(k), check) for k in range(1, 9)]


def _ar_family(seed: int) -> list:
    from arquiver import corpus
    from arquiver.approx import Subcat
    from arquiver.arseq import ar_end_in_subcat, ar_start_in_subcat
    from arquiver.knit import knit_cached

    rng = np.random.default_rng(seed % 2**64)
    alg = corpus.kronecker(PRIME)
    arrows = arrows_of(alg)
    post = Subcat(alg, "postprojective", [], cap=FAMILY_CAP)
    pre = Subcat(alg, "preinjective", [], cap=FAMILY_CAP)
    kinds = (("postprojective", "from-projectives"), ("preinjective", "from-injectives"))
    ops = [
        Op(
            "knit-families",
            lambda: [knit_cached(alg, FAMILY_CAP, d).members for _, d in kinds],
            lambda families: [
                problem
                for (kind, _), members in zip(kinds, families)
                for problem in checks.family_problems(arrows, members, FAMILY_CAP, kind, PRIME)
            ],
        )
    ]

    def found(outcome):
        if outcome.status != "found":
            raise OpFailed(f"{outcome.status}: {outcome.diagnostics}")
        return outcome.ses

    for n in AR_RANGE:
        m = hidden_rep(alg, *modules.kron_post(n), rng)
        ops.append(
            Op(
                f"ar-end-P({n})",
                lambda m=m: found(ar_end_in_subcat(m, post, seed=seed)),
                lambda ses, n=n: checks.ar_sequence_problems(
                    arrows,
                    ses,
                    modules.kron_post(n - 2),
                    (modules.kron_post(n - 1), 2),
                    modules.kron_post(n),
                    PRIME,
                ),
            )
        )
    for n in AR_RANGE:
        q = hidden_rep(alg, *modules.kron_pre(n), rng)
        ops.append(
            Op(
                f"ar-start-Q({n})",
                lambda q=q: found(ar_start_in_subcat(q, pre, seed=seed)),
                lambda ses, n=n: checks.ar_sequence_problems(
                    arrows,
                    ses,
                    modules.kron_pre(n),
                    (modules.kron_pre(n - 1), 2),
                    modules.kron_pre(n - 2),
                    PRIME,
                ),
            )
        )
    return ops


def _decompose(seed: int) -> list:
    from arquiver import corpus
    from arquiver.rep import decompose

    rng = np.random.default_rng(seed % 2**64)
    algebras = {name: getattr(corpus, name)(PRIME) for name in ("kronecker", "a3", "loop")}
    ops = []
    for alg_name, spec in DECOMPOSE_CASES:
        alg = algebras[alg_name]
        arrows = arrows_of(alg)
        parts, expected = [], {}
        for builder, args, copies in spec:
            built = getattr(modules, builder)(*args)
            parts += [built] * copies
            expected[built[0]] = expected.get(built[0], 0) + copies
        m = hidden_rep(alg, *modules.block_sum(arrows, parts), rng)
        label = " + ".join(f"{d}^{c}" for d, c in expected.items())
        ops.append(
            Op(
                f"decompose {alg_name} {label}",
                lambda m=m: [
                    (s.rep, s.multiplicity, s.inclusions, s.projections)
                    for s in decompose(m, seed=seed)
                ],
                lambda summands, m=m, arrows=arrows, expected=expected: (
                    checks.decomposition_problems(arrows, m, summands, expected, PRIME)
                ),
            )
        )
    return ops


WORKLOADS = {"accept": _accept, "ar-family": _ar_family, "decompose": _decompose}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed)
