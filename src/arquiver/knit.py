"""Knitting enumeration of indecomposables and the Kronecker root oracle.

Starting from the indecomposable projectives (or injectives), the inverse
translate TrD (resp. DTr) is applied repeatedly; every produced module is
certified indecomposable and its translate link is re-verified by an
explicit isomorphism check.  A total-dimension cap bounds the run; hitting
the cap sets a truncation flag instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra
from .homological import dtr, inj, proj, trd
from .memo import memoized
from .rep import Rep, is_indecomposable, iso


@dataclass(eq=False)
class KnitTable:
    algebra: Algebra
    direction: str  # "from-projectives" | "from-injectives"
    cap: int
    members: list = field(default_factory=list)  # certified indecomposables
    links: list = field(default_factory=list)  # (child, parent): translate edges
    truncated: bool = False

    def find(self, m: Rep):
        for i, member in enumerate(self.members):
            if iso(member, m) is not None:
                return i
        return None


def enumerate_indec(
    alg: Algebra, cap: int, direction: str = "from-projectives"
) -> KnitTable:
    """Knit the translate orbit of the projectives (or injectives) up to cap.

    links records (child, parent) pairs: for from-projectives, the child is
    trd(parent) and the check dtr(child) ~ parent is verified; dually for
    from-injectives.
    """
    if direction not in ("from-projectives", "from-injectives"):
        raise ValueError("direction must be from-projectives or from-injectives")
    table = KnitTable(alg, direction, cap)
    if direction == "from-projectives":
        seeds = [proj(alg, v) for v in range(1, alg.quiver.n + 1)]
        step, back = trd, dtr
    else:
        seeds = [inj(alg, v) for v in range(1, alg.quiver.n + 1)]
        step, back = dtr, trd
    frontier = []
    for s in seeds:
        if s.is_zero or s.total_dim > cap:
            if s.total_dim > cap:
                table.truncated = True
            continue
        if table.find(s) is None:
            if not is_indecomposable(s):
                raise RuntimeError("knitting seed is decomposable")
            table.members.append(s)
            frontier.append(len(table.members) - 1)
    while frontier:
        nxt = []
        for idx in frontier:
            m = table.members[idx]
            t = step(m)
            if t.is_zero:
                continue
            if t.total_dim > cap:
                table.truncated = True
                continue
            j = table.find(t)
            if j is None:
                if not is_indecomposable(t):
                    raise RuntimeError("translate of an indecomposable is decomposable")
                table.members.append(t)
                j = len(table.members) - 1
                nxt.append(j)
            if iso(back(table.members[j]), m) is None:
                raise RuntimeError("translate link failed verification")
            table.links.append((j, idx))
        frontier = nxt
    return table


@memoized
def knit_cached(alg: Algebra, cap: int, direction: str) -> KnitTable:
    """enumerate_indec, memoized (memo.memoized) on the algebra so the table
    lives as long as the algebra does."""
    return enumerate_indec(alg, cap, direction)


def knit_both_ends(alg: Algebra, cap: int) -> list:
    """Members knitted from the projectives, then those knitted from the
    injectives that are new up to isomorphism."""
    members = []
    for direction in ("from-projectives", "from-injectives"):
        for m in knit_cached(alg, cap, direction).members:
            if all(iso(m, x) is None for x in members):
                members.append(m)
    return members


def is_kronecker(alg: Algebra) -> bool:
    q = alg.quiver
    return (
        q.n == 2
        and len(q.arrows) == 2
        and all(a.source == 1 and a.target == 2 for a in q.arrows)
        and not alg.relations
    )


def root_oracle_kronecker(alg: Algebra, dimvector) -> str:
    """Classify a Kronecker dimension vector via the quadratic form
    q(d1, d2) = d1^2 + d2^2 - 2 d1 d2."""
    if not is_kronecker(alg):
        raise ValueError("root oracle requires the Kronecker algebra")
    d1, d2 = (int(d) for d in dimvector)
    if d1 < 0 or d2 < 0 or (d1, d2) == (0, 0):
        return "not-indecomposable"
    q = d1 * d1 + d2 * d2 - 2 * d1 * d2
    if q > 1:
        return "not-indecomposable"
    if d2 == d1 + 1:
        return "postprojective"
    if d1 == d2 + 1:
        return "preinjective"
    if d1 == d2:
        return "regular"
    return "not-indecomposable"
