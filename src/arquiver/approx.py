"""Subcategory descriptors, approximation maps and right-minimal reduction.

A Subcat is either a finite list of pairwise non-isomorphic indecomposable
generators or a knitted family (postprojective / preinjective) bounded by
a dimension cap.  Canonical precovers stack one copy of each contributing
generator per (stable) hom dimension; right-minimal reduction strips
superfluous summands: an element of the annihilator right ideal of the map
that is neither nilpotent nor a unit splits the source by Fitting's lemma,
and the map factors through the summand on which that element is nilpotent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import Algebra
from .knit import knit_cached
from .rep import (
    DEFAULT_SEED,
    EndAlgebra,
    end_algebra,
    Rep,
    RepMap,
    candidate_sweep,
    decompose,
    direct_sum,
    dual,
    fitting_pieces,
    hom_basis,
    image_of,
    is_indecomposable,
    iso,
    split_projections,
    zero_map,
    zero_rep,
)
from .stable import CoverReport, cover_report, precover_cases, stable_hom

AUDIT_RANDOM_CLASSES = 32


class CapExceeded(Exception):
    """The family cap was hit before the question could be decided."""


@dataclass(eq=False)
class Subcat:
    """A full additive subcategory closed (to be audited) under extensions
    and direct summands."""

    algebra: Algebra
    kind: str  # "finite" | "postprojective" | "preinjective"
    gens: list = field(default_factory=list)
    cap: int = 0

    def __post_init__(self):
        if self.kind not in ("finite", "postprojective", "preinjective"):
            raise ValueError(f"unknown subcategory kind {self.kind!r}")
        if self.kind == "finite":
            for g in self.gens:
                if not is_indecomposable(g):
                    raise ValueError("generators must be indecomposable")
            for i, g in enumerate(self.gens):
                for h in self.gens[:i]:
                    if iso(g, h) is not None:
                        raise ValueError("generators must be pairwise non-isomorphic")
        elif self.cap <= 0:
            raise ValueError("family subcategories need a positive cap")

    def members(self) -> list:
        """The (capped) list of indecomposable members."""
        if self.kind == "finite":
            return list(self.gens)
        direction = (
            "from-projectives" if self.kind == "postprojective" else "from-injectives"
        )
        return list(knit_cached(self.algebra, self.cap, direction).members)

    def describe(self) -> str:
        if self.kind == "finite":
            return f"finite[{len(self.gens)} gens]"
        return f"{self.kind}[cap {self.cap}]"


def _matched(sub: Subcat, m: Rep, seed: int) -> tuple:
    """(matches, outside) over the summands of m in decomposition order:
    matches pairs each summand (a `rep.Summand`) with the first member
    isomorphic to it and that isomorphism, up to the first summand that
    is no member; outside is that summand's rep, or None.  For a family, a
    summand beyond the cap counts as outside."""
    matches = []
    if m.is_zero:
        return matches, None
    members = sub.members()
    for g in decompose(m, seed=seed):
        found = None if _beyond_cap(sub, g.rep) else _first_iso(g.rep, members)
        if found is None:
            return matches, g.rep
        matches.append((g, *found))
    return matches, None


def _first_iso(g: Rep, members: list):
    """(x, iso g -> x) for the first member x isomorphic to g, or None."""
    for x in members:
        f = iso(g, x)
        if f is not None:
            return x, f
    return None


def _beyond_cap(sub: Subcat, g: Rep) -> bool:
    return sub.kind != "finite" and g.total_dim > sub.cap


def member_matches(sub: Subcat, m: Rep, seed: int = DEFAULT_SEED) -> list | None:
    """The matches of `_matched` when every summand of m is a member, else
    None; raises CapExceeded for a summand beyond a family's cap."""
    matches, bad = _matched(sub, m, seed)
    if bad is not None and _beyond_cap(sub, bad):
        raise CapExceeded(
            f"summand of total dim {bad.total_dim} undecidable within cap {sub.cap}"
        )
    return matches if bad is None else None


def contains(sub: Subcat, m: Rep, seed: int = DEFAULT_SEED) -> bool:
    """Decompose m and match every indecomposable summand against members.

    For a family, membership is decidable summand by summand: a summand
    whose total dimension exceeds the cap is undecidable and raises
    CapExceeded rather than returning a guess.
    """
    return member_matches(sub, m, seed) is not None


def member_split(matches: list, seed: int) -> list:
    """A module written as a direct sum of members, from the matches
    `member_matches` found for it at this seed: one (member x, incl: x ->
    m, proj: m -> x) per indecomposable copy, the incl . proj summing to
    the identity of m (`rep.record_split`).

    Copy k's own Fitting piece (`rep.Summand`) is carried to its member by
    the isomorphisms `decompose` and the membership test have found and
    kept in `iso`'s memo, inverted block by block: no Hom space is solved
    and no isomorphism searched for.
    """
    parts = []
    for g, x, to_x in matches:
        for incl, proj in zip(g.inclusions, g.projections):
            f = to_x
            if incl.source is not g.rep:
                f = to_x.compose(iso(g.rep, incl.source, seed=seed).inverse())
            parts.append((x, incl.compose(f.inverse()), f.compose(proj)))
    return parts


# -- extension-closure audit ------------------------------------------------


@dataclass
class AuditReport:
    passed: bool
    pairs_checked: int
    classes_checked: int
    sampling_policy: str
    failures: list = field(default_factory=list)  # (Z, X, coords, bad summand)


def audit_extension_closed(
    sub: Subcat, bound: int | None = None, seed: int = DEFAULT_SEED
) -> AuditReport:
    """Realize Ext classes between members and check middles stay inside.

    Basis classes plus up to AUDIT_RANDOM_CLASSES seeded random classes per
    pair; a pass is evidence up to this sampling policy.
    """
    from .homological import ext1

    members = sub.members()
    if bound is not None:
        members = [m for m in members if m.total_dim <= bound]
    rng = random.Random(seed)
    report = AuditReport(
        True, 0, 0, f"basis + up to {AUDIT_RANDOM_CLASSES} random classes, seed {seed}"
    )
    for z in members:
        for x in members:
            ext = ext1(z, x)
            report.pairs_checked += 1
            if ext.dim == 0:
                continue
            classes = ext.basis_classes()
            for _ in range(min(AUDIT_RANDOM_CLASSES, ext.dim * 4)):
                v = np.array(
                    [rng.randrange(sub.algebra.p) for _ in range(ext.dim)],
                    dtype=np.int64,
                )
                if v.any():
                    classes.append(v)
            for coords in classes:
                report.classes_checked += 1
                _, bad = _matched(sub, ext.realize(coords).middle, seed)
                if bad is not None:
                    report.passed = False
                    report.failures.append((z, x, coords, bad))
    return report


# -- canonical precovers and preenvelopes -----------------------------------


@dataclass
class BuildReport:
    contributing: list  # (generator, dim used)
    cap: int
    # inclusion of each indecomposable copy of the source, grouped per
    # contributing generator; spares callers a re-decomposition
    summand_inclusions: list = field(default_factory=list)


def canonical_precover(
    sub: Subcat, t: Rep, variant: str = "plain"
) -> tuple:
    """(nu: N -> t, BuildReport) with N = sum of G^{dim (stable) Hom(G, t)}.

    Every map from the subcategory factors through nu in the respective
    category, by construction; is_precover re-verifies independently.
    """
    if variant not in ("plain", "stable-inj"):
        raise ValueError("variant must be 'plain' or 'stable-inj'")
    members = sub.members()
    pieces = []  # (generator, maps)
    contributing = []
    for g in members:
        if variant == "plain":
            maps = list(hom_basis(g, t).basis)
        else:
            sh = stable_hom(g, t, "inj")
            maps = [sh.from_coords(q) for q in linalg.eye(sh.dim)]
        if maps:
            pieces.append((g, maps))
            contributing.append((g, len(maps)))
    if sub.kind != "finite" and members:
        # the family list is capped; the scan has stabilized only when the
        # largest members contribute nothing
        top = max(m.total_dim for m in members)
        tail = [g for g in members if g.total_dim == top]
        if any(any(iso(g, cg) is not None for cg, _ in contributing) for g in tail):
            raise CapExceeded(
                "largest family members still contribute; raise the cap"
            )
    report = BuildReport(contributing, sub.cap)
    if not pieces:
        return zero_map(zero_rep(sub.algebra), t), report
    summands = []
    columns = []
    for g, maps in pieces:
        for f in maps:
            summands.append(g)
            columns.append(f)
    n, injs, _ = direct_sum(summands)
    # on each copy of a generator, nu is the map that copy was taken for
    blocks = [np.hstack([f.block(v) for f in columns]) for v in range(1, len(t.dims) + 1)]
    nu = RepMap(n, t, tuple(blocks), check=False)
    grouped = []
    pos = 0
    for g, maps in pieces:
        grouped.append((g, injs[pos : pos + len(maps)]))
        pos += len(maps)
    report.summand_inclusions = grouped
    return nu, report


def is_precover(nu: RepMap, sub: Subcat, variant: str = "plain") -> CoverReport:
    """Every (stable) map G -> target factors through nu, per generator."""
    if variant not in ("plain", "stable-inj"):
        raise ValueError("variant must be 'plain' or 'stable-inj'")
    t = nu.target

    def space_of(g):
        return hom_basis(g, t) if variant == "plain" else stable_hom(g, t, "inj")

    return cover_report(
        f"precover-{variant}", precover_cases(nu, sub.members(), space_of)
    )


def is_preenvelope(mu: RepMap, sub: Subcat, variant: str = "plain") -> CoverReport:
    """Every (stable) map source -> G factors through mu, per generator."""
    if variant not in ("plain", "stable-proj"):
        raise ValueError("variant must be 'plain' or 'stable-proj'")
    s = mu.source

    def cases():
        for g in sub.members():
            space = hom_basis(s, g) if variant == "plain" else stable_hom(s, g, "proj")
            through = hom_basis(mu.target, g)
            yield g, space, space.coords_of(through.before(mu))

    return cover_report(f"preenvelope-{variant}", cases())


# -- right-minimal reduction ------------------------------------------------


def _annihilator(nu: RepMap, end: EndAlgebra) -> np.ndarray:
    """Coordinates (columns) of the right ideal {g in End(source) : nu g = 0}."""
    return linalg.kernel_basis(end._hs.after(nu), nu.p)


def _non_nilpotent_in_ideal(end, v_basis):
    """(w, multiplicity of the factor X in its minimal polynomial) for a
    non-radical, non-nilpotent element w of the right ideal spanned by
    v_basis, or (None, None) when the ideal lies in the radical.

    A single non-radical element can still be nilpotent (its image in the
    semisimple quotient may be a nilpotent matrix), so the basis sweep is
    followed by seeded random combinations; a nonzero right ideal of the
    quotient always contains non-nilpotent elements.
    """
    if v_basis.shape[1] == 0:
        return None, None
    saw_non_radical = False
    for w in candidate_sweep(v_basis, random.Random(17), end.p):
        if end.quotient.contains(w):
            continue
        saw_non_radical = True
        mp = end.minpoly(w)
        a = 0
        while mp[a] == 0:
            a += 1
        if a < len(mp) - 1:
            return w, a
    if saw_non_radical:
        raise RuntimeError(
            "annihilator ideal escapes the radical but no non-nilpotent "
            "element was found"
        )
    return None, None


def right_minimal_reduce(nu: RepMap) -> RepMap:
    """Strip the source down to a right minimal map with the same
    factorization closure.

    Iterates: V = {g in End(source) : nu g = 0} is a right ideal; if V lies
    in the radical, nu is right minimal.  Otherwise V holds an element w
    that is neither nilpotent nor a unit.  Since nu w = 0, nu vanishes on
    im w^N and so factors through the Fitting projection onto ker w^N along
    im w^N; its image, a proper summand, replaces the source.
    """
    src = nu.source
    if src.is_zero:
        return nu
    end = end_algebra(src)
    end.require_radical()
    w, a = _non_nilpotent_in_ideal(end, _annihilator(nu, end))
    if w is None:
        return nu
    if a == 0:
        # w invertible and nu w = 0: nu is the zero map; minimal source is 0
        z = zero_rep(src.algebra)
        return zero_map(z, nu.target)
    pieces = fitting_pieces(end, w)
    if sum(sub.total_dim for _, sub, _ in pieces) != src.total_dim:
        raise RuntimeError("Fitting pieces do not sum to the source")
    projs = split_projections(src, [(sub, incl) for _, sub, incl in pieces])
    (k,) = [i for i, (g, _, _) in enumerate(pieces) if g == [0, 1]]
    sub, incl = image_of(pieces[k][2].compose(projs[k]))
    if sub.total_dim == src.total_dim:
        raise RuntimeError("splitting made no progress")
    return right_minimal_reduce(nu.compose(incl))


def right_minimality_certificate(nu: RepMap) -> bool:
    """Whether the annihilator right ideal of nu lies in rad End(source);
    raises PrimeTooSmall where the trace form does not give the radical."""
    src = nu.source
    if src.is_zero:
        return True
    end = end_algebra(src)
    end.require_radical()
    return end.quotient.contains(_annihilator(nu, end))


# -- duality ----------------------------------------------------------------


_DUAL_KIND = {
    "finite": "finite",
    "postprojective": "preinjective",
    "preinjective": "postprojective",
}


def dual_subcat(sub: Subcat) -> Subcat:
    """The subcategory of duals over the opposite algebra."""
    if sub.kind == "finite":
        return Subcat(sub.algebra.opposite(), "finite", [dual(g) for g in sub.gens])
    return Subcat(sub.algebra.opposite(), _DUAL_KIND[sub.kind], [], sub.cap)


def preenvelope_via_duality(sub: Subcat, l_mod: Rep, variant: str = "stable-proj"):
    """A (stable-proj) preenvelope of l_mod by sub, built by dualizing the
    canonical precover of dual(l_mod) over the opposite algebra."""
    if variant not in ("plain", "stable-proj"):
        raise ValueError("variant must be 'plain' or 'stable-proj'")
    dsub = dual_subcat(sub)
    dl = dual(l_mod)
    precover_variant = "plain" if variant == "plain" else "stable-inj"
    nu, report = canonical_precover(dsub, dl, precover_variant)
    mu = RepMap(
        l_mod, dual(nu.source), tuple(b.T.copy() for b in nu.blocks), check=True
    )
    return mu, report
