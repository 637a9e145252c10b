"""Injective- and projective-stable categories and precovers with error term.

I(A, B) is the subspace of maps factoring through an injective module,
P(A, B) the subspace factoring through a projective; both are computed
through a single linear system against the injective envelope of the
source (resp. the projective cover of the target), which is sound and
complete by minimality.  `stable_hom` gives Hom modulo them as a
rep.HomQuotient.  A precover "with error term" relaxes the factorization
requirement modulo the image of f2: nu(P2) -> DTr M, and the module-level
equivalence between that notion and stable precovers is made executable
here.  The coverage checks here and in approx share one loop,
`cover_report`, and one report, `CoverReport`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import Algebra
from .homological import (
    DtrData,
    dtr_data,
    injective_envelope,
    nakayama_of_projmap,
    projective_cover,
    random_module,
    second_step,
)
from .rep import (
    DEFAULT_SEED,
    HomQuotient,
    Rep,
    RepMap,
    decompose,
    direct_sum,
    hom_basis,
    hom_quotient,
    iso,
)


def stable_hom(a: Rep, b: Rep, variant: str = "inj") -> HomQuotient:
    """Hom(A, B) modulo the maps factoring through an injective ("inj") or
    a projective ("proj") module."""
    if variant not in ("inj", "proj"):
        raise ValueError("variant must be 'inj' or 'proj'")
    hs = hom_basis(a, b)
    if variant == "inj":
        isum, mono = injective_envelope(a)
        gens = hom_basis(isum.rep, b).before(mono)
    else:
        ps, epi = projective_cover(b)
        gens = hom_basis(a, ps.rep).after(epi)
    return hom_quotient(hs, gens)


# -- the error term ---------------------------------------------------------


@dataclass(eq=False)
class ErrorTermData:
    """f2: nu(P2) -> DTr M with j1 . f2 = nu(d2), from a minimal resolution."""

    module: Rep
    data: DtrData
    nu_p2: Rep
    nu_d2: RepMap  # nu P2 -> nu P1
    f2: RepMap  # nu P2 -> DTr M
    j1: RepMap  # DTr M -> nu P1


def error_term_data(m: Rep, data: DtrData | None = None) -> ErrorTermData:
    if data is None:
        data = dtr_data(m)
    p2, d2, _ = second_step(data.pres)
    nu_d2 = nakayama_of_projmap(d2)
    j1 = data.incl
    p = m.p
    blocks = []
    for u in range(1, m.algebra.quiver.n + 1):
        sol = linalg.solve(j1.block(u), nu_d2.block(u), p)
        if sol is None:
            raise RuntimeError("nu(d2) does not land in ker nu(d1)")
        blocks.append(sol)
    f2 = RepMap(nu_d2.source, data.rep, tuple(blocks), check=True)
    if not j1.compose(f2).equal(nu_d2):
        raise RuntimeError("corestriction failed")
    return ErrorTermData(m, data, nu_d2.source, nu_d2, f2, j1)


def error_term_image(etd: ErrorTermData, l_mod: Rep):
    """(HomSpace of Hom(L, DTr M), columns spanning the error-term image).

    The image of Hom(L, nu P2) -> Hom(L, DTr M), phi -> f2 . phi, in
    hom-basis coordinates.
    """
    target_hs = hom_basis(l_mod, etd.data.rep)
    lifts = hom_basis(l_mod, etd.nu_p2)
    mat = target_hs.coords_of(lifts.after(etd.f2))
    return target_hs, linalg.column_space(mat, l_mod.p)


# -- precover checks --------------------------------------------------------


@dataclass
class CoverReport:
    """Whether every class of each space is reached through the map checked."""

    kind: str
    passed: bool = True
    failures: list = field(default_factory=list)  # (module, witness map)
    detail: list = field(default_factory=list)  # (module, covered, total)


def cover_report(kind: str, cases) -> CoverReport:
    """The one coverage loop of the four precover and preenvelope checks.

    cases yields (module, space, columns): space is a HomSpace or a
    HomQuotient, the columns are classes of space reached through the map.
    A module whose columns do not span space fails, and its witness is the
    class of the first unit vector outside their span.
    """
    report = CoverReport(kind)
    for g, space, cols in cases:
        covered = linalg.rank(cols, g.p)
        report.detail.append((g, covered, space.dim))
        if covered < space.dim:
            report.passed = False
            witness = space.from_coords(linalg.first_unit_outside_span(cols, g.p))
            report.failures.append((g, witness))
    return report


def is_precover_with_error_term(
    nu: RepMap, gens: list, m: Rep, etd: ErrorTermData | None = None
) -> CoverReport:
    """Check Hom(L, DTr M) = im(nu . -) + error_term_image for each L in gens."""
    if etd is None:
        etd = error_term_data(m)

    def cases():
        for l_mod in gens:
            target_hs, err_cols = error_term_image(etd, l_mod)
            through = hom_basis(l_mod, nu.source)
            nu_cols = target_hs.coords_of(through.after(nu))
            yield l_mod, target_hs, linalg.subspace_sum(nu_cols, err_cols, m.p)

    return cover_report("error-term", cases())


def is_stable_precover(
    nu: RepMap, gens: list, m: Rep, data: DtrData | None = None
) -> CoverReport:
    """Surjectivity of nu . - onto the injective-stable Hom(L, DTr M)."""
    if data is None:
        data = dtr_data(m)
    tau = data.rep
    cases = precover_cases(nu, gens, lambda g: stable_hom(g, tau, "inj"))
    return cover_report("stable", cases)


def precover_cases(nu: RepMap, modules, space_of):
    """(G, space_of(G), classes of nu . phi for phi in Hom(G, source nu))."""
    for g in modules:
        space = space_of(g)
        through = hom_basis(g, nu.source)
        yield g, space, space.coords_of(through.after(nu))


# -- the equivalence harness ------------------------------------------------


@dataclass
class EquivInstance:
    algebra_name: str
    algebra: Algebra
    module: Rep
    gens: list
    nu: RepMap
    error_verdict: bool
    stable_verdict: bool

    @property
    def agree(self) -> bool:
        return self.error_verdict == self.stable_verdict


@dataclass
class EquivReport:
    seed: int
    total: int
    agreements: int
    instances: list
    disagreements: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.disagreements


def _random_instance(algebras: dict, rng: random.Random):
    name = rng.choice(sorted(algebras))
    alg = algebras[name]
    m = random_module(alg, rng)
    tries = 0
    while m.is_zero and tries < 8:
        m = random_module(alg, rng)
        tries += 1
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = random_module(alg, rng)
        if g.is_zero:
            continue
        for summand in decompose(g, seed=rng.randrange(1 << 30)):
            if all(iso(summand.rep, h) is None for h in gens):
                gens.append(summand.rep)
    gens = gens[:3]
    data = dtr_data(m)
    if gens:
        picks = [rng.choice(gens) for _ in range(rng.randint(1, 2))]
        src, _, _ = direct_sum(picks)
    else:
        src = random_module(alg, rng)
    hs = hom_basis(src, data.rep)
    nu = hs.from_coords(np.array([rng.randrange(alg.p) for _ in range(hs.dim)], dtype=np.int64))
    return name, alg, m, gens, nu, data


def check_equiv_error_vs_stable(
    n_instances: int = 100,
    seed: int = DEFAULT_SEED,
    algebras: dict | None = None,
) -> EquivReport:
    """Run both precover notions on seeded random instances and compare."""
    if algebras is None:
        from . import corpus

        algebras = corpus.corpus()
    rng = random.Random(seed)
    instances = []
    disagreements = []
    for _ in range(n_instances):
        name, alg, m, gens, nu, data = _random_instance(algebras, rng)
        etd = error_term_data(m, data)
        err = is_precover_with_error_term(nu, gens, m, etd)
        stab = is_stable_precover(nu, gens, m, data)
        inst = EquivInstance(name, alg, m, gens, nu, err.passed, stab.passed)
        instances.append(inst)
        if not inst.agree:
            disagreements.append(inst)
    return EquivReport(
        seed,
        n_instances,
        sum(1 for i in instances if i.agree),
        instances,
        disagreements,
    )


# -- the exactness lemma ----------------------------------------------------


def is_injective_module(u: Rep) -> bool:
    """Injective iff the envelope mono is already an isomorphism."""
    if u.is_zero:
        return True
    _, mono = injective_envelope(u)
    return mono.is_invertible()


def check_exactness_DP(u: Rep, m: Rep) -> bool:
    """Exactness of Hom(U, nu P2) -> Hom(U, nu P1) -> Hom(U, nu P0) in the
    middle, for U injective."""
    if not is_injective_module(u):
        raise ValueError("U is not an injective module")
    data = dtr_data(m)
    p2, d2, _ = second_step(data.pres)
    nu_d2 = nakayama_of_projmap(d2)
    nu_d1 = data.nu_d1
    p = m.p
    h2 = hom_basis(u, nu_d2.source)
    h1 = hom_basis(u, nu_d1.source)
    img = h1.coords_of(h2.after(nu_d2))
    ker = linalg.kernel_basis(h1.after(nu_d1), p)
    return linalg.same_span(img, ker, p)
