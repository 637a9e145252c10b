"""Injective- and projective-stable categories and precovers with error term.

I(A, B) is the subspace of maps factoring through an injective module,
P(A, B) the subspace factoring through a projective; both are computed
through a single linear system against the injective envelope of the
source (resp. the projective cover of the target), which is sound and
complete by minimality.  A precover "with error term" relaxes the
factorization requirement modulo the image of f2: nu(P2) -> DTr M, and
the module-level equivalence between that notion and stable precovers is
made executable here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import Algebra
from .homological import (
    CosetSpace,
    DtrData,
    dtr_data,
    injective_envelope,
    nakayama_of_projmap,
    projective_cover,
    random_module,
    second_step,
)
from .rep import (
    Rep,
    RepMap,
    decompose,
    direct_sum,
    hom_basis,
    iso,
    zero_map,
)

DEFAULT_SEED = 1


def factors_through_injective(f: RepMap):
    """(flag, witness): witness = (extension, envelope mono) with
    extension . mono = f when the flag is true."""
    if f.is_zero:
        return True, None
    isum, mono = injective_envelope(f.source)
    hs = hom_basis(isum.rep, f.target)
    if hs.dim == 0:
        return False, None
    cols = np.stack([b.compose(mono).flatten() for b in hs.basis], axis=1)
    ok, c = linalg.in_span(cols, f.flatten(), f.p)
    if not ok:
        return False, None
    return True, (hs.from_coords(c), mono)


def factors_through_projective(f: RepMap):
    """(flag, witness): witness = (lift, cover epi) with epi . lift = f."""
    if f.is_zero:
        return True, None
    ps, epi = projective_cover(f.target)
    hs = hom_basis(f.source, ps.rep)
    if hs.dim == 0:
        return False, None
    cols = np.stack([epi.compose(b).flatten() for b in hs.basis], axis=1)
    ok, c = linalg.in_span(cols, f.flatten(), f.p)
    if not ok:
        return False, None
    return True, (hs.from_coords(c), epi)


@dataclass(eq=False)
class StableHomSpace:
    """Hom(A, B) modulo the injective (or projective) factorization ideal."""

    variant: str  # "inj" | "proj"
    source: Rep
    target: Rep
    hom: object  # HomSpace
    ideal_coords: np.ndarray  # columns in hom-basis coordinates
    coset: CosetSpace

    @property
    def dim(self) -> int:
        return self.coset.dim

    @property
    def ideal_dim(self) -> int:
        return linalg.rank(self.ideal_coords, self.source.p)

    def class_of(self, f: RepMap) -> np.ndarray:
        c = self.hom.coords(f)
        if c is None:
            raise ValueError("map is not a homomorphism between these modules")
        return self.coset.to_coords(c)

    def rep_for(self, coords) -> RepMap:
        return self.hom.from_coords(self.coset.lift(coords))


def stable_hom(a: Rep, b: Rep, variant: str = "inj") -> StableHomSpace:
    if variant not in ("inj", "proj"):
        raise ValueError("variant must be 'inj' or 'proj'")
    hs = hom_basis(a, b)
    p = a.p
    if variant == "inj":
        isum, mono = injective_envelope(a)
        mid = hom_basis(isum.rep, b)
        gens = [g.compose(mono) for g in mid.basis]
    else:
        ps, epi = projective_cover(b)
        mid = hom_basis(a, ps.rep)
        gens = [epi.compose(g) for g in mid.basis]
    if gens and hs.dim:
        ideal = np.stack([hs.coords(g) for g in gens], axis=1)
    else:
        ideal = linalg.zeros(hs.dim, 0)
    return StableHomSpace(variant, a, b, hs, ideal, CosetSpace(ideal, hs.dim, p))


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
    cols = []
    for phi in lifts.basis:
        c = target_hs.coords(etd.f2.compose(phi))
        cols.append(c)
    mat = (
        np.stack(cols, axis=1) if cols else linalg.zeros(target_hs.dim, 0)
    )
    return target_hs, linalg.column_space(mat, l_mod.p)


# -- precover checks --------------------------------------------------------


@dataclass
class PrecoverReport:
    kind: str
    passed: bool
    failures: list = field(default_factory=list)  # (generator, witness RepMap)
    detail: list = field(default_factory=list)  # (generator, covered, total)


def is_precover_with_error_term(
    nu: RepMap, gens: list, m: Rep, etd: ErrorTermData | None = None
) -> PrecoverReport:
    """Check Hom(L, DTr M) = im(nu . -) + error_term_image for each L in gens."""
    if etd is None:
        etd = error_term_data(m)
    tau = etd.data.rep
    p = m.p
    report = PrecoverReport("error-term", True)
    for l_mod in gens:
        target_hs, err_cols = error_term_image(etd, l_mod)
        through = hom_basis(l_mod, nu.source)
        cols = [target_hs.coords(nu.compose(phi)) for phi in through.basis]
        nu_cols = (
            np.stack(cols, axis=1) if cols else linalg.zeros(target_hs.dim, 0)
        )
        span = linalg.subspace_sum(nu_cols, err_cols, p)
        covered = linalg.rank(span, p)
        report.detail.append((l_mod, covered, target_hs.dim))
        if covered < target_hs.dim:
            witness = target_hs.from_coords(linalg.first_unit_outside_span(span, p))
            report.passed = False
            report.failures.append((l_mod, witness))
    return report


def is_stable_precover(
    nu: RepMap, gens: list, m: Rep, data: DtrData | None = None
) -> PrecoverReport:
    """Surjectivity of nu . - onto the injective-stable Hom(L, DTr M)."""
    if data is None:
        data = dtr_data(m)
    tau = data.rep
    p = m.p
    report = PrecoverReport("stable", True)
    for l_mod in gens:
        sh = stable_hom(l_mod, tau, "inj")
        through = hom_basis(l_mod, nu.source)
        cols = [sh.class_of(nu.compose(phi)) for phi in through.basis]
        mat = np.stack(cols, axis=1) if cols else linalg.zeros(sh.dim, 0)
        covered = linalg.rank(mat, p)
        report.detail.append((l_mod, covered, sh.dim))
        if covered < sh.dim:
            report.passed = False
            witness = sh.rep_for(linalg.first_unit_outside_span(mat, p))
            report.failures.append((l_mod, witness))
    return report


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
    if hs.dim:
        coords = np.array(
            [rng.randrange(alg.p) for _ in range(hs.dim)], dtype=np.int64
        )
        nu = hs.from_coords(coords)
    else:
        nu = zero_map(src, data.rep)
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
    if h1.dim == 0:
        return True
    img_cols = [h1.coords(nu_d2.compose(phi)) for phi in h2.basis]
    img = (
        np.stack(img_cols, axis=1) if img_cols else linalg.zeros(h1.dim, 0)
    )
    push = [nu_d1.compose(psi).flatten() for psi in h1.basis]
    push_mat = np.stack(push, axis=1)
    ker = linalg.kernel_basis(push_mat, p)
    return linalg.same_span(img, ker, p)
