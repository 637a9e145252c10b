"""Homological machinery: projectives, injectives, minimal presentations,
the transpose, the Nakayama functor, DTr/TrD and Ext^1 with realization.

Projective left modules are the Lambda e_v; Hom(Lambda e_w, Lambda e_v) is
identified with the span of basis paths v -> w acting by right
multiplication.  Maps between sums of projectives are therefore stored as
matrices of algebra elements (PathCoeffMap), which is what makes the
transpose and the Nakayama functor computable by reversing paths.

Ext^1(M, N) is Hom(Omega M, N) modulo the restrictions of Hom(P0, N), kept
as a rep.HomQuotient (`ExtSpace.classes`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .algebra import Algebra, Path, path_target
from .linalg import matmul
from .memo import memoized
from .rep import (
    end_algebra,
    HomQuotient,
    Rep,
    RepMap,
    direct_sum,
    dual,
    factor_through_left,
    hom_basis,
    hom_quotient,
    image_of,
    kernel_of,
    cokernel_of,
    record_split,
    sum_maps,
    sum_rep,
    zero_rep,
)


@memoized
def proj(alg: Algebra, v: int) -> Rep:
    """The indecomposable projective Lambda e_v as a representation,
    memoized (memo.memoized) on the algebra.

    The space at vertex u has the basis paths v -> u; an arrow acts by
    appending itself (left multiplication) and reducing.
    """
    dims = tuple(len(alg.basis_paths(v, u)) for u in range(1, alg.quiver.n + 1))
    maps = {}
    for a in alg.quiver.arrows:
        src_paths = alg.basis_paths(v, a.source)
        tgt_paths = alg.basis_paths(v, a.target)
        row = {q: i for i, q in enumerate(tgt_paths)}
        m = linalg.zeros(len(tgt_paths), len(src_paths))
        for j, q in enumerate(src_paths):
            for r, c in alg.reduce_path((v, q[1] + (a.name,))).items():
                m[row[r], j] = c
        maps[a.name] = m
    return Rep(alg, dims, maps, name=f"P{v}")


@memoized
def inj(alg: Algebra, v: int) -> Rep:
    """The indecomposable injective at v: the dual of the opposite projective,
    memoized (memo.memoized) on the algebra."""
    m = dual(proj(alg.opposite(), v))
    m.name = f"I{v}"
    return m


def _split_sum(alg: Algebra, parts: list) -> Rep:
    """The direct sum of parts, keeping its coordinate split (`record_split`,
    lazily: its maps are built when a Hom space first reads them): Hom
    into and out of it is read off the parts' Hom spaces."""
    if not parts:
        return zero_rep(alg)
    total = sum_rep(parts)
    record_split(total, lambda: list(zip(parts, *sum_maps(parts, total))), lazy=True)
    return total


@memoized
def _proj_sum_rep(alg: Algebra, vertices: tuple) -> Rep:
    """The sum of proj(alg, w) over vertices, memoized (memo.memoized) on the
    algebra: presentations with the same P0 share one module, built and
    split once.  It keeps its coordinate split into the proj(alg, w)
    (`_split_sum`), so Hom(P0, N) and Hom(N, P0) are read off Hom(P_w, N)
    and Hom(N, P_w), each solved once per content of N, whatever the
    multiplicities."""
    return _split_sum(alg, [proj(alg, w) for w in vertices])


@memoized
def _inj_sum_rep(alg: Algebra, vertices: tuple) -> Rep:
    """The sum of inj(alg, w) over vertices, memoized on the algebra and
    split into its summands as `_proj_sum_rep` is: the injective
    envelopes."""
    return _split_sum(alg, [inj(alg, w) for w in vertices])


@dataclass(eq=False)
class ProjSum:
    """A finite direct sum of indecomposable projectives with a fixed layout.

    At each vertex the basis is the concatenation, summand by summand, of
    the reduced paths from that summand's vertex.
    """

    algebra: Algebra
    vertices: tuple

    def __post_init__(self):
        alg = self.algebra
        self.vertices = tuple(int(v) for v in self.vertices)
        n = alg.quiver.n
        self._offsets = [[0] * len(self.vertices) for _ in range(n)]
        dims = [0] * n
        for j, w in enumerate(self.vertices):
            for u in range(1, n + 1):
                self._offsets[u - 1][j] = dims[u - 1]
                dims[u - 1] += len(alg.basis_paths(w, u))
        self.rep = _proj_sum_rep(alg, self.vertices)

    @property
    def count(self) -> int:
        return len(self.vertices)

    def offset(self, j: int, u: int) -> int:
        return self._offsets[u - 1][j]

    def gen_column(self, j: int) -> int:
        """Column of the generator (trivial path) of summand j at its vertex."""
        w = self.vertices[j]
        paths = self.algebra.basis_paths(w, w)
        return self.offset(j, w) + paths.index((w, ()))

    def __repr__(self):
        return f"ProjSum{self.vertices}"


@dataclass(eq=False)
class PathCoeffMap:
    """A map between projective sums as a matrix of algebra elements.

    entries[i][j] is an element supported on paths target.vertices[i] ->
    source.vertices[j]; the component P(w_j) -> P(v_i) is right
    multiplication by it.
    """

    source: ProjSum
    target: ProjSum
    entries: list

    def __post_init__(self):
        alg = self.source.algebra
        if self.target.algebra is not alg:
            raise ValueError("path-coefficient map across different algebras")
        for i in range(self.target.count):
            for j in range(self.source.count):
                for (s, arrows) in self.entries[i][j]:
                    if s != self.target.vertices[i]:
                        raise ValueError("entry path starts at the wrong vertex")
                    if (
                        path_target(alg.quiver, (s, arrows))
                        != self.source.vertices[j]
                    ):
                        raise ValueError("entry path ends at the wrong vertex")

    def to_repmap(self) -> RepMap:
        alg = self.source.algebra
        p = alg.p
        blocks = []
        for u in range(1, alg.quiver.n + 1):
            m = linalg.zeros(self.target.rep.dim_at(u), self.source.rep.dim_at(u))
            for j, w in enumerate(self.source.vertices):
                for qi, q in enumerate(alg.basis_paths(w, u)):
                    col = self.source.offset(j, u) + qi
                    for i, v in enumerate(self.target.vertices):
                        rows = {
                            r: ri for ri, r in enumerate(alg.basis_paths(v, u))
                        }
                        for (xs, xarrows), c in self.entries[i][j].items():
                            combined: Path = (xs, xarrows + q[1])
                            for r, d in alg.reduce_path(combined).items():
                                ri = self.target.offset(i, u) + rows[r]
                                m[ri, col] = (m[ri, col] + c * d) % p
            blocks.append(m)
        return RepMap(self.source.rep, self.target.rep, tuple(blocks), check=True)

    def star(self) -> "PathCoeffMap":
        """Hom(-, Lambda): a path-coefficient map between opposite projectives,
        with source and target swapped and every entry reversed."""
        alg = self.source.algebra
        op_src = ProjSum(alg.opposite(), self.target.vertices)
        op_tgt = ProjSum(alg.opposite(), self.source.vertices)
        entries = [
            [alg.reverse_element(self.entries[i][j]) for i in range(self.target.count)]
            for j in range(self.source.count)
        ]
        return PathCoeffMap(op_src, op_tgt, entries)


def nakayama_of_projmap(d: PathCoeffMap) -> RepMap:
    """nu on morphisms: dualize the starred map.  Covariant.  nu(P_w) is
    I_w, so the map runs between the shared sums of injectives
    (`_inj_sum_rep`), whose Hom spaces are read off their summands."""
    alg = d.source.algebra
    blocks = tuple(b.T.copy() for b in d.star().to_repmap().blocks)
    source, target = (_inj_sum_rep(alg, ps.vertices) for ps in (d.source, d.target))
    return RepMap(source, target, blocks, check=False)


# -- radical and top --------------------------------------------------------


def radical_subspaces(m: Rep) -> list:
    """Per-vertex basis of rad M = JM (column span of all incoming arrows)."""
    out = []
    for u in range(1, m.algebra.quiver.n + 1):
        cols = [m.maps[a.name] for a in m.algebra.quiver.arrows_to(u)]
        stacked = (
            np.hstack(cols) if cols else linalg.zeros(m.dim_at(u), 0)
        )
        out.append(linalg.column_space(stacked, m.p))
    return out


def top_generators(m: Rep) -> list:
    """Standard basis vectors completing rad M to M, as (vertex, index) pairs.

    Their images form a basis of the top, so they generate M.
    """
    rad = radical_subspaces(m)
    gens = []
    for u in range(1, m.algebra.quiver.n + 1):
        b = rad[u - 1]
        for i in range(m.dim_at(u)):
            e = linalg.zeros(m.dim_at(u), 1)[:, 0]
            e[i] = 1
            ok, _ = linalg.in_span(b, e, m.p)
            if not ok:
                gens.append((u, i))
                b = np.hstack([b, e.reshape(-1, 1)])
    return gens


def _cover_on(cover: tuple, m: Rep) -> tuple:
    """The projective cover of a module of m's content as a cover of m:
    the same ProjSum, its surjection re-targeted."""
    ps, aug = cover
    return ps, RepMap(aug.source, m, aug.blocks, check=False)


@memoized(rebind=_cover_on)
def projective_cover(m: Rep) -> tuple:
    """(ProjSum, surjection onto m) with one summand per top generator.

    Memoized (memo.memoized) by content: covers are requested repeatedly
    by the stable and approximation layers.
    """
    alg = m.algebra
    gens = top_generators(m)
    ps = ProjSum(alg, tuple(u for u, _ in gens))
    blocks = []
    for t in range(1, alg.quiver.n + 1):
        cols = []
        for (u, gi) in gens:
            for q in alg.basis_paths(u, t):
                if not q[1]:
                    e = linalg.zeros(m.dim_at(t), 1)[:, 0]
                    e[gi] = 1
                    cols.append(e)
                else:
                    cols.append(m.evaluate_arrows(q[1])[:, gi] % m.p)
        blocks.append(
            np.stack(cols, axis=1)
            if cols
            else linalg.zeros(m.dim_at(t), 0)
        )
    aug = RepMap(ps.rep, m, tuple(blocks), check=True)
    if not aug.is_surjective():
        raise RuntimeError("projective cover failed to surject")
    return ps, aug


def _envelope_on(envelope: tuple, m: Rep) -> tuple:
    """The injective envelope of a module of m's content as an envelope of
    m: the same InjSum, its mono re-sourced."""
    isum, mono = envelope
    return isum, RepMap(m, mono.target, mono.blocks, check=False)


@memoized(rebind=_envelope_on)
def injective_envelope(m: Rep) -> tuple:
    """(InjSum, mono m -> InjSum.rep): the dual of the projective cover of
    the dual module.  The envelope is the shared sum of the inj(alg, w)
    (`_inj_sum_rep`), of the content the dual of the cover's sum would
    have, so Hom into and out of it is read off its summands.  Memoized
    (memo.memoized) by content.
    """
    ps, cover = projective_cover(dual(m))
    irep = _inj_sum_rep(m.algebra, ps.vertices)
    mono = RepMap(m, irep, tuple(b.T.copy() for b in cover.blocks), check=True)
    if not mono.is_injective():
        raise RuntimeError("injective envelope failed to embed")
    return InjSum(m.algebra, ps.vertices, irep), mono


@dataclass(eq=False)
class InjSum:
    algebra: Algebra
    vertices: tuple
    rep: Rep

    @property
    def count(self) -> int:
        return len(self.vertices)

    def __repr__(self):
        return f"InjSum{self.vertices}"


def _projmap_to_pathcoeff(src: ProjSum, tgt: ProjSum, f: RepMap) -> PathCoeffMap:
    """Read off path coefficients of a module map between projective sums."""
    alg = src.algebra
    entries = []
    for i, v in enumerate(tgt.vertices):
        row = []
        for j, w in enumerate(src.vertices):
            vec = f.block(w)[:, src.gen_column(j)]
            elem = {}
            for r_paths_i, q in enumerate(alg.basis_paths(v, w)):
                c = int(vec[tgt.offset(i, w) + r_paths_i]) % alg.p
                if c:
                    elem[q] = c
            row.append(elem)
        entries.append(row)
    return PathCoeffMap(src, tgt, entries)


@dataclass(eq=False)
class Presentation:
    """A minimal projective presentation P1 -> P0 -> M -> 0."""

    module: Rep
    p0: ProjSum
    aug: RepMap  # P0 -> M
    p1: ProjSum
    d1: PathCoeffMap
    d1_rep: RepMap  # P1 -> P0
    omega: Rep  # image of d1 = kernel of aug
    omega_incl: RepMap  # omega -> P0


@memoized(rebind=lambda pres, m: replace(pres, module=m, aug=projective_cover(m)[1]))
def min_presentation(m: Rep) -> Presentation:
    """Memoized (memo.memoized): DTr, Tr and every ext1(m, -) share it."""
    p0, aug = projective_cover(m)
    k, incl = kernel_of(aug)
    p1, c = projective_cover(k)
    d1_rep = incl.compose(c)
    d1 = _projmap_to_pathcoeff(p1, p0, d1_rep)
    if not d1.to_repmap().equal(d1_rep):
        raise RuntimeError("path-coefficient reconstruction disagrees")
    omega, omega_incl = image_of(d1_rep)
    return Presentation(m, p0, aug, p1, d1, d1_rep, omega, omega_incl)


def second_step(pres: Presentation) -> tuple:
    """P2 and d2: P2 -> P1 with image = kernel of d1 (one more syzygy)."""
    k, incl = kernel_of(pres.d1_rep)
    p2, c = projective_cover(k)
    d2_rep = incl.compose(c)
    d2 = _projmap_to_pathcoeff(p2, pres.p1, d2_rep)
    if not d2.to_repmap().equal(d2_rep):
        raise RuntimeError("path-coefficient reconstruction disagrees")
    return p2, d2, d2_rep


# -- transpose and the translates ------------------------------------------


def transpose(m: Rep) -> Rep:
    """Tr M = coker(Hom(d1, Lambda)) over the opposite algebra."""
    pres = min_presentation(m)
    tr, _ = cokernel_of(pres.d1.star().to_repmap())
    return tr


@dataclass(eq=False)
class DtrData:
    module: Rep
    pres: Presentation
    nu_d1: RepMap  # nu P1 -> nu P0
    rep: Rep  # DTr M
    incl: RepMap  # DTr M -> nu P1


@memoized(rebind=lambda data, m: replace(data, module=m, pres=min_presentation(m)))
def dtr_data(m: Rep) -> DtrData:
    """The presentation of m, nu d1 and DTr M = ker(nu d1), memoized
    (memo.memoized) by content: modules equal entry for entry share one
    DTr M."""
    pres = min_presentation(m)
    nu_d1 = nakayama_of_projmap(pres.d1)
    ker, incl = kernel_of(nu_d1)
    return DtrData(m, pres, nu_d1, ker, incl)


def dtr(m: Rep) -> Rep:
    """DTr M (the AR translate), computed as ker(nu d1)."""
    return dtr_data(m).rep


def trd(m: Rep) -> Rep:
    """TrD M (the inverse translate): the transpose over Lambda^op of D M."""
    return transpose(dual(m))


# -- short exact sequences --------------------------------------------------


class NotExact(ValueError):
    pass


@dataclass(eq=False)
class SES:
    """A verified short exact sequence 0 -> A -f-> E -g-> C -> 0."""

    f: RepMap
    g: RepMap

    def __post_init__(self):
        f, g = self.f, self.g
        if f.target is not g.source and not f.target.equal(g.source):
            raise NotExact("middle terms disagree")
        if not f.is_injective():
            raise NotExact("left map is not mono")
        if not g.is_surjective():
            raise NotExact("right map is not epi")
        if not g.compose(f).is_zero:
            raise NotExact("composite is nonzero")
        if f.target.total_dim != f.source.total_dim + g.target.total_dim:
            raise NotExact("dimension count fails")

    @property
    def left(self) -> Rep:
        return self.f.source

    @property
    def middle(self) -> Rep:
        return self.f.target

    @property
    def right(self) -> Rep:
        return self.g.target


# -- Ext^1 ------------------------------------------------------------------


@dataclass(eq=False)
class ExtSpace:
    """Ext^1(M, N) = Hom(Omega M, N) / restrictions from P0."""

    source: Rep  # M
    target: Rep  # N
    pres: Presentation
    classes: HomQuotient  # cocycles Hom(Omega, N) modulo the restrictions

    @property
    def dim(self) -> int:
        return self.classes.dim

    def cocycle_for(self, coords) -> RepMap:
        return self.classes.from_coords(coords)

    def class_of(self, w: RepMap) -> np.ndarray:
        return self.classes.class_of(w)

    def basis_classes(self) -> list:
        return list(linalg.eye(self.dim))

    def realize(self, coords) -> SES:
        return realize_extension(self, coords)

    def pushforward_matrix(self, g: RepMap, ext2: "ExtSpace") -> np.ndarray:
        """Matrix of g_*: Ext^1(M, N) -> Ext^1(M, N') in class coordinates."""
        return ext2.classes.coords_of(
            [g.compose(self.cocycle_for(q)) for q in self.basis_classes()]
        )

    def end_action_matrix(self, phi: RepMap) -> np.ndarray:
        """Matrix of the right End(M)-action [w] -> [w . Omega(phi)]."""
        omega_phi = _omega_lift(self.pres, phi)
        return self.classes.coords_of(
            [self.cocycle_for(q).compose(omega_phi) for q in self.basis_classes()]
        )


def _omega_lift(pres: Presentation, phi: RepMap) -> RepMap:
    """The induced endomorphism of Omega from an endomorphism of M."""
    phi0 = factor_through_left(pres.aug, phi.compose(pres.aug))
    if phi0 is None:
        raise RuntimeError("projective lifting failed")
    composite = phi0.compose(pres.omega_incl)  # omega -> P0, lands in omega
    blocks = []
    for u in range(1, pres.module.algebra.quiver.n + 1):
        sol = linalg.solve(
            pres.omega_incl.block(u), composite.block(u), pres.module.p
        )
        if sol is None:
            raise RuntimeError("lift does not preserve the syzygy")
        blocks.append(sol)
    return RepMap(pres.omega, pres.omega, tuple(blocks), check=False)


def ext1(m: Rep, n: Rep) -> ExtSpace:
    """On the one presentation of m, as `pushforward_matrix` requires.
    Hom(P0, N) is skipped when there are no cocycles to restrict to."""
    pres = min_presentation(m)
    z = hom_basis(pres.omega, n)
    restrictions = hom_basis(pres.p0.rep, n).before(pres.omega_incl) if z.dim else []
    return ExtSpace(m, n, pres, hom_quotient(z, restrictions))


def realize_extension(ext: ExtSpace, coords) -> SES:
    """The pushout extension 0 -> N -> E -> M -> 0 for a class.

    The presentation and the classes of Ext^1(M, N) are functions of the
    contents of M and N, so the answer is kept once per pair of contents
    and class mod p on the algebra (`memo.memoized`): E is the algebra's
    own module, shared by every caller of those contents, and the blocks
    of f and g are re-anchored on N and M.  Exactness is checked on every
    call (`SES`)."""
    n = ext.target
    cls = tuple(int(c) for c in np.asarray(coords, dtype=np.int64) % n.p)
    return _realize_extension(ext.source, n, cls)


def _realized_on(maps: tuple, m: Rep, n: Rep, cls: tuple) -> SES:
    f, g = maps
    e = f.target
    return SES(RepMap(n, e, f.blocks, check=False), RepMap(e, m, g.blocks, check=False))


@memoized(rebind=_realized_on)
def _realize_extension(m: Rep, n: Rep, cls: tuple) -> tuple:
    """(f: N -> E, g: E -> M), unchecked: the rebind checks exactness."""
    ext = ext1(m, n)
    pres = ext.pres
    w = ext.cocycle_for(cls)
    npo, injs, projs = direct_sum([n, pres.p0.rep])
    p = n.p
    span_map = injs[0].compose(w) + injs[1].compose(pres.omega_incl).scale(p - 1)
    e, quot = cokernel_of(span_map)
    f = quot.compose(injs[0])
    h = pres.aug.compose(projs[1])  # N + P0 -> M, kills the pushout relations
    g_blocks = tuple(
        matmul(h.block(u), linalg.right_inverse(quot.block(u), p), p)
        for u in range(1, n.algebra.quiver.n + 1)
    )
    return f, RepMap(e, m, g_blocks, check=True)


# -- AR extension candidates ------------------------------------------------


def ar_socle_classes(m: Rep) -> tuple:
    """(ExtSpace of (M, DTr M), basis of the socle under the End(M)-action).

    For M indecomposable and not projective the AR sequences are exactly
    the nonzero classes in this socle.
    """
    ext = ext1(m, dtr(m))
    end = end_algebra(m)
    if ext.dim == 0:
        return ext, []
    end.require_radical()
    rad_cols = end.radical_coords
    if rad_cols.shape[1] == 0:
        return ext, ext.basis_classes()
    mats = []
    for j in range(rad_cols.shape[1]):
        phi = end.from_coords(rad_cols[:, j])
        mats.append(ext.end_action_matrix(phi))
    stacked = np.vstack(mats)
    kb = linalg.kernel_basis(stacked, m.p)
    return ext, [kb[:, j] for j in range(kb.shape[1])]


def ar_extension(m: Rep):
    """A candidate almost split sequence ending at m, or None.

    Verification (left/right almost split conditions) is a separate step.
    """
    ext, socle = ar_socle_classes(m)
    for coords in socle:
        if coords.any():
            return ext.realize(coords)
    return None


# -- random modules for property tests --------------------------------------


def random_module(alg: Algebra, rng, max_summands: int = 2) -> Rep:
    """A random cokernel of a random map between projective sums."""
    n = alg.quiver.n
    tgt_vs = tuple(
        rng.randrange(1, n + 1) for _ in range(rng.randint(1, max_summands))
    )
    src_vs = tuple(
        rng.randrange(1, n + 1) for _ in range(rng.randint(0, max_summands))
    )
    tgt = ProjSum(alg, tgt_vs)
    src = ProjSum(alg, src_vs)
    entries = []
    for i, v in enumerate(tgt_vs):
        row = []
        for j, w in enumerate(src_vs):
            elem = {}
            for q in alg.basis_paths(v, w):
                c = rng.randrange(alg.p)
                if c:
                    elem[q] = c
            row.append(elem)
        entries.append(row)
    f = PathCoeffMap(src, tgt, entries)
    cok, _ = cokernel_of(f.to_repmap())
    return cok
