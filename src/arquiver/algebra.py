"""Bound quiver algebras: quiver data, admissible relations, path basis.

A path is stored as (source_vertex, arrows) with the arrows listed in
application order (first arrow applied first).  Algebra multiplication is
written right to left: mul(x, y) applies y first, then x, so concatenating
arrow tuples is y.arrows + x.arrows.

The path basis of Lambda = kQ/I is computed by breadth-first path
enumeration with linear reduction modulo a spanning set of the relation
ideal, truncated at increasing lengths.  The loop terminates at the first
length N where every path of length N reduces to zero and the surviving
basis has stabilized; then rad^N = 0 and all longer products are zero.
Non-admissible input runs into the hard length cap and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .fpoly import is_prime
from .linalg import DEFAULT_PRIME

MAX_PATH_LENGTH = 64
MAX_PATH_COUNT = 200_000

Path = tuple[int, tuple[str, ...]]  # (source vertex, arrow names in application order)


class NotFiniteDimensional(Exception):
    """Paths survive beyond the length cap: the relation ideal is not admissible."""


class MalformedRelation(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


class Quiver:
    """A finite quiver with vertices 1..n and named arrows."""

    def __init__(self, n: int, arrows):
        if n < 1:
            raise ValueError("a quiver needs at least one vertex")
        self.n = n
        self.arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        seen = set()
        for a in self.arrows:
            if a.name in seen:
                raise ValueError(f"duplicate arrow name {a.name!r}")
            seen.add(a.name)
            if not (1 <= a.source <= n and 1 <= a.target <= n):
                raise ValueError(f"arrow {a.name!r} has out-of-range endpoints")
        self.by_name = {a.name: a for a in self.arrows}

    def arrows_from(self, v: int):
        return [a for a in self.arrows if a.source == v]

    def arrows_to(self, v: int):
        return [a for a in self.arrows if a.target == v]

    def opposite(self) -> "Quiver":
        return Quiver(self.n, [Arrow(a.name, a.target, a.source) for a in self.arrows])

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.n == other.n
            and [(a.name, a.source, a.target) for a in self.arrows]
            == [(a.name, a.source, a.target) for a in other.arrows]
        )

    def __repr__(self):
        arrows = ", ".join(f"{a.name}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({self.n}; {arrows})"


@dataclass
class Relation:
    """A uniform linear combination of paths of length >= 2.

    terms: list of (coefficient, arrow-name tuple in application order).
    """

    terms: list = field(default_factory=list)

    def reversed(self) -> "Relation":
        return Relation([(c, tuple(reversed(arrows))) for c, arrows in self.terms])

    def key(self):
        return tuple(sorted((c, arrows) for c, arrows in self.terms))


def path_target(quiver: Quiver, path: Path) -> int:
    v = path[0]
    for name in path[1]:
        a = quiver.by_name[name]
        if a.source != v:
            raise MalformedRelation(f"path {path[1]} breaks at arrow {name!r}")
        v = a.target
    return v


def _path_sort_key(path: Path):
    return (len(path[1]), path[1], path[0])


def _validate_relation(quiver: Quiver, rel: Relation) -> dict:
    """Check uniformity and length, return the relation as {path: coeff}."""
    if not rel.terms:
        raise MalformedRelation("empty relation")
    elem: dict[Path, int] = {}
    endpoints = None
    for coeff, arrows in rel.terms:
        if len(arrows) < 2:
            raise MalformedRelation("relation paths must have length >= 2")
        unknown = [n for n in arrows if n not in quiver.by_name]
        if unknown:
            raise MalformedRelation(f"unknown arrow {unknown[0]!r} in relation")
        src = quiver.by_name[arrows[0]].source
        path: Path = (src, tuple(arrows))
        tgt = path_target(quiver, path)
        if endpoints is None:
            endpoints = (src, tgt)
        elif endpoints != (src, tgt):
            raise MalformedRelation("relation is not uniform (mixed endpoints)")
        elem[path] = (elem.get(path, 0) + coeff)
    return elem


def check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime small enough for exact int64
    products ((p-1)**2 < 2**63)."""
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not a prime")
    if (p - 1) ** 2 >= linalg.INT64_LIMIT:
        raise ValueError(f"field modulus {p} is too large: (p-1)**2 >= 2**63")


class Algebra:
    """A bound quiver algebra over F_p with an explicit reduced path basis."""

    def __init__(self, quiver: Quiver, relations, p: int = DEFAULT_PRIME):
        check_modulus(p)
        self.quiver = quiver
        self.relations = list(relations)
        self.p = p
        self._op: "Algebra | None" = None
        self._memo: dict = {}
        self._build()

    # -- construction -------------------------------------------------

    def _build(self):
        p = self.p
        rel_elems = []
        for rel in self.relations:
            elem = {
                path: c % p for path, c in _validate_relation(self.quiver, rel).items()
            }
            elem = {path: c for path, c in elem.items() if c}
            if elem:
                rel_elems.append(elem)

        paths_by_len: list[list[Path]] = [[(v, ()) for v in range(1, self.quiver.n + 1)]]
        total = self.quiver.n
        prev_basis: set[Path] | None = None

        if not self.quiver.arrows:
            self.nilpotency = 1
            basis, normal, _ = self._reduce_basis(paths_by_len[0], [])
            self._finish(basis, normal)
            return

        for L in range(1, MAX_PATH_LENGTH + 1):
            new = []
            for path in paths_by_len[L - 1]:
                tgt = path_target(self.quiver, path)
                for a in self.quiver.arrows_from(tgt):
                    new.append((path[0], path[1] + (a.name,)))
            paths_by_len.append(new)
            total += len(new)
            if total > MAX_PATH_COUNT:
                raise NotFiniteDimensional("path count exploded before the ideal closed")
            if L < 2:
                prev_basis = {q for lvl in paths_by_len for q in lvl}
                continue

            all_paths = [q for lvl in paths_by_len for q in lvl]
            span = self._ideal_span(rel_elems, L)
            basis, normal, pivot_set = self._reduce_basis(all_paths, span)
            top_zero = all(
                q in pivot_set and not normal[q] for q in paths_by_len[L]
            )
            if top_zero and prev_basis is not None and set(basis) == prev_basis:
                self.nilpotency = L
                self._finish(basis, normal)
                return
            prev_basis = set(basis)

        raise NotFiniteDimensional(
            f"paths survive beyond length cap {MAX_PATH_LENGTH}; not finite dimensional"
        )

    def _ideal_span(self, rel_elems, L):
        """All u*r*v with every component path of length <= L, r a relation."""

        def maxlen(elem):
            return max(len(path[1]) for path in elem)

        def left_mul_arrow(a: Arrow, elem):
            # every term of elem shares its target; a must start there
            any_path = next(iter(elem))
            if path_target(self.quiver, any_path) != a.source:
                return None
            return {(src, arrows + (a.name,)): c for (src, arrows), c in elem.items()}

        def right_mul_arrow(elem, a: Arrow):
            any_path = next(iter(elem))
            if any_path[0] != a.target:
                return None
            return {(a.source, (a.name,) + arrows): c for (src, arrows), c in elem.items()}

        rights = list(rel_elems)
        frontier = list(rel_elems)
        while frontier:
            nxt = []
            for elem in frontier:
                if maxlen(elem) >= L:
                    continue
                for a in self.quiver.arrows:
                    prod = right_mul_arrow(elem, a)
                    if prod is not None:
                        nxt.append(prod)
            rights.extend(nxt)
            frontier = nxt

        out = list(rights)
        frontier = list(rights)
        while frontier:
            nxt = []
            for elem in frontier:
                if maxlen(elem) >= L:
                    continue
                for a in self.quiver.arrows:
                    prod = left_mul_arrow(a, elem)
                    if prod is not None:
                        nxt.append(prod)
            out.extend(nxt)
            frontier = nxt
        return [e for e in out if maxlen(e) <= L]

    def _reduce_basis(self, all_paths, span_elems):
        """Reduce paths modulo the ideal span, columns ordered longest path
        first: the pivot paths are dropped, the others form the basis."""
        p = self.p
        order = sorted(all_paths, key=lambda q: (-len(q[1]), q[1], q[0]))
        col_of = {q: i for i, q in enumerate(order)}
        m = linalg.zeros(len(order), len(span_elems))
        for i, elem in enumerate(span_elems):
            for path, c in elem.items():
                m[col_of[path], i] = c % p
        quot = linalg.Quotient(m, len(order), p)
        pivot_set = {order[c] for c in quot.pivots}
        basis = [order[c] for c in quot.indices]
        normal: dict[Path, dict[Path, int]] = {}
        for q in all_paths:
            vec = linalg.zeros(len(order), 1)[:, 0]
            vec[col_of[q]] = 1
            vec = quot.reduce(vec)
            normal[q] = {order[j]: int(vec[j]) for j in np.nonzero(vec)[0]}
        return basis, normal, pivot_set

    def _finish(self, basis, normal):
        self.basis: list[Path] = sorted(basis, key=_path_sort_key)
        self.index = {q: i for i, q in enumerate(self.basis)}
        self._normal = normal
        self._pair: dict[tuple[int, int], list[Path]] = {}
        for q in self.basis:
            key = (q[0], path_target(self.quiver, q))
            self._pair.setdefault(key, []).append(q)

    # -- queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_paths(self, src: int, tgt: int) -> list[Path]:
        """Reduced paths from src to tgt (a basis of e_tgt * Lambda * e_src)."""
        return self._pair.get((src, tgt), [])

    def reduce_path(self, path: Path) -> dict[Path, int]:
        if len(path[1]) >= self.nilpotency:
            return {}
        return dict(self._normal[path])

    def mul(self, x: dict, y: dict) -> dict:
        """Product x*y: apply y first, then x.  Elements are {basis path: coeff}."""
        out: dict[Path, int] = {}
        for (sx, ax), cx in x.items():
            for (sy, ay), cy in y.items():
                if path_target(self.quiver, (sy, ay)) != sx:
                    continue
                coeff = (cx * cy) % self.p
                if not coeff:
                    continue
                for q, c in self.reduce_path((sy, ay + ax)).items():
                    out[q] = (out.get(q, 0) + coeff * c) % self.p
        return {q: c for q, c in out.items() if c}

    def arrow_element(self, name: str) -> dict:
        a = self.quiver.by_name[name]
        return dict(self.reduce_path((a.source, (name,))))

    # -- opposite algebra ----------------------------------------------

    def opposite(self) -> "Algebra":
        if self._op is None:
            op = Algebra(
                self.quiver.opposite(),
                [rel.reversed() for rel in self.relations],
                self.p,
            )
            op._op = self
            self._op = op
        return self._op

    def reverse_element(self, x: dict) -> dict:
        """Image of x under the anti-isomorphism Lambda -> Lambda^op."""
        op = self.opposite()
        out: dict[Path, int] = {}
        for (src, arrows), c in x.items():
            rev: Path = (path_target(self.quiver, (src, arrows)), tuple(reversed(arrows)))
            for q, d in op.reduce_path(rev).items():
                out[q] = (out.get(q, 0) + c * d) % self.p
        return {q: c for q, c in out.items() if c}

    def same_presentation(self, other: "Algebra") -> bool:
        return (
            self.p == other.p
            and self.quiver == other.quiver
            and sorted(r.key() for r in self.relations)
            == sorted(r.key() for r in other.relations)
        )

    def __repr__(self):
        return f"Algebra(dim={self.dim}, p={self.p}, {self.quiver!r})"


def build_algebra(quiver: Quiver, relations, p: int = DEFAULT_PRIME) -> Algebra:
    return Algebra(quiver, relations, p)
