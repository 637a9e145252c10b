"""Checkers that judge the program's answers by theory, never by stored output.

A module is a pair (dims, maps) of plain integer matrices, and a morphism a
tuple of per-vertex blocks; `as_module` and `as_blocks` read them off the
program's objects.  All arithmetic goes through `modp`.  Every checker
returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import numpy as np

import modp
import modules


def as_module(rep) -> tuple:
    return tuple(int(d) for d in rep.dims), {
        k: np.asarray(v, dtype=np.int64) for k, v in rep.maps.items()
    }


def as_blocks(f) -> tuple:
    return tuple(np.asarray(b, dtype=np.int64) for b in f.blocks)


def _matmul(a, b, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % p


def is_hom(arrows, x, y, blocks, p: int) -> bool:
    """Whether blocks (one per vertex) commute with every arrow, X -> Y."""
    (xd, xm), (yd, ym) = x, y
    for v, b in enumerate(blocks):
        if b.shape != (yd[v], xd[v]):
            return False
    for name, s, t in arrows:
        lhs = _matmul(blocks[t - 1], xm[name], p)
        rhs = _matmul(ym[name], blocks[s - 1], p)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def compose(g_blocks, f_blocks, p: int) -> tuple:
    return tuple(_matmul(g, f, p) for g, f in zip(g_blocks, f_blocks))


def hom_space(arrows, x, y, p: int) -> list:
    """A basis of Hom(X, Y): the null space of the commuting equations."""
    (xd, xm), (yd, ym) = x, y
    sizes = [yd[v] * xd[v] for v in range(len(xd))]
    offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    total = int(offs[-1])
    rows = []
    for name, s, t in arrows:
        # unknown f_v is stored row-major; f_t M_a - N_a f_s = 0
        r = yd[t - 1] * xd[s - 1]
        if r == 0:
            continue
        block = np.zeros((r, total), dtype=np.int64)
        if sizes[t - 1]:
            block[:, offs[t - 1] : offs[t]] += np.kron(
                np.eye(yd[t - 1], dtype=np.int64), xm[name].T
            )
        if sizes[s - 1]:
            block[:, offs[s - 1] : offs[s]] -= np.kron(
                ym[name], np.eye(xd[s - 1], dtype=np.int64)
            )
        rows.append(block % p)
    system = np.vstack(rows) if rows else np.zeros((0, total), dtype=np.int64)
    null = modp.nullspace(system, p)
    basis = []
    for j in range(null.shape[1]):
        basis.append(
            tuple(
                null[offs[v] : offs[v + 1], j].reshape(yd[v], xd[v])
                for v in range(len(xd))
            )
        )
    return basis


def iso_to_power(arrows, y, brick, copies: int, p: int) -> bool:
    """Whether Y is isomorphic to brick^copies, for a brick (End = k).

    Then Hom(brick, Y) has dimension `copies` exactly when Y is such a sum,
    and a basis of it, put side by side, is an isomorphism.
    """
    basis = hom_space(arrows, brick, y, p)
    if len(basis) != copies:
        return False
    for v in range(len(y[0])):
        side = (
            np.hstack([f[v] for f in basis])
            if basis
            else np.zeros((y[0][v], 0), dtype=np.int64)
        )
        if side.shape[0] != side.shape[1] or (
            side.shape[0] and modp.rank(side, p) != side.shape[0]
        ):
            return False
    return True


def exactness_problems(arrows, x, y, z, f, g, p: int) -> list:
    """0 -> X -f-> Y -g-> Z -> 0: homs, f injective, g surjective, g f = 0.

    With dim Y = dim X + dim Z at each vertex this is exactness.
    """
    out = []
    if not is_hom(arrows, x, y, f, p):
        out.append("f is not a homomorphism")
    if not is_hom(arrows, y, z, g, p):
        out.append("g is not a homomorphism")
    if out:
        return out
    for v in range(len(x[0])):
        if modp.rank(f[v], p) != x[0][v]:
            out.append(f"f not injective at vertex {v + 1}")
        if modp.rank(g[v], p) != z[0][v]:
            out.append(f"g not surjective at vertex {v + 1}")
        if y[0][v] != x[0][v] + z[0][v]:
            out.append(f"dimensions do not add up at vertex {v + 1}")
    if any(b.any() for b in compose(g, f, p)):
        out.append("g f != 0")
    return out


def ar_sequence_problems(arrows, ses, left, middle, right, p: int) -> list:
    """Check 0 -> X -> Y -> Z -> 0 against the expected terms.

    left, right: the expected end terms as bricks; middle: (brick, copies).
    """
    x, y, z = as_module(ses.left), as_module(ses.middle), as_module(ses.right)
    f, g = as_blocks(ses.f), as_blocks(ses.g)
    out = exactness_problems(arrows, x, y, z, f, g, p)
    if not iso_to_power(arrows, x, left, 1, p):
        out.append(f"left term {x[0]} is not the expected {left[0]}")
    brick, copies = middle
    if not iso_to_power(arrows, y, brick, copies, p):
        out.append(f"middle term {y[0]} is not {copies} copies of {brick[0]}")
    if not iso_to_power(arrows, z, right, 1, p):
        out.append(f"right term {z[0]} is not the expected {right[0]}")
    return out


def decomposition_problems(arrows, module, summands, expected, p: int) -> list:
    """Check a decomposition against the multiset of summands it was built from.

    summands: [(rep, multiplicity, inclusions, projections)] from the program;
    expected: {dimension vector: multiplicity}.  The dimension vectors of the
    built summands are pairwise distinct, so they name the classes.
    """
    out = []
    got: dict = {}
    for rep, mult, incls, projs in summands:
        dims = tuple(int(d) for d in rep.dims)
        got[dims] = got.get(dims, 0) + mult
        if len(incls) != mult or len(projs) != mult:
            out.append(f"{dims}: {mult} copies but {len(incls)}/{len(projs)} maps")
    if got != expected:
        out.append(f"summands {sorted(got.items())} != built {sorted(expected.items())}")
    m = as_module(module)
    nverts = len(m[0])
    total = [np.zeros((m[0][v], m[0][v]), dtype=np.int64) for v in range(nverts)]
    for rep, mult, incls, projs in summands:
        for incl, proj in zip(incls, projs):
            # each copy has its own piece, isomorphic to rep
            s = as_module(incl.source)
            if as_module(proj.target)[0] != s[0] or s[0] != tuple(rep.dims):
                out.append(f"{s[0]}: witnesses of a copy disagree on its dimensions")
                continue
            i, q = as_blocks(incl), as_blocks(proj)
            if not is_hom(arrows, s, m, i, p) or not is_hom(arrows, m, s, q, p):
                out.append(f"{s[0]}: a witness is not a homomorphism")
                continue
            for v, b in enumerate(compose(q, i, p)):
                if not np.array_equal(b, np.eye(s[0][v], dtype=np.int64)):
                    out.append(f"{s[0]}: projection o inclusion != id at vertex {v + 1}")
                    break
            for v, b in enumerate(compose(i, q, p)):
                total[v] = (total[v] + b) % p
    for v in range(nverts):
        if not np.array_equal(total[v], np.eye(m[0][v], dtype=np.int64)):
            out.append(f"sum of inclusion o projection != id at vertex {v + 1}")
            break
    return out


def tits_family(cap: int, kind: str) -> set:
    """Dimension vectors of the Kronecker postprojective (d2 = d1 + 1) or
    preinjective (d1 = d2 + 1) real roots, q(d) = (d1 - d2)^2 = 1, within cap."""
    out = set()
    for d1 in range(cap + 1):
        for d2 in range(cap + 1 - d1):
            if (d1 - d2) ** 2 != 1:
                continue
            if (kind == "postprojective") == (d2 == d1 + 1):
                out.add((d1, d2))
    return out


def family_problems(arrows, members, cap: int, kind: str, p: int) -> list:
    """A knitted family must be exactly the roots of its kind under the cap,
    each member isomorphic to the normal form with that dimension vector."""
    want = tits_family(cap, kind)
    got = [tuple(int(d) for d in m.dims) for m in members]
    out = []
    if len(got) != len(want):
        out.append(f"{len(got)} members, the Tits form predicts {len(want)}")
    if set(got) != want:
        out.append(f"dimension vectors {sorted(set(got))} != roots {sorted(want)}")
        return out
    for m, dims in zip(members, got):
        k = min(dims)
        normal = modules.kron_post(k) if kind == "postprojective" else modules.kron_pre(k)
        if not iso_to_power(arrows, as_module(m), normal, 1, p):
            out.append(f"member {dims} is not the normal form")
    return out
