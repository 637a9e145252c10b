"""Differential test of the Fitting splitter.

The reference code below is what `decompose` and `right_minimal_reduce`
ran before both moved onto `fitting_pieces`:

- `reference_split_indecomposables` found its pieces from sympy's integer
  characteristic polynomial of the block-diagonal total_dim x total_dim
  matrix of each candidate, factored with sympy's factor_list (not with
  `rep._factor_mod`, which is code under test);
- `reference_right_minimal_reduce` built the idempotent from an extended
  gcd of X^a and the rest of the minimal polynomial (CRT), polished it by
  Newton iteration and kept the image of 1 - e.

The new code must give the same summands, witnesses and reduced maps bit
for bit.
"""

import random

import numpy as np
import pytest
import sympy

from arquiver import approx, corpus, linalg, rep
from arquiver.approx import Subcat, canonical_precover, right_minimal_reduce
from arquiver.homological import inj, proj
from arquiver.knit import enumerate_indec
from arquiver.rep import (
    EndAlgebra,
    PrimeTooSmall,
    RepMap,
    Summand,
    decompose,
    direct_sum,
    end_algebra,
    fitting_pieces,
    hom_basis,
    identity_map,
    image_of,
    is_indecomposable,
    iso,
    kernel_of,
    simple,
    zero_map,
    zero_rep,
)
from test_end_algebra import _corpus_modules, _hidden_sums, hidden_sum, multiply_coords
from test_fpoly import sympy_factor_list

# -- reference splitter: integer characteristic polynomial --------------------


def reference_charpoly(a: np.ndarray, p: int) -> list:
    if a.shape[0] == 0:
        return [1]
    x = sympy.symbols("x")
    cp = sympy.Matrix(a.tolist()).charpoly(x)
    return [int(c) % p for c in reversed(cp.all_coeffs())]


def reference_pieces(f: RepMap) -> list:
    """[(factor, subrep, inclusion)] in factor_list order of the charpoly."""
    m, p = f.source, f.p
    total = m.total_dim
    full = linalg.zeros(total, total)
    off = 0
    for b in f.blocks:
        d = b.shape[0]
        full[off : off + d, off : off + d] = b
        off += d
    pieces = []
    for fc, _ in sympy_factor_list(reference_charpoly(full, p), p):
        g = rep._poly_of_endo(f, fc)
        g_power = RepMap(
            m,
            m,
            tuple(linalg.matrix_power(b, total, p) for b in g.blocks),
            check=False,
        )
        pieces.append((fc, *kernel_of(g_power)))
    return pieces


def reference_split_once(m, rng):
    end = end_algebra(m)
    p = m.p

    def candidates():
        for b in end.basis:
            yield b
        for _ in range(64):
            coeffs = [rng.randrange(p) for _ in range(end.dim)]
            yield end.from_coords(np.array(coeffs, dtype=np.int64))

    for f in candidates():
        pieces = [(sub, incl) for _, sub, incl in reference_pieces(f)]
        if len(pieces) < 2:
            continue
        if sum(s.total_dim for s, _ in pieces) != m.total_dim:
            continue
        if any(s.total_dim == 0 for s, _ in pieces):
            continue
        return pieces
    return None


def reference_split_indecomposables(m, rng):
    if m.is_zero:
        return []
    if is_indecomposable(m):
        ident = identity_map(m)
        return [(m, ident, ident)]
    pieces = reference_split_once(m, rng)
    assert pieces is not None
    p = m.p
    combined = [
        np.hstack([incl.block(v) for _, incl in pieces])
        for v in range(1, m.algebra.quiver.n + 1)
    ]
    inverses = [linalg.matrix_inverse(c, p) for c in combined]
    assert all(inv is not None for inv in inverses)
    out = []
    row_off = [0] * len(m.dims)
    for sub, incl in pieces:
        proj_blocks = []
        for i in range(len(m.dims)):
            d = sub.dims[i]
            proj_blocks.append(inverses[i][row_off[i] : row_off[i] + d, :])
            row_off[i] += d
        pr = RepMap(m, sub, tuple(proj_blocks), check=True)
        for piece, sub_incl, sub_proj in reference_split_indecomposables(sub, rng):
            out.append((piece, incl.compose(sub_incl), sub_proj.compose(pr)))
    return out


def reference_decompose(m, seed):
    rng = random.Random(seed)
    groups = []
    for piece, incl, pr in reference_split_indecomposables(m, rng):
        for g in groups:
            if iso(g.rep, piece, seed=seed) is not None:
                g.multiplicity += 1
                g.inclusions.append(incl)
                g.projections.append(pr)
                break
        else:
            groups.append(Summand(piece, 1, [incl], [pr]))
    return groups


# -- reference right-minimal reduction: CRT + Newton idempotent ---------------


def _trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _psub(f, g, p):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _trim([(a - b) % p for a, b in zip(f, g)])


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _pscale(f, c, p):
    return _trim([(a * c) % p for a in f])


def _pdivmod(f, g, p):
    f = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) >= len(g) and _trim(f):
        f = _trim(f)
        if len(f) < len(g):
            break
        c = (f[-1] * inv_lead) % p
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = (f[d + i] - c * b) % p
    return _trim(q), _trim(f)


def _pgcdex(f, g, p):
    """(u, v, d) with u*f + v*g = d, d monic."""
    r0, r1 = _trim(list(f)), _trim(list(g))
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1, p), p)
        v0, v1 = v1, _psub(v0, _pmul(q, v1, p), p)
    if r0:
        c = pow(r0[-1], p - 2, p)
        r0, u0, v0 = _pscale(r0, c, p), _pscale(u0, c, p), _pscale(v0, c, p)
    return u0, v0, r0


def reference_minpoly(end, w):
    p = end.p
    powers = [end.identity_coords()]
    while True:
        mat = np.stack(powers, axis=1)
        nxt = multiply_coords(end, powers[-1], w)
        ok, c = linalg.in_span(mat, nxt, p)
        if ok:
            return _trim([(-int(ci)) % p for ci in c] + [1])
        powers.append(nxt)


def _poly_eval_coords(end, coeffs, w):
    p = end.p
    acc = np.zeros(end.dim, dtype=np.int64)
    power = end.identity_coords()
    for c in coeffs:
        acc = (acc + (c % p) * power) % p
        power = multiply_coords(end, power, w)
    return acc


def reference_non_nilpotent(end, v_basis):
    p = end.p
    k = v_basis.shape[1]
    if k == 0:
        return None, None, None

    def candidates():
        for j in range(k):
            yield v_basis[:, j]
        rng = random.Random(17)
        for _ in range(64):
            coeffs = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
            yield (v_basis @ coeffs) % p

    for w in candidates():
        if end.quotient.contains(w):
            continue
        mp = reference_minpoly(end, w)
        a = 0
        while a < len(mp) and mp[a] % p == 0:
            a += 1
        if a < len(mp) - 1:
            return w, mp, a
    return None, None, None


def reference_right_minimal_reduce(nu):
    src = nu.source
    if src.is_zero:
        return nu
    end = end_algebra(src)
    p = src.p
    if p <= end.dim:
        raise PrimeTooSmall("reference needs p > dim End")
    mat = np.stack([nu.compose(b).flatten() for b in end.basis], axis=1)
    v_basis = linalg.kernel_basis(mat, p)
    w, mp, a = reference_non_nilpotent(end, v_basis)
    if w is None:
        return nu
    if a == 0:
        return zero_map(zero_rep(src.algebra), nu.target)
    xa = [0] * a + [1]
    upoly, _, gcd = _pgcdex(xa, _trim(list(mp[a:])), p)
    assert len(gcd) == 1
    h = _pscale(_pmul(upoly, xa, p), pow(int(gcd[0]), p - 2, p), p)
    e = _poly_eval_coords(end, h, w)
    for _ in range(end.dim + 4):
        sq = multiply_coords(end, e, e)
        if np.array_equal(sq, e):
            break
        e = (3 * sq - 2 * multiply_coords(end, sq, e)) % p
    else:
        raise AssertionError("idempotent lifting did not converge")
    sub, incl = image_of(end.from_coords((end.identity_coords() - e) % p))
    assert sub.total_dim < src.total_dim
    return reference_right_minimal_reduce(nu.compose(incl))


# -- comparison helpers ---------------------------------------------------------


def _rep_key(m):
    return (m.dims, [(k, m.maps[k].tobytes()) for k in sorted(m.maps)])


def _map_key(f):
    return (_rep_key(f.source), _rep_key(f.target), [b.tobytes() for b in f.blocks])


def _decomposition_key(groups):
    return [
        (
            _rep_key(g.rep),
            g.multiplicity,
            [_map_key(f) for f in g.inclusions],
            [_map_key(f) for f in g.projections],
        )
        for g in groups
    ]


def _assert_same_decomposition(m, seed=1):
    got = decompose(m, seed=seed)
    want = reference_decompose(m, seed)
    assert _decomposition_key(got) == _decomposition_key(want)
    return got


def _small_field_sums(p: int, seed: int) -> list:
    """Hidden sums whose End algebras stay small enough for p = 5 or 7."""
    rng = random.Random(seed)
    kron, a3, lp = corpus.kronecker(p), corpus.a3(p), corpus.loop(p)
    return [
        hidden_sum([simple(kron, 1), simple(kron, 2)], rng),
        hidden_sum([simple(kron, 1), simple(kron, 1)], rng),
        hidden_sum([proj(kron, 1), simple(kron, 2)], rng),
        hidden_sum([simple(a3, 1), simple(a3, 2), simple(a3, 3)], rng),
        hidden_sum([proj(a3, v) for v in (1, 2, 3)], rng),
        hidden_sum([proj(lp, 1), simple(lp, 1)], rng),
        hidden_sum([simple(lp, 1), simple(lp, 1)], rng),
    ]


# -- decompose ------------------------------------------------------------------


@pytest.mark.parametrize("p", [32003, 7, 5])
def test_corpus_decompositions_match_reference(p):
    for m in _corpus_modules(p):
        if m.is_zero:
            continue
        _assert_same_decomposition(m)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hidden_sum_decompositions_match_reference(seed):
    splits = 0
    for m in _hidden_sums(32003, seed, copies=2):
        got = _assert_same_decomposition(m, seed)
        splits += sum(g.multiplicity for g in got) > 1
    assert splits >= 3


@pytest.mark.parametrize("p", [7, 5])
def test_small_field_decompositions_match_reference(p):
    for seed in (1, 2):
        for m in _small_field_sums(p, seed):
            got = _assert_same_decomposition(m, seed)
            assert sum(g.multiplicity for g in got) >= 2


@pytest.mark.parametrize("p", [32003, 7, 5])
def test_fitting_pieces_match_charpoly_pieces(p):
    # every piece, in order, for random endomorphisms of hidden sums
    rng = random.Random(p)
    mods = _small_field_sums(p, 3) + (_hidden_sums(p, 5, copies=1) if p > 7 else [])
    for m in mods:
        end = EndAlgebra(m)
        for _ in range(4):
            w = np.array([rng.randrange(p) for _ in range(end.dim)], dtype=np.int64)
            got = fitting_pieces(end, w)
            want = reference_pieces(end.from_coords(w))
            assert [g for g, _, _ in got] == [g for g, _, _ in want]
            if len(want) > 1:
                assert [_map_key(i) for _, _, i in got] == [
                    _map_key(i) for _, _, i in want
                ]


@pytest.mark.parametrize(
    "eigen, dims",
    [((1, 2, 2), (1, 2)), ((1, 1, 2), (1, 2)), ((2, 1, 1), (1, 2))],
)
def test_fitting_pieces_follow_charpoly_multiplicity(eigen, dims):
    # on S1^3 over the Kronecker algebra End = M_3; w = diag(eigen)
    alg = corpus.kronecker()
    m = direct_sum([simple(alg, 1)] * 3)[0]
    end = EndAlgebra(m)
    w = end.coords(RepMap(m, m, (np.diag(eigen), linalg.zeros(0, 0))))
    pieces = fitting_pieces(end, w)
    want = reference_pieces(end.from_coords(w))
    assert [g for g, _, _ in pieces] == [g for g, _, _ in want]
    assert tuple(s.total_dim for _, s, _ in pieces) == dims
    minpoly_order = [g for g, _ in sympy_factor_list(end.minpoly(w), alg.p)]
    if eigen == (1, 2, 2):
        # the minimal polynomial (X-1)(X-2) lists X-2 first; its
        # multiplicity 2 in the charpoly puts it second
        assert minpoly_order != [g for g, _, _ in pieces]


def test_fitting_pieces_irreducible_quadratic():
    # X^2 + 1 is irreducible at p = 32003 (p = 3 mod 4): degree sorts first
    alg = corpus.kronecker()
    m = direct_sum([simple(alg, 1)] * 3)[0]
    end = EndAlgebra(m)
    p = alg.p
    block = np.array([[0, p - 1, 0], [1, 0, 0], [0, 0, 5]], dtype=np.int64)
    w = end.coords(RepMap(m, m, (block, linalg.zeros(0, 0))))
    pieces = fitting_pieces(end, w)
    assert [g for g, _, _ in pieces] == [[p - 5, 1], [1, 0, 1]]
    assert [s.total_dim for _, s, _ in pieces] == [1, 2]


# -- right_minimal_reduce ------------------------------------------------------


def _assert_same_reduction(nu):
    got = right_minimal_reduce(nu)
    want = reference_right_minimal_reduce(nu)
    assert _map_key(got) == _map_key(want)
    assert approx.right_minimality_certificate(got)
    return got


def _random_map(src, tgt, rng):
    hs = hom_basis(src, tgt)
    coeffs = np.array([rng.randrange(src.p) for _ in range(hs.dim)], dtype=np.int64)
    return hs.from_coords(coeffs)


def test_corpus_precovers_reduce_like_reference():
    reduced = 0
    for alg in corpus.corpus().values():
        members = enumerate_indec(alg, cap=5).members
        sub = Subcat(alg, "finite", members)
        targets = members + [inj(alg, v) for v in range(1, alg.quiver.n + 1)]
        for t in targets:
            nu, _ = canonical_precover(sub, t)
            out = _assert_same_reduction(nu)
            reduced += out.source.total_dim < nu.source.total_dim
    assert reduced >= 10


@pytest.mark.parametrize("p", [32003, 7, 5])
def test_random_maps_from_hidden_sums_reduce_like_reference(p):
    rng = random.Random(100 + p)
    kron, a3, lp = corpus.kronecker(p), corpus.a3(p), corpus.loop(p)
    cases = [
        ([simple(kron, 1), simple(kron, 1)], [simple(kron, 1)]),
        ([simple(kron, 2), proj(kron, 2)], [simple(kron, 2)]),
        ([proj(kron, 1), simple(kron, 2)], [simple(kron, 1)]),
        ([proj(a3, 1), proj(a3, 2)], [simple(a3, 1)]),
        ([simple(a3, 1), proj(a3, 3)], [proj(a3, 3)]),
        ([simple(lp, 1), simple(lp, 1)], [simple(lp, 1)]),
        ([simple(lp, 1), simple(lp, 1)], [proj(lp, 1)]),
    ]
    if p > 7:
        # dim End of these sources is at least 5, so they need p > 5
        indecs = enumerate_indec(kron, cap=7).members
        cases += [
            ([proj(lp, 1), simple(lp, 1)], [simple(lp, 1)]),
            ([indecs[i] for i in (0, 0, 1, 2, 3)], [indecs[2]]),
            ([indecs[i] for i in (1, 1, 2, 3)], [indecs[3], indecs[1]]),
        ]
    reduced = 0
    for parts, tparts in cases:
        src = hidden_sum(parts, rng)
        tgt = hidden_sum(tparts, rng)
        for _ in range(2):
            nu = _random_map(src, tgt, rng)
            out = _assert_same_reduction(nu)
            reduced += out.source.total_dim < src.total_dim
    assert reduced >= len(cases)


def test_zero_map_reduces_like_reference():
    alg = corpus.kronecker()
    src = hidden_sum([simple(alg, 1), proj(alg, 1)], random.Random(3))
    out = _assert_same_reduction(zero_map(src, simple(alg, 2)))
    assert out.source.is_zero


# -- iso shares the candidate sweep ---------------------------------------------


def reference_iso_sweep(m, n, seed):
    hs = hom_basis(m, n)
    for f in hs.basis:
        if f.is_invertible():
            return f
    rng = random.Random(seed)
    for _ in range(64):
        coeffs = np.array([rng.randrange(m.p) for _ in range(hs.dim)], dtype=np.int64)
        f = hs.from_coords(coeffs)
        if f.is_invertible():
            return f
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_iso_witnesses_match_reference_sweep(seed):
    rng = random.Random(seed)
    random_phase = 0
    for _ in range(2):
        for m in _hidden_sums(32003, seed, copies=2):
            parts = [g.rep for g in decompose(m) for _ in range(g.multiplicity)]
            n = hidden_sum(parts, rng)
            want = reference_iso_sweep(m, n, seed)
            assert want is not None
            assert _map_key(iso(m, n, seed=seed)) == _map_key(want)
            random_phase += not any(f.is_invertible() for f in hom_basis(m, n).basis)
    assert random_phase >= 2


def test_decompose_frees_intermediate_modules(monkeypatch):
    # a split module's cached End and Hom spaces refer back to it; decompose
    # must not leave such cycles for the garbage collector
    import gc
    import weakref

    made = []

    def recording_kernel_of(f):
        sub, incl = kernel_of(f)
        made.append(weakref.ref(sub))
        return sub, incl

    monkeypatch.setattr(rep, "kernel_of", recording_kernel_of)
    alg = corpus.kronecker()
    m = hidden_sum([simple(alg, 1)] * 3 + [simple(alg, 2)] * 3, random.Random(1))
    gc.disable()
    try:
        groups = decompose(m)
        alive = [r() for r in made if r() is not None]
    finally:
        gc.enable()
    assert sorted(g.multiplicity for g in groups) == [3, 3]
    assert len(made) > len(alive) == 6
    assert all(sub.total_dim == 1 for sub in alive)
