"""Differential test of the rref kernel and of the back-fill of kernel_basis
and solve.

`oracle_rref`, `oracle_kernel_basis` and `oracle_solve` are the routines
linalg used before its two-mode kernel: one full-matrix `np.outer` update
and `% p` per pivot, and Python loops for the back-fill.  A matrix has one
reduced row echelon form, so both modes of the new kernel must give the
same (R, pivots) bit for bit, in int64 with entries in [0, p).
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arquiver import corpus, linalg
from arquiver.homological import inj, proj
from arquiver.knit import enumerate_indec
from arquiver.rep import Rep, hom_basis, simple

BIG_PRIME = 3037000493  # largest kind of modulus accepted: (p-1)**2 < 2**63


def oracle_rref(m, p):
    r = linalg.as_matrix(m, p).copy()
    rows, cols = r.shape
    pivots = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(r[pr:, c])[0]
        if nz.size == 0:
            continue
        i = pr + int(nz[0])
        if i != pr:
            r[[pr, i]] = r[[i, pr]]
        r[pr] = (r[pr] * pow(int(r[pr, c]), p - 2, p)) % p
        col = r[:, c].copy()
        col[pr] = 0
        r = (r - np.outer(col, r[pr])) % p
        pivots.append(c)
        pr += 1
    return r, pivots


def oracle_kernel_basis(m, p):
    a = linalg.as_matrix(m, p)
    rows, cols = a.shape
    r, pivots = oracle_rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    out = linalg.zeros(cols, len(free))
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for i, pc in enumerate(pivots):
            out[pc, j] = (-r[i, fc]) % p
    return out


def oracle_solve(m, b, p):
    a = linalg.as_matrix(m, p)
    bm = np.asarray(b, dtype=np.int64)
    vector_rhs = bm.ndim == 1
    bm = linalg.as_matrix(bm, p)
    rows, cols = a.shape
    aug, pivots = oracle_rref(np.hstack([a, bm]), p)
    if any(c >= cols for c in pivots):
        return None
    x = linalg.zeros(cols, bm.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = aug[i, cols:]
    return x[:, 0] if vector_rhs else x


@pytest.fixture
def blocked_calls(monkeypatch):
    """Counts the calls rref makes into the blocked mode."""
    calls = []
    original = linalg._blocked

    def spy(r, p):
        calls.append(r.shape)
        return original(r, p)

    monkeypatch.setattr(linalg, "_blocked", spy)
    return calls


def assert_same(m, p):
    r, piv = linalg.rref(m, p)
    r0, piv0 = oracle_rref(m, p)
    assert piv == piv0
    assert all(type(c) is int for c in piv)
    assert r.dtype == np.int64
    assert r.shape == r0.shape
    assert np.array_equal(r, r0)
    assert r.size == 0 or (r.min() >= 0 and r.max() < p)
    k = linalg.kernel_basis(m, p)
    assert k.dtype == np.int64
    assert np.array_equal(k, oracle_kernel_basis(m, p))


def assert_modes_agree(m, p):
    """Both modes on the same matrix: for inputs too large for the oracle."""
    a = linalg.as_matrix(m, p)
    rs, bs = a.copy(), a.copy()
    piv_s = linalg._pivot_loop(rs, p)[0]
    piv_b = linalg._blocked(bs, p)
    assert piv_s == piv_b
    assert np.array_equal(rs, bs)
    k = linalg.kernel_basis(a, p)
    assert k.shape[1] == a.shape[1] - len(piv_s)
    assert not linalg.matmul(a, k, p).any()


def dense(rng, rows, cols, p, rank=None):
    if rank is None:
        return rng.integers(0, p, (rows, cols))
    left = rng.integers(0, p, (rows, rank))
    right = rng.integers(0, p, (rank, cols))
    return linalg.matmul(left, right, p)


# -- the two modes, on either side of the threshold ---------------------------


def test_threshold_constants_are_exact_for_the_default_prime():
    p = linalg.DEFAULT_PRIME
    assert linalg.PANEL * (p - 1) ** 2 < linalg.FLOAT_EXACT_LIMIT
    assert linalg.BLOCKED_MIN_NONZEROS <= linalg.BLOCKED_MIN_ENTRIES


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize(
    "shape, blocked",
    [
        ((128, 128), True),  # exactly BLOCKED_MIN_ENTRIES entries
        ((128, 127), False),  # one column short
        ((64, 257), True),  # wide, ragged last panel
        ((300, 60), True),  # tall
    ],
)
def test_dense_each_side_of_the_size_threshold(p, shape, blocked, blocked_calls):
    rng = np.random.default_rng(1000 + p)
    m = dense(rng, *shape, p)
    # over F_2 about half the entries are zero; both counts stay above 4096
    assert np.count_nonzero(m % p) >= linalg.BLOCKED_MIN_NONZEROS
    assert_same(m, p)
    assert bool(blocked_calls) == blocked


@pytest.mark.parametrize("extra", [-1, 0])
def test_nonzero_threshold(extra, blocked_calls):
    p = 32003
    rng = np.random.default_rng(7)
    m = np.zeros((160, 160), dtype=np.int64)
    flat = rng.permutation(m.size)[: linalg.BLOCKED_MIN_NONZEROS + extra]
    m.flat[flat] = rng.integers(1, p, flat.size)
    assert_same(m, p)
    blocked_calls.clear()
    linalg.rref(m, p)
    assert blocked_calls == ([m.shape] if extra == 0 else [])


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("rank", [0, 1, 31, 33, 70])
def test_dense_rank_deficient(p, rank):
    rng = np.random.default_rng(rank * 31 + p)
    m = dense(rng, 150, 190, p, rank=rank)
    if rank:
        m[:, 40:110] = 0  # two whole panels without a pivot
    m[5] = m[7]
    assert_same(m, p)


def test_all_entries_p_minus_one(blocked_calls):
    for p in (2, 3, 32003):
        for shape in ((5, 7), (130, 140)):
            assert_same(np.full(shape, p - 1, dtype=np.int64), p)
    p = 32003
    m = np.full((140, 140), p - 1, dtype=np.int64)
    np.fill_diagonal(m, 0)
    assert_same(m, p)
    assert blocked_calls


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (0, 200), (200, 0)])
def test_empty_shapes(shape):
    for p in (2, 32003):
        r, piv = linalg.rref(np.zeros(shape, dtype=np.int64), p)
        assert r.shape == shape and r.dtype == np.int64 and piv == []
        assert_same(np.zeros(shape, dtype=np.int64), p)


def test_big_prime_takes_the_int64_loop(blocked_calls):
    rng = np.random.default_rng(11)
    for shape in ((130, 130), (40, 50)):
        m = rng.integers(0, BIG_PRIME, shape)
        m[:, 3] = m[:, 0]
        assert_same(m, BIG_PRIME)
    assert_same(np.full((130, 130), BIG_PRIME - 1, dtype=np.int64), BIG_PRIME)
    assert blocked_calls == []


@given(
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from([2, 3, 5, 32003, BIG_PRIME]),
    st.integers(0, 2**32 - 1),
)
def test_small_random_matrices(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, (rows, cols))
    m[rng.random((rows, cols)) < 0.5] = 0
    assert_same(m, p)
    b = rng.integers(0, p, (rows, 2))
    for rhs in (b, b[:, 0]):
        x, x0 = linalg.solve(m, rhs, p), oracle_solve(m, rhs, p)
        assert (x is None) == (x0 is None)
        if x is not None:
            assert x.dtype == np.int64 and np.array_equal(x, x0)


def test_solve_matches_oracle_on_large_systems(blocked_calls):
    p = 32003
    rng = np.random.default_rng(5)
    m = dense(rng, 140, 150, p, rank=120)
    consistent = linalg.matmul(m, rng.integers(0, p, (150, 3)), p)
    for b in (consistent, rng.integers(0, p, (140, 3)), consistent[:, 0]):
        x, x0 = linalg.solve(m, b, p), oracle_solve(m, b, p)
        assert (x is None) == (x0 is None)
        if x is not None:
            assert np.array_equal(x, x0)
    assert blocked_calls


# -- Hom systems: the matrices rref meets in the package ----------------------


def hom_system(m, n, monkeypatch):
    """The commuting system hom_basis hands to kernel_basis."""
    seen = []
    original = linalg.kernel_basis

    def capture(a, p):
        seen.append(np.array(a))
        return original(a, p)

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "kernel_basis", capture)
        hom_basis.__wrapped__(m, n)
    return seen[0]


def kron_post(alg, k):
    a = np.vstack([np.eye(k, dtype=np.int64), np.zeros((1, k), dtype=np.int64)])
    b = np.vstack([np.zeros((1, k), dtype=np.int64), np.eye(k, dtype=np.int64)])
    return Rep(alg, (k, k + 1), {"a": a, "b": b})


def hidden(m, seed):
    """m after a seeded random change of basis at every vertex."""
    rng = random.Random(seed)
    p = m.p
    gs = []
    for d in m.dims:
        while True:
            g = np.array([rng.randrange(p) for _ in range(d * d)], dtype=np.int64)
            g = g.reshape(d, d)
            if linalg.is_invertible(g, p):
                gs.append(g)
                break
    maps = {
        a.name: linalg.matmul(
            linalg.matmul(gs[a.target - 1], m.maps[a.name], m.p),
            linalg.matrix_inverse(gs[a.source - 1], m.p),
            m.p,
        )
        for a in m.algebra.quiver.arrows
    }
    return Rep(m.algebra, m.dims, maps)


@pytest.mark.parametrize("p", [3, 32003])
def test_corpus_hom_systems(p, monkeypatch):
    for alg in corpus.corpus(p).values():
        n = alg.quiver.n
        mods = [simple(alg, v) for v in range(1, n + 1)]
        mods += [proj(alg, v) for v in range(1, n + 1)]
        mods += [inj(alg, v) for v in range(1, n + 1)]
        mods += enumerate_indec(alg, cap=5).members
        for src in mods:
            for tgt in mods[::2]:
                assert_same(hom_system(src, tgt, monkeypatch), p)


@pytest.mark.parametrize("k", [6, 12])
def test_end_kronecker_postprojective_against_oracle(k, monkeypatch):
    alg = corpus.kronecker()
    m = kron_post(alg, k)
    for rep in (m, hidden(m, seed=k)):
        assert_same(hom_system(rep, rep, monkeypatch), alg.p)


@pytest.mark.parametrize("k, seed", [(16, 3), (24, 4)])
def test_end_kronecker_postprojective_large(k, seed, monkeypatch, blocked_calls):
    alg = corpus.kronecker()
    m = kron_post(alg, k)
    sparse = hom_system(m, m, monkeypatch)
    assert_modes_agree(sparse, alg.p)
    assert linalg.kernel_basis(sparse, alg.p).shape[1] == 1  # End P(k) = k
    if k == 16:
        # hidden by a change of basis the system is dense enough to go blocked
        h = hidden(m, seed)
        system = hom_system(h, h, monkeypatch)
        blocked_calls.clear()
        linalg.rref(system, alg.p)
        assert len(blocked_calls) == 1
        assert_modes_agree(system, alg.p)
