"""Differential test of the End(M) builder.

`reference_end_data` is the e**2 oracle: one compose + coords per pair of
basis elements gives the structure constants (asserting that every product
lies in the span), and Python loops form the regular trace form from them.
EndAlgebra forms the same trace form from the basis blocks alone and must
give the same gram matrix, radical and quotient indices bit for bit;
products in End(M) are compositions of maps and are checked against the
oracle's own constants.

`reference_idempotent_split` is the per-candidate search that the batched
small-field route `rep._exhaustive_idempotent_split` replaced; both must
give the same verdict.
"""

import itertools
import random

import numpy as np
import pytest

from arquiver import corpus, linalg, rep
from arquiver.homological import inj, proj
from arquiver.knit import enumerate_indec
from arquiver.rep import (
    EndAlgebra,
    Rep,
    direct_sum,
    hom_basis,
    is_indecomposable,
    simple,
    zero_rep,
)
from test_arseq import regular_kronecker


def reference_end_data(m: Rep):
    """(struct, gram, radical_coords, quotient_indices) by the e**2 loops."""
    hs = hom_basis(m, m)
    p = m.p
    e = hs.dim
    struct = np.zeros((e, e, e), dtype=np.int64)
    for i in range(e):
        for j in range(e):
            struct[i, j] = hs.coords_of([hs.basis[i].compose(hs.basis[j])])[:, 0]
    tr_l = np.array(
        [int(struct[mm, :, :].diagonal().sum() % p) for mm in range(e)],
        dtype=np.int64,
    )
    gram = linalg.zeros(e, e)
    for i in range(e):
        for j in range(e):
            gram[i, j] = int((struct[i, j] * tr_l).sum() % p)
    radical = linalg.kernel_basis(gram, p)
    pivots = linalg.rref(radical.T, p)[1] if radical.shape[1] else []
    quotient = [i for i in range(e) if i not in pivots]
    return struct, gram, radical, quotient


def multiply_coords(end: EndAlgebra, x, y) -> np.ndarray:
    """Coordinates of the product of two End elements, by composing maps."""
    return end.coords(end.from_coords(x).compose(end.from_coords(y)))


def reference_multiply(struct, x, y, p):
    out = np.zeros(struct.shape[0], dtype=np.int64)
    for i in np.nonzero(np.asarray(x) % p)[0]:
        for j in np.nonzero(np.asarray(y) % p)[0]:
            out = (out + int(x[i]) * int(y[j]) * struct[i, j]) % p
    return out


def _random_invertible(d: int, p: int, rng: random.Random) -> np.ndarray:
    while True:
        g = np.array(
            [[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64
        ).reshape(d, d)
        if linalg.is_invertible(g, p):
            return g


def hidden_sum(parts, rng: random.Random) -> Rep:
    """The direct sum of parts after a random change of basis at every vertex."""
    total = direct_sum(parts)[0]
    alg, p = total.algebra, total.p
    gs = [_random_invertible(d, p, rng) for d in total.dims]
    ginvs = [linalg.matrix_inverse(g, p) for g in gs]
    maps = {
        a.name: linalg.matmul(
            linalg.matmul(gs[a.target - 1], total.maps[a.name], p),
            ginvs[a.source - 1],
            p,
        )
        for a in alg.quiver.arrows
    }
    return Rep(alg, total.dims, maps)


def _corpus_modules(p: int) -> list:
    mods = []
    for alg in corpus.corpus(p).values():
        n = alg.quiver.n
        mods.append(zero_rep(alg))
        mods += [simple(alg, v) for v in range(1, n + 1)]
        mods += [proj(alg, v) for v in range(1, n + 1)]
        mods += [inj(alg, v) for v in range(1, n + 1)]
        mods += enumerate_indec(alg, cap=7).members
    return mods


def _hidden_sums(p: int, seed: int, copies: int) -> list:
    """Hidden direct sums of indecomposables over the Kronecker, A3 and loop
    algebras, each indecomposable repeated up to `copies` times."""
    rng = random.Random(seed)
    out = []
    for make, cap in ((corpus.kronecker, 5), (corpus.a3, 3), (corpus.loop, 2)):
        alg = make(p)
        indecs = enumerate_indec(alg, cap=cap).members
        for _ in range(2):
            parts = [
                m for m in indecs for _ in range(rng.randint(0, copies))
            ] or indecs[:1]
            out.append(hidden_sum(parts, rng))
    return out


def _assert_same_as_reference(m: Rep) -> EndAlgebra:
    end = EndAlgebra(m)
    _, gram, radical, quotient = reference_end_data(m)
    assert end.gram.dtype == np.int64
    assert np.array_equal(end.gram, gram)
    assert np.array_equal(end.radical_coords, radical)
    assert end.quotient.indices == quotient
    return end


@pytest.mark.parametrize("p", [32003, 7, 5])
def test_corpus_modules_match_reference(p):
    for m in _corpus_modules(p):
        _assert_same_as_reference(m)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hidden_sums_match_reference(seed):
    mods = _hidden_sums(32003, seed, copies=2)
    assert max(hom_basis(m, m).dim for m in mods) >= 20
    for m in mods:
        _assert_same_as_reference(m)


def test_large_hidden_sum_matches_reference():
    # S1^6 + S2^6 over the Kronecker quiver: End = M_6(k) x M_6(k), dim 72,
    # six-dimensional blocks at both vertices
    kron = corpus.kronecker(32003)
    m = hidden_sum([simple(kron, 1)] * 6 + [simple(kron, 2)] * 6, random.Random(6))
    end = _assert_same_as_reference(m)
    assert end.dim == 72 and end.radical_dim == 0


@pytest.mark.parametrize("p", [5, 7])
def test_small_field_sums_match_reference_and_split(p):
    # at p = 5 the two sums with dim End 5 and 6 have p <= dim End, so
    # is_indecomposable takes the exhaustive idempotent search
    rng = random.Random(p)
    kron, a3, lp = corpus.kronecker(p), corpus.a3(p), corpus.loop(p)
    cases = [
        (hidden_sum([proj(lp, 1), simple(lp, 1)], rng), 5, False),
        (hidden_sum([proj(a3, v) for v in (1, 2, 3)], rng), 6, False),
        (hidden_sum([simple(kron, 1), simple(kron, 2)], rng), 2, False),
        (hidden_sum([proj(kron, 1)], rng), 1, True),
    ]
    for m, dim_end, indec in cases:
        end = _assert_same_as_reference(m)
        assert end.dim == dim_end
        assert is_indecomposable(m) is indec


@pytest.mark.parametrize("p", [32003, 7, 5])
def test_multiply_coords_matches_composition(p):
    rng = random.Random(11)
    mods = _hidden_sums(p, 4, copies=1)
    for m in mods:
        end = EndAlgebra(m)
        struct = reference_end_data(m)[0]
        for _ in range(5):
            x = np.array([rng.randrange(p) for _ in range(end.dim)], dtype=np.int64)
            y = np.array([rng.randrange(p) for _ in range(end.dim)], dtype=np.int64)
            y[rng.randrange(end.dim)] = 0
            got = multiply_coords(end, x, y)
            want = end.coords(end.from_coords(x).compose(end.from_coords(y)))
            assert np.array_equal(got, want)
            assert np.array_equal(got, reference_multiply(struct, x, y, p))


def reference_idempotent_split(end: EndAlgebra) -> bool:
    """True iff End has a nontrivial idempotent: one map per candidate."""
    p = end.p
    ident = end.identity_coords()
    for coeffs in itertools.product(range(p), repeat=end.dim):
        v = np.array(coeffs, dtype=np.int64)
        if not v.any() or np.array_equal(v, ident):
            continue
        f = end.from_coords(v)
        if f.compose(f).equal(f):
            return True
    return False


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exhaustive_split_matches_per_candidate_search(p, monkeypatch):
    # a small chunk makes the batched search cross chunk boundaries
    monkeypatch.setattr(rep, "EXHAUSTIVE_CHUNK_ENTRIES", 64)
    kron = corpus.kronecker(p)
    # R_n(0), with dim End = n
    regular = [regular_kronecker(kron, n) for n in range(1, 11)]
    rng = random.Random(p)
    mods = regular + [
        direct_sum([regular[0], regular[0]])[0],
        direct_sum([regular[0], regular[1]])[0],
        hidden_sum([regular[1], simple(kron, 2)], rng),
        hidden_sum([simple(kron, 1), simple(kron, 2)], rng),
    ]
    mods += [m for m in _corpus_modules(p) if not m.is_zero]
    mods += _hidden_sums(p, 1, copies=1)
    verdicts = []
    for m in mods:
        end = EndAlgebra(m)
        if p**end.dim > 1 << 10:
            continue
        split = rep._exhaustive_idempotent_split(end)
        assert split == reference_idempotent_split(end), m
        verdicts.append((end.dim, split))
    assert {split for _, split in verdicts} == {True, False}
    assert max(dim for dim, _ in verdicts) >= 4


def reference_is_indecomposable(m: Rep) -> bool:
    """The verdict of is_indecomposable through the full large-p path: E/rad
    commutative with a 1-dimensional Frobenius fixed space, even when
    dim E/rad = 1."""
    end = EndAlgebra(m)
    p = m.p
    if p <= end.dim and p**end.dim <= rep.EXHAUSTIVE_END_LIMIT:
        return not rep._exhaustive_idempotent_split(end)
    end.require_radical()
    if not end.quotient_commutative():
        return False
    fr = end.frobenius_matrix()
    fixed = linalg.kernel_basis((fr - linalg.eye(end.quotient.dim)) % p, p)
    return fixed.shape[1] == 1


def _verdict(fn, m):
    try:
        return fn(m)
    except rep.PrimeTooSmall as exc:
        return type(exc)


def test_local_endomorphism_rings_skip_the_frobenius_test(monkeypatch):
    def refuse(self):
        raise AssertionError("frobenius_matrix called")

    monkeypatch.setattr(EndAlgebra, "frobenius_matrix", refuse)
    mods = [m for m in _corpus_modules(32003) if not m.is_zero]
    ends = [rep.end_algebra(m) for m in mods]
    # bricks (End = k) and a local End of dimension 2 (P1 over the loop)
    assert sum(end.dim == 1 for end in ends) >= 20
    assert any(end.dim == 2 and end.quotient.dim == 1 for end in ends)
    for m in mods:
        assert is_indecomposable(m)
    kron = corpus.kronecker(32003)
    split = hidden_sum([simple(kron, 1), simple(kron, 2)], random.Random(1))
    with pytest.raises(AssertionError, match="frobenius_matrix called"):
        is_indecomposable(split)


@pytest.mark.parametrize("p", [7, 32003])
def test_indecomposable_verdicts_match_full_path(p):
    mods = [m for m in _corpus_modules(p) if not m.is_zero]
    for seed in (1, 2):
        mods += _hidden_sums(p, seed, copies=2)
    verdicts = []
    for m in mods:
        want = _verdict(reference_is_indecomposable, m)
        assert _verdict(is_indecomposable, m) == want, m
        verdicts.append(want)
    assert {True, False} <= set(verdicts)


@pytest.mark.parametrize("p", [7, 32003])
def test_quotient_checks_build_only_the_maps_they_read(p):
    # quotient_commutative and frobenius_matrix read the basis maps at the
    # quotient indices only; the oracle is the same formula over the whole
    # basis, built after them
    mods = [m for m in _corpus_modules(p) if not m.is_zero]
    for seed in (1, 2):
        mods += _hidden_sums(p, seed, copies=2)
    kron = corpus.kronecker(p)
    mods.append(hidden_sum([simple(kron, 1), simple(kron, 2)], random.Random(p)))
    verdicts = set()
    for m in mods:
        end = EndAlgebra(m)
        if p <= end.dim or end.quotient.dim < 2:
            continue
        commutative = end.quotient_commutative()
        fr = end.frobenius_matrix()
        assert "basis" not in vars(end._hs)
        b = end.basis
        assert commutative == all(
            end.quotient.contains(end.coords(b[i].compose(b[j]) - b[j].compose(b[i])))
            for i, j in itertools.combinations(end.quotient.indices, 2)
        )
        powered = [
            rep.RepMap(m, m, tuple(linalg.matrix_power(x, p, p) for x in b[i].blocks))
            for i in end.quotient.indices
        ]
        assert np.array_equal(fr, end.quotient.to_coords(end._hs.coords_of(powered)))
        verdicts.add(commutative)
    assert verdicts == {True, False}
