"""Differential test of the Hom-system builder in `rep.hom_basis`.

`oracle_system` is the builder hom_basis used before: per arrow a: s -> t,
the rows [kron(I, M_a^T) at vertex t | -kron(N_a, I) at vertex s] on the
row-major vec of f, reduced mod p block by block.  hom_basis now writes
the same rows through strided views and leaves the reduction to rref, so
its system must agree with the oracle's mod p and its basis must be the
kernel basis of the oracle's system, bit for bit.  The system hom_basis
builds is captured where it is handed to `linalg.kernel_basis`.
"""

import random

import numpy as np
import pytest

from arquiver import corpus, linalg, rep
from arquiver.rep import Rep, simple, zero_rep
from test_end_algebra import _corpus_modules, _hidden_sums
from test_rref_kernel import BIG_PRIME


def oracle_system(m: Rep, n: Rep) -> np.ndarray:
    p = m.p
    sizes = [n.dims[i] * m.dims[i] for i in range(len(m.dims))]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rows = []
    for a in m.algebra.quiver.arrows:
        s, t = a.source, a.target
        r = n.dim_at(t) * m.dim_at(s)
        if r == 0:
            continue
        block = linalg.zeros(r, total)
        if sizes[t - 1]:
            block[:, offsets[t - 1] : offsets[t]] = np.kron(
                linalg.eye(n.dim_at(t)), m.maps[a.name].T
            )
        if sizes[s - 1]:
            block[:, offsets[s - 1] : offsets[s]] = (
                block[:, offsets[s - 1] : offsets[s]]
                - np.kron(n.maps[a.name], linalg.eye(m.dim_at(s)))
            ) % p
        rows.append(block % p)
    return np.vstack(rows) if rows else linalg.zeros(0, total)


def built_system(m: Rep, n: Rep, monkeypatch):
    """(system, HomSpace) of an uncached hom_basis(m, n)."""
    seen = []
    kernel_basis = linalg.kernel_basis

    def capture(system, p):
        seen.append(system)
        return kernel_basis(system, p)

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "kernel_basis", capture)
        hs = rep.hom_basis.__wrapped__(m, n)
    (system,) = seen
    return system, hs


def assert_same_as_oracle(m: Rep, n: Rep, monkeypatch) -> None:
    p = m.p
    want = oracle_system(m, n)
    system, hs = built_system(m, n, monkeypatch)
    assert system.dtype == np.int64
    assert system.shape == want.shape
    assert np.array_equal(system % p, want)
    kb = linalg.kernel_basis(want, p)
    assert hs.dim == kb.shape[1]
    for j, f in enumerate(hs.basis):
        assert np.array_equal(f.flatten(), kb[:, j])


def _pairs(mods: list):
    """All ordered pairs of modules over the same algebra."""
    return [(m, n) for m in mods for n in mods if m.algebra is n.algebra]


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_corpus_systems_match_oracle(p, monkeypatch):
    mods = _corpus_modules(p)
    pairs = _pairs(mods)
    # the loop algebra (s = t), and modules that are zero at some vertex
    assert any(m.algebra.quiver.n == 1 and m.total_dim > 1 for m, _ in pairs)
    assert any(0 in m.dims and not m.is_zero for m, _ in pairs)
    for m, n in pairs:
        assert_same_as_oracle(m, n, monkeypatch)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_hidden_sum_systems_match_oracle(p, monkeypatch):
    mods = _hidden_sums(p, seed=p, copies=2)
    for m, n in _pairs(mods):
        assert_same_as_oracle(m, n, monkeypatch)


def _random_module(alg, dims, rng: random.Random) -> Rep:
    p = alg.p
    maps = {
        a.name: np.array(
            [
                [rng.randrange(p) for _ in range(dims[a.source - 1])]
                for _ in range(dims[a.target - 1])
            ],
            dtype=np.int64,
        ).reshape(dims[a.target - 1], dims[a.source - 1])
        for a in alg.quiver.arrows
    }
    return Rep(alg, dims, maps)


def test_big_prime_systems_match_oracle(monkeypatch):
    # entries near 2**31.5: products in the rref updates come close to 2**63.
    # int64 matmul refuses this modulus, so the modules are random matrices
    # over quivers without relations (and the 1-dimensional loop modules)
    rng = random.Random(7)
    loop = corpus.loop(BIG_PRIME)
    assert_same_as_oracle(simple(loop, 1), simple(loop, 1), monkeypatch)
    assert_same_as_oracle(zero_rep(loop), simple(loop, 1), monkeypatch)
    for alg in (corpus.kronecker(BIG_PRIME), corpus.a3(BIG_PRIME)):
        n_v = alg.quiver.n
        mods = [zero_rep(alg), simple(alg, 1), simple(alg, n_v)]
        for _ in range(6):
            dims = tuple(rng.randrange(4) for _ in range(n_v))
            mods.append(_random_module(alg, dims, rng))
        for m, n in _pairs(mods):
            assert_same_as_oracle(m, n, monkeypatch)

