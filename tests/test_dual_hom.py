"""Hom(M, N) read off Hom(DN, DM) over the opposite algebra (`rep._dual_hom`).

Once Hom(DN, DM) is solved over the opposite algebra, `hom_basis(M, N)`
transposes its basis maps and brings them to normal form instead of
solving the commuting system of (M, N).  A subspace has one basis in
kernel_basis normal form, so the answer must be the direct solve's, bit
for bit: `solved` (the system `rep._hom_system` builds, handed to
`linalg.kernel_basis`) is the oracle.  Every module is a seeded hidden
direct sum over an algebra built for the test, so no memo of another test
answers for it.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from arquiver import corpus, linalg, rep
from arquiver.knit import enumerate_indec
from arquiver.rep import HomSpace, Rep, dual, hom_basis, simple, zero_rep
from test_end_algebra import hidden_sum

ALGEBRAS = {"kronecker": corpus.kronecker, "a3": corpus.a3, "loop": corpus.loop}
PRIMES = [7, 32003]


def solved(m: Rep, n: Rep) -> np.ndarray:
    """Hom(m, n) solved from its commuting system."""
    return linalg.kernel_basis(rep._hom_system(m, n), m.p)


def _fresh(m: Rep) -> Rep:
    return Rep(m.algebra, m.dims, {k: b.copy() for k, b in m.maps.items()})


def _modules(name: str, p: int, seed: int) -> list:
    """The zero module, the simples and seeded hidden sums of up to three
    indecomposables, over a new copy of the algebra."""
    alg = ALGEBRAS[name](p)
    rng = random.Random(seed)
    indecs = enumerate_indec(alg, cap=4).members
    mods = [zero_rep(alg)] + [simple(alg, v) for v in range(1, alg.quiver.n + 1)]
    for _ in range(3):
        parts = [rng.choice(indecs) for _ in range(rng.randint(1, 3))]
        mods.append(hidden_sum(parts, rng))
    return mods


def _count_solves(monkeypatch) -> list:
    calls = []
    kernel_basis = linalg.kernel_basis

    def counted(system, p):
        calls.append(system.shape)
        return kernel_basis(system, p)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    return calls


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_served_hom_is_the_solved_one(name, p):
    mods = _modules(name, p, seed=p)
    dims = []
    for m in mods:
        for n in mods:
            dm, dn = dual(m), dual(n)
            hom_basis(dn, dm)
            flat = rep._dual_hom(m, n)
            want = solved(m, n)
            assert flat is not None
            assert flat.dtype == np.int64 and flat.flags.c_contiguous
            assert np.array_equal(flat, want)
            HomSpace(m, n, flat)._rows  # raises unless in normal form
            assert np.array_equal(hom_basis(_fresh(m), _fresh(n)).flat_matrix, want)
            dims.append(want.shape[1])
    # zero modules, Hom spaces of dimension 0 and End (m = n) are all met,
    # and every arrow (the loop x: 1 -> 1 too) acts by a nonzero map
    assert mods[0].is_zero and 0 in dims and max(dims) > 1
    arrows = [a.name for a in mods[0].algebra.quiver.arrows]
    assert all(any(m.maps[a].any() for m in mods) for a in arrows)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_no_system_is_solved_for_a_served_pair(monkeypatch, name):
    m, n = _modules(name, 32003, seed=1)[-2:]
    dm, dn = dual(m), dual(n)
    hom_basis(dn, dm)
    calls = _count_solves(monkeypatch)
    hs = hom_basis(_fresh(m), _fresh(n))
    assert calls == []
    assert np.array_equal(hs.flat_matrix, solved(m, n))


def test_the_route_runs_both_ways(monkeypatch):
    # solved over the algebra, served over its opposite
    m, n = _modules("kronecker", 7, seed=2)[-2:]
    hom_basis(m, n)
    dm, dn = dual(m), dual(n)
    calls = _count_solves(monkeypatch)
    hs = hom_basis(dn, dm)
    assert calls == []
    assert np.array_equal(hs.flat_matrix, solved(dn, dm))


def test_a_dual_space_stays_served_after_its_dual_modules_are_dropped(monkeypatch):
    # the space is kept on the opposite algebra under the dual contents, so
    # it outlives the modules it was asked about
    m, n = _modules("kronecker", 32003, seed=3)[-2:]
    dm, dn = dual(m), dual(n)
    hom_basis(dn, dm)
    gone = weakref.ref(dn)
    del dm, dn
    gc.collect()
    assert gone() is None
    calls = _count_solves(monkeypatch)
    assert rep._dual_hom(m, n) is not None
    hs = hom_basis(m, n)
    assert calls == []
    assert np.array_equal(hs.flat_matrix, solved(m, n))


def test_a_served_space_keeps_no_dual_module_alive():
    m, n = _modules("loop", 7, seed=4)[-2:]
    dm, dn = dual(m), dual(n)
    hom_basis(dn, dm)
    hs = hom_basis(m, n)
    assert hs.dim and rep._dual_hom(m, n) is not None
    refs = [weakref.ref(dm), weakref.ref(dn)]
    del dm, dn
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert hom_basis(m, n).flat_matrix is hs.flat_matrix


def test_no_opposite_algebra_means_no_dual_lookup():
    # knitting builds the opposite algebra; a hidden sum of simples does not
    alg, rng = corpus.a3(7), random.Random(5)
    m = hidden_sum([simple(alg, 1), simple(alg, 2), simple(alg, 2)], rng)
    n = hidden_sum([simple(alg, 2), simple(alg, 3)], rng)
    assert alg._op is None
    assert rep._dual_hom(m, n) is None
    # the dual content key was never computed
    assert "dual_content_key" not in vars(m)
