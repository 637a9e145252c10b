"""Memo answers kept by content (`memo.memoized` with `rebind`).

Here twins are modules over one algebra that are equal entry for entry
(`Rep.content_key`).  Each memoized function that takes modules works
once per content and keeps its answer in the algebra's memo: asked about
a fresh twin of a module already asked about, it must give what the
function itself (`fn.__wrapped__`) computes on that twin, bit for bit,
anchored on the caller's modules, and the answer must outlive the
modules it was first asked about without keeping them alive.
"""

import gc
import random
import weakref
from collections import Counter

import numpy as np
import pytest

from arquiver import acceptance, corpus, linalg, rep
from arquiver.homological import (
    dtr,
    dtr_data,
    ext1,
    injective_envelope,
    min_presentation,
    projective_cover,
)
from arquiver.knit import enumerate_indec
from arquiver.rep import (
    EndAlgebra,
    PrimeTooSmall,
    Rep,
    RepMap,
    end_algebra,
    hom_basis,
    is_indecomposable,
    simple,
)
from arquiver.stable import stable_hom
from test_dual_hom import _count_solves
from test_end_algebra import _hidden_sums, hidden_sum

ONE_MODULE = [
    end_algebra,
    is_indecomposable,
    projective_cover,
    injective_envelope,
    min_presentation,
    dtr_data,
]


def _fresh(m: Rep) -> Rep:
    """A new module equal to m entry for entry: a twin of m."""
    return Rep(m.algebra, m.dims, {k: b.copy() for k, b in m.maps.items()})


def _content(x):
    """Every array, number and string of an answer, with modules and maps
    read by content, so answers on twin modules can be compared."""
    if isinstance(x, Rep):
        return ("Rep", x.content_key)
    if isinstance(x, RepMap):
        return ("RepMap", x.source.content_key, x.target.content_key,
                tuple(b.tobytes() for b in x.blocks))
    if isinstance(x, np.ndarray):
        return ("array", str(x.dtype), x.shape, x.tobytes())
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(_content(v) for v in x)
    if isinstance(x, dict):
        return tuple((_content(k), _content(v)) for k, v in x.items())
    if hasattr(x, "quiver"):  # the algebra, shared by twins
        return "algebra"
    return (type(x).__name__, tuple(
        (k, _content(v)) for k, v in sorted(vars(x).items()) if not k.startswith("_")
    ))


def _outcome(fn, *mods):
    try:
        return _content(fn(*mods))
    except PrimeTooSmall as exc:
        return ("raised", str(exc))


@pytest.fixture(params=[7, 32003])
def modules(request):
    """Seeded hidden sums over new Kronecker, A3 and loop algebras, whose
    memos hold nothing asked by another test."""
    return _hidden_sums(request.param, seed=request.param, copies=1)


def test_twins_share_the_answer_bit_for_bit(modules):
    for m in modules:
        for fn in ONE_MODULE:
            _outcome(fn, m)
        twin = _fresh(m)
        assert twin.content_key == m.content_key
        for fn in ONE_MODULE:
            assert _outcome(fn, twin) == _outcome(fn.__wrapped__, twin), fn.__name__
    for m in modules:
        for n in modules:
            if m.algebra is n.algebra:
                hom_basis(m, n)
                pair = _fresh(m), _fresh(n)
                assert _content(hom_basis(*pair)) == _content(hom_basis.__wrapped__(*pair))


def test_twin_answers_point_at_the_callers_module(modules):
    m = modules[0]
    n = modules[1]
    dtr_data(m)
    m2, n2 = _fresh(m), _fresh(n)
    hs = hom_basis(m2, n2)
    assert hs.source is m2 and hs.target is n2
    assert all(f.source is m2 and f.target is n2 for f in hs.basis)
    end = end_algebra(m2)
    assert end.module is m2 and all(f.source is m2 for f in end.basis)
    assert end.gram is end_algebra(m).gram
    ps, aug = projective_cover(m2)
    assert aug.target is m2 and ps is projective_cover(m)[0]
    _, mono = injective_envelope(m2)
    assert mono.source is m2
    pres = min_presentation(m2)
    assert pres.module is m2 and pres.aug.target is m2
    assert pres.omega is min_presentation(m).omega
    data = dtr_data(m2)
    assert data.module is m2 and data.pres.module is m2
    assert dtr(m2) is dtr(m)


def test_twin_pairs_solve_one_hom_system(monkeypatch, modules):
    # the largest module has a content nothing has asked about
    m = max(modules, key=lambda x: x.total_dim)
    n = next(x for x in modules if x.algebra is m.algebra and x is not m)
    pairs = [(_fresh(m), _fresh(n)) for _ in range(2)]
    calls = []
    kernel_basis = linalg.kernel_basis

    def counted(system, p):
        calls.append(system.shape)
        return kernel_basis(system, p)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    first, second = (hom_basis(a, b) for a, b in pairs)
    assert len(calls) == 1
    assert second.flat_matrix is first.flat_matrix


def test_a_dropped_twin_is_freed(monkeypatch, modules):
    m = max(modules, key=lambda x: x.total_dim)
    del modules[:]
    dtr(m)
    end_algebra(m)
    other = _fresh(m)
    gone = weakref.ref(m)
    gc.disable()
    try:
        del m
        # no answer kept holds the module: it goes by reference count alone
        assert gone() is None
    finally:
        gc.enable()
    # and the content's answers stay for its next asker
    calls = _count_solves(monkeypatch)
    assert isinstance(end_algebra(other), EndAlgebra)
    assert dtr(other) is dtr_data(other).rep
    assert calls == []


def _alive_after_dropping(make, count: int) -> int:
    """How many of the modules make(rng) returns, count times over, are
    alive right after they are dropped, with the cyclic collector off: a
    module any kept answer holds stays."""
    rng = random.Random(8)
    refs = []
    gc.disable()
    try:
        for _ in range(count):
            refs += [weakref.ref(m) for m in make(rng)]
        return sum(r() is not None for r in refs)
    finally:
        gc.enable()


def test_ext1_keeps_no_module_alive():
    # Hom(Omega S2, N) and Hom(P0, N) are kept on the algebra, whose
    # projective sums live as long as it does
    alg = corpus.kronecker(32003)
    s2 = simple(alg, 2)
    indecs = enumerate_indec(alg, cap=5).members

    def asked(rng):
        n = hidden_sum([rng.choice(indecs) for _ in range(2)], rng)
        ext1(s2, n)
        end_algebra(n)
        min_presentation(n)
        return [n]

    assert _alive_after_dropping(asked, 20) == 0


def test_stable_hom_into_an_envelope_keeps_no_module_alive():
    # Hom(I, N) is kept for the envelope I of G, a sum of injectives kept
    # on the algebra
    alg = corpus.kronecker(32003)
    indecs = enumerate_indec(alg, cap=5).members

    def asked(rng):
        g, n = (hidden_sum([rng.choice(indecs) for _ in range(2)], rng) for _ in range(2))
        stable_hom(g, n, "inj")
        return [g, n]

    assert _alive_after_dropping(asked, 20) == 0


def _criterion_work(monkeypatch) -> tuple:
    """(End builds, Hom solves) of one cold run of acceptance criterion 6,
    each counted by content: per algebra, the module's content or the
    pair's."""
    ends, solves = Counter(), Counter()
    init, system = EndAlgebra.__init__, rep._hom_system

    def built(self, m):
        ends[m.algebra, m.content_key] += 1
        init(self, m)

    def solved(m, n):
        solves[m.algebra, m.content_key, n.content_key] += 1
        return system(m, n)

    monkeypatch.setattr(EndAlgebra, "__init__", built)
    monkeypatch.setattr(rep, "_hom_system", solved)
    acceptance._corpus.cache_clear()
    assert acceptance.criterion_6(1).passed
    acceptance._corpus.cache_clear()
    monkeypatch.undo()
    return ends, solves


def test_a_criterion_works_once_per_content_whenever_the_collector_runs(monkeypatch):
    ends, solves = _criterion_work(monkeypatch)
    gc.disable()
    try:
        ends_off, solves_off = _criterion_work(monkeypatch)
    finally:
        gc.enable()
    assert ends and solves
    assert max(ends.values()) == 1 and max(solves.values()) == 1
    assert (len(ends), len(solves)) == (len(ends_off), len(solves_off))
    assert max(ends_off.values()) == 1 and max(solves_off.values()) == 1
