"""Memo answers shared between twin modules (`memo.memoized` with `rebind`).

Twins are modules over one algebra that are equal entry for entry
(`Rep.content_key`).  Each memoized function that takes modules works
once per content: asked about a fresh twin of a module already asked
about, it must give what the function itself (`fn.__wrapped__`) computes
on that twin, bit for bit, anchored on the caller's modules.
"""

import gc
import weakref

import numpy as np
import pytest

from arquiver import linalg
from arquiver.homological import (
    dtr,
    dtr_data,
    injective_envelope,
    min_presentation,
    projective_cover,
)
from arquiver.rep import (
    EndAlgebra,
    PrimeTooSmall,
    Rep,
    RepMap,
    end_algebra,
    hom_basis,
    is_indecomposable,
)
from test_end_algebra import _hidden_sums

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
    twin tables hold nothing asked by another test."""
    return _hidden_sums(request.param, seed=request.param, copies=1)


def test_twins_share_the_answer_bit_for_bit(modules):
    for m in modules:
        for fn in ONE_MODULE:
            _outcome(fn, m)
        twin = _fresh(m)
        assert twin.twin is m.twin
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
    assert pres.module is m2 and pres.aug is aug
    data = dtr_data(m2)
    assert data.module is m2 and data.pres is pres
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


def test_a_dropped_twin_is_freed(modules):
    m = max(modules, key=lambda x: x.total_dim)
    del modules[:]
    dtr(m)
    end_algebra(m)
    other = _fresh(m)
    assert other.twin is m
    assert isinstance(end_algebra(other), EndAlgebra)
    dtr(other)
    gone = weakref.ref(m)
    del m
    gc.collect()
    assert gone() is None
    # the content's next asker becomes its twin
    assert other.twin is other
    assert dtr(other) is dtr_data(other).rep
