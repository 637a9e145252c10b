"""The content tables of `rep.iso` and `homological.realize_extension`.

Both answers are functions of module content (`Rep.content_key`), so each
is kept once per content in a table on the algebra (`memo.table`), as
arrays only.  A module equal entry for entry to one already asked about is
answered from the table: the answer must be what a cold run computes, bit
for bit, rebuilt around the caller's modules.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from arquiver import acceptance, homological, rep
from arquiver.homological import ext1, realize_extension
from arquiver.rep import PrimeTooSmall, Rep, iso, simple
from test_end_algebra import _hidden_sums, hidden_sum
from test_memo_twins import _fresh


def _table_keys(alg, fn) -> list:
    return [k for k in alg._memo if k[0] is fn]


def _clear(alg, fn) -> None:
    for k in _table_keys(alg, fn):
        del alg._memo[k]


def _blocks(f) -> tuple:
    return tuple(b.tobytes() for b in f.blocks)


def _iso_outcome(m, n, seed):
    try:
        f = iso(m, n, seed=seed)
    except PrimeTooSmall as exc:
        return ("raised", str(exc))
    if f is None:
        return None
    assert f.source is m and f.target is n
    return _blocks(f)


def _raised(outcome) -> bool:
    return outcome is not None and outcome[0] == "raised"


def _ses_arrays(ses) -> tuple:
    e = ses.middle
    return (e.dims, tuple(b.tobytes() for b in e.maps.values()), _blocks(ses.f), _blocks(ses.g))


def _counted(monkeypatch, module, name) -> list:
    calls = []
    cold = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return cold(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(params=[7, 32003])
def modules(request):
    return _modules(request.param)


def _modules(p: int) -> list:
    """Seeded hidden sums over new Kronecker, A3 and loop algebras, each
    with a second hidden basis of the same sum, so every module has an
    isomorphic partner that is not entry-identical to it."""
    rng = random.Random(p + 1)
    mods = _hidden_sums(p, seed=p, copies=1)
    # sums of Kronecker modules of dimension vector (2, 2), pairwise not
    # isomorphic, so `iso` also answers None after its fallback
    kron = mods[0].algebra
    s1, s2 = simple(kron, 1), simple(kron, 2)
    band = [Rep(kron, (1, 1), {"a": [[1]], "b": [[lam]]}) for lam in range(3)]
    for parts in ([band[0], band[1]], [band[0], band[0]], [s1, s2, band[2]]):
        mods.append(hidden_sum(parts, rng))
    return [(m, hidden_sum([m], rng)) for m in mods]


def _iso_pairs(modules):
    mods = [x for pair in modules for x in pair]
    return [(m, n) for m in mods for n in mods if m.algebra is n.algebra and m.dims == n.dims]


def test_iso_table_serves_new_modules_bit_for_bit(modules, monkeypatch):
    calls = _counted(monkeypatch, rep, "_iso")
    pairs = _iso_pairs(modules)
    assert any(m is not n for m, n in pairs)
    warm = [_iso_outcome(m, n, 5) for m, n in pairs]
    assert any(w is not None and not _raised(w) for w in warm)
    served = []
    for m, n in pairs:
        calls.clear()
        served.append(_iso_outcome(_fresh(m), _fresh(n), 5))
        # a raising call stores nothing, so it is asked again
        assert calls == [] or _raised(served[-1])
    assert served == warm
    # a second seed has entries of its own
    calls.clear()
    m, n = pairs[-1]
    _iso_outcome(_fresh(m), _fresh(n), 6)
    assert [args[2] for args in calls] == [6]
    for alg in {m.algebra for m, _ in pairs}:
        _clear(alg, rep._ISO)
    cold = [_iso_outcome(_fresh(m), _fresh(n), 5) for m, n in pairs]
    assert cold == served


def _ext_cases(modules):
    """(M, N, class coordinates): every basis class and one seeded random
    class of Ext^1(M, N), for pairs of modules over one algebra."""
    rng = random.Random(3)
    mods = [m for m, _ in modules]
    cases = []
    for m in mods:
        for n in mods:
            if m.algebra is not n.algebra:
                continue
            ext = ext1(m, n)
            for q in ext.basis_classes():
                cases.append((m, n, q))
            if ext.dim > 1:
                cases.append((m, n, np.array([rng.randrange(m.p) for _ in range(ext.dim)])))
    return cases


def test_extension_table_serves_new_modules_bit_for_bit(modules, monkeypatch):
    calls = _counted(monkeypatch, homological, "_realize_extension")
    cases = _ext_cases(modules)
    assert cases
    warm = [_ses_arrays(realize_extension(ext1(m, n), q)) for m, n, q in cases]
    served = []
    for m, n, q in cases:
        m2, n2 = _fresh(m), _fresh(n)
        calls.clear()
        ses = ext1(m2, n2).realize(q)
        assert calls == []
        assert ses.left is n2 and ses.right is m2
        assert ses.middle is ses.f.target and ses.middle is ses.g.source
        served.append(_ses_arrays(ses))
    assert served == warm
    # the same class with coordinates shifted by p is the same entry
    m, n, q = cases[-1]
    calls.clear()
    realize_extension(ext1(_fresh(m), _fresh(n)), np.asarray(q) + m.p)
    assert calls == []
    for alg in {m.algebra for m, _, _ in cases}:
        _clear(alg, homological._REALIZE)
    cold = [_ses_arrays(realize_extension(ext1(_fresh(m), _fresh(n)), q)) for m, n, q in cases]
    assert cold == served
    assert len(calls) == len(cases)


def _only_arrays(x) -> bool:
    if isinstance(x, tuple):
        return all(_only_arrays(y) for y in x)
    return x is None or isinstance(x, (int, np.ndarray))


def test_the_tables_hold_only_arrays(modules):
    algs = {m.algebra for m, _ in modules}
    for m, n in _iso_pairs(modules):
        try:
            iso(m, n)
        except PrimeTooSmall:
            pass
    for m, n, q in _ext_cases(modules):
        realize_extension(ext1(m, n), q)
    for fn in (rep._ISO, homological._REALIZE):
        keys = [k for alg in algs for k in _table_keys(alg, fn)]
        assert keys
        for k in keys:
            assert all(isinstance(x, (int, bytes, tuple)) for x in k[1:])
        assert all(_only_arrays(alg._memo[k]) for alg in algs for k in _table_keys(alg, fn))


def test_no_realized_middle_term_outlives_its_caller(modules):
    m, n, q = next((m, n, q) for m, n, q in _ext_cases(modules) if q.any())
    first = realize_extension(ext1(m, n), q)
    m2, n2 = _fresh(m), _fresh(n)
    again = realize_extension(ext1(m2, n2), q)
    refs = [weakref.ref(x) for x in (first.middle, again.middle, m2, n2)]
    del first, again, m2, n2
    gc.collect()
    assert all(r() is None for r in refs)


def test_a_warm_acceptance_run_realizes_nothing(monkeypatch):
    first = [(r.passed, r.detail) for r in acceptance.run_all(1)]
    calls = _counted(monkeypatch, homological, "_realize_extension")
    second = [(r.passed, r.detail) for r in acceptance.run_all(1)]
    assert second == first
    assert all(passed for passed, _ in second)
    assert calls == []
