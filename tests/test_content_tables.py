"""The kept answers of `rep.iso` and `homological.realize_extension`.

Both answers are functions of module content (`Rep.content_key`), so each
is kept once per content in the algebra's memo (`memo.memoized`).  A
module equal entry for entry to one already asked about is answered from
the memo: the answer must be what a cold run computes, bit for bit,
re-anchored on the caller's modules.  A realized middle term is the
algebra's own module, shared by every caller of those contents.
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
    """The memo keys of fn, a function memoized as written."""
    return [k for k in alg._memo if k[0] is fn.__wrapped__]


def _kept(algs, fn) -> int:
    return sum(len(_table_keys(alg, fn)) for alg in algs)


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


def test_iso_table_serves_new_modules_bit_for_bit(modules):
    """A miss keeps one entry (or raises and keeps none), so the entries
    counted before and after a call tell a served call from a computed
    one."""
    pairs = _iso_pairs(modules)
    algs = {m.algebra for m, _ in pairs}
    assert any(m is not n for m, n in pairs)
    warm = [_iso_outcome(m, n, 5) for m, n in pairs]
    assert any(w is not None and not _raised(w) for w in warm)
    kept = _kept(algs, rep._iso)
    served = [_iso_outcome(_fresh(m), _fresh(n), 5) for m, n in pairs]
    assert _kept(algs, rep._iso) == kept
    assert served == warm
    # a second seed has entries of its own
    m, n = pairs[-1]
    _iso_outcome(_fresh(m), _fresh(n), 6)
    new = [k for k in _table_keys(m.algebra, rep._iso) if k[-1] == 6]
    assert len(new) == 1 and _kept(algs, rep._iso) == kept + 1
    for alg in algs:
        _clear(alg, rep._iso)
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
    """Misses are counted by `direct_sum` of N and P0, which in
    `homological` only a realization computes."""
    calls = _counted(monkeypatch, homological, "direct_sum")
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
        _clear(alg, homological._realize_extension)
    cold = [_ses_arrays(realize_extension(ext1(_fresh(m), _fresh(n)), q)) for m, n, q in cases]
    assert cold == served
    assert len(calls) == len(cases)


def _plain(x) -> bool:
    if isinstance(x, tuple):
        return all(_plain(y) for y in x)
    return isinstance(x, (int, bytes))


def _modules_of(answer) -> list:
    """The modules a kept isomorphism or realization refers to."""
    if answer is None:
        return []
    maps = answer if isinstance(answer, tuple) else [answer]  # a realization's (f, g)
    return [x for f in maps for x in (f.source, f.target)]


def test_the_tables_hold_only_arrays(modules):
    """No key of a kept isomorphism or realization holds a module, only
    content keys and plain values, and no kept answer refers to a caller's
    module."""
    algs = {m.algebra for m, _ in modules}
    callers = [x for pair in modules for x in pair]
    for m, n in _iso_pairs(modules):
        try:
            iso(m, n)
        except PrimeTooSmall:
            pass
    for m, n, q in _ext_cases(modules):
        realize_extension(ext1(m, n), q)
    for fn in (rep._iso, homological._realize_extension):
        keys = [k for alg in algs for k in _table_keys(alg, fn)]
        assert keys
        assert all(_plain(k[1:]) for k in keys)
        answers = [alg._memo[k] for alg in algs for k in _table_keys(alg, fn)]
        assert not any(x is c for a in answers for x in _modules_of(a) for c in callers)


def test_no_realized_middle_term_outlives_its_caller(modules):
    """With the cyclic collector off, the caller's modules are freed by
    reference count alone; the middle term is the algebra's, shared by both
    calls and freed with the algebra's memo."""
    m, n, q = next((m, n, q) for m, n, q in _ext_cases(modules) if q.any())
    alg = m.algebra
    gc.disable()
    try:
        first = realize_extension(ext1(m, n), q)
        m2, n2 = _fresh(m), _fresh(n)
        again = realize_extension(ext1(m2, n2), q)
        assert again.middle is first.middle
        callers = [weakref.ref(x) for x in (m2, n2)]
        middle = weakref.ref(first.middle)
        del first, again, m2, n2
        assert all(r() is None for r in callers)
        assert middle() is not None
        alg._memo.clear()
        assert middle() is None
    finally:
        gc.enable()


def test_a_warm_acceptance_run_realizes_nothing(monkeypatch):
    first = [(r.passed, r.detail) for r in acceptance.run_all(1)]
    calls = _counted(monkeypatch, homological, "direct_sum")
    second = [(r.passed, r.detail) for r in acceptance.run_all(1)]
    assert second == first
    assert all(passed for passed, _ in second)
    assert calls == []
