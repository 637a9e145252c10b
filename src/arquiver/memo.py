"""One memo for the data derived from a module or an algebra.

Hom spaces, End algebras, covers, envelopes, presentations, DTr data,
projectives and knit tables are asked for many times over, often about
new modules equal entry for entry to earlier ones: a summand found again,
a kernel computed twice, a translate of an equal module.  Every answer is
kept in the `_memo` dict of one algebra under one key scheme: (fn, *args),
with each module argument replaced by its `Rep.content_key` (dims and map
bytes) and fn the function as written, captured when its module is
imported, so a wrapper rebound over the module global later (a tracer)
does not change the key.  No module carries a memo, and no key or answer
holds a caller's module: answers live as long as their algebra, and
`alg._memo.clear()` frees them.

A function memoized with `rebind` takes modules only.  On a miss it runs
on the algebra's own modules of their contents (`private`: one copy per
content, sharing the read-only arrays and the cached content_key), and
the answer kept is anchored on those.  Every call, hit or miss, returns
`rebind(answer, *the caller's modules)`: the same answer re-anchored on
the caller's modules (a Hom space whose source is the caller's module, a
cover onto it), sharing every array and every derived module with the
kept answer, so each content is worked out once.  No memoized answer
depends on `Rep.name`: names are labels for printing, not content, and
every derived module is named from the algebra (P1, D(P1)) or not at
all.  A function memoized without `rebind` (projectives, knit tables)
takes the algebra and plain values and keeps its answer as it is.

Three answers are kept as arrays only (`table`): the decomposition of a
module (`rep.decompose`), an isomorphism between two modules (`rep.iso`)
and the middle term of an extension class with its two maps
(`homological.realize_extension`).  A hit rebuilds the answer around the
caller's modules.

An answer found another way can be kept in advance (`remember`): the End
of a direct summand, read off the End of the module it splits from, is
kept as the summand's Hom(N, N), so asking for it later solves nothing.
An answer can also be read off another one already kept (`kept`): Hom(M,
N) over an algebra is Hom(DN, DM) over its opposite with every block
transposed, so `rep.hom_basis` first looks in the opposite algebra's memo
under the dual contents, and solves only when that space is not kept
there.

Last, an answer can be read off a recorded split.  When an AR verification
has written a term X as a direct sum of members x_j (split maps incl_j:
x_j -> X and proj_j: X -> x_j, the incl_j . proj_j summing to the
identity), it keeps that split under X's content (`rep.record_split`).
Hom(M, X) is then the span of incl_j . Hom(M, x_j) and Hom(X, N) that of
Hom(x_j, N) . proj_j, so `rep.hom_basis` reads both off the members'
spaces instead of solving X's system.  Each sum of indecomposable
projectives or injectives that `homological` shares (the P0 of a
presentation, an injective envelope) keeps its coordinate split the same
way, so Hom into or out of it is read off the Hom spaces of its few
distinct summands.  Most of those sums are never read, so their splits
are kept lazily (`remember(..., lazy=True)`): made on the first `kept`.
"""

from __future__ import annotations

import copy
import functools


def key_of(fn, *modules) -> tuple:
    """The memo key of fn(*modules): fn, then each module's content_key."""
    return (fn, *(m.content_key for m in modules))


def private(m):
    """The algebra's own module of m's content: a copy of m (`copy.copy`,
    sharing its read-only arrays and cached content_key), made once and
    kept under key_of(private, m)."""
    memo, key = m.algebra._memo, key_of(private, m)
    if key not in memo:
        memo[key] = copy.copy(m)
    return memo[key]


def memoized(fn=None, *, rebind=None):
    """fn(obj, *args), stored in obj._memo under (fn, *args) on the first
    call and returned from there afterwards.  A call that raises stores
    nothing.

    With `rebind`, every argument is a module: the answer is kept in the
    algebra's memo under `key_of(fn, *modules)`, computed on the algebra's
    own modules of those contents (`private`), and every call returns it
    rebound onto the caller's modules."""
    if fn is None:
        return functools.partial(memoized, rebind=rebind)

    @functools.wraps(fn)
    def wrapper(obj, *args):
        if rebind is None:
            memo, key = obj._memo, (fn, *args)
            if key not in memo:
                memo[key] = fn(obj, *args)
            return memo[key]
        memo, key = obj.algebra._memo, key_of(fn, obj, *args)
        if key not in memo:
            memo[key] = fn(*(private(m) for m in (obj, *args)))
        return rebind(memo[key], obj, *args)

    return wrapper


class _Unmade:
    """An answer kept by `remember(..., lazy=True)`: make() runs when `kept`
    first reads it."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def remember(alg, key: tuple, make, lazy: bool = False) -> None:
    """Keep make() as the answer under key in alg's memo, unless one is kept
    already; with lazy, keep make itself and call it when the answer is
    first read (`kept`).  key is as `memoized` forms it (`key_of`)."""
    if key not in alg._memo:
        alg._memo[key] = _Unmade(make) if lazy else make()


def kept(alg, key: tuple):
    """The answer kept under key in alg's memo, else None.  Nothing is
    computed but an answer kept lazily, on its first read."""
    answer = alg._memo.get(key)
    if isinstance(answer, _Unmade):
        answer = alg._memo[key] = answer.make()
    return answer


def table(alg, key, compute, to_arrays, from_arrays):
    """The answer kept in alg._memo under key, rebuilt by
    from_arrays(arrays); on a miss compute() answers and to_arrays(answer)
    is kept.  key starts with the function as written, captured when its
    module is imported (as for `key_of`), and names modules by
    `Rep.content_key` only."""
    memo = alg._memo
    if key in memo:
        return from_arrays(memo[key])
    answer = compute()
    memo[key] = to_arrays(answer)
    return answer
