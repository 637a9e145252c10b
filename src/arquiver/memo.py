"""One memo for the answers derived from a module or an algebra.

Hom spaces, End algebras, covers, envelopes, presentations, DTr data,
Ext^1 spaces, decompositions, isomorphisms, realized extensions,
projectives and knit tables are asked for many times over, often about
new modules equal entry for entry to earlier ones: a summand found again,
a kernel computed twice, a translate of an equal module.  One decorator keeps them all
(`memoized`): the answer to fn(*args) is kept in the `_memo` dict of one
algebra under (fn, *args), with each module argument replaced by its
`Rep.content_key` (dims and map bytes), the algebra itself left out, and
fn the function as written, so a wrapper rebound over the module global
later (a tracer) does not change the key.  Plain arguments (a vertex, a
seed, the coordinates of a class) sit in the key as they are.  No module
carries a memo, and no key or answer holds a caller's module: answers
live as long as their algebra, and `alg._memo.clear()` frees them.

On a miss the function runs on the algebra's own modules of the
arguments' contents (`private`: one copy per content, sharing the
read-only arrays and the cached content_key), so the answer kept is
anchored on those, and every module it derives (a syzygy, DTr M, a
decomposition piece, the middle term of an extension) is the algebra's
too, shared by every caller of that content.  A function memoized with
`rebind` returns `rebind(answer, *the caller's arguments)` on every call,
hit or miss: the same answer re-anchored on the caller's modules (a Hom
space whose source is the caller's module, a cover onto it, witnesses
into it), sharing every array and every derived module with the kept
answer, so each content is worked out once.  A rebind copies nothing it
can share: its maps take the kept blocks as they are
(`rep.RepMap.reanchored`, which checks only the algebra and the dims), a
rebound Hom space reads the free positions its kept space has worked out,
and a rebound Ext^1(M, N) is M's presentation rebound, the cocycles
Hom(Omega M, N) rebound onto N and the kept quotient by the restrictions,
so a realized extension reads the space its caller holds.  A hit costs
about one lookup.  Without `rebind` the kept answer is returned as it is
(projectives, knit tables, a verdict).  No memoized answer depends on
`Rep.name`: names are labels for printing, not content, and every derived
module is named from the algebra (P1, D(P1)) or not at all.

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


def _is_module(x) -> bool:
    return hasattr(x, "content_key")


def key_of(fn, *args) -> tuple:
    """The memo key of fn(*args): fn, then each argument, a module by its
    content_key."""
    return (fn, *[getattr(a, "content_key", a) for a in args])


def private(m):
    """The algebra's own module of m's content: a copy of m (`copy.copy`,
    sharing its read-only arrays and cached content_key), made once and
    kept under key_of(private, m)."""
    memo, key = m.algebra._memo, key_of(private, m)
    if key not in memo:
        memo[key] = copy.copy(m)
    return memo[key]


def memoized(fn=None, *, rebind=None):
    """fn(*args), kept in the memo of the algebra of its first argument
    (the first argument's `.algebra`, or the first argument itself when it
    is the algebra) under key_of(fn, *args), the algebra left out.  On a
    miss fn runs with each module replaced by the algebra's own module of
    its content (`private`); a call that raises stores nothing.

    With `rebind`, every call returns rebind(answer, *args): the kept
    answer re-anchored on the caller's arguments.  Without it, the kept
    answer itself."""
    if fn is None:
        return functools.partial(memoized, rebind=rebind)

    @functools.wraps(fn)
    def wrapper(*args):
        first = args[0]
        alg = getattr(first, "algebra", first)
        memo, key = alg._memo, key_of(fn, *(args[1:] if first is alg else args))
        if key not in memo:
            memo[key] = fn(*[private(a) if _is_module(a) else a for a in args])
        return memo[key] if rebind is None else rebind(memo[key], *args)

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
