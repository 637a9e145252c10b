"""One memo for the data derived from a module or an algebra.

Hom spaces, End algebras, covers, envelopes, presentations, DTr data,
projectives and knit tables are asked for many times over.  Each is
computed once and kept in the `_memo` dict of its first argument, so it
lives exactly as long as that object does.  Modules compare by identity
(`Rep` is `eq=False`), so a module in a key is matched by identity and kept
alive by the memo.  Since every caller then shares one module, the arrays of
`Rep` and `RepMap` are read-only.

The same content is often rebuilt as a new module: a summand found again, a
kernel computed twice, a translate of an equal module.  Each algebra keeps,
weakly, the first live module of each content (`Rep.content_key`, dims and
map bytes): that module's *twin*, and `Rep.twin` finds it.  A function
memoized with `rebind` computes on the twins of its module arguments and
keeps the answer in the twin's memo, so each content is worked out once.
A caller holding other modules of that content gets `rebind(answer, *its
modules)`: the same answer re-anchored on its own modules (a Hom space
whose source is the caller's module, a cover onto it), sharing every array
and every derived module with the twin's answer.  No memoized answer
depends on `Rep.name`: names are labels for printing, not content, and
every derived module is named from the algebra (P1, D(P1)) or not at all,
so a twin may answer for a module of another name.

Three answers are kept in tables on the algebra instead (`table`): the
decomposition of a module (`rep.decompose`), an isomorphism between two
modules (`rep.iso`) and the middle term of an extension class with its two
maps (`homological.realize_extension`).  A table lives in the algebra's
`_memo`, keyed by module content and holding arrays only, never a module:
a hit rebuilds the answer around the caller's modules, so it neither keeps
a module alive nor depends on when the cyclic collector frees a twin.

An answer found another way can be kept in advance (`remember`): the End
of a direct summand, read off the End of the module it splits from, is
stored as the summand's Hom(N, N), so asking for it later solves nothing.
An answer can also be read off another one already kept (`kept`): Hom(M,
N) over an algebra is Hom(DN, DM) over its opposite with every block
transposed, so `rep.hom_basis` first looks in the memo of the live twin of
DN over the opposite algebra, if there is one, and solves only when that
space is not kept there.  It reads the dual twins through the algebra's
weak twin table and keeps no reference to them: a freed dual twin means a
solve, never another answer.

Last, an answer can be read off a recorded split.  When an AR verification
has written a term X as a direct sum of members x_j (split maps incl_j:
x_j -> X and proj_j: X -> x_j, the incl_j . proj_j summing to the
identity), it keeps that split in the memo of X's twin (`remember`, under
`rep.record_split`).  Hom(M, X) is then the span of incl_j . Hom(M, x_j)
and Hom(X, N) that of Hom(x_j, N) . proj_j, so `rep.hom_basis` reads both
off the members' spaces instead of solving X's system.  Each sum of
indecomposable projectives or injectives that `homological` shares (the
P0 of a presentation, an injective envelope) keeps its coordinate split
the same way, so Hom into or out of it is read off the Hom spaces of its
few distinct summands.  Most of those sums are never read, so their splits
are kept lazily (`remember(..., lazy=True)`): made on the first `kept`.
The split lives and dies with the twin, like every other answer kept there.
"""

from __future__ import annotations

import functools


def _key(fn, args) -> tuple:
    return (fn, *args)


def memoized(fn=None, *, rebind=None):
    """fn(obj, *args), stored in obj._memo under (fn, *args) on the first
    call and returned from there afterwards.  A call that raises stores
    nothing; `obj._memo.clear()` frees everything kept on obj.

    With `rebind`, every argument is a module: a call not found by identity
    is answered from the twins of the arguments, computed there if need be,
    and rebound onto the caller's modules when they are not the twins."""
    if fn is None:
        return functools.partial(memoized, rebind=rebind)

    @functools.wraps(fn)
    def wrapper(obj, *args):
        key = _key(fn, args)
        memo = obj._memo
        if key not in memo:
            objs = (obj, *args)
            twins = objs if rebind is None else tuple(m.twin for m in objs)
            if twins == objs:
                memo[key] = fn(*objs)
            else:
                memo[key] = rebind(wrapper(*twins), *objs)
        return memo[key]

    return wrapper


class _Unmade:
    """An answer kept by `remember(..., lazy=True)`: make() runs when `kept`
    first reads it."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def remember(fn, make, obj, *args, lazy: bool = False) -> None:
    """Keep make() as the answer of the memoized fn(obj, *args), unless one
    is kept already; with lazy, keep make itself and call it when the
    answer is first read (`kept`).  fn is the function as written, before
    `memoized` wrapped it: the caller captures it (`__wrapped__`) when its
    module is imported, so a wrapper rebound over the module global later
    (a tracer) does not change the key."""
    key = _key(fn, args)
    if key not in obj._memo:
        obj._memo[key] = _Unmade(make) if lazy else make()


def kept(fn, obj, *args):
    """The answer of the memoized fn(obj, *args) if obj keeps one, else
    None; fn as for `remember`.  Nothing is computed but an answer kept
    lazily, on its first read."""
    key = _key(fn, args)
    answer = obj._memo.get(key)
    if isinstance(answer, _Unmade):
        answer = obj._memo[key] = answer.make()
    return answer


def table(alg, key, compute, to_arrays, from_arrays):
    """The answer kept in alg._memo under key, rebuilt by
    from_arrays(arrays); on a miss compute() answers and to_arrays(answer)
    is kept.  key starts with the function as written, captured when its
    module is imported (as for `remember`), and names modules by
    `Rep.content_key` only."""
    memo = alg._memo
    if key in memo:
        return from_arrays(memo[key])
    answer = compute()
    memo[key] = to_arrays(answer)
    return answer
