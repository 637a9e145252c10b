"""One memo for the data derived from a module or an algebra.

Hom spaces, End algebras, covers, envelopes, presentations, DTr data,
projectives and knit tables are asked for many times over.  Each is
computed once and kept in the `_memo` dict of its first argument, so it
lives exactly as long as that object does.  Modules compare by identity
(`Rep` is `eq=False`), so a module in a key is matched by identity and kept
alive by the memo.  Since every caller then shares one module, the arrays of
`Rep` and `RepMap` are read-only.  `rep.decompose` keeps its answers in the
algebra's `_memo` too, keyed by module content and holding arrays only.
"""

from __future__ import annotations

import functools


def memoized(fn):
    """fn(obj, *args), stored in obj._memo under (fn, *args) on the first
    call and returned from there afterwards.  A call that raises stores
    nothing; `obj._memo.clear()` frees everything kept on obj."""

    @functools.wraps(fn)
    def wrapper(obj, *args):
        key = (fn, *args)
        memo = obj._memo
        if key not in memo:
            memo[key] = fn(obj, *args)
        return memo[key]

    return wrapper
