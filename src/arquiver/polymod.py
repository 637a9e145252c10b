"""Dense univariate polynomial arithmetic over F_p.

Polynomials are lists of coefficients in ascending degree, normalized so
the leading coefficient is nonzero ([] is the zero polynomial).  Only the
handful of operations the idempotent-lifting code needs live here; heavy
factorization is delegated to sympy elsewhere.
"""

from __future__ import annotations


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def degree(f: list[int]) -> int:
    return len(f) - 1


def psub(f, g, p):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p for i in range(n)])


def pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def pscale(f, c, p):
    return trim([(a * c) % p for a in f])


def pdivmod(f, g, p):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    f = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) >= len(g) and trim(f):
        f = trim(f)
        if len(f) < len(g):
            break
        c = (f[-1] * inv_lead) % p
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = (f[d + i] - c * b) % p
    return trim(q), trim(f)


def pgcdex(f, g, p):
    """Extended gcd: returns (u, v, d) with u*f + v*g = d, d monic."""
    r0, r1 = trim(list(f)), trim(list(g))
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, psub(u0, pmul(q, u1, p), p)
        v0, v1 = v1, psub(v0, pmul(q, v1, p), p)
    if r0:
        c = pow(r0[-1], p - 2, p)
        r0, u0, v0 = pscale(r0, c, p), pscale(u0, c, p), pscale(v0, c, p)
    return u0, v0, r0
