"""Exact factoring in F_p[x] and a primality test, in pure Python.

A polynomial is a list of ints in [0, p), lowest degree first, with no
trailing zeros; [] is the zero polynomial.  `factor_mod` runs the usual
three stages (von zur Gathen and Gerhard, *Modern Computer Algebra*,
Ch. 14): square-free decomposition, distinct-degree factorization and
Cantor-Zassenhaus equal-degree splitting.
"""

from __future__ import annotations

import random

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases: exact for
    n < 3.3 * 10**24 (Sorenson and Webster, Math. Comp. 2017)."""
    if n < 2:
        return False
    for b in SMALL_PRIMES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in SMALL_PRIMES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_mod(coeffs, p: int) -> list:
    """[(monic irreducible factor, multiplicity)] of the polynomial with
    coefficients `coeffs` (lowest degree first) over F_p, p prime; [] for a
    constant.  Factors are lists as above, ordered as sympy's factor_list
    orders them: by degree, then multiplicity, then coefficients from the
    top.  The splitting is randomized, from a fixed seed; the answer does
    not depend on it."""
    f = _trim([int(c) % p for c in coeffs])
    if len(f) < 2:
        return []
    rng = random.Random(0)
    out = [
        (g, k)
        for part, k in _squarefree(_monic(f, p), p)
        for h, d in _distinct_degree(part, p)
        for g in _equal_degree(h, d, p, rng)
    ]
    return sorted(out, key=lambda gk: (len(gk[0]), gk[1], gk[0][::-1]))


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _monic(f: list, p: int) -> list:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _add(f: list, g: list, p: int) -> list:
    if len(f) < len(g):
        f, g = g, f
    return _trim([(c + (g[i] if i < len(g) else 0)) % p for i, c in enumerate(f)])


def _mul(f: list, g: list, p: int) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return [c % p for c in out]


def _divmod(f: list, g: list, p: int) -> tuple:
    """(quotient, remainder) of f by g != 0."""
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    r = list(f)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dg] * inv % p
        for j, b in enumerate(g):
            r[k + j] = (r[k + j] - c * b) % p
    return q, _trim(r[:dg])


def _gcd(f: list, g: list, p: int) -> list:
    """Monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _powmod(f: list, e: int, m: list, p: int) -> list:
    """f**e mod m, for f reduced mod m and deg m >= 1."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, f, p), m, p)[1]
        e >>= 1
        f = _divmod(_mul(f, f, p), m, p)[1]
    return out


def _squarefree(f: list, p: int) -> list:
    """[(g, k)] with f = prod g**k, each g monic, square-free and of degree
    >= 1, the g pairwise coprime and the k distinct; f monic."""
    out = []
    scale = 1
    while len(f) > 1:
        c = _gcd(f, _trim([i * a % p for i, a in enumerate(f)][1:]), p)
        w = _divmod(f, c, p)[0]
        k = 1
        while len(w) > 1:
            y = _gcd(w, c, p)
            g = _divmod(w, y, p)[0]
            if len(g) > 1:
                out.append((g, k * scale))
            w, c = y, _divmod(c, y, p)[0]
            k += 1
        # what is left is h(x**p) = h(x)**p: continue with h
        f, scale = c[::p], scale * p
    return out


def _distinct_degree(f: list, p: int) -> list:
    """[(h, d)]: h the product of the irreducible factors of degree d of the
    square-free monic f, for each d that has some."""
    out = []
    xq = [0, 1]  # x**(p**d) mod f
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        xq = _powmod(xq, p, f, p)
        h = _gcd(f, _add(xq, [0, p - 1], p), p)
        if len(h) > 1:
            out.append((h, d))
            f = _divmod(f, h, p)[0]
            xq = _divmod(xq, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list, d: int, p: int, rng: random.Random) -> list:
    """The monic irreducible factors of the square-free monic f, all of
    degree d.  A random a splits f by gcd(f, a**((p**d - 1)/2) - 1), or for
    p = 2 by gcd(f, trace of a to F_2)."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _powmod(t, 2, f, p)
                b = _add(b, t, p)
        else:
            b = _add(_powmod(a, (p**d - 1) // 2, f, p), [p - 1], p)
        g = _gcd(f, b, p)
        if 1 < len(g) < len(f):
            break
    return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)
