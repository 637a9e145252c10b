"""Differential test of `fpoly` against sympy, its oracle.

The program factored over F_p with sympy's `Poly.factor_list` and tested
primes with `sympy.isprime` before `fpoly` replaced both; sympy stays here
as the reference.  The factorizations must agree exactly: the same monic
factors, the same multiplicities and the same order.
"""

import random

import pytest
import sympy

from arquiver.algebra import check_modulus
from arquiver.fpoly import factor_mod, is_prime


def sympy_factor_list(coeffs: list, p: int) -> list:
    """[(factor coeffs ascending, multiplicity)] over F_p, by sympy."""
    x = sympy.symbols("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
    _, factors = poly.factor_list()
    return [
        ([int(c) % p for c in reversed(f.all_coeffs())], int(mult))
        for f, mult in factors
    ]


def _mul(f: list, g: list, p: int) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _random_product(rng: random.Random, p: int) -> list:
    """A product of up to three random polynomials, each to a power up to 3;
    with probability 1/3 a factor g(x) is replaced by g(x**p), which is
    inseparable (its derivative is 0)."""
    f = [rng.randrange(1, p)]
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, 3)
        g = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        if rng.random() < 1 / 3 and p * deg <= 24:
            g = [g[i // p] if i % p == 0 else 0 for i in range(p * deg + 1)]
        for _ in range(rng.randint(1, 3)):
            f = _mul(f, g, p)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 32003])
def test_factor_mod_equals_sympy_on_random_products(p):
    rng = random.Random(p)
    for _ in range(150):
        f = _random_product(rng, p)
        assert factor_mod(f, p) == sympy_factor_list(f, p), f


@pytest.mark.parametrize(
    "coeffs, p",
    [
        ([0, 0, 0, 1], 2),  # x^3
        ([1, 0, 0, 1], 3),  # x^3 + 1 = (x + 1)^3
        ([1, 0, 0, 0, 0, 0, 0, 0, 1], 2),  # (x + 1)^8
        ([2, 0, 1, 0, 1], 3),  # x^4 + x^2 + 2: two quadratics
        ([6, 0, 1], 7),  # (x + 1)(x + 6): order from the top
        ([-1, 0, 1], 7),  # coefficients outside [0, p)
        ([3, 0, 6], 7),  # not monic
        ([1, 0, 1, 1], 5),
        ([1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1], 2),
    ],
)
def test_factor_mod_equals_sympy_on_edge_cases(coeffs, p):
    assert factor_mod(coeffs, p) == sympy_factor_list(coeffs, p)


@pytest.mark.parametrize("coeffs", [[], [0], [5], [0, 0]])
def test_factor_mod_of_a_constant_is_empty(coeffs):
    assert factor_mod(coeffs, 7) == [] == sympy_factor_list(coeffs, 7)


EDGE_MODULI = [
    561,  # Carmichael
    3215031751,  # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5, 7
    32003,
    32004,
    3037000493,
    3037000499,
    4294967311,
    2**61 - 1,
]


def test_is_prime_equals_sympy():
    for n in list(range(20001)) + EDGE_MODULI:
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize(
    "p, message",
    [(32004, "not a prime"), (3215031751, "not a prime"), (4294967311, "too large")],
)
def test_check_modulus_messages(p, message):
    with pytest.raises(ValueError, match=f"field modulus {p} is {message}"):
        check_modulus(p)
