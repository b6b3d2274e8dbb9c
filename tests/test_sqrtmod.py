import random

import pytest

from ternary_squares.primes import factorize, iter_primes
from ternary_squares.sqrtmod import (_squares_mod, jacobi, legendre, sqrt_mod,
                                     sqrt_mod_prime_power, tonelli_shanks)


def brute_roots(a, m):
    return sorted(x for x in range(m) if (x * x - a) % m == 0)


def test_legendre_against_square_table():
    for p in list(iter_primes(200))[1:]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expected


def test_jacobi_is_the_product_of_legendre_symbols():
    for m in range(1, 600, 2):
        factors = factorize(m)
        for a in range(-70, 2 * m + 70, 1 + m // 100):
            expected = 1
            for p, e in factors.items():
                expected *= legendre(a, p) ** e
            assert jacobi(a, m) == expected, (a, m)
    rng = random.Random(7)
    p, q = 2**89 - 1, 2**107 - 1
    for _ in range(50):
        a = rng.randrange(-p * q, p * q)
        assert jacobi(a, p * q) == legendre(a, p) * legendre(a, q)
        assert jacobi(a << 61, p) == legendre(a << 61, p)


def test_jacobi_refuses_even_or_nonpositive_moduli():
    for m in (0, 2, 10, -3):
        with pytest.raises(ValueError):
            jacobi(1, m)


def test_squares_mod_against_brute():
    for q in range(1, 130):
        squares = {x * x % q for x in range(q)}
        assert _squares_mod(q) == bytes(a in squares for a in range(q)), q


def test_tonelli_shanks_roots():
    for p in list(iter_primes(500))[1:]:
        for a in range(p):
            r = tonelli_shanks(a, p)
            if legendre(a, p) == -1:
                assert r is None
            else:
                assert r is not None and r * r % p == a


def test_prime_power_roots_exhaustive():
    cases = [(2, k) for k in range(1, 8)] + \
            [(3, k) for k in range(1, 5)] + \
            [(5, k) for k in range(1, 4)] + [(7, 2), (11, 2), (13, 2)]
    for p, k in cases:
        pk = p**k
        for a in range(pk):
            assert sqrt_mod_prime_power(a, p, k) == brute_roots(a, pk), (p, k, a)


def test_composite_roots_exhaustive_small():
    for m in range(2, 200):
        f = factorize(m)
        for a in range(m):
            assert sqrt_mod(a, m, f) == brute_roots(a, m), (m, a)


def test_composite_roots_random():
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randrange(2, 5000)
        a = rng.randrange(m)
        assert sqrt_mod(a, m) == brute_roots(a, m), (m, a)


def test_sqrt_mod_one():
    assert sqrt_mod(0, 1) == [0]
