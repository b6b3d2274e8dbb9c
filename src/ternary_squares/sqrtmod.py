"""Square roots modulo primes, prime powers and composites, the square
test on integers, the Legendre and Jacobi symbols, and the table of
squares modulo q.

Tonelli-Shanks for odd primes, Hensel lifting to prime powers, the 2-adic
case analysis for powers of two, and a CRT combine that enumerates every
root modulo a composite. The composite enumeration is what the
representation solver's Cornacchia descent feeds on.
"""

import math
from itertools import product

from .primes import factorize


def integer_sqrt(n):
    """(floor sqrt, exact?) for n >= 0."""
    if n < 0:
        raise ValueError("integer_sqrt needs a nonnegative argument")
    r = math.isqrt(n)
    return r, r * r == n


def legendre(a, p):
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def jacobi(a, m):
    """Jacobi symbol (a/m) in {-1, 0, 1} for an odd m >= 1, by quadratic
    reciprocity with no factoring; each run of factors 2 of a is stripped
    in one shift, its sign from m mod 8."""
    if m < 1 or m % 2 == 0:
        raise ValueError("the Jacobi symbol needs an odd positive modulus")
    a %= m
    t = 1
    while a:
        s = (a & -a).bit_length() - 1
        a >>= s
        if s & 1 and m & 7 in (3, 5):
            t = -t
        if a & m & 3 == 3:
            t = -t
        a, m = m % a, a
    return t if m == 1 else 0


def _squares_mod(q):
    """bytes s of length q with s[a] = 1 exactly when a is a square mod q;
    for an odd prime q, (a/q) = 2*s[a] - 1 at every a != 0."""
    table = bytearray(q)
    for r in range(q // 2 + 1):     # r and q - r have the same square
        table[r * r % q] = 1
    return bytes(table)


def tonelli_shanks(a, p):
    """One square root of a mod an odd prime p, or None if a is not a QR."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def _unit_sqrt_mod_pk(a, p, k):
    """Roots of x^2 = a mod p^k for odd p and p not dividing a (0 or 2 roots)."""
    r = tonelli_shanks(a % p, p)
    if r is None:
        return []
    pk = p**k
    pj = p
    while pj < pk:
        # Hensel: r <- r - (r^2 - a) / (2r), lifting modulo pj^2
        pj_next = min(pj * pj, pk)
        inv = pow(2 * r % pj_next, -1, pj_next)
        r = (r - (r * r - a) * inv) % pj_next
        pj = pj_next
    return sorted({r, pk - r})


def _unit_sqrt_mod_2k(a, k):
    """Roots of x^2 = a mod 2^k for odd a."""
    if k == 1:
        return [1]
    if k == 2:
        return [1, 3] if a % 4 == 1 else []
    if a % 8 != 1:
        return []
    # lift a root from mod 8 upward: r or r + 2^(j-1) works mod 2^(j+1)
    r = 1
    for j in range(3, k):
        if (r * r - a) % (1 << (j + 1)) != 0:
            r += 1 << (j - 1)
    m = 1 << k
    return sorted({r % m, (m - r) % m, (r + m // 2) % m, (m - r + m // 2) % m})


def sqrt_mod_prime_power(a, p, k):
    """All x in [0, p^k) with x^2 = a (mod p^k), sorted ascending."""
    pk = p**k
    a %= pk
    if a == 0:
        step = p**((k + 1) // 2)
        return [i * step for i in range(p**(k // 2))]
    s = 0
    while a % p == 0:
        a //= p
        s += 1
    if s % 2 == 1:
        return []
    base = _unit_sqrt_mod_2k(a, k - s) if p == 2 else _unit_sqrt_mod_pk(a, p, k - s)
    if not base:
        return []
    half = p**(s // 2)
    period = p**(k - s // 2)  # roots are determined modulo p^(k - s/2)
    roots = set()
    for u in base:
        x0 = half * u
        for t in range(p**(s - s // 2)):
            roots.add((x0 + t * period) % pk)
    return sorted(roots)


def sqrt_mod(a, m, factors=None):
    """All x in [0, m) with x^2 = a (mod m), via CRT over m's prime powers."""
    if m == 1:
        return [0]
    if factors is None:
        factors = factorize(m)
    locals_per_prime = []
    moduli = []
    for p, e in sorted(factors.items()):
        rs = sqrt_mod_prime_power(a, p, e)
        if not rs:
            return []
        locals_per_prime.append(rs)
        moduli.append(p**e)
    roots = []
    for combo in product(*locals_per_prime):
        x, mod = 0, 1
        for r, pe in zip(combo, moduli):
            # CRT merge of x (mod mod) with r (mod pe)
            x = (x + mod * ((r - x) * pow(mod, -1, pe) % pe)) % (mod * pe)
            mod *= pe
        roots.append(x)
    return sorted(set(roots))
