"""Prime sieves, primality testing and integer factorization.

Everything here is deterministic: Miller-Rabin uses a fixed base set below
the proven threshold psi_13 and a fixed-seed PRNG above it, and
Pollard-Brent walks a fixed parameter schedule.
"""

import bisect
import math
import random
import time
from itertools import count

# psi_t, the least strong pseudoprime to each of the first t prime bases
# (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2017): the first t
# bases decide every n < psi_t. psi_12 = 399165290221 * 798330580441 and
# psi_13 are composite, so the 13th base, 41, is needed below psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)
_MR_EXTRA_ROUNDS = 64
_MR_SEED = 0x5EED
# Pollard-Brent steps between two gcds, and between two deadline checks
_BRENT_BLOCK = 128
# numbers sieved at once by iter_primes
_SEGMENT = 1 << 20


class FactorTimeout(Exception):
    """Raised when factorization exceeds its time budget."""


def sieve(limit):
    """Return the list of primes <= limit (simple Eratosthenes)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start:limit + 1:p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, f in enumerate(flags) if f]


def iter_primes(limit):
    """Yield primes <= limit in increasing order using a segmented sieve.

    Memory stays O(sqrt(limit) + _SEGMENT) regardless of limit.
    """
    if limit < 2:
        return
    root = math.isqrt(limit)
    base = sieve(root)
    yield from (p for p in base if p <= limit)
    low = root + 1
    while low <= limit:
        high = min(low + _SEGMENT - 1, limit)
        flags = bytearray([1]) * (high - low + 1)
        for p in base:
            start = max(p * p, ((low + p - 1) // p) * p)
            flags[start - low::p] = b"\x00" * ((high - start) // p + 1)
        for i, f in enumerate(flags):
            if f:
                yield low + i
        low = high + 1


def _miller_rabin_witness(a, d, s, n):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True  # a witnesses compositeness


def is_prime(n):
    """Miller-Rabin primality test, deterministic below psi_13 = 3.3e24.

    n < psi_t is decided by the first t bases of _MR_BASES; from psi_13
    on, all 13 bases and _MR_EXTRA_ROUNDS seeded random bases run."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    t = bisect.bisect_right(_MR_PSI, n)
    for a in _MR_BASES[:t + 1]:
        if _miller_rabin_witness(a, d, s, n):
            return False
    if t < len(_MR_PSI):
        return True
    rng = random.Random(_MR_SEED ^ n)
    for _ in range(_MR_EXTRA_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(a, d, s, n):
            return False
    return True


def _check_deadline(deadline, n):
    if deadline is not None and time.monotonic() > deadline:
        raise FactorTimeout(f"factoring {n} exceeded its time budget")


def pollard_brent(n, deadline=None):
    """Return a nontrivial factor of composite n (Brent's cycle variant).

    Walks a fixed (y, c) schedule so results are reproducible. `deadline`
    is an absolute time.monotonic() limit, checked once per block of
    _BRENT_BLOCK steps; exceeding it raises FactorTimeout.
    """
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    m = _BRENT_BLOCK
    for attempt in count(1):
        y, c = (attempt * 2 + 1) % n, (attempt * 2021 + 1) % n
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for k in range(0, r, m):
                _check_deadline(deadline, n)
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                _check_deadline(deadline, n)
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # rare cycle failure: retry with the next parameter pair


_SMALL_PRIME_CACHE = sieve(10_000)


def trial_division(n):
    """({p: e}, rest) with n = rest * prod p^e, for n >= 1.

    The p are the primes of n below 10^4, found by trial division by the
    cached small primes, plus the cofactor itself once it is a prime below
    10^8. `rest` is 1 or a number above 10^8 without a prime factor below
    10^4, so every p is proven prime without a primality test.
    """
    factors = {}
    for p in _SMALL_PRIME_CACHE:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if 1 < n < _SMALL_PRIME_CACHE[-1] ** 2:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n


def factorize(n, timeout_s=None):
    """Factor n >= 1 into {prime: exponent}.

    Trial division by cached small primes, then Miller-Rabin +
    Pollard-Brent on the remaining cofactor (Brent disposes of any factor
    below ~10^12 immediately, so the small cache loses nothing over a
    10^6 trial bound). Raises FactorTimeout if `timeout_s` elapses first.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    factors, rest = trial_division(n)
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = pollard_brent(m, deadline)
        stack.append(d)
        stack.append(m // d)
    return factors


def divisors_from_factorization(factors):
    """All positive divisors, ascending, from a {prime: exponent} map."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
