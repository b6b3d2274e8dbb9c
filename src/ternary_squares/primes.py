"""A prime sieve, primality testing and integer factorization.

Everything here is deterministic: Miller-Rabin uses a fixed base set below
the proven threshold psi_13 and a fixed-seed PRNG above it, and
Pollard-Brent walks a fixed parameter schedule.
"""

import bisect
import math
import random
import time
from array import array
from itertools import compress, count, filterfalse

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
# odd numbers sieved at once by iter_primes
_SEGMENT = 1 << 20


class FactorTimeout(Exception):
    """Raised when factorization exceeds its time budget."""


def iter_primes(limit):
    """Yield the primes <= limit in increasing order: 2, then a segmented
    sieve of Eratosthenes over the odd numbers from 3, its base primes
    from iter_primes(isqrt(limit)). Flag i of a segment starting at the
    odd number low stands for low + 2i, so an odd prime p strikes every
    p-th flag from its first odd multiple >= max(p^2, low).

    Memory stays O(sqrt(limit) + _SEGMENT) regardless of limit.
    """
    if limit < 2:
        return
    yield 2
    base = list(iter_primes(math.isqrt(limit)))[1:]
    low = 3
    while low <= limit:
        high = min(low + 2 * (_SEGMENT - 1), limit)
        size = (high - low) // 2 + 1
        flags = bytearray([1]) * size
        for p in base:
            if p * p > high:
                break
            start = max(p * p, (low + p - 1) // p * p)
            if start % 2 == 0:
                start += p
            i = (start - low) // 2
            flags[i::p] = bytes(len(range(i, size, p)))
        yield from compress(range(low, high + 1, 2), flags)
        low += 2 * _SEGMENT


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
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        # rare cycle failure: retry with the next parameter pair


_SMALL_PRIME_CACHE = list(iter_primes(10_000))


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


def factor_table(x):
    """A function that factors n into {prime: exponent} as `factorize`
    does, for n <= x + 1 and for n = p^2 + p + 1 with p <= x prime, read
    off two sieves instead of trial division; any other n raises
    ValueError.

    - n <= x + 1: the factors 2 come off the low bits, and the odd part
      walks down a smallest-prime-factor table over the odd numbers, one
      `array("I")` with 0 at the primes.
    - n = p^2 + p + 1: its prime factors q <= p are 3 (once, when
      p = 1 mod 3) and primes q = 1 (mod 3) at which p is a root of
      t^2 + t + 1, a primitive cube root of unity. A sieve over t at those
      roots records each q at every prime t; it is built at the first such
      n, so p - 1 and p + 1 alone never pay for it. What is left of n is 1
      or a prime, as n < (p + 1)^2.
    """
    x = max(x, 0)
    size = (x + 2) // 2         # index i stands for 2i + 1 <= x + 1
    spf = array("I", bytes(4 * size))
    for q in reversed(list(iter_primes(math.isqrt(x + 1)))[1:]):
        start = q * q >> 1
        spf[start::q] = array("I", [q]) * len(range(start, size, q))
    cyclotomic = None

    def odd_primes(indices):
        return filterfalse(spf.__getitem__, indices)

    def small_primes_of_cyclotomic():
        found = {}      # prime t -> [q, ...], increasing
        for i in odd_primes(range(1, size)):
            q = 2 * i + 1
            if q % 3 == 2:
                continue
            roots = [1]
            if q > 3:
                g = 2
                while (w := pow(g, (q - 1) // 3, q)) == 1:
                    g += 1
                roots = [w, q - 1 - w]
            for r in roots:
                # the odd t = r (mod q) are 2q apart, their indices q
                first = (r if r & 1 else r + q) >> 1
                for j in odd_primes(range(first, size, q)):
                    found.setdefault(2 * j + 1, []).append(q)
        return found

    def factor(n):
        nonlocal cyclotomic
        if n < 1:
            raise ValueError("factor_table expects n >= 1")
        if n <= x + 1:
            k = (n & -n).bit_length() - 1
            factors = {2: k} if k else {}
            n >>= k
            while n > 1:
                q = spf[n >> 1] or n
                factors[q] = factors.get(q, 0) + 1
                n //= q
            return factors
        p = math.isqrt(n)
        p_is_prime = p == 2 or p % 2 and p > 1 and not spf[p >> 1]
        if n != p * p + p + 1 or p > x or not p_is_prime:
            raise ValueError(f"{n} is neither <= {x + 1} nor p^2 + p + 1 "
                             f"for a prime p <= {x}")
        if cyclotomic is None:
            cyclotomic = small_primes_of_cyclotomic()
        factors = {}
        for q in cyclotomic.get(p, ()):
            factors[q] = 0
            while n % q == 0:
                factors[q] += 1
                n //= q
        if n > 1:
            factors[n] = 1
        return factors

    return factor


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

