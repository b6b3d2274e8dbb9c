import math
import random
from types import SimpleNamespace

import pytest

from ternary_squares import primes
from ternary_squares.primes import (_BRENT_BLOCK, FactorTimeout,
                                    divisors_from_factorization, factorize,
                                    is_prime, iter_primes, pollard_brent,
                                    sieve, trial_division)


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    assert sieve(3000) == trial_division_primes(3000)
    assert sieve(1) == []
    assert sieve(2) == [2]


def test_segmented_iteration_matches_sieve(monkeypatch):
    monkeypatch.setattr(primes, "_SEGMENT", 1024)
    assert list(iter_primes(10**5)) == sieve(10**5)
    assert list(iter_primes(1)) == []


def test_is_prime_small():
    flags = set(sieve(10**6))
    for n in range(10**6):
        assert is_prime(n) == (n in flags), n


# psi_t, the least strong pseudoprime to each of the first t prime bases
# (OEIS A014233): is_prime must not stop at the first t bases at or
# above psi_t
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051,
       318665857834031151167461, 3317044064679887385961981)


def test_is_prime_rejects_every_psi():
    assert PSI[11] == 399165290221 * 798330580441
    assert PSI[12] == 1287836182261 * 2575672364521
    for t, psi in enumerate(PSI, 1):
        assert not is_prime(psi), t


@pytest.mark.parametrize("n,expected", [
    (2**61 - 1, True),            # Mersenne prime
    (2**89 - 1, True),
    (2**127 - 1, True),
    (561, False),                 # Carmichael
    (1105, False),
    (1000000007, True),
    ((2**61 - 1) * (2**31 - 1), False),
])
def test_is_prime_known_values(n, expected):
    assert is_prime(n) == expected


@pytest.mark.parametrize("k,m,a", [
    (1026321, 21, 5),             # above psi_5: the first six bases
    (10179051, 25, 5),            # above psi_7: nine bases
    (3478945, 40, 3),             # above psi_11: twelve bases
    (289824909357, 40, 5),        # above psi_12: all thirteen
    (754208500645, 42, 3),        # above psi_13: the seeded rounds too
])
def test_is_prime_proth_primes(k, m, a):
    # Proth's theorem: n = k*2^m + 1 with k odd, k < 2^m and
    # a^((n-1)/2) = -1 (mod n) is prime
    n = k * 2**m + 1
    assert k % 2 == 1 and k < 2**m and pow(a, (n - 1) // 2, n) == n - 1
    assert is_prime(n)


def test_factorize_random_roundtrip():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(2, 10**10)
        factors = factorize(n)
        prod = 1
        for p, e in factors.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_edges():
    assert factorize(1) == {}
    assert factorize(2**20) == {2: 20}
    assert factorize(600851475143) == {71: 1, 839: 1, 1471: 1, 6857: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_pollard_brent_semiprime():
    p, q = 1000003, 1000033
    d = pollard_brent(p * q)
    assert d in (p, q)


def test_factor_timeout_raises():
    hard = (2**89 - 1) * (2**107 - 1)
    with pytest.raises(FactorTimeout):
        factorize(hard, timeout_s=0.05)


def test_pollard_brent_checks_deadline_every_block(monkeypatch):
    # every reduction mod n counts as a step (n's __rmod__ runs first);
    # the fake clock advances by one per read and records the step count
    steps = [0]

    class CountingModulus(int):
        def __rmod__(self, other):
            steps[0] += 1
            return int.__rmod__(self, other)

    reads = []

    def fake_monotonic():
        reads.append(steps[0])
        return len(reads)

    monkeypatch.setattr(primes, "time",
                        SimpleNamespace(monotonic=fake_monotonic))
    hard = CountingModulus((2**89 - 1) * (2**107 - 1))
    deadline = 20       # far enough for r to pass a block
    with pytest.raises(FactorTimeout):
        pollard_brent(hard, deadline)
    # raised at the first read past the deadline, with no step after it,
    # and at most one block (two reductions per step) between reads
    assert len(reads) == deadline + 1 and steps[0] == reads[-1]
    assert max(b - a for a, b in zip(reads, reads[1:])) <= 2 * _BRENT_BLOCK
    assert reads[-1] > 4 * _BRENT_BLOCK


def test_trial_division_splits_off_small_primes():
    rng = random.Random(3)
    small = sieve(10**4)
    big = 10007 * 10009                 # no prime factor below 10^4
    for _ in range(300):
        n = rng.randrange(1, 10**9) * rng.choice((1, big))
        factors, rest = trial_division(n)
        assert rest == 1 or (rest > 10**8 and all(rest % p for p in small))
        assert all(p < 10**4 or (rest == 1 and p < 10**8) for p in factors)
        assert math.prod(p**e for p, e in factors.items()) * rest == n
        assert factors == {p: e for p, e in factorize(n).items()
                           if p in factors}


def test_divisors_from_factorization():
    assert divisors_from_factorization({2: 2, 3: 1}) == [1, 2, 3, 4, 6, 12]
    assert divisors_from_factorization({}) == [1]
