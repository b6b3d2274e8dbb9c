import math
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from itertools import islice

import pytest

from ternary_squares import modular, representation, sqrtmod
from ternary_squares.modular import (_reduction_rows, _x_pow,
                                     frobenius_period, frobenius_powers,
                                     term_mod)
from ternary_squares.primes import factorize, is_prime, iter_primes
from ternary_squares.representation import (Member, NonMember,
                                            CertificateError,
                                            MembershipRecord, Obstructed,
                                            SieveBlock, Unknown,
                                            _cornacchia_primitive, _pool_plan,
                                            _represent, classify_range,
                                            count_range,
                                            membership, non_squarefree_count,
                                            obstruction_table, qr_obstruction,
                                            represent, status_name,
                                            verified_obstructions)
from ternary_squares.recurrence import (FIVE_FIB_SQ_MINUS_4, POW2_PLUS_N,
                                        PRESETS, SQUARE_POW, TRIBONACCI,
                                        RecurrenceSpec, fibonacci, lucas,
                                        term, term_iter)
from ternary_squares.sqrtmod import integer_sqrt, legendre


def plain_scan(n_big, n):
    """Member(u, v) at the smallest v <= sqrt(N/n), trying every v: the
    brute-force oracle of `represent`."""
    for v in range(math.isqrt(n_big // n) + 1):
        rest = n_big - n * v * v
        r = math.isqrt(rest)
        if r * r == rest:
            return Member(r, v)
    return NonMember()


def brute_representable(n_big, n):
    return isinstance(plain_scan(n_big, n), Member)


def test_integer_sqrt():
    assert representation.integer_sqrt is integer_sqrt
    assert integer_sqrt(25) == (5, True)
    assert integer_sqrt(26) == (5, False)
    assert integer_sqrt(2**128) == (2**64, True)
    assert integer_sqrt(0) == (0, True)
    with pytest.raises(ValueError):
        integer_sqrt(-1)


def test_represent_examples():
    assert represent(233, 13) == Member(5, 4)    # F_13 = 233
    assert represent(0, 5) == Member(0, 0)
    assert _represent(0, 5, 1.0) == (Member(0, 0), "cornacchia")
    assert represent(13, 7) == NonMember()
    assert represent(4, 5) == Member(2, 0)


def test_represent_enumeration_oracle():
    for n_big in range(0, 1200):
        for n in range(1, 25):
            assert represent(n_big, n) == plain_scan(n_big, n), (n_big, n)


def _near(n, vmax, rng):
    """A random N with isqrt(N // n) == vmax."""
    return rng.randrange(n * vmax * vmax, n * (vmax + 1) ** 2)


def test_represent_witness_matches_plain_scan():
    # the smallest-v witness, whichever square divisor and root of -n the
    # descent reaches it through
    rng = random.Random(11)
    moduli = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    every_modulus = math.prod(moduli)
    cases = []
    for _ in range(400):                 # random (N, n), short and long
        n = rng.randrange(1, 200)
        cases.append((_near(n, rng.choice((rng.randrange(300),
                                           rng.randrange(300, 5000))),
                            rng), n))
    for q in moduli:                     # n sharing factors with a modulus
        for n in (q, 2 * q, q * q, every_modulus):
            cases += [(_near(n, 3000, rng), n) for _ in range(3)]
            cases.append((q * _near(n, 3000, rng), n))
    for n in (1, 2, 7, 64, 65, every_modulus):
        cases.append((rng.randrange(10**6, 10**7) ** 2, n))   # square N
        cases.append((n * 4321**2, n))                         # N = n*v^2
    p = next(k for k in range(200003, 10**6, 4) if is_prime(k))
    q = next(k for k in range(p + 4, 10**6, 4) if is_prime(k))
    cases += [(p * q, 1), (12345**2 + 3 * 212345**2, 3)]  # p, q = 3 mod 4
    # n = 1, where (y, x) solves too: 65 = 8^2 + 1^2 = 7^2 + 4^2, and
    # products of primes 1 mod 4 with many such pairs
    cases += [(65, 1), (5 * 13 * 17 * 29, 1), (2 * 5**4 * 13**2, 1)]
    # N/g^2 dividing n, where -n has the root 0 (28 = 7*2^2 at n = 7)
    for n in (6, 7, 12, 28, 60):
        cases += [(d * k * k, n) for d in range(1, n + 1) if n % d == 0
                  for k in (1, 2, 6)]
    for n_big, n in cases:
        assert represent(n_big, n) == plain_scan(n_big, n), (n_big, n)


def _two_squares(p):
    """(a, b) with a^2 + b^2 = p, by trying every a."""
    return next((a, math.isqrt(p - a * a)) for a in range(math.isqrt(p) + 1)
                if math.isqrt(p - a * a) ** 2 == p - a * a)


def test_represent_takes_the_smallest_v_past_a_scan():
    # N = p*q with p = a^2 + b^2 and q = c^2 + d^2 is u^2 + v^2 exactly at
    # (ac + bd, |ad - bc|), (|ac - bd|, ad + bc) and their swaps; with
    # sqrt(N) near 10^7 four different v are on offer
    p, q = 10000121, 10000141
    assert is_prime(p) and is_prime(q) and p % 4 == q % 4 == 1
    (a, b), (c, d) = _two_squares(p), _two_squares(q)
    pairs = {(a * c + b * d, abs(a * d - b * c)),
             (abs(a * c - b * d), a * d + b * c)}
    witnesses = pairs | {(v, u) for u, v in pairs}
    assert len({v for _, v in witnesses}) == 4
    assert all(u * u + v * v == p * q for u, v in witnesses)
    u, v = min(witnesses, key=lambda w: w[1])
    assert _represent(p * q, 1, None) == (Member(u, v), "cornacchia")
    # a Member row of `count --spec (1,1,1,3,3,3) --x 143 --n-exact 143`
    # whose U_66 has more than one representation
    spec = RecurrenceSpec(1, 1, 1, 3, 3, 3)
    got = represent(term(spec, 66), 66)
    assert got.v == 65498033 and got.u**2 + 66 * got.v**2 == term(spec, 66)


def test_cornacchia_tier_differential():
    rng = random.Random(31)
    for _ in range(500):
        n_big = rng.randrange(1, 10**6)
        n = rng.randrange(1, 60)
        got = represent(n_big, n)
        assert isinstance(got, Member) == brute_representable(n_big, n), (n_big, n)
        if isinstance(got, Member):
            assert got.u**2 + n * got.v**2 == n_big


def test_cornacchia_edge_shapes():
    # pure square, n*y^2, square divisors, prime powers dividing n
    assert isinstance(represent(16, 3), Member)         # 4^2
    assert isinstance(represent(63, 7), Member)         # 7*9
    assert isinstance(represent(4 * 233, 13), Member)   # 2*(5,4)
    assert isinstance(represent(7, 7), Member)          # (0,1)
    assert isinstance(represent(49, 7), Member)         # (7,0)
    got = represent(2**10 * 3, 5)
    assert isinstance(got, Member) == brute_representable(2**10 * 3, 5)
    # one of each mirrored pair at n = 1, the one with the smaller y
    assert set(_cornacchia_primitive(65, 1, {5: 1, 13: 1})) == {(8, 1),
                                                                (7, 4)}
    assert represent(65, 1) == plain_scan(65, 1) == Member(8, 1)
    # m = 28 and n = 7: the root 0 of -n mod m gives b = 0 and (0, 2)
    assert set(_cornacchia_primitive(28, 7, {2: 2, 7: 1})) == {(0, 2)}
    assert represent(28, 7) == plain_scan(28, 7) == Member(0, 2)
    assert represent(12, 6) == plain_scan(12, 6)


def test_fibonacci_prime_representations():
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101):
        f_p = fibonacci(p)
        got = represent(f_p, p)
        assert isinstance(got, Member), (p, f_p)
        assert got.u**2 + p * got.v**2 == f_p


def test_represent_unknown_on_factor_timeout():
    hard = (2**89 - 1) * (2**107 - 1)   # 59-digit semiprime
    got = represent(hard, 3, factor_timeout_s=0.05)
    assert got == Unknown()


_M89, _M107, _M127 = 2**89 - 1, 2**107 - 1, 2**127 - 1    # primes


def test_local_certifies_before_factoring():
    # N = 7 mod 8 is no x^2 + y^2 mod 64, so the 59-digit cofactor that
    # times out in test_represent_unknown_on_factor_timeout is never split
    hard = 7 * _M89 * _M107
    assert represent(hard, 1, factor_timeout_s=0.05) == NonMember()
    assert _represent(hard, 1, 0.05) == (NonMember(), "local")
    # 3 || N and 3^2 || n: 3 | u^2 + n*v^2 forces 3 | u, so 9 | N
    assert representation._local_modulus(3 * _M89 * _M107, 18) == 27
    assert _represent(3 * _M89 * _M107, 18, 0.05) == (NonMember(), "local")


def test_partial_factor_certifies_before_factoring():
    # 21*N = 1 mod 4 passes the local test; 3 | N with (-1/3) = -1
    # decides it before the semiprime is split
    hard = 21 * _M89 * _M107
    assert representation._local_modulus(hard, 1) is None
    assert _represent(hard, 1, 0.05) == (NonMember(), "partial_factor")
    # a certificate prime above 10^4, found in the full factorization
    assert _represent(1000003 * 1000039, 1, None) \
        == (NonMember(), "partial_factor")
    assert _represent(233 * 1000003**2, 13, None)[1] == "cornacchia"


def test_jacobi_certifies_the_unfactored_cofactor():
    # 2^6 | N hides the cofactor from the test mod 64; (-1/D) = -1 for
    # D = M89*M107*M127 needs no factor of D
    hard = 2**6 * _M89 * _M107 * _M127
    assert representation._local_modulus(hard, 1) is None
    assert _represent(hard, 1, 0.05) == (NonMember(), "jacobi")
    assert _represent(_M89 * _M107, 1, 0.05) == (Unknown(), "cornacchia")


def test_jacobi_certifies_a_cofactor_past_the_str_limit():
    # D = 10^4400 + 7 = 3 mod 4 has no prime below 10^4; the verdict and
    # its re-check never write D as a decimal string
    d = 10**4400 + 7
    assert math.gcd(d, math.prod(iter_primes(10**4))) == 1
    assert _represent(2**6 * d, 1, 0.01) == (NonMember(), "jacobi")


def legendre_rule(factors, n):
    """q^e for the smallest odd prime q of `factors` with an odd exponent
    e and Legendre (-n/q) = -1, else None: the certificate rule that the
    Jacobi search replaced, as its oracle."""
    for q in sorted(factors):
        if q > 2 and factors[q] % 2 and legendre(-n, q) == -1:
            return q ** factors[q]
    return None


def test_jacobi_divisor_picks_what_the_legendre_rule_picked():
    rng = random.Random(24)
    small = list(iter_primes(300))
    kinds, picked = set(), set()
    for _ in range(4000):
        factors = {q: rng.randint(1, 4)
                   for q in rng.sample(small, rng.randint(1, 6))}
        n = rng.randint(1, 10**6)
        if rng.random() < 0.3:
            n *= rng.choice(list(factors))      # some q | n
        want = legendre_rule(factors, n)
        assert representation._jacobi_divisor(
            (q**e for q, e in sorted(factors.items())), n) == want
        picked.add(want is not None)
        for q, e in factors.items():
            kinds.add("q = 2" if q == 2 else "q | n" if n % q == 0
                        else "even e" if e % 2 == 0
                        else "residue" if legendre(-n, q) == 1
                        else "candidate")
    assert picked == {True, False}
    assert kinds == {"q = 2", "q | n", "even e", "residue", "candidate"}


@pytest.mark.parametrize("n, method", [(236, "local"), (195, "jacobi")])
def test_tribonacci_unknowns_certified_without_factoring(n, method):
    # both timed out in the full factorization at the default 10 s budget
    assert qr_obstruction(TRIBONACCI, n) is None
    assert _represent(term(TRIBONACCI, n), n, 0.01) == (NonMember(), method)


def test_image_mod_64_matches_every_u_and_v():
    for n in range(64):
        image = {(u * u + n * v * v) % 64 for u in range(64)
                 for v in range(64)}
        mask = sum(1 << a for a in image)
        assert representation._image_mod_64(n) == mask, n
        assert representation._image_mod_64(n + 64 * 12345) == mask, n


def test_odd_local_image_matches_brute_force():
    checked = 0
    for n in range(1, 200):
        for q, e in factorize(n).items():
            m = q ** (e + 1)
            if q == 2 or m > 400:
                continue
            image = {(u * u + n * v * v) % m for u in range(m)
                     for v in range(q)}   # n*v^2 mod m depends on v mod q
            for r in range(m):
                for n_big in (r, r + m * 10**30):
                    assert representation._outside_local_image(
                        n_big % m, n, q, e) == (r not in image), (n, q, r)
            checked += 1
    assert checked == 184


# perfbench/workloads.py's EXACT_WINDOWS: the exact tier's benchmark inputs
_EXACT_WINDOWS = [
    (TRIBONACCI, 142),
    (RecurrenceSpec(1, 1, 1, 0, 0, 3), 140),
    (RecurrenceSpec(1, 1, 1, 1, 1, 3), 119),
    (RecurrenceSpec(1, 1, 1, 3, 3, 3), 143),
    (RecurrenceSpec(1, 1, 1, 3, 2, 1), 149),
    (RecurrenceSpec(1, 1, 1, 0, 3, 1), 124),
]


def test_local_and_jacobi_agree_with_the_full_factorization(monkeypatch):
    decided = []
    for spec, x in _EXACT_WINDOWS:
        obs, _ = obstruction_table(spec, x)
        terms = islice(term_iter(spec, x), 1, None)
        for n, u_n in zip(range(1, x + 1), terms):
            if not obs[n] and u_n > 0:
                method = _represent(u_n, n, None)[1]
                if method in ("local", "jacobi"):
                    decided.append((u_n, n, method))
    assert len(decided) == 205
    assert sum(method == "jacobi" for *_, method in decided) == 5
    # the solver with neither pre-check: every N factored in full first
    monkeypatch.setattr(representation, "_local_modulus",
                        lambda n_big, n: None)
    monkeypatch.setattr(representation, "trial_division",
                        lambda m: (factorize(m), 1))
    for u_n, n, _ in decided:
        assert _represent(u_n, n, None) in [(NonMember(), "partial_factor"),
                                            (NonMember(), "cornacchia")], n


def test_csv_text_writes_witnesses_past_the_str_limit():
    # u = 2^14300 + 1 has 4305 digits; str takes 4300 by default
    row = membership(SQUARE_POW, 14300, 0).csv_text()
    n, status, u, v, p = row.split(",")
    assert (n, status, v, p) == ("14300", "member", "0", "\n")
    assert len(u) == 4305 and Decimal(u) == 2**14300 + 1


def test_represent_input_validation():
    with pytest.raises(ValueError):
        represent(-1, 3)
    with pytest.raises(ValueError):
        represent(5, 0)


def test_qr_obstruction_examples():
    assert qr_obstruction(TRIBONACCI, 7) == Obstructed(7)   # U_7 = 13 = 6 mod 7
    assert qr_obstruction(TRIBONACCI, 5) is None            # U_5 = 4 is a QR
    assert qr_obstruction(TRIBONACCI, 1) is None


def test_obstruction_certifies_nonmember():
    for n in range(2, 61):
        hit = qr_obstruction(TRIBONACCI, n)
        if hit is not None:
            assert n % hit.p == 0 and hit.p % 2 == 1
            u_n = term(TRIBONACCI, n)
            assert u_n % hit.p != 0
            assert represent(u_n, n) == NonMember(), n


def test_membership_examples():
    rec = membership(TRIBONACCI, 5, 120)
    assert rec.status == Member(2, 0) and rec.method == "cornacchia"
    rec = membership(TRIBONACCI, 7, 120)
    assert rec.status == Obstructed(7) and rec.method == "qr_sieve"
    rec = membership(POW2_PLUS_N, 8, 120)
    assert rec.status == Member(16, 1) and rec.method == "witness_formula"


def test_membership_witness_presets():
    for n in (1, 3, 17, 99):
        rec = membership(FIVE_FIB_SQ_MINUS_4, n, 0)
        assert rec.status == Member(lucas(n), 0)
    for n in (1, 2, 9, 50):
        rec = membership(SQUARE_POW, n, 0)
        assert rec.status == Member(2**n + 1, 0)


def test_membership_unknown_beyond_exact_range():
    # U_20 = 35890 = 0 mod 5, so the obstruction stays silent at n = 20
    assert qr_obstruction(TRIBONACCI, 20) is None
    rec = membership(TRIBONACCI, 20, 10)
    assert rec.status == Unknown()


def test_membership_validation():
    with pytest.raises(ValueError):
        membership(TRIBONACCI, 0, 10)
    with pytest.raises(ValueError):
        membership(RecurrenceSpec(1, 1, 1, 0, 0, 0), 5, 10)


def test_classify_range_validation():
    with pytest.raises(ValueError, match="x must be"):
        classify_range(TRIBONACCI, 0, 0)
    with pytest.raises(ValueError, match="all-zero"):
        classify_range(RecurrenceSpec(1, 1, 1, 0, 0, 0), 10, 0)


def expand(items):
    """The records of a classify_range stream, each SieveBlock expanded
    index by index: the oracle view of the columnar tier."""
    for item in items:
        if isinstance(item, SieveBlock):
            for n, p in enumerate(item.primes, item.lo):
                yield (MembershipRecord(n, Obstructed(p), "qr_sieve") if p
                       else MembershipRecord(n, Unknown(), "not_attempted"))
        else:
            yield item


def test_count_range_tribonacci_brute():
    records = expand(classify_range(TRIBONACCI, 10, 120))
    by_n = {rec.n: rec for rec in records}
    for n in range(1, 11):
        u_n = term(TRIBONACCI, n)
        representable = brute_representable(u_n, n)
        status = by_n[n].status
        if isinstance(status, (Obstructed, NonMember)):
            assert not representable, n
        elif isinstance(status, Member):
            assert representable, n
        else:
            pytest.fail(f"unexpected unknown at n={n}")


def test_count_range_report_invariants():
    report = count_range(TRIBONACCI, 200, 60)
    assert sum(report.counts.values()) == 200
    assert report.upper_bound == 200 - report.certified_non_members
    assert report.member_count == report.counts["member"]
    assert 0 <= report.density_lower <= report.density_upper <= 1
    d = report.to_json_dict()
    assert d["x"] == 200 and d["counts"] == report.counts


def test_count_range_square_pow_all_members():
    report = count_range(SQUARE_POW, 100, 120)
    assert report.counts["member"] == 100
    assert report.density_lower == 1.0


def test_count_range_single_n():
    report = count_range(TRIBONACCI, 1, 120)
    assert sum(report.counts.values()) == 1
    assert report.counts["member"] == 1    # U_1 = 0 = 0^2 + 1*0^2


def test_worker_partition_is_invisible():
    serial = list(classify_range(TRIBONACCI, 300, 50))
    parallel = list(classify_range(TRIBONACCI, 300, 50, workers=4))
    assert serial == parallel


def test_count_range_memory_is_flat_in_x():
    # records stream through summarize one at a time, so the traced peak
    # grows only by the sieve's table (4 bytes an index) and its lists per
    # prime: about 0.3 MB from x = 10^4 to 4*10^4, where keeping every
    # record grew it by 6.7 MB
    peaks = []
    for x in (10**4, 4 * 10**4):
        tracemalloc.start()
        try:
            count_range(TRIBONACCI, x, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1.5e6, peaks


def test_csv_fields():
    rec = membership(TRIBONACCI, 7, 120)
    assert rec.csv_fields() == (7, "obstructed", "", "", 7)
    rec = membership(TRIBONACCI, 5, 120)
    assert rec.csv_fields() == (5, "member", 2, 0, "")
    assert status_name(Unknown()) == "unknown"


def test_monotone_obstructed_density():
    # increasing x does not decrease the obstructed density (reported
    # behaviour for the good presets at sampled sizes)
    densities = []
    for x in (200, 400, 800):
        report = count_range(TRIBONACCI, x, 0)
        densities.append(report.counts["obstructed"] / x)
    assert densities[0] <= densities[1] <= densities[2]


NEGATIVE_SPEC = RecurrenceSpec(-2, 1, -1, -5, 3, -1)
A3_DIVISIBLE_SPEC = RecurrenceSpec(1, 2, 15, 1, 2, 3)   # 3 | a3 and 5 | a3
A3_THREE_SPEC = RecurrenceSpec(1, 1, 3, 1, 2, 3)
A3_MINUS_15_SPEC = RecurrenceSpec(2, -1, -15, 1, -2, 4)
POWERS_OF_TWO = RecurrenceSpec(1, 1, 2, 1, 2, 4)    # U_n = 2^n


def _counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends its arguments to
    `calls`."""
    inner = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args) or inner(*args))


def _oracle_table(spec, x):
    return [0] + [getattr(qr_obstruction(spec, n), "p", 0)
                  for n in range(1, x + 1)]


@pytest.mark.parametrize("spec", [TRIBONACCI, POW2_PLUS_N, NEGATIVE_SPEC,
                                  A3_DIVISIBLE_SPEC, A3_THREE_SPEC,
                                  A3_MINUS_15_SPEC, POWERS_OF_TWO])
def test_obstruction_table_matches_per_index_oracle(spec):
    # at x = 5000 the sieve tiles the rows of p = 3, 5, 7, 11 and 13 on
    # tribonacci past their first period (see the test below); at the
    # primes dividing a3, X^p never returns to 1 and the rows are stepped;
    # on 2^n, W's period is shorter than the order of X^p (see below)
    assert list(obstruction_table(spec, 5000)[0]) == \
        _oracle_table(spec, 5000)
    for x in (1, 2, 3):
        assert list(obstruction_table(spec, x)[0]) == _oracle_table(spec, x)


def test_obstruction_table_is_four_bytes_an_index():
    # and its hints four bytes a value, five values a naming prime
    obs, hints = obstruction_table(TRIBONACCI, 1000)
    assert obs.typecode == hints.typecode == "I" and obs.itemsize == 4
    assert list(hints[::5]) == sorted(set(obs) - {0})
    with pytest.raises(ValueError, match="x must be below 2\\^32"):
        obstruction_table(TRIBONACCI, 2**32)


def test_obstruction_table_steps_one_period(monkeypatch):
    # on tribonacci X^p returns to 1 at k = 13, 31, 48, 10 and 168 for
    # p = 3, 5, 7, 11 (ramified) and 13, all below 5000/p, and W's state
    # returns there too; the table takes one period per odd prime
    # p <= x/p and tiles it, and steps the rows of the larger primes inline
    x = 5000
    periods = {p: next(k for k in range(1, x // p + 1)
                       if _x_pow(k * p, p, *_reduction_rows(TRIBONACCI, p))
                       == (1, 0, 0))
               for p in (3, 5, 7, 11, 13)}
    assert periods == {3: 13, 5: 31, 7: 48, 11: 10, 13: 168}
    inner, lengths = representation.frobenius_period, []
    monkeypatch.setattr(
        representation, "frobenius_period",
        lambda spec, p, k_max, c: lengths.append(
            (p, len(period := inner(spec, p, k_max, c)))) or period)
    assert 3 in obstruction_table(TRIBONACCI, x)[0]
    assert [p for p, _ in lengths] == list(iter_primes(math.isqrt(x)))[1:]
    assert {p: t for p, t in lengths if p in periods} == periods


def test_frobenius_period_is_the_state_return_period():
    # on U_n = 2^n, W_k = 2^k mod p starts over with the order of 2 mod p:
    # at p = 5, 11, 17 and 23 that is 4, 10, 8 and 11, where X^p returns
    # to 1 only at k = 12, 30, 24 and 33
    spec, x = POWERS_OF_TWO, 5000
    lengths = {p: len(frobenius_period(spec, p, x // p, c))
               for p, c in frobenius_powers(spec, list(iter_primes(x))[1:])}

    def state_return(p, k_max):
        def state(k):
            return [term_mod(spec, (k + j) * p, p) for j in range(3)]
        start = state(0)
        return next((t for t in range(1, k_max) if state(t) == start), k_max)

    assert lengths == {p: state_return(p, x // p) for p in lengths}
    small = (5, 11, 17, 23)
    assert {p: lengths[p] for p in small} == {5: 4, 11: 10, 17: 8, 23: 11}
    assert {p: next(k for k in range(1, x // p + 1)
                    if _x_pow(k * p, p, *_reduction_rows(spec, p))
                    == (1, 0, 0))
            for p in small} == {5: 12, 11: 30, 17: 24, 23: 33}


@pytest.mark.parametrize("spec", [TRIBONACCI, POW2_PLUS_N, A3_THREE_SPEC,
                                  A3_MINUS_15_SPEC, NEGATIVE_SPEC])
def test_obstruction_recheck_matches_term_mod(spec):
    # tribonacci's discriminant is -44, so its obstructions at 11 are at a
    # ramified prime; 3 | a3 and 5 | -15 obstruct the next two specs
    x = 3000
    obs, hints = obstruction_table(spec, x)
    assert any(obs[n] == 11 for n in range(x + 1)) or spec != TRIBONACCI
    assert any(obs[n] and spec.a3 % obs[n] == 0 for n in range(x + 1)) \
        or abs(spec.a3) < 3
    for p in set(obs) - {0}:
        period = frobenius_period(spec, p, x // p, None)
        assert [period[(k - 1) % len(period)] for k in range(1, x // p + 1)] \
            == [term_mod(spec, n, p) for n in range(p, x + 1, p)], (spec, p)
    for handed in (hints, ()):
        ok = verified_obstructions(spec, obs, handed)
        assert [n for n in range(x + 1) if ok[n]] == \
            [n for n in range(x + 1) if obs[n]]


def test_frobenius_period_seeds_from_one_fresh_x_pow(monkeypatch):
    # with no X^p given, the walk makes its own, one _x_pow(p, p), and
    # every later term steps; tribonacci's W returns at k = 48 at p = 7
    powers = []
    _counting(monkeypatch, modular, "_x_pow", powers)
    period = frobenius_period(TRIBONACCI, 7, 100, c=None)
    assert [(e, p) for e, p, _, _ in powers] == [(7, 7)]
    assert period == [term_mod(TRIBONACCI, 7 * k, 7) for k in range(1, 49)]


@pytest.mark.parametrize("p, n", [(9, 9), (3, 8), (2, 4), (4, 8), (3, 6),
                                  (3, 21), (1, 5), (3, 42), (3, 45), (3, 60),
                                  (3, 47)])
def test_obstruction_recheck_rejects_forged_entries(p, n):
    # 9 is composite (the true entry at 9 is 3), 3 does not divide 8, 2 and
    # 4 are even, U_6 = 7 is a residue mod 3, 3 divides U_21 and 1 is no
    # prime. Past the sieve's first period of 13 at p = 3, U_42 and U_45
    # are residues mod 3 (the true entries are 0 and 5), 3 divides U_60,
    # and 3 does not divide 47. Only the forged index is left unverified
    x = 60
    obs, hints = obstruction_table(TRIBONACCI, x)
    obs[n] = p
    ok = verified_obstructions(TRIBONACCI, obs, hints)
    assert not ok[n]
    assert all(ok[m] for m in range(x + 1) if obs[m] and m != n)


def test_is_nonresidue_is_eulers_criterion():
    for p in (3, 5, 7, 11, 13, 10007):
        for r in [*range(-2 * p, 2 * p), 10**30 + 7, -10**30 - 7]:
            assert representation._is_nonresidue(r, p) == \
                (legendre(r, p) == -1), (r, p)


def test_ring_rows_built_once_per_prime(monkeypatch):
    # the table and the re-check each build the rows of the ring mod p
    # at most once per prime: the table (frobenius_seed) at every odd
    # prime p <= x/2, as a prime past x/2 has the one multiple p, read off
    # X^p with no ring product, and the walk (frobenius_powers) once per
    # block of primes, modulo their product; the re-check at each prime
    # that names an index
    x = 3000
    rows = []
    _counting(monkeypatch, modular, "_reduction_rows", rows)
    _counting(monkeypatch, representation, "_reduction_rows", rows)
    obs, hints = obstruction_table(TRIBONACCI, x)
    odd = list(iter_primes(x))[1:]
    size = modular._WALK_BLOCK
    blocks = [math.prod(odd[i:i + size]) for i in range(0, len(odd), size)]
    assert sorted(p for _, p in rows) == \
        sorted([p for p in odd if 2 * p <= x] + blocks)
    rows.clear()
    verified_obstructions(TRIBONACCI, obs, hints)
    assert sorted(p for _, p in rows) == sorted(set(obs) - {0})


def test_membership_rejects_forged_obstruction(monkeypatch):
    for p, n in ((9, 18), (3, 8), (3, 6)):
        monkeypatch.setattr(representation, "qr_obstruction",
                            lambda spec, m, p=p: Obstructed(p))
        with pytest.raises(CertificateError, match=f"at p={p} .* n={n}$"):
            membership(TRIBONACCI, n, 0)


def test_recheck_makes_one_x_pow_per_obstructing_prime(monkeypatch):
    # the table makes one X^q per block of primes, q its first prime,
    # modulo the block's product; the re-check one X^p mod p per prime
    # that names an index and has (d/p) != -1, where no root test can
    # prove the table's X^p (tribonacci's d is -44); no other power and
    # no term_mod
    x = 30000
    primes = set(obstruction_table(TRIBONACCI, x)[0]) - {0}
    unproven = sorted(p for p in primes if legendre(-44, p) != -1)
    assert (len(primes), len(unproven)) == (2069, 910)
    odd = list(iter_primes(x))[1:]
    blocks = [odd[i:i + modular._WALK_BLOCK]
              for i in range(0, len(odd), modular._WALK_BLOCK)]
    assert len(blocks) == 203
    powers, term_mods = [], []
    _counting(monkeypatch, modular, "_x_pow", powers)
    _counting(monkeypatch, representation, "_x_pow", powers)
    _counting(monkeypatch, representation, "term_mod", term_mods)
    report = count_range(TRIBONACCI, x, 0)
    assert report.counts["obstructed"] == 18759
    assert [(e, m) for e, m, _, _ in powers[:len(blocks)]] == \
        [(block[0], math.prod(block)) for block in blocks]
    assert [e for e, p, _, _ in powers[len(blocks):] if e != p] == []
    assert sorted(p for _, p, _, _ in powers[len(blocks):]) == unproven \
        and term_mods == []


def test_recheck_proves_every_true_hint(monkeypatch):
    # on the true table every handed X^p at a prime with (d/p) = -1 and
    # every handed period t below the multiples to test passes its proof,
    # so nothing falls back to a fresh power or a plain walk: the Euler
    # tests are one (d/p) per hint plus t per proven period plus one per
    # claim of the other primes, 18759 claims in all
    x = 30000
    obs, hints = obstruction_table(TRIBONACCI, x)
    records = [tuple(hints[i:i + 5]) for i in range(0, len(hints), 5)]
    roots, periods, tests = [], [], []
    true_root = representation._proven_x_p
    true_flags = representation._proven_period_flags

    def root(c, p, *rest):
        proven = true_root(c, p, *rest)
        roots.append((p, proven is not None))
        return proven

    def flags(t, p, *rest):
        proven = true_flags(t, p, *rest)
        periods.append((p, t, proven is not None))
        return proven

    monkeypatch.setattr(representation, "_proven_x_p", root)
    monkeypatch.setattr(representation, "_proven_period_flags", flags)
    _counting(monkeypatch, representation, "_is_nonresidue", tests)
    ok = verified_obstructions(TRIBONACCI, obs, hints)
    assert ok == bytearray(map(bool, obs))
    assert roots == [(p, legendre(-44, p) == -1) for p, *_ in records]
    assert sum(proven for _, proven in roots) == 1159
    last = {p: max(n for n in range(p, x + 1, p) if obs[n] == p) // p
            for p, *_ in records}
    assert periods == [(p, t, True) for p, *_, t in records
                       if 0 < t < last[p]]
    assert len(periods) == 18
    claims = sum(1 for n in range(x + 1) if obs[n]
                 and obs[n] not in {p for p, _, _ in periods})
    assert len(tests) == len(records) + sum(t for _, t, _ in periods) + \
        claims == 14454


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_recheck_shares_no_arithmetic_with_the_table(monkeypatch, name):
    # the table's walks, its table of squares and the table of (d/p) all
    # raise during the re-check, which passes every true obstruction with
    # the table's hints and with none
    spec, x = PRESETS[name], 30000
    obs, hints = obstruction_table(spec, x)

    def refuse(*args):
        raise AssertionError("the re-check used the table's arithmetic")

    for module in (modular, representation, sqrtmod):
        for fn in ("frobenius_powers", "frobenius_period", "_squares_mod",
                   "_discriminant_character"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, refuse)
    for handed in (hints, ()):
        assert verified_obstructions(spec, obs, handed) == \
            bytearray(map(bool, obs))


def test_stream_covers_every_index_once_in_bounded_blocks(monkeypatch):
    monkeypatch.setattr(representation, "_BLOCK", 16)
    x = 300
    for spec, n_exact in ((TRIBONACCI, 0), (TRIBONACCI, 60),
                          (POW2_PLUS_N, 40)):
        indices = []
        for item in classify_range(spec, x, n_exact):
            if isinstance(item, SieveBlock):
                assert 0 < len(item.primes) <= representation._BLOCK
                indices += range(item.lo, item.lo + len(item.primes))
            else:
                assert item.method != "not_attempted"
                indices.append(item.n)
        assert indices == list(range(1, x + 1))


def test_classify_range_matches_membership():
    for spec, x, n_exact in ((TRIBONACCI, 300, 50), (POW2_PLUS_N, 200, 40),
                             (TRIBONACCI, 1, 5), (TRIBONACCI, 3, 0)):
        assert list(expand(classify_range(spec, x, n_exact))) == \
            [membership(spec, n, n_exact) for n in range(1, x + 1)]


def test_non_squarefree_count_matches_factorization():
    running = 0
    for x in range(1, 5001):
        running += any(e >= 2 for e in factorize(x).values())
        assert non_squarefree_count(x) == running, x


def test_x_pow_matches_exact_terms():
    rng = random.Random(7)
    primes = list(iter_primes(2000))
    for spec in (TRIBONACCI, NEGATIVE_SPEC, A3_DIVISIBLE_SPEC):
        exact = list(term_iter(spec, 400))
        for _ in range(200):
            n, p = rng.randrange(0, 401), rng.choice(primes)
            c0, c1, c2 = _x_pow(n, p, *_reduction_rows(spec, p))
            assert (c0 * spec.u0 + c1 * spec.u1 + c2 * spec.u2) % p \
                == exact[n] % p, (spec, n, p)


def test_pool_plan_caps_workers_at_chunks():
    indices = list(range(1, 11))
    workers, chunks = _pool_plan(indices, 10**6)
    assert workers <= len(chunks) == 10
    assert [n for chunk in chunks for n in chunk] == indices
    workers, chunks = _pool_plan(indices, 2)
    assert workers == 2 and [n for c in chunks for n in c] == indices
    assert _pool_plan(indices, 1) == (1, [indices])
    assert _pool_plan([], 8) == (1, [[]])
    assert _pool_plan([5], 8)[0] == 1


_WRONG_CERTIFICATES = """
import sys
from array import array
from ternary_squares import modular, representation as rep
from ternary_squares.recurrence import POW2_PLUS_N, TRIBONACCI

def raises_certificate_error(call):
    try:
        call()
    except rep.CertificateError:
        return True
    return False

assert not __debug__, "run me under python -O"
# each method _check knows: the true certificate passes, one a unit off
# raises; (method, n, value, certificate, the wrong one)
off_by_one = []
for method, n, value, cert, wrong in (
        ("qr_sieve", 7, 13 % 7, 7, 8),         # U_7 = 13
        ("local", 15, 1705, 25, 26),
        ("local", 15, 1705 % 25, 25, 24),      # N mod m is all it reads
        ("partial_factor", 19, 19513, 13, 14),
        ("jacobi", 103, 331800673921785084815380861,
         31275395788649739354829, 31275395788649739354830),
        ("cornacchia", 13, 504, (6, 6), (7, 6)),
        ("witness_formula", 8, 264, (16, 1), (16, 2))):
    rep._check(method, n, value, cert)
    off_by_one.append(raises_certificate_error(
        lambda: rep._check(method, n, value, wrong)))
# 14^7 = -1 mod 15: only the primality test rejects p = 15
off_by_one.append(raises_certificate_error(
    lambda: rep._check("qr_sieve", 15, 14, 15)))
# D = 10^4400 + 1 = 1 mod 4 has (-1/D) = 1: the failure must not write D
d = 10**4400 + 1
huge_d = raises_certificate_error(lambda: rep._check("jacobi", 1, d, d))
rep._witness_formula = lambda spec, n: (1, 1)
wrong_witness = raises_certificate_error(
    lambda: rep.membership(POW2_PLUS_N, 8, 0))
# a walk that gives p = 101 a wrong X^p: the first index that changes,
# 404, loses its obstruction (its row is a sound unknown), the next,
# 505, claims 101 falsely, and the re-check, on its own X^p, refuses it
true_table, true_walk = rep.obstruction_table(TRIBONACCI, 3000)[0], \
    rep.frobenius_powers
rep.frobenius_powers = lambda spec, primes: (
    (p, ((c[0] + 3) % p, c[1], c[2]) if p == 101 else c)
    for p, c in true_walk(spec, primes))
items, error = [], None
try:
    items.extend(rep.classify_range(TRIBONACCI, 3000, 0))
except rep.CertificateError as caught:
    error = str(caught)
forged_walk = (
    error == "obstruction at p=101 failed re-verification at n=505"
    and [p for item in items for p in item.primes]
    == [*true_table[1:404], 0, *true_table[405:505]] and true_table[404])
rep.frobenius_powers = true_walk
# a period that drops the last of the 31 terms of p = 5: tiled by 30, the
# first index that changes, 185, claims 5 falsely, and the re-check, which
# steps every multiple and assumes no period, refuses it
true_period = rep.frobenius_period
rep.frobenius_period = lambda spec, p, k_max, c: (
    true_period(spec, p, k_max, c)[:-1 if p == 5 else None])
items, error = [], None
try:
    items.extend(rep.classify_range(TRIBONACCI, 3000, 0))
except rep.CertificateError as caught:
    error = str(caught)
forged_period = (
    error == "obstruction at p=5 failed re-verification at n=185"
    and [p for item in items for p in item.primes] == list(true_table[1:185]))
rep.frobenius_period = true_period
# forged hints on the true table: each must leave the flags that empty
# hints give, and each would change them if its proof were skipped. At
# p = 101, (d/p) = -1 and Psi's roots in the ring are the constant 62, X
# and X^p: the first two are refused as X and as a constant. At p = 23,
# Psi has no root mod p, and X^(p^2) is a root that no root test tells
# from X^p: (d/p) = 1 refuses it. At p = 5 the period is 31, not 30
obs, hints = rep.obstruction_table(TRIBONACCI, 3000)
no_hints = rep.verified_obstructions(TRIBONACCI, obs, ())


def forged_hints(p, at, values):
    forged = array("I", hints)
    i = forged[::5].index(p) * 5 + at
    forged[i:i + len(values)] = array("I", values)
    return forged


rows_23 = modular._reduction_rows(TRIBONACCI, 23)
forgeries = [forged_hints(101, 1, (0, 1, 0)), forged_hints(101, 1, (62, 0, 0)),
             forged_hints(23, 1, modular._x_pow(23 * 23, 23, *rows_23)),
             forged_hints(5, 4, (30,))]
hints_refused = no_hints == bytearray(map(bool, obs)) and all(
    rep.verified_obstructions(TRIBONACCI, obs, f) == no_hints
    for f in forgeries)
true_root, true_flags = rep._proven_x_p, rep._proven_period_flags


def unproven_flags(t, p, coefficients, state):
    (a1, a2, a3), (w0, w1, w2), flags = coefficients, state, []
    for _ in range(t):
        flags.append(rep._is_nonresidue(w1, p))
        w0, w1, w2 = w1, w2, (a1 * w2 + a2 * w1 + a3 * w0) % p
    return bytes(flags)


rep._proven_x_p = lambda c, p, d, r3, r4: (
    tuple(c), modular._polymulmod(tuple(c), tuple(c), p, r3, r4))
rep._proven_period_flags = unproven_flags
hints_bite = all(rep.verified_obstructions(TRIBONACCI, obs, f) != no_hints
                 for f in forgeries)
rep._proven_x_p, rep._proven_period_flags = true_root, true_flags
rep.obstruction_table = lambda spec, x: ([0, 0, 0, 0, 0, 0, 0, 0, 3], ())
wrong_obstruction = raises_certificate_error(
    lambda: list(rep.classify_range(TRIBONACCI, 8, 0)))
rep.obstruction_table = lambda spec, x: ([0] * 18 + [9], ())
composite_obstruction = raises_certificate_error(
    lambda: list(rep.classify_range(TRIBONACCI, 18, 0)))
after_record = raises_certificate_error(
    lambda: list(rep.classify_range(TRIBONACCI, 18, 17)))
rep._BLOCK = 4
items = []
cut_block = raises_certificate_error(
    lambda: items.extend(rep.classify_range(TRIBONACCI, 20, 0))) and \
    [(item.lo, len(item.primes)) for item in items] == [(1, 4), (5, 4),
                                                       (9, 4), (13, 4),
                                                       (17, 1)]
wrong_method = raises_certificate_error(
    lambda: rep.MembershipRecord(1, rep.Obstructed(3), "cornacchia"))
local_modulus, jacobi_divisor = rep._local_modulus, rep._jacobi_divisor
rep._cornacchia_primitive = lambda m, n, m_factors: [(1, 1)]
wrong_member = raises_certificate_error(lambda: rep.represent(233, 13))
# a partial_factor certificate D = 3 that does not divide N = 233
rep._jacobi_divisor = lambda divisors, n: 3
wrong_prime = raises_certificate_error(lambda: rep.represent(233, 13))
rep._jacobi_divisor = jacobi_divisor
# 233 = 5^2 + 13*4^2 is in every local image; 7 = 7 mod 8 is outside
# the image of u^2 + v^2 mod 64, but 9 is no modulus of n = 1
wrong_m = []
for n_big, n, m in ((233, 13, 64), (233, 13, 9), (233, 13, 169), (7, 1, 9)):
    rep._local_modulus = lambda n_big, n, m=m: m
    wrong_m.append(raises_certificate_error(
        lambda: rep.represent(n_big, n)))
rep._local_modulus = local_modulus
# 50 = 1^2 + 7^2: D = 11, one past the divisor 10, does not divide N
rep.trial_division = lambda m: ({}, 11)
d_off_by_one = raises_certificate_error(lambda: rep.represent(50, 1))
# 45 = 6^2 + 3^2: D = 3 divides N/D = 15
rep.trial_division = lambda m: ({5: 1}, 3)
d_shares_a_prime = raises_certificate_error(lambda: rep.represent(45, 1))
sys.exit(0 if wrong_witness and forged_walk and forged_period
         and hints_refused and hints_bite
         and wrong_obstruction and composite_obstruction and after_record
         and cut_block and wrong_method and wrong_member
         and wrong_prime and all(wrong_m) and d_off_by_one
         and d_shares_a_prime and all(off_by_one) and huge_d else 1)
"""


def test_check_has_no_fallback_rule():
    # a method with no rule of its own raises, though (1, 0) would pass
    # the (u, v) rule
    with pytest.raises(CertificateError,
                       match="^no check for method local_sieve at n=5$"):
        representation._check("local_sieve", 5, 1, (1, 0))


def test_wrong_certificates_raise_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_CERTIFICATES],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
