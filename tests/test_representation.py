import math
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest

from ternary_squares import representation
from ternary_squares.modular import _x_pow, term_mod
from ternary_squares.primes import factorize, is_prime, sieve
from ternary_squares.representation import (_SQUARE_SIEVE, Member, NonMember,
                                            CertificateError,
                                            MembershipRecord, Obstructed,
                                            SieveBlock, Unknown, _pool_plan,
                                            _represent, _represent_enumerate,
                                            classify_range, count_range,
                                            frobenius_terms, integer_sqrt,
                                            membership, non_squarefree_count,
                                            obstruction_table, qr_obstruction,
                                            represent, status_name,
                                            verified_obstructions)
from ternary_squares.recurrence import (FIVE_FIB_SQ_MINUS_4, POW2_PLUS_N,
                                        SQUARE_POW, TRIBONACCI,
                                        RecurrenceSpec, fibonacci, lucas,
                                        term, term_iter)


def plain_scan(n_big, n):
    """Member(u, v) at the smallest v <= sqrt(N/n), trying every v."""
    for v in range(math.isqrt(n_big // n) + 1):
        rest = n_big - n * v * v
        r = math.isqrt(rest)
        if r * r == rest:
            return Member(r, v)
    return NonMember()


def brute_representable(n_big, n):
    return isinstance(plain_scan(n_big, n), Member)


def test_integer_sqrt():
    assert integer_sqrt(25) == (5, True)
    assert integer_sqrt(26) == (5, False)
    assert integer_sqrt(2**128) == (2**64, True)
    assert integer_sqrt(0) == (0, True)
    with pytest.raises(ValueError):
        integer_sqrt(-1)


def test_represent_examples():
    assert represent(233, 13) == Member(5, 4)    # F_13 = 233
    assert represent(0, 5) == Member(0, 0)
    assert represent(13, 7) == NonMember()
    assert represent(4, 5) == Member(2, 0)


def test_represent_enumeration_oracle():
    for n_big in range(0, 1200):
        for n in range(1, 25):
            got = represent(n_big, n)
            assert isinstance(got, Member) == brute_representable(n_big, n)
            if isinstance(got, Member):
                assert got.u**2 + n * got.v**2 == n_big


def _near(n, vmax, rng):
    """A random N with isqrt(N // n) == vmax."""
    return rng.randrange(n * vmax * vmax, n * (vmax + 1) ** 2)


def test_square_sieve_matches_plain_scan():
    rng = random.Random(11)
    moduli = [q for q, _ in _SQUARE_SIEVE]
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
    for n_big, n in cases:
        assert _represent_enumerate(n_big, n) == plain_scan(n_big, n), \
            (n_big, n)


def test_square_sieve_across_segments():
    # the smallest v on either side of each segment start up to 130944
    # (segments of 128, 256, ..., 2^16); vmax > 2 * 10^5 spans full ones
    n, start, size = 1000003, 0, 128
    while start < 131000:
        for v in (start - 1, start):
            if v >= 0:
                n_big = 1 + n * v * v
                assert _represent_enumerate(n_big, n) == \
                    plain_scan(n_big, n) == Member(1, v)
        start, size = start + size, min(2 * size, 1 << 16)
    p = next(k for k in range(200003, 10**6, 4) if is_prime(k))
    q = next(k for k in range(p + 4, 10**6, 4) if is_prime(k))
    assert _represent_enumerate(p * q, 1) == NonMember()  # both 3 mod 4
    n, u, v = 3, 12345, 212345
    assert _represent_enumerate(u * u + n * v * v, n) == \
        plain_scan(u * u + n * v * v, n)


@pytest.fixture
def cornacchia_only(monkeypatch):
    """Every N > 0 skips the enumeration and goes to the Cornacchia tier."""
    monkeypatch.setattr(representation, "ENUM_LIMIT", 0)


def test_cornacchia_tier_differential(cornacchia_only):
    rng = random.Random(31)
    for _ in range(500):
        n_big = rng.randrange(1, 10**6)
        n = rng.randrange(1, 60)
        got = represent(n_big, n)
        assert isinstance(got, Member) == brute_representable(n_big, n), (n_big, n)
        if isinstance(got, Member):
            assert got.u**2 + n * got.v**2 == n_big


def test_cornacchia_edge_shapes(cornacchia_only):
    # pure square, n*y^2, square divisors, prime powers dividing n
    assert isinstance(represent(16, 3), Member)         # 4^2
    assert isinstance(represent(63, 7), Member)         # 7*9
    assert isinstance(represent(4 * 233, 13), Member)   # 2*(5,4)
    assert isinstance(represent(7, 7), Member)          # (0,1)
    assert isinstance(represent(49, 7), Member)         # (7,0)
    got = represent(2**10 * 3, 5)
    assert isinstance(got, Member) == brute_representable(2**10 * 3, 5)


def test_fibonacci_prime_representations():
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101):
        f_p = fibonacci(p)
        got = represent(f_p, p)
        assert isinstance(got, Member), (p, f_p)
        assert got.u**2 + p * got.v**2 == f_p


def test_represent_unknown_on_factor_timeout(cornacchia_only):
    hard = (2**89 - 1) * (2**107 - 1)   # 59-digit semiprime
    got = represent(hard, 3, factor_timeout_s=0.05)
    assert got == Unknown()


def test_partial_factor_certifies_before_factoring(cornacchia_only):
    # 7 | N with (-1/7) = -1 decides N before the 59-digit cofactor is
    # split, so the timeout that leaves the semiprime Unknown never fires
    hard = 7 * (2**89 - 1) * (2**107 - 1)
    assert represent(hard, 1, factor_timeout_s=0.05) == NonMember()
    assert _represent(hard, 1, 0.05) == (NonMember(), "partial_factor")
    # a certificate prime above 10^4, found in the full factorization
    assert _represent(1000003 * 1000039, 1, None) \
        == (NonMember(), "partial_factor")
    assert _represent(233 * 1000003**2, 13, None)[1] == "cornacchia"


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
    assert rec.status == Member(2, 0) and rec.method == "enumeration"
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
    # grows only by the sieve's table (8 bytes an index) and its lists per
    # prime: about 0.5 MB from x = 10^4 to 4*10^4, where keeping every
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


def _oracle_table(spec, x):
    return [0] + [getattr(qr_obstruction(spec, n), "p", 0)
                  for n in range(1, x + 1)]


@pytest.mark.parametrize("spec", [TRIBONACCI, POW2_PLUS_N, NEGATIVE_SPEC,
                                  A3_DIVISIBLE_SPEC])
def test_obstruction_table_matches_per_index_oracle(spec):
    assert list(obstruction_table(spec, 2000)) == _oracle_table(spec, 2000)
    for x in (1, 2, 3):
        assert list(obstruction_table(spec, x)) == _oracle_table(spec, x)


A3_THREE_SPEC = RecurrenceSpec(1, 1, 3, 1, 2, 3)
A3_MINUS_15_SPEC = RecurrenceSpec(2, -1, -15, 1, -2, 4)


@pytest.mark.parametrize("spec", [TRIBONACCI, POW2_PLUS_N, A3_THREE_SPEC,
                                  A3_MINUS_15_SPEC, NEGATIVE_SPEC])
def test_obstruction_recheck_matches_term_mod(spec):
    # tribonacci's discriminant is -44, so its obstructions at 11 are at a
    # ramified prime; 3 | a3 and 5 | -15 obstruct the next two specs
    x = 3000
    obs = obstruction_table(spec, x)
    assert any(obs[n] == 11 for n in range(x + 1)) or spec != TRIBONACCI
    assert any(obs[n] and spec.a3 % obs[n] == 0 for n in range(x + 1)) \
        or abs(spec.a3) < 3
    for p in set(obs) - {0}:
        terms = list(frobenius_terms(spec, p, x // p))
        assert terms == [term_mod(spec, n, p)
                         for n in range(p, x + 1, p)], (spec, p)
    ok = verified_obstructions(spec, obs)
    assert [n for n in range(x + 1) if ok[n]] == \
        [n for n in range(x + 1) if obs[n]]


def test_frobenius_terms_seeds_lazily(monkeypatch):
    calls = []
    monkeypatch.setattr(representation, "term_mod",
                        lambda spec, n, p: calls.append(n) or term_mod(spec,
                                                                       n, p))
    assert list(frobenius_terms(TRIBONACCI, 7, 0)) == [] and calls == []
    assert list(frobenius_terms(TRIBONACCI, 7, 1)) == [term_mod(TRIBONACCI,
                                                                7, 7)]
    assert calls == [7]


@pytest.mark.parametrize("p, n", [(9, 9), (3, 8), (2, 4), (4, 8), (3, 6),
                                  (3, 21), (1, 5)])
def test_obstruction_recheck_rejects_forged_entries(p, n):
    # 9 is composite (the true entry at 9 is 3), 3 does not divide 8, 2 and
    # 4 are even, U_6 = 7 is a residue mod 3, 3 divides U_21 and 1 is no
    # prime: only the forged index is left unverified
    x = 60
    obs = list(obstruction_table(TRIBONACCI, x))
    obs[n] = p
    ok = verified_obstructions(TRIBONACCI, obs)
    assert not ok[n]
    assert all(ok[m] for m in range(x + 1) if obs[m] and m != n)


def test_membership_rejects_forged_obstruction(monkeypatch):
    for p, n in ((9, 18), (3, 8), (3, 6)):
        monkeypatch.setattr(representation, "qr_obstruction",
                            lambda spec, m, p=p: Obstructed(p))
        with pytest.raises(CertificateError, match=f"at p={p} .* n={n}$"):
            membership(TRIBONACCI, n, 0)


def test_recheck_makes_two_term_mod_calls_per_obstructing_prime(monkeypatch):
    primes = set(obstruction_table(TRIBONACCI, 30000)) - {0}
    calls = []
    monkeypatch.setattr(representation, "term_mod",
                        lambda spec, n, p: calls.append(p) or term_mod(spec,
                                                                       n, p))
    report = count_range(TRIBONACCI, 30000, 0)
    assert report.counts["obstructed"] == 18759
    assert set(calls) == primes and len(calls) <= 2 * len(primes)


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
    primes = sieve(2000)
    for spec in (TRIBONACCI, NEGATIVE_SPEC, A3_DIVISIBLE_SPEC):
        exact = list(term_iter(spec, 400))
        for _ in range(200):
            n, p = rng.randrange(0, 401), rng.choice(primes)
            c0, c1, c2 = _x_pow(spec, n, p)
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
from ternary_squares import representation as rep
from ternary_squares.recurrence import POW2_PLUS_N, TRIBONACCI

def raises_certificate_error(call):
    try:
        call()
    except rep.CertificateError:
        return True
    return False

assert not __debug__, "run me under python -O"
rep._witness_formula = lambda spec, n: (1, 1)
wrong_witness = raises_certificate_error(
    lambda: rep.membership(POW2_PLUS_N, 8, 0))
rep.obstruction_table = lambda spec, x: [0, 0, 0, 0, 0, 0, 0, 0, 3]
wrong_obstruction = raises_certificate_error(
    lambda: list(rep.classify_range(TRIBONACCI, 8, 0)))
rep.obstruction_table = lambda spec, x: [0] * 18 + [9]
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
    lambda: rep.MembershipRecord(1, rep.Obstructed(3), "enumeration"))
rep._represent_enumerate = lambda n_big, n: rep.Member(1, 1)
wrong_member = raises_certificate_error(lambda: rep.represent(233, 13))
rep._nonmember_prime = lambda factors, n: 3
rep.ENUM_LIMIT = 0
wrong_prime = raises_certificate_error(lambda: rep.represent(233, 13))
sys.exit(0 if wrong_witness and wrong_obstruction and composite_obstruction
         and after_record and cut_block and wrong_method and wrong_member
         and wrong_prime else 1)
"""


def test_wrong_certificates_raise_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_CERTIFICATES],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
