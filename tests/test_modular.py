import math
import random
import subprocess
import sys

import pytest

from ternary_squares import modular
from ternary_squares.charpoly import discriminant
from ternary_squares.modular import (DEFAULT_SCAN_STATES, RAMIFIED,
                                     PrimeProfile, ScanBudgetError,
                                     _legendre_table, _polymulmod,
                                     _progression_char_sum, _progression_word,
                                     _reduction_rows, _v_values_one_period,
                                     _x_pow, classify_prime, count_roots_mod_p,
                                     in_P_fU, in_Z, term_mod, z_primes)
from ternary_squares.primes import sieve
from ternary_squares.recurrence import (FIVE_FIB_SQ_MINUS_4, POW2_PLUS_FIB,
                                        TRIBONACCI, RecurrenceSpec, term,
                                        term_iter)
from ternary_squares.sqrtmod import legendre

GOOD_PRESETS = (TRIBONACCI, POW2_PLUS_FIB)


def period_by_iteration(spec, p, max_states=DEFAULT_SCAN_STATES):
    """t_p by direct state cycling; oracle for the divisor-based method."""
    s0 = tuple(x % p for x in spec.initial_terms)
    a1, a2, a3 = (c % p for c in spec.coefficients)
    x, y, z = s0
    for k in range(1, max_states + 1):
        x, y, z = y, z, (a1 * z + a2 * y + a3 * x) % p
        if (x, y, z) == s0:
            return k
    raise ScanBudgetError(f"no period within {max_states} states for p={p}")


def v_period(spec, p):
    """One period V_0 .. V_{t-1} of V_m = U_{p*m} mod p."""
    return _v_values_one_period(spec, p, DEFAULT_SCAN_STATES)


def progression_sum(spec, p, c, d):
    """Sum of (V_{c+dk} / p) over one minimal period of the progression,
    from a fresh period of V."""
    return _progression_char_sum(v_period(spec, p), c, d, _legendre_table(p))


def progression_period(spec, p, c, d):
    """t_{c,d,p}, the minimal period of V_{c+dk}, from a fresh period of V."""
    return _progression_word(v_period(spec, p), c, d)[1]


def _minimal_word_period(word):
    """Smallest t dividing len(word) with word[i] == word[(i+t) % len]."""
    n = len(word)
    for t in sorted(d for k in range(1, math.isqrt(n) + 1) if n % k == 0
                    for d in (k, n // k)):
        if all(word[i] == word[(i + t) % n] for i in range(n)):
            return t
    return n


def test_term_mod_examples():
    assert term_mod(TRIBONACCI, 7, 7) == 6          # U_7 = 13
    assert term_mod(TRIBONACCI, 10**9, 7) == term_mod(TRIBONACCI, 10**9 % 48, 7)
    assert term_mod(TRIBONACCI, 0, 5) == 0
    assert term_mod(POW2_PLUS_FIB, 0, 7) == 1


def x_pow_by_products(spec, e, p):
    """X^e by right-to-left square-and-multiply with the general product."""
    r3, r4 = _reduction_rows(spec, p)
    out, base = (1 % p, 0, 0), (0, 1 % p, 0)
    while e:
        if e & 1:
            out = _polymulmod(out, base, p, r3, r4)
        base = _polymulmod(base, base, p, r3, r4)
        e >>= 1
    return out


def test_x_pow_fused_squaring_matches_general_product():
    rng = random.Random(27)
    specs = list(GOOD_PRESETS) + [RecurrenceSpec(-2, 7, -3, 0, 0, 1)] \
        + random_cubics(28, 3)
    for spec in specs:
        for p in (2, 3, 5, 7, 47, 19997):
            exponents = list(range(65)) + [rng.randrange(p**3)
                                           for _ in range(40)]
            for e in exponents:
                assert _x_pow(spec, e, p) == x_pow_by_products(spec, e, p), \
                    (spec, e, p)


def test_term_mod_full_oracle_grid():
    # agreement with exact terms for all n <= 1000, p <= 1000
    for spec in GOOD_PRESETS:
        exact = list(term_iter(spec, 1000))
        for p in sieve(1000):
            residues = [u % p for u in exact]
            for n in range(1001):
                assert term_mod(spec, n, p) == residues[n], (spec, n, p)


def test_count_roots_examples():
    assert count_roots_mod_p(TRIBONACCI, 7) == 1
    assert count_roots_mod_p(TRIBONACCI, 3) == 0
    assert count_roots_mod_p(TRIBONACCI, 11) == RAMIFIED
    assert count_roots_mod_p(TRIBONACCI, 2) == RAMIFIED     # 2 | 44


def brute_roots(spec, p):
    return [x for x in range(p)
            if (x**3 - spec.a1 * x**2 - spec.a2 * x - spec.a3) % p == 0]


def brute_root_count(spec, p):
    if discriminant(spec) % p == 0:
        return RAMIFIED
    return len(brute_roots(spec, p))


def random_cubics(seed, count):
    rng = random.Random(seed)
    return [RecurrenceSpec(rng.randint(-5, 5), rng.randint(-5, 5),
                           rng.choice([-3, -1, 1, 2, 5]), 0, 0, 1)
            for _ in range(count)]


def test_count_roots_frobenius_path_vs_scan():
    specs = list(GOOD_PRESETS) + random_cubics(21, 6)
    for spec in specs:
        for p in sieve(1500):
            assert count_roots_mod_p(spec, p) == brute_root_count(spec, p), \
                (spec, p)


def test_three_root_primes_tribonacci():
    three_root = [p for p in sieve(1000)[1:]
                  if count_roots_mod_p(TRIBONACCI, p) == 3]
    assert three_root[:3] == [47, 53, 103]


def test_in_Z_matches_root_count():
    specs = list(GOOD_PRESETS) + random_cubics(22, 5)
    for spec in specs:
        for p in sieve(500):
            expected = (p != 2 and spec.a3 % p != 0
                        and count_roots_mod_p(spec, p) == 1)
            assert in_Z(spec, p) == expected, (spec, p)


def test_z_primes_examples():
    assert list(z_primes(TRIBONACCI, 13)) == [7, 13]
    assert list(z_primes(TRIBONACCI, 6)) == []
    assert list(z_primes(POW2_PLUS_FIB, 30)) == [3, 7, 13, 17, 23]


def test_classify_prime_tribonacci_7():
    prof = classify_prime(TRIBONACCI, 7)
    assert prof.in_Z and prof.root_count == 1
    assert prof.alpha == 3
    assert prof.ord_alpha == 6
    assert prof.ord_ratio == 8
    assert prof.k_p == 48
    assert prof.t_p == 48
    assert prof.mult_order == 3


def test_classify_prime_other_examples():
    assert classify_prime(TRIBONACCI, 13).alpha == 7
    prof = classify_prime(TRIBONACCI, 3)
    assert prof.root_count == 0 and not prof.in_Z
    assert prof.k_p is None


def test_classify_prime_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify_prime(TRIBONACCI, 2)
    with pytest.raises(ValueError):
        classify_prime(POW2_PLUS_FIB, 2)      # p | a3 as well
    with pytest.raises(ValueError):
        classify_prime(RecurrenceSpec(1, 1, 5, 0, 0, 1), 5)
    with pytest.raises(ValueError):
        classify_prime(TRIBONACCI, 9)


def test_period_divisor_method_matches_iteration():
    rng = random.Random(23)
    specs = list(GOOD_PRESETS) + [
        RecurrenceSpec(rng.randint(-4, 4), rng.randint(-4, 4),
                       rng.choice([-3, -1, 1, 3]),
                       rng.randint(-3, 3), rng.randint(-3, 3),
                       rng.choice([1, 2, 3])) for _ in range(5)]
    for spec in specs:
        for p in sieve(60):
            if p == 2 or spec.a3 % p == 0:
                continue
            assert classify_prime(spec, p).t_p == period_by_iteration(spec, p), \
                (spec, p)


def test_classify_prime_computes_each_power_once(monkeypatch):
    seen = []

    def counted(spec, e, p):
        seen.append((e, p))
        return _x_pow(spec, e, p)

    monkeypatch.setattr(modular, "_x_pow", counted)
    for p in sieve(500)[1:]:
        classify_prime(TRIBONACCI, p)
    assert len(seen) == len(set(seen)) > 0


def test_classify_prime_powers_stay_in_the_short_halves(monkeypatch):
    # X^e is raised only to e <= p + 1 at a prime in Z and e <= p^2+p+1
    # at a no-root prime: the orders split at p - 1, and the (p-1)-part
    # is an order of F_p scalars
    exponents = []

    def counted(spec, e, p):
        exponents.append(e)
        return _x_pow(spec, e, p)

    monkeypatch.setattr(modular, "_x_pow", counted)
    bounds = {1: lambda p: p + 1, 0: lambda p: p * p + p + 1}
    reached = set()
    for spec in (TRIBONACCI, RecurrenceSpec(1, -1, -1, 1, 2, 3),
                 RecurrenceSpec(-1, 1, -1, 2, 0, 1)):
        for p in sieve(2000)[1:]:
            exponents.clear()
            prof = classify_prime(spec, p)
            if prof.root_count in bounds:
                assert max(exponents) <= bounds[prof.root_count](p), (spec, p)
                reached.add(prof.root_count)
    assert reached == {0, 1}


_CORRUPT_FROBENIUS = """
import sys
from ternary_squares import modular
from ternary_squares.recurrence import TRIBONACCI

assert not __debug__, "run me under python -O"
true_x_pow = modular._x_pow
roots_47 = [x for x in range(47) if (x**3 - x * x - x - 1) % 47 == 0]
# a wrong X^p at each kind of prime: X claims three roots, 0 claims none,
# and 2X - root claims one root at the three-root prime 47
cases = [(3, (0, 1, 0)), (7, (0, 1, 0)), (7, (0, 0, 0)), (13, (0, 1, 0)),
         (13, (0, 0, 0)), (47, (0, 0, 0))]
cases += [(47, (-x % 47, 2, 0)) for x in roots_47]
returned = []
for p, wrong in cases:
    modular._x_pow = (lambda spec, e, p, wrong=wrong:
                      wrong if e == p else true_x_pow(spec, e, p))
    try:
        returned.append((p, wrong, modular.classify_prime(TRIBONACCI, p)))
    except ArithmeticError:
        pass
print(returned)
sys.exit(1 if returned or len(roots_47) != 3 else 0)
"""


def test_corrupt_frobenius_raises_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_FROBENIUS],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ramified_profile_has_period():
    prof = classify_prime(TRIBONACCI, 11)
    assert prof.root_count == RAMIFIED
    assert prof.t_p == period_by_iteration(TRIBONACCI, 11)


class Fp2:
    """F_p[t]/(t^2 + B t + C) with t the image of beta; elements are (a, b)
    pairs meaning a + b*t. The oracle for the orders that classify_prime
    reads off X^e in F_p[X]/Psi."""

    def __init__(self, p, B, C):
        self.p = p
        self.B = B % p
        self.C = C % p
        self.one = (1, 0)

    def mul(self, x, y):
        p, B, C = self.p, self.B, self.C
        a, b = x
        c, d = y
        bd = b * d
        return ((a * c - bd * C) % p, (a * d + b * c - bd * B) % p)

    def conj(self, x):
        a, b = x
        return ((a - b * self.B) % self.p, -b % self.p)

    def norm(self, x):
        a, b = x
        return (a * a - a * b * self.B + b * b * self.C) % self.p

    def inv(self, x):
        n_inv = pow(self.norm(x), -1, self.p)
        a, b = self.conj(x)
        return (a * n_inv % self.p, b * n_inv % self.p)

    def pow(self, x, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out


def brute_in_Z_fields(spec, p, alpha):
    """The in-Z fields of a PrimeProfile by stepping n = 1, 2, ...: alpha^n
    in F_p, beta^n in Fp2 and gamma^n as its conjugate. Each order is the
    first n at which its defining equality holds."""
    fld = Fp2(p, alpha - spec.a1, alpha * alpha - spec.a1 * alpha - spec.a2)
    beta = (0, 1)
    a, b = alpha, beta
    ord_alpha = ord_ratio = n0 = None
    n = 1
    while True:
        g = fld.conj(b)
        if ord_alpha is None and a == 1:
            ord_alpha = n
        if ord_ratio is None and b == g:
            ord_ratio = n
        if n0 is None and b == g == (a, 0):
            n0 = n
        if a == 1 and b == fld.one:
            return {"alpha": alpha, "k_p": n, "ord_alpha": ord_alpha,
                    "ord_ratio": ord_ratio, "mult_order": n // n0}
        a = a * alpha % p
        b = fld.mul(b, beta)
        n += 1


def test_classify_prime_matches_brute_oracle():
    rng = random.Random(26)
    specs = list(GOOD_PRESETS) + [
        RecurrenceSpec(rng.randint(-5, 5), rng.randint(-5, 5),
                       rng.choice([-3, -2, 2, 3, 5]), rng.randint(-3, 3),
                       rng.randint(-3, 3), rng.randint(1, 3))
        for _ in range(4)]
    branches = set()
    for spec in specs:
        for p in sieve(300)[1:]:
            if spec.a3 % p == 0:
                continue
            prof = classify_prime(spec, p)
            rc = brute_root_count(spec, p)
            fields = {}
            if rc == 1:
                fields = brute_in_Z_fields(spec, p, brute_roots(spec, p)[0])
            expect = PrimeProfile(p=p, root_count=rc, in_Z=rc == 1,
                                  t_p=prof.t_p, **fields)
            assert prof == expect, (spec, p)
            if p < 150:
                assert prof.t_p == period_by_iteration(spec, p), (spec, p)
            branches.add(rc)
    assert branches == {0, 1, 3, RAMIFIED}


def test_classify_prime_state_parts_match_oracles():
    # POW2_PLUS_FIB's cubic is (X - 2)(X^2 - X - 1), so alpha = 2 at its
    # primes in Z. Fibonacci terms have no alpha part and t_p = ord(beta);
    # 2^n terms have no (beta, gamma) part and t_p = ord(alpha); 2^n + F_n
    # has both and t_p = k_p; 7*F_n is zero mod 7, which is in Z. The
    # cubic always has a root, so tribonacci brings the no-root primes,
    # and 3 times it is zero at the no-root prime 3.
    fib = RecurrenceSpec(3, -1, -2, 0, 1, 1)
    pow2 = RecurrenceSpec(3, -1, -2, 1, 2, 4)
    zero7 = RecurrenceSpec(3, -1, -2, 0, 7, 7)
    zero3 = RecurrenceSpec(1, 1, 1, 0, 0, 3)
    seen = set()
    for p in sieve(300)[1:]:
        in_z = {}
        for spec in (POW2_PLUS_FIB, fib, pow2, zero7, TRIBONACCI, zero3):
            rc = brute_root_count(spec, p)
            if rc == 0 and p > 100:
                continue    # period_by_iteration runs up to p^3 steps
            prof = classify_prime(spec, p)
            fields = {}
            if rc == 1:
                fields = brute_in_Z_fields(spec, p, brute_roots(spec, p)[0])
            expect = PrimeProfile(p=p, root_count=rc, in_Z=rc == 1,
                                  t_p=period_by_iteration(spec, p), **fields)
            assert prof == expect, (spec, p)
            if rc == 1:
                in_z[spec] = prof
            elif rc == 0:
                seen.add("no root, zero state" if prof.t_p == 1 else "no root")
        if POW2_PLUS_FIB in in_z:
            both, t_alpha, t_beta = (in_z[spec].t_p
                                     for spec in (POW2_PLUS_FIB, pow2, fib))
            k_p = in_z[fib].k_p
            assert both == k_p and t_alpha == in_z[pow2].ord_alpha
            # each case counts where its t_p differs from the others'
            if both not in (t_alpha, t_beta):
                seen.add("k_p")
            if t_alpha != k_p:
                seen.add("ord_alpha")
            if t_beta not in (k_p, t_alpha):
                seen.add("ord_beta")
            if in_z[zero7].t_p == 1:
                seen.add("zero state")
    assert seen == {"k_p", "ord_alpha", "ord_beta", "zero state", "no root",
                    "no root, zero state"}


def test_fp2_arithmetic():
    # cofactor of the tribonacci cubic at p = 7 is X^2 + 2X + 5
    fld = Fp2(7, 2, 5)
    beta = (0, 1)
    rng = random.Random(24)
    for _ in range(50):
        x = (rng.randrange(7), rng.randrange(7))
        if x == (0, 0):
            continue
        assert fld.pow(x, 7 * 7 - 1) == fld.one                 # group order
        assert fld.mul(x, fld.inv(x)) == fld.one
    # Frobenius swaps the conjugate roots
    assert fld.pow(beta, 7) == fld.conj(beta)
    # beta * gamma equals the cofactor constant term
    assert fld.mul(beta, fld.conj(beta)) == (5, 0)


def test_frobenius_swap_many_primes():
    for spec in GOOD_PRESETS:
        for p in z_primes(spec, 300):
            prof = classify_prime(spec, p)
            b = (prof.alpha - spec.a1) % p
            c = (prof.alpha**2 - spec.a1 * prof.alpha - spec.a2) % p
            fld = Fp2(p, b, c)
            assert fld.pow((0, 1), p) == fld.conj((0, 1)), (spec, p)


def test_v_mod_examples_and_oracle():
    # V_m = U_{p*m} mod p, by term_mod at p*m or at p*m reduced mod t_p,
    # and by stepping V over one period
    assert term_mod(TRIBONACCI, 7 * 1, 7) == 6     # V_1 = U_7 = 13 = 6 mod 7
    assert term_mod(TRIBONACCI, 7 * 0, 7) == 0
    prof = classify_prime(TRIBONACCI, 7)
    values = v_period(TRIBONACCI, 7)
    for m in range(40):
        expect = term(TRIBONACCI, 7 * m) % 7
        assert term_mod(TRIBONACCI, 7 * m, 7) == expect
        assert term_mod(TRIBONACCI, 7 * m % prof.t_p, 7) == expect
        assert values[m % len(values)] == expect
    seq = [term_mod(TRIBONACCI, 7 * m % prof.t_p, 7) for m in range(1, 97)]
    assert seq[:48] == seq[48:]             # period divides 48


def test_v_mod_requires_Z_membership():
    # the Z-only profile fields, which the sets K_y and L_y read, are
    # absent outside Z
    prof = classify_prime(TRIBONACCI, 3)
    assert not prof.in_Z and not in_Z(TRIBONACCI, 3)
    assert prof.alpha is prof.ord_alpha is prof.ord_ratio is None


def test_char_sum_values():
    s = progression_sum(TRIBONACCI, 7, 0, 1)
    assert abs(s) <= 6 * 7
    # independent recomputation from exact terms over one period
    word = [term(TRIBONACCI, 7 * k) % 7 for k in range(1, 49)]
    expect = 0
    for w in word:
        if w != 0:
            expect += 1 if pow(w, 3, 7) == 1 else -1
    assert s == expect
    s13 = progression_sum(TRIBONACCI, 13, 0, 1)
    assert abs(s13) <= 6 * 13


def test_char_sum_constant_subsequence():
    prof = classify_prime(TRIBONACCI, 7)
    assert abs(progression_sum(TRIBONACCI, 7, 0, prof.t_p)) <= 1


def test_period_in_progression():
    t_p = classify_prime(TRIBONACCI, 7).t_p
    for c, d, t_cdp in ((0, 1, 48), (0, 48, 1), (1, 2, 24)):
        assert progression_period(TRIBONACCI, 7, c, d) == t_cdp \
            == t_p // math.gcd(d, t_p)
    with pytest.raises(ValueError):
        progression_period(TRIBONACCI, 7, 2, 2)


def test_progression_periods_match_formula_sample():
    for p in z_primes(TRIBONACCI, 60):
        prof = classify_prime(TRIBONACCI, p)
        values = v_period(TRIBONACCI, p)
        for d in (1, 2, 3, 5):
            for c in range(min(d, 3)):
                assert _progression_word(values, c, d)[1] == \
                    prof.t_p // math.gcd(d, prof.t_p), (p, c, d)


def test_progression_tables_match_word_oracle():
    # two of the benchmark's sweep cubics beside tribonacci. The helpers
    # progression_sum and progression_period step V afresh at each call,
    # so they are checked below p = 50 only.
    specs = (TRIBONACCI, RecurrenceSpec(1, -1, -1, 0, 0, 1),
             RecurrenceSpec(-1, 1, -1, 2, 0, 1))
    seen_g, seen_c_ge_g, seen_d_gt_tv = set(), False, False
    for spec in specs:
        for p in z_primes(spec, 300):
            prof = classify_prime(spec, p)
            values = _v_values_one_period(spec, p, DEFAULT_SCAN_STATES)
            chi = _legendre_table(p)
            euler = [legendre(a, p) for a in range(p)]
            t_v = len(values)
            pairs = [(c, d) for d in range(1, 7) for c in range(d)]
            pairs += [(c, prof.t_p) for c in sorted({0, 1, prof.t_p - 1})]
            pairs += [(c, prof.t_p + 1) for c in (0, prof.t_p)]
            for c, d in pairs:
                word = [values[(c + d * (k + 1)) % t_v]
                        for k in range(t_v // math.gcd(d, t_v))]
                t_cdp = _minimal_word_period(word)
                expect = sum(map(euler.__getitem__, word[:t_cdp]))
                assert _progression_char_sum(values, c, d, chi) == expect, \
                    (spec, p, c, d)
                assert _progression_word(values, c, d)[1] == t_cdp, \
                    (spec, p, c, d)
                if p < 50:
                    assert progression_sum(spec, p, c, d) == expect
                    assert progression_period(spec, p, c, d) == t_cdp, \
                        (spec, p, c, d)
                g = math.gcd(d, t_v)
                seen_g.add(g)
                seen_c_ge_g |= c >= g > 1
                seen_d_gt_tv |= d > t_v
    assert max(seen_g) > 1 and seen_c_ge_g and seen_d_gt_tv


def test_order_threshold_sets():
    # p in K_y when ord(alpha) <= y, p in L_y when ord(beta/gamma) <= y
    prof = classify_prime(TRIBONACCI, 7)
    assert prof.ord_alpha <= 6
    assert not prof.ord_alpha <= 5
    assert prof.ord_ratio <= 8
    assert not prof.ord_ratio <= 7.5
    assert classify_prime(TRIBONACCI, 3).ord_alpha is None     # 3 not in Z


def test_in_P_fU_against_brute_zeros():
    zeros = [m for m in range(1, 97) if term(TRIBONACCI, 7 * m) % 7 == 0]
    found, witness = in_P_fU(TRIBONACCI, 7, 48)
    # brute expectation: a run of 7 zero positions with span <= 48
    expect = any(zeros[i + 6] - zeros[i] <= 48 for i in range(len(zeros) - 6))
    assert found == expect
    if found:
        assert len(witness) == 7
        assert witness[6] - witness[0] <= 48
        assert all(term(TRIBONACCI, 7 * m) % 7 == 0 for m in witness)


def test_in_P_fU_span_too_small():
    found, witness = in_P_fU(TRIBONACCI, 7, 1)
    assert not found and witness is None


def brute_in_P_fU(spec, p, f_p, m_max):
    """The first run of 7 zeros of U_{p*m} mod p, m <= m_max, with
    span <= f_p, from exact terms."""
    exact = list(term_iter(spec, p * m_max))
    zeros = [m for m in range(1, m_max + 1) if exact[p * m] % p == 0]
    for i in range(len(zeros) - 6):
        if zeros[i + 6] - zeros[i] <= f_p:
            return True, tuple(zeros[i:i + 7])
    return False, None


def test_in_P_fU_ramified_and_three_root_primes():
    # p = 11 divides the discriminant -44; p = 47 has three roots. The V
    # period is 10 at p = 11, so spans above it need more than two periods.
    assert count_roots_mod_p(TRIBONACCI, 11) == RAMIFIED
    assert count_roots_mod_p(TRIBONACCI, 47) == 3
    assert in_P_fU(TRIBONACCI, 11, 60) == (True, (10, 20, 30, 40, 50, 60, 70))
    for p in (11, 47):
        for f_p in (1, 7, 10, 30, 59, 60, 100, 250):
            assert in_P_fU(TRIBONACCI, p, f_p) == \
                brute_in_P_fU(TRIBONACCI, p, f_p, 300), (p, f_p)


def test_in_P_fU_outside_Z():
    # p = 3 has no roots; the same V stepping serves it
    found, witness = in_P_fU(TRIBONACCI, 3, 13)
    zeros = [m for m in range(1, 27) if term(TRIBONACCI, 3 * m) % 3 == 0]
    expect = any(zeros[i + 6] - zeros[i] <= 13 for i in range(len(zeros) - 6))
    assert found == expect


def test_in_P_fU_bad_inputs():
    with pytest.raises(ValueError):
        in_P_fU(TRIBONACCI, 2, 5)
    with pytest.raises(ValueError):
        in_P_fU(POW2_PLUS_FIB, 2, 5)
    with pytest.raises(ValueError):
        in_P_fU(TRIBONACCI, 7, 0)


def test_scan_budget_errors():
    with pytest.raises(ScanBudgetError):
        period_by_iteration(TRIBONACCI, 97, max_states=10)
    with pytest.raises(ScanBudgetError):
        _v_values_one_period(TRIBONACCI, 13, 10)    # t(13) = 168


def test_lemma5_divisibilities_small_sweep():
    for spec in GOOD_PRESETS:
        d = discriminant(spec)
        for p in z_primes(spec, 2000):
            if (2 * spec.a3 * d) % p == 0:
                continue
            prof = classify_prime(spec, p)
            assert (p - 1) % prof.ord_alpha == 0, (spec, p)
            assert (p + 1) % prof.ord_ratio == 0, (spec, p)
            assert prof.k_p % prof.t_p == 0, (spec, p)
            if prof.t_p == prof.k_p:
                o = prof.ord_alpha * prof.ord_ratio
                assert (2 * prof.t_p) % o == 0
                assert (8 * o) % (2 * prof.t_p) == 0
                assert (8 * (p - 1) * (p + 1)) % (8 * o) == 0
            if p > 100:
                assert prof.t_p == prof.k_p, (spec, p)


def test_multiplier_group_divisibility():
    # a3 = +-1 forces multiplier^3 = +-1; cofactor constant +-1 forces
    # multiplier^2 = +-1
    for p in z_primes(TRIBONACCI, 1000):
        prof = classify_prime(TRIBONACCI, p)
        assert 6 % prof.mult_order == 0, p
    for spec in (POW2_PLUS_FIB, FIVE_FIB_SQ_MINUS_4):
        for p in z_primes(spec, 1000):
            prof = classify_prime(spec, p)
            assert 4 % prof.mult_order == 0, (spec, p)
