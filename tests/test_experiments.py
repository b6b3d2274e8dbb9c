import math
import random
import tracemalloc

import pytest

from ternary_squares import experiments as ex
from ternary_squares import modular
from ternary_squares.charpoly import discriminant
from ternary_squares.modular import term_mod, z_primes
from ternary_squares.recurrence import (FIVE_FIB_SQ_MINUS_4, POW2_PLUS_FIB,
                                        POW2_PLUS_N, SQUARE_POW, TRIBONACCI,
                                        RecurrenceSpec)
from ternary_squares.sqrtmod import legendre


def largest_prime_factor(n):
    if n == 1:
        return 1
    p, biggest = 2, 1
    while p * p <= n:
        while n % p == 0:
            biggest, n = p, n // p
        p += 1
    return max(biggest, n) if n > 1 else biggest


def test_smooth_count_examples():
    assert ex.smooth_count(10, 2) == 4          # {1, 2, 4, 8}
    assert ex.smooth_count(100, 5) == 34
    assert ex.smooth_count(50, 50) == 50


def test_smooth_count_brute_oracle():
    for x, y in ((30, 3), (200, 7), (300, 11), (123, 2)):
        expect = sum(1 for n in range(1, x + 1) if largest_prime_factor(n) <= y)
        assert ex.smooth_count(x, y) == expect


def test_smooth_count_validation():
    with pytest.raises(ValueError):
        ex.smooth_count(10, 1)
    with pytest.raises(ex.CountBudgetError):
        ex.smooth_count(10**9, 10)


def test_divisor_interval_examples():
    assert ex.divisor_interval_count(20, 2, 4) == 6      # multiples of 3
    assert ex.divisor_interval_count(50, 6, 7) == 0      # empty open interval
    assert ex.shifted_prime_count(50, 2, 4, -1) == 6     # 3 | p - 1


def test_divisor_interval_brute_oracle():
    def brute_H(x, y, z):
        count = 0
        for n in range(1, x + 1):
            if any(n % d == 0 for d in range(1, n + 1) if y < d < z):
                count += 1
        return count

    for x, y, z in ((40, 2, 5), (60, 3, 9), (25, 2.5, 4.5)):
        assert ex.divisor_interval_count(x, y, z) == brute_H(x, y, z)


def test_shifted_prime_brute_oracle():
    def brute_P(x, y, z, lam):
        from ternary_squares.primes import iter_primes
        count = 0
        for p in iter_primes(x):
            m = p + lam
            if m >= 1 and any(m % d == 0 for d in range(1, m + 1) if y < d < z):
                count += 1
        return count

    for x, y, z, lam in ((50, 2, 4, -1), (80, 2, 6, 1), (100, 4, 9, -1)):
        assert ex.shifted_prime_count(x, y, z, lam) == brute_P(x, y, z, lam)


def test_smooth_density_shape():
    # density of 5-smooth numbers is nonincreasing on a doubling grid and
    # stays within a small constant of the x*exp(-u/2) shape (informational)
    grid = [100, 200, 400, 800, 1600, 3200]
    ratios = [ex.smooth_count(x, 5) / x for x in grid]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    for x, r in zip(grid, ratios):
        u = math.log(x) / math.log(5)
        assert r <= 2.0 * math.exp(-u / 2)


def test_hard_count_bounds():
    from ternary_squares.primes import iter_primes
    x, y, z = 200, 3, 9
    assert ex.divisor_interval_count(x, y, z) <= x
    assert ex.shifted_prime_count(x, y, z, 1) <= len(list(iter_primes(x)))


def test_counter_input_errors():
    with pytest.raises(ValueError, match="lam"):
        ex.shifted_prime_count(50, 2, 4, 0)
    with pytest.raises(ValueError, match="z <= x"):
        ex.divisor_interval_count(20, 2, 30)
    for z3, y2 in ((10, 10), (100, 2)):
        with pytest.raises(ValueError, match="z3 < y2"):
            ex.omega_IZ(TRIBONACCI, 91, z3, y2)


def test_omega_iz_examples():
    assert ex.omega_IZ(TRIBONACCI, 91, 2, 100) == 2      # 91 = 7 * 13
    assert ex.omega_IZ(TRIBONACCI, 8, 2, 100) == 0
    assert ex.omega_IZ(TRIBONACCI, 7 * 13 * 3, 2, 100) == 2   # 3 is not in Z


def test_omega_iz_additive_on_coprime_parts():
    rng = random.Random(41)
    for _ in range(40):
        a = rng.randrange(2, 3000)
        b = rng.randrange(2, 3000)
        if math.gcd(a, b) != 1:
            continue
        total = ex.omega_IZ(TRIBONACCI, a * b, 2, 10**4)
        assert total == (ex.omega_IZ(TRIBONACCI, a, 2, 10**4)
                         + ex.omega_IZ(TRIBONACCI, b, 2, 10**4))


def test_beukers_zero_count():
    r = ex.beukers_zero_count(TRIBONACCI, 500)
    assert dict(r.observations)["zero_count"] == 2       # n = 0, 1
    assert r.passed
    r = ex.beukers_zero_count(POW2_PLUS_FIB, 500)
    assert dict(r.observations)["zero_count"] == 0
    r = ex.beukers_zero_count(RecurrenceSpec(1, 1, 1, 1, -1, 0), 500)
    assert dict(r.observations)["zero_count"] <= 6 and r.passed


def test_beukers_rejects_bad_specs():
    with pytest.raises(ValueError):
        ex.beukers_zero_count(RecurrenceSpec(1, 1, 1, 0, 0, 0), 100)
    with pytest.raises(ValueError):
        ex.beukers_zero_count(POW2_PLUS_N, 100)          # repeated root


def test_z_density_reads_one_symbol_per_class(monkeypatch):
    # (d/p) depends only on p mod 4|d| = 176 for d = -44, so at most
    # phi(176) = 80 symbols of the discriminant; the power at every prime
    # took 9590, one per prime other than 2 and 11
    d = discriminant(TRIBONACCI)
    calls = []
    monkeypatch.setattr(modular, "legendre",
                        lambda a, p: calls.append(a == d) or legendre(a, p))
    r = ex.z_density(TRIBONACCI, 10**5)
    assert dict(r.observations)["prime_count"] == 9592
    assert sum(calls) <= 80


def test_z_density_small_and_medium():
    r = ex.z_density(TRIBONACCI, 13)
    obs = dict(r.observations)
    assert obs["z_count"] == 2 and obs["prime_count"] == 6
    assert obs["ratio"] == pytest.approx(1 / 3)
    r = ex.z_density(POW2_PLUS_FIB, 10**5)
    assert abs(dict(r.observations)["ratio"] - 0.5) <= 0.02
    assert r.passed


def test_lemma5_and_multiplier_sweeps_small():
    r = ex.lemma5_sweep(TRIBONACCI, 3, 10)
    assert r.passed and dict(r.observations)["primes_checked"] == 1
    r = ex.multiplier_sweep(TRIBONACCI, 3, 10)
    assert r.passed and dict(r.observations)["max_mult_order"] == 3
    r = ex.lemma5_sweep(POW2_PLUS_FIB, 3, 200)
    assert r.passed and not r.violations


def test_char_sum_sweep():
    r = ex.char_sum_sweep(TRIBONACCI, 100)
    assert r.passed
    assert dict(r.observations)["max_abs_sum_over_p"] <= 6


@pytest.mark.parametrize("spec", [TRIBONACCI, RecurrenceSpec(1, -1, -1, 1, 2, 3)])
def test_char_sum_sweep_matches_term_mod_oracle(spec, monkeypatch):
    # every progression sum the sweep takes, against V_m = U_{pm} mod p
    # from term_mod, with V's period and each progression's minimal
    # period found by brute force and the sum taken by Legendre symbols
    def first_period(word):
        n = len(word)
        return next(t for t in range(1, n + 1)
                    if all(word[i] == word[(i + t) % n] for i in range(n)))

    expect = {}
    for p in z_primes(spec, 60):
        v = [term_mod(spec, p * m, p) for m in range(2 * p * p)]
        t_v = next(t for t in range(1, p * p) if v[t:t + 3] == v[:3])
        for d in (1, 2, 3):
            for c in range(d):
                word = [v[(c + d * k) % t_v]
                        for k in range(1, t_v // math.gcd(d, t_v) + 1)]
                expect[p, c, d] = sum(legendre(w, p)
                                      for w in word[:first_period(word)])
    sums = {}
    inner = modular._progression_char_sum

    def recorded(values, c, d, chi):
        sums[len(chi), c, d] = inner(values, c, d, chi)
        return sums[len(chi), c, d]

    monkeypatch.setattr(modular, "_progression_char_sum", recorded)
    r = ex.char_sum_sweep(spec, 60)
    assert sums == expect
    assert dict(r.observations)["max_abs_sum_over_p"] == \
        max(abs(s) / p for (p, _, _), s in expect.items())


def test_counterexample_densities():
    r = ex.counterexample_density("square-pow", SQUARE_POW, 200)
    obs = dict(r.observations)
    assert r.passed and obs["member_density"] == 1.0

    r = ex.counterexample_density("pow2-plus-n", POW2_PLUS_N, 200)
    obs = dict(r.observations)
    assert r.passed and obs["class_density"] == 1.0
    assert obs["member_density"] == pytest.approx(0.5)

    r = ex.counterexample_density("five-fib-sq-minus-4", FIVE_FIB_SQ_MINUS_4, 201)
    obs = dict(r.observations)
    assert r.passed and obs["class_density"] == 1.0

    with pytest.raises(ValueError):
        ex.counterexample_density("tribonacci", TRIBONACCI, 100)


def test_counterexample_density_holds_one_term_at_a_time():
    # all 8000 exact terms of square-pow held at once take about 8.8 MB
    tracemalloc.start()
    try:
        r = ex.counterexample_density("square-pow", SQUARE_POW, 8000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.passed and peak < 10**6


def test_report_json_shape():
    r = ex.z_density(TRIBONACCI, 100)
    d = r.to_json_dict()
    assert set(d) == {"name", "parameters", "observations", "violations", "pass"}
    import json
    json.dumps(d)
