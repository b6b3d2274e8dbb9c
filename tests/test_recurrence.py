import random

import pytest

from ternary_squares.recurrence import (FIBONACCI, FIVE_FIB_SQ_MINUS_4,
                                        POW2_PLUS_FIB, POW2_PLUS_N, PRESETS,
                                        SQUARE_POW, TRIBONACCI,
                                        RecurrenceSpec, TermBudgetError,
                                        fibonacci, lucas, resolve_preset,
                                        spec_from_json, term, term_iter,
                                        term_walker, validate_presets)

TRIB_PREFIX = [0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81]


def test_tribonacci_prefix():
    assert list(term_iter(TRIBONACCI, 10)) == TRIB_PREFIX
    assert term(TRIBONACCI, 2) == 1
    assert term(TRIBONACCI, 10) == 81


def test_initial_terms():
    for spec in PRESETS.values():
        assert term(spec, 0) == spec.u0
        assert list(term_iter(spec, 0)) == [spec.u0]


def test_pow2_plus_fib_values():
    assert term(POW2_PLUS_FIB, 5) == 37  # 2^5 + F_5
    assert list(term_iter(POW2_PLUS_FIB, 2)) == [1, 3, 5]
    for n in range(60):
        assert term(POW2_PLUS_FIB, n) == 2**n + fibonacci(n)


def test_recurrence_window_property():
    rng = random.Random(99)
    for _ in range(40):
        spec = RecurrenceSpec(rng.randint(-5, 5), rng.randint(-5, 5),
                              rng.choice([-3, -2, -1, 1, 2, 3]),
                              rng.randint(-5, 5), rng.randint(-5, 5),
                              rng.randint(-5, 5))
        seq = list(term_iter(spec, 40))
        for n in range(38):
            assert seq[n + 3] == (spec.a1 * seq[n + 2] + spec.a2 * seq[n + 1]
                                  + spec.a3 * seq[n])


def test_term_iter_agrees_with_term():
    for spec in (TRIBONACCI, POW2_PLUS_N):
        seq = list(term_iter(spec, 30))
        for n in range(31):
            assert seq[n] == term(spec, n)


def test_preset_closed_forms():
    for n in range(201):
        assert term(SQUARE_POW, n) == (2**n + 1) ** 2
        assert term(POW2_PLUS_N, n) == 2**n + n
        assert term(FIVE_FIB_SQ_MINUS_4, n) == lucas(n) ** 2
    # the sequence agrees with 5*F_n^2 - 4 exactly on odd n
    for n in range(1, 201, 2):
        assert term(FIVE_FIB_SQ_MINUS_4, n) == 5 * fibonacci(n) ** 2 - 4


def test_fibonacci_lucas_helpers():
    assert [fibonacci(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert [lucas(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]
    assert fibonacci(13) == 233


def test_budget_error():
    with pytest.raises(TermBudgetError):
        term(TRIBONACCI, 10**9)
    with pytest.raises(TermBudgetError):
        list(term_iter(TRIBONACCI, 50, budget_digits=1))


NINES = RecurrenceSpec(10, 1, -10, 0, 9, 99)          # U_n = 10^n - 1
TENS = RecurrenceSpec(10, 1, -10, -1, -10, -100)      # U_n = -10^n


@pytest.mark.parametrize("spec", [TRIBONACCI, POW2_PLUS_FIB, NINES, TENS,
                                  RecurrenceSpec(-2, 1, -1, -5, 3, -1)])
def test_budget_refuses_first_term_over_budget(spec):
    terms = list(term_iter(spec, 60))
    for digits in range(1, 13):
        first = next(n for n, u in enumerate(terms)
                     if len(str(abs(u))) > digits)
        assert list(term_iter(spec, first - 1, digits)) == terms[:first]
        with pytest.raises(TermBudgetError, match=f"^term {first} "):
            term(spec, first, digits)


@pytest.mark.parametrize("spec", [TRIBONACCI, POW2_PLUS_FIB, NINES, TENS])
def test_term_walker_matches_term(spec):
    terms = list(term_iter(spec, 60))
    term_at = term_walker(spec)
    for n in (0, 0, 1, 2, 3, 7, 30, 30, 60):
        assert term_at(n) == terms[n]
    with pytest.raises(ValueError):
        term_at(59)
    for digits in range(1, 13):
        first = next(n for n, u in enumerate(terms)
                     if len(str(abs(u))) > digits)
        term_at = term_walker(spec, digits)
        assert term_at(first // 2) == terms[first // 2]
        assert term_at(first - 1) == terms[first - 1]
        with pytest.raises(TermBudgetError, match=f"^term {first} "):
            term_at(first)


def test_term_walker_refuses_at_the_growth_estimate():
    # U_n = n; the estimate refuses n = 20 at 3 digits, as term does
    spec = RecurrenceSpec(3, -3, 1, 0, 1, 2)
    term_at = term_walker(spec, 3)
    assert term_at(19) == 19
    for refuse in (lambda: term(spec, 20, 3), lambda: term_at(20)):
        with pytest.raises(TermBudgetError, match="^term 20 would have"):
            refuse()


def test_budget_band_is_decided_exactly():
    # 10^d - 1 and 10^d have the same bit length, d and d + 1 digits
    for digits in (1, 2, 3, 19, 20, 300):
        assert term(NINES, digits, digits) == 10**digits - 1
        with pytest.raises(TermBudgetError):
            term(NINES, digits + 1, digits)
        assert term(TENS, digits - 1, digits) == -10**(digits - 1)
        with pytest.raises(TermBudgetError, match=f"^term {digits} "):
            term(TENS, digits, digits)


def test_a3_must_be_nonzero():
    with pytest.raises(ValueError):
        RecurrenceSpec(1, 1, 0, 0, 0, 1)


def test_zero_sequence_flag():
    assert RecurrenceSpec(1, 1, 1, 0, 0, 0).is_zero_sequence()
    assert not TRIBONACCI.is_zero_sequence()


def test_presets_resolve():
    assert resolve_preset("tribonacci") == TRIBONACCI
    assert resolve_preset("Five-Fib-Sq-Minus-4") == FIVE_FIB_SQ_MINUS_4
    assert resolve_preset("fibonacci") == FIBONACCI
    with pytest.raises(KeyError):
        resolve_preset("nope")


def test_spec_json_roundtrip():
    spec = spec_from_json(TRIBONACCI.to_json_dict())
    assert spec == TRIBONACCI
    assert spec_from_json("tribonacci") == TRIBONACCI
    with pytest.raises(ValueError):
        spec_from_json({"a1": 1})
    with pytest.raises(ValueError):
        spec_from_json({"a1": 1, "a2": 1, "a3": "x", "u0": 0, "u1": 0, "u2": 1})
    with pytest.raises(ValueError):
        spec_from_json(3.5)


def test_validate_presets_runs():
    validate_presets()


def test_fibonacci_preset_is_ternary():
    # F_{n+3} = 2 F_{n+2} - F_n: the cubic (X - 1)(X^2 - X - 1)
    assert FIBONACCI == RecurrenceSpec(2, 0, -1, 0, 1, 1)
    assert list(term_iter(FIBONACCI, 200)) == [fibonacci(n) for n in range(201)]
