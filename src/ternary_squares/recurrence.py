"""Third-order integer recurrences: specs, presets and exact term computation.

A spec is the tuple (a1, a2, a3, u0, u1, u2) defining

    U_{n+3} = a1*U_{n+2} + a2*U_{n+1} + a3*U_n,   U_0=u0, U_1=u1, U_2=u2,

with a3 != 0 so the companion matrix is invertible and the sequence is
purely periodic modulo any prime not dividing a3.
"""

import math
from dataclasses import dataclass
from itertools import count, islice

DEFAULT_TERM_DIGITS = 10**6


class TermBudgetError(Exception):
    """Requested term would exceed the configured decimal-digit budget."""


@dataclass(frozen=True)
class RecurrenceSpec:
    a1: int
    a2: int
    a3: int
    u0: int
    u1: int
    u2: int

    def __post_init__(self):
        if self.a3 == 0:
            raise ValueError("a3 must be nonzero")

    @property
    def initial_terms(self):
        return (self.u0, self.u1, self.u2)

    @property
    def coefficients(self):
        return (self.a1, self.a2, self.a3)

    def is_zero_sequence(self):
        return self.u0 == self.u1 == self.u2 == 0

    def to_json_dict(self):
        return {"a1": self.a1, "a2": self.a2, "a3": self.a3,
                "u0": self.u0, "u1": self.u1, "u2": self.u2}


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n):
    """L_n by doubling (L_k, L_{k+1}) over the bits of n, with
    L_2k = L_k^2 - 2(-1)^k and L_2k+1 = L_k*L_{k+1} - (-1)^k."""
    a, b, k = 2, 1, 0
    for bit in bin(n)[2:]:
        sign = -1 if k & 1 else 1
        a, b, k = a * a - 2 * sign, a * b - sign, 2 * k
        if bit == "1":
            a, b, k = b, a + b, k + 1
    return a


# Preset tuples. The three "counterexample" presets have closed forms:
# pow2-plus-n is 2^n + n, square-pow is (2^n + 1)^2, and
# five-fib-sq-minus-4 is L_n^2, which equals 5*F_n^2 - 4 at every odd n.
# Fibonacci is the ternary F_{n+3} = 2 F_{n+2} - F_n, with cubic
# (X - 1)(X^2 - X - 1).
TRIBONACCI = RecurrenceSpec(1, 1, 1, 0, 0, 1)
POW2_PLUS_FIB = RecurrenceSpec(3, -1, -2, 1, 3, 5)
POW2_PLUS_N = RecurrenceSpec(4, -5, 2, 1, 3, 6)
SQUARE_POW = RecurrenceSpec(7, -14, 8, 4, 9, 25)
FIVE_FIB_SQ_MINUS_4 = RecurrenceSpec(2, 2, -1, 4, 1, 9)
FIBONACCI = RecurrenceSpec(2, 0, -1, 0, 1, 1)

PRESETS = {
    "tribonacci": TRIBONACCI,
    "pow2-plus-fib": POW2_PLUS_FIB,
    "pow2-plus-n": POW2_PLUS_N,
    "square-pow": SQUARE_POW,
    "five-fib-sq-minus-4": FIVE_FIB_SQ_MINUS_4,
    "fibonacci": FIBONACCI,
}

_CLOSED_FORMS = {
    "tribonacci": None,
    "pow2-plus-fib": lambda n: 2**n + fibonacci(n),
    "pow2-plus-n": lambda n: 2**n + n,
    "square-pow": lambda n: (2**n + 1) ** 2,
    "five-fib-sq-minus-4": lambda n: lucas(n) ** 2,
    "fibonacci": fibonacci,
}


def resolve_preset(name):
    """Look up a preset by CLI name; raises KeyError on unknown names."""
    key = name.strip().lower()
    if key not in PRESETS:
        raise KeyError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})")
    return PRESETS[key]


def validate_presets():
    """Check each preset against 20 terms of its closed form.

    The coefficient tuples were derived from the stated factorizations,
    so they are machine-checked here rather than trusted.
    """
    for name, spec in PRESETS.items():
        closed = _CLOSED_FORMS[name]
        if closed is None:
            continue
        for n, value in enumerate(term_iter(spec, 19)):
            if value != closed(n):
                raise AssertionError(
                    f"preset {name}: term {n} is {value}, closed form gives {closed(n)}")


def growth_rate(spec):
    """Cheap upper bound on max |root| of the characteristic polynomial
    (Cauchy bound), used only for the term-size budget estimate."""
    return 1 + max(abs(spec.a1), abs(spec.a2), abs(spec.a3))


def _check_budget(spec, n, budget_digits):
    # digits of U_n grow like n*log10(Gamma); the Cauchy bound overshoots
    # Gamma a little, so scale the raw budget rather than reject hard at it
    est = n * math.log10(growth_rate(spec))
    if est > 4 * budget_digits:
        raise TermBudgetError(
            f"term {n} would have roughly {est:.3g} digits, over the "
            f"{budget_digits}-digit budget")


def _terms(spec, budget_digits):
    """U_0, U_1, ... exactly, with O(1) big-integer state. Raises
    TermBudgetError at the first term with more than budget_digits decimal
    digits, before yielding it."""
    a1, a2, a3 = spec.coefficients
    x, y, z = spec.initial_terms
    # 2^ok_bits < 10^budget_digits < 2^(ok_bits + 1), so a term of at most
    # ok_bits bits fits, one of more than ok_bits + 1 does not, and only
    # the band in between needs the exact comparison
    ok_bits = int(budget_digits * math.log2(10))
    for n in count():
        bits = x.bit_length()
        if bits > ok_bits and (bits > ok_bits + 1
                               or abs(x) >= 10**budget_digits):
            raise TermBudgetError(
                f"term {n} has more than the {budget_digits}-digit budget")
        yield x
        x, y, z = y, z, a1 * z + a2 * y + a3 * x


def term_iter(spec, n_max, budget_digits=DEFAULT_TERM_DIGITS):
    """Yield U_0 .. U_{n_max} exactly, with O(1) big-integer state.

    Raises TermBudgetError at the first term with more than budget_digits
    decimal digits, before yielding it."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _check_budget(spec, n_max, budget_digits)
    yield from islice(_terms(spec, budget_digits), n_max + 1)


def term(spec, n, budget_digits=DEFAULT_TERM_DIGITS):
    """U_n computed exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return term_walker(spec, budget_digits)(n)


def term_walker(spec, budget_digits=DEFAULT_TERM_DIGITS):
    """A function n -> U_n for nondecreasing n >= 0 that steps on from
    the last n it was given, so indices up to x cost x steps in all.

    It raises TermBudgetError wherever term(spec, n, budget_digits) would:
    at an n over the growth estimate, else at the first term up to n with
    more than budget_digits digits; it cannot be used after that."""
    terms = _terms(spec, budget_digits)
    last, value = -1, None

    def term_at(n):
        nonlocal last, value
        if n < last:
            raise ValueError("indices must not decrease")
        _check_budget(spec, n, budget_digits)
        if n > last:
            value = next(islice(terms, n - last - 1, None))
            last = n
        return value

    return term_at


def spec_from_json(obj):
    """Build a spec from a preset name or a {"a1": ..., "u2": ...} mapping."""
    if isinstance(obj, str):
        return resolve_preset(obj)
    if isinstance(obj, dict):
        missing = {"a1", "a2", "a3", "u0", "u1", "u2"} - set(obj)
        if missing:
            raise ValueError(f"spec object is missing fields {sorted(missing)}")
        ints = {k: obj[k] for k in ("a1", "a2", "a3", "u0", "u1", "u2")}
        for k, v in ints.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"spec field {k} must be an integer, got {v!r}")
        return RecurrenceSpec(**ints)
    raise ValueError(f"cannot build a recurrence spec from {obj!r}")


validate_presets()
