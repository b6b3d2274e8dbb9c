"""Desk-scale empirical checks of the asymptotic ingredients: splitting
density, order divisibilities, multiplier bounds, zero counts, character
sums, smooth and divisor-interval counts, and the counterexample witness
densities.

Hard-invariant sweeps pass iff their violation list is empty; density
experiments pass by an explicit tolerance carried in the parameters.
"""

import math
from dataclasses import dataclass, field

from . import modular as md
from .charpoly import is_degenerate
from .modular import DEFAULT_SCAN_STATES, classify_prime, in_Z, z_primes
from .primes import factorize, iter_primes
from .recurrence import term_iter
from .representation import _WITNESS_CLASSES, _witness_formula

COUNT_BUDGET = 10**8


class CountBudgetError(Exception):
    """A sieve-based counter was asked to exceed its size budget."""


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    observations: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    passed: bool = True

    def observe(self, label, value):
        self.observations.append((label, value))

    def to_json_dict(self):
        return {
            "name": self.name,
            "parameters": self.parameters,
            "observations": [[label, value] for label, value in self.observations],
            "violations": self.violations,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# splitting density

def z_density(spec, x, tolerance=0.05):
    """Fraction of primes <= x at which the cubic has exactly one root;
    the Chebotarev expectation is 1/2."""
    report = ExperimentReport("z-density",
                              {"x": x, "tolerance": tolerance})
    is_z = md._z_predicate(spec)
    n_primes = 0
    n_z = 0
    for p in iter_primes(x):
        n_primes += 1
        if is_z(p):
            n_z += 1
    ratio = n_z / n_primes if n_primes else 0.0
    report.observe("z_count", n_z)
    report.observe("prime_count", n_primes)
    report.observe("ratio", ratio)
    report.passed = abs(ratio - 0.5) <= tolerance
    if not report.passed:
        report.violations.append(
            {"kind": "density", "ratio": ratio, "target": 0.5,
             "tolerance": tolerance})
    return report


# ---------------------------------------------------------------------------
# order divisibility sweeps

def lemma5_sweep(spec, p_min, p_max):
    """For every p in Z in [p_min, p_max] coprime to 2*a3*disc, check
    ord(alpha) | p-1, ord(beta/gamma) | p+1, t_p | k_p, and, whenever
    t_p = k_p, the chain o1*o2 | 2*t_p | 8*o1*o2 | 8*(p-1)*(p+1)."""
    report = ExperimentReport("lemma5-sweep", {"p_min": p_min, "p_max": p_max})
    checked = equal_tk = 0
    for p in z_primes(spec, p_max):
        if p < p_min:
            continue
        try:
            prof = classify_prime(spec, p)
        except (ValueError, ArithmeticError) as exc:
            report.violations.append({"p": p, "kind": "profile", "error": str(exc)})
            continue
        checked += 1
        o1, o2, t, k = prof.ord_alpha, prof.ord_ratio, prof.t_p, prof.k_p
        if (p - 1) % o1 != 0:
            report.violations.append({"p": p, "kind": "ord_alpha", "ord": o1})
        if (p + 1) % o2 != 0:
            report.violations.append({"p": p, "kind": "ord_ratio", "ord": o2})
        if k % t != 0:
            report.violations.append({"p": p, "kind": "t_divides_k",
                                      "t_p": t, "k_p": k})
        if t == k:
            equal_tk += 1
            chain = ((2 * t) % (o1 * o2) == 0
                     and (8 * o1 * o2) % (2 * t) == 0
                     and (8 * (p - 1) * (p + 1)) % (8 * o1 * o2) == 0)
            if not chain:
                report.violations.append(
                    {"p": p, "kind": "chain", "ord_alpha": o1, "ord_ratio": o2,
                     "t_p": t})
    report.observe("primes_checked", checked)
    report.observe("t_equals_k", equal_tk)
    report.passed = not report.violations
    return report


def multiplier_sweep(spec, p_min, p_max):
    """The multiplier group has at most 6 elements at every p in Z."""
    report = ExperimentReport("multiplier-sweep",
                              {"p_min": p_min, "p_max": p_max})
    checked = 0
    largest = 0
    for p in z_primes(spec, p_max):
        if p < p_min:
            continue
        prof = classify_prime(spec, p)
        checked += 1
        largest = max(largest, prof.mult_order)
        if prof.mult_order > 6:
            report.violations.append({"p": p, "kind": "multiplier",
                                      "mult_order": prof.mult_order})
    report.observe("primes_checked", checked)
    report.observe("max_mult_order", largest)
    report.passed = not report.violations
    return report


# ---------------------------------------------------------------------------
# zero counts

def beukers_zero_count(spec, n_max):
    """Count n <= n_max with U_n = 0 exactly; at most 6 can occur for a
    nondegenerate integer sequence."""
    if spec.is_zero_sequence():
        raise ValueError("zero-count is undefined for the all-zero sequence")
    degenerate, why = is_degenerate(spec)
    if degenerate:
        raise ValueError(f"sequence is degenerate: {why}")
    report = ExperimentReport("beukers-zero-count", {"n_max": n_max})
    zeros = [n for n, u in enumerate(term_iter(spec, n_max)) if u == 0]
    report.observe("zero_count", len(zeros))
    report.observe("zero_indices", zeros[:10])
    report.passed = len(zeros) <= 6
    if not report.passed:
        report.violations.append({"kind": "zero_count", "count": len(zeros)})
    return report


# ---------------------------------------------------------------------------
# character sums

def char_sum_sweep(spec, p_max, max_states=DEFAULT_SCAN_STATES):
    """max |sum of (V_{c+dk}/p)| / p over p in Z up to p_max (with the
    period within budget) and d in {1,2,3}, c < d. The remark after the
    progression lemma says 6 bounds the implied constant."""
    report = ExperimentReport("char-sum-sweep",
                              {"p_max": p_max, "max_states": max_states,
                               "bound": 6})
    worst = 0.0
    checked = skipped = 0
    for p in z_primes(spec, p_max):
        prof = classify_prime(spec, p)
        if prof.t_p > max_states:
            skipped += 1
            continue
        values = md._v_values_one_period(spec, p, max_states)
        chi = md._legendre_table(p)
        checked += 1
        for d in (1, 2, 3):
            for c in range(d):
                s = md._progression_char_sum(values, c, d, chi)
                ratio = abs(s) / p
                worst = max(worst, ratio)
                if ratio > 6:
                    report.violations.append(
                        {"p": p, "c": c, "d": d, "sum": s, "ratio": ratio})
    report.observe("primes_checked", checked)
    report.observe("primes_skipped_budget", skipped)
    report.observe("max_abs_sum_over_p", worst)
    report.passed = not report.violations
    return report


# ---------------------------------------------------------------------------
# sieve counters

def smooth_count(x, y):
    """#{1 <= n <= x : largest prime factor of n <= y}, exactly; the
    largest-prime-factor convention P(1) = 1 makes 1 always count."""
    if not 2 <= y <= x:
        raise ValueError("need 2 <= y <= x")
    if x > COUNT_BUDGET:
        raise CountBudgetError(f"x = {x} exceeds the {COUNT_BUDGET} budget")
    x = int(x)
    smooth = bytearray([1]) * (x + 1)
    for p in iter_primes(x):
        if p > y:
            smooth[p::p] = b"\x00" * (x // p)
    return sum(smooth[1:])


def _divisor_interval_flags(x, y, z):
    if not 2 <= y < z:
        raise ValueError("need 2 <= y < z")
    if x > COUNT_BUDGET:
        raise CountBudgetError(f"x = {x} exceeds the {COUNT_BUDGET} budget")
    x = int(x)
    flags = bytearray(x + 1)
    d_min = math.floor(y) + 1
    d_max = math.ceil(z) - 1
    for d in range(d_min, min(d_max, x) + 1):
        flags[d::d] = b"\x01" * (x // d)
    return flags


def divisor_interval_count(x, y, z):
    """#{n <= x : d | n for some d in the open interval (y, z)}."""
    if z > x:
        raise ValueError("need z <= x")
    return sum(_divisor_interval_flags(x, y, z)[1:])


def shifted_prime_count(x, y, z, lam):
    """#{p <= x prime : d | p + lam for some d in (y, z)}, lam in {+1,-1}."""
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    flags = _divisor_interval_flags(x + 1, y, z)
    return sum(1 for p in iter_primes(x) if p + lam >= 1 and flags[p + lam])


# ---------------------------------------------------------------------------
# prime-factor statistics

def omega_IZ(spec, n, z3, y2):
    """Number of distinct primes p | n with z3 < p < y2 and p in Z."""
    if not z3 < y2:
        raise ValueError("need z3 < y2")
    return sum(1 for p in factorize(n)
               if z3 < p < y2 and in_Z(spec, p))


# ---------------------------------------------------------------------------
# counterexample witness densities

# the residue classes n = r mod m of representation's witness formulas
_CLASS_LABELS = {(0, 1): "all n", (0, 2): "even n", (1, 2): "odd n"}


def counterexample_density(preset_name, spec, x):
    """Verify the closed-form witnesses for a counterexample preset on
    every applicable n <= x and report the member densities."""
    if spec not in _WITNESS_CLASSES:
        raise ValueError(f"no closed-form witness class for {preset_name!r}")
    r, m = _WITNESS_CLASSES[spec]
    report = ExperimentReport("counterexample-density",
                              {"preset": preset_name, "x": x,
                               "witness_class": _CLASS_LABELS[r, m]})
    applicable = verified = 0
    terms = list(term_iter(spec, x))
    for n in range(1, x + 1):
        if n % m != r:
            continue
        applicable += 1
        witness = _witness_formula(spec, n)
        if witness is None or witness[0] ** 2 + n * witness[1] ** 2 != terms[n]:
            report.violations.append({"n": n, "kind": "witness",
                                      "witness": witness})
        else:
            verified += 1
    report.observe("applicable", applicable)
    report.observe("verified", verified)
    report.observe("member_density", verified / x)
    report.observe("class_density", verified / applicable if applicable else 0.0)
    report.passed = not report.violations
    return report
