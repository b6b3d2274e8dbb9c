"""Analysis of the characteristic cubic X^3 - a1*X^2 - a2*X - a3.

Covers the exact discriminant, factorization over Q, the degeneracy test
(some root ratio a root of unity), the three admissibility conditions the
counting theorem needs, the dominant-root modulus, and the numeric solve
for the optimized exponent constants.

No polynomial arithmetic is needed beyond evaluating the cubic. A rational
root is an integer dividing a3, and dividing it out is synthetic division.
Degeneracy is read off the power sums s_k = r1^k + r2^k + r3^k, which obey
U's own recurrence: the ratio r_i/r_j has order dividing k exactly when the
cubic with roots r1^k, r2^k, r3^k, whose coefficients are symmetric in
the roots and so integers built from s_k, s_2k and a3^k, has a repeated
root.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .recurrence import RecurrenceSpec, term_iter


def char_poly(spec):
    """Ascending coefficients of X^3 - a1 X^2 - a2 X - a3."""
    return [-spec.a3, -spec.a2, -spec.a1, 1]


def _poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# factorization over Q


@dataclass(frozen=True)
class Irreducible:
    pass


@dataclass(frozen=True)
class LinearTimesQuadratic:
    """(X - a)(X^2 + bX + c) with the quadratic irreducible over Q."""
    a: int
    b: int
    c: int


@dataclass(frozen=True)
class ThreeLinear:
    roots: tuple  # three distinct integers


@dataclass(frozen=True)
class RepeatedRoot:
    roots: tuple  # (root, multiplicity) pairs


def _disc(a1, a2, a3):
    """Discriminant of X^3 - a1 X^2 - a2 X - a3."""
    return (a1 * a1 * a2 * a2 + 4 * a2**3 - 4 * a1**3 * a3
            - 18 * a1 * a2 * a3 - 27 * a3 * a3)


def discriminant(spec):
    return _disc(*spec.coefficients)


def _is_square(n):
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _integer_roots(spec):
    """Integer roots of the monic cubic; rational roots must divide a3."""
    psi = char_poly(spec)
    roots = []
    for d in sorted({d for k in range(1, math.isqrt(abs(spec.a3)) + 1)
                     if abs(spec.a3) % k == 0
                     for d in (k, abs(spec.a3) // k)}):
        for r in (d, -d):
            if _poly_eval(psi, r) == 0:
                roots.append(r)
    return sorted(set(roots))


def factorize(spec):
    """Exact factorization shape of the characteristic cubic over Q.

    Every rational root is an integer. With an integer root a, synthetic
    division gives Psi = (X - a)(X^2 + bX + c), b = a - a1, c = a*b - a2,
    and the quadratic splits over Q exactly when all three roots are
    integers. A repeated root r of a monic integer cubic is an integer;
    it is double when Psi'(r) = 0 and triple when also 3r = a1.
    """
    a1, a2, _ = spec.coefficients
    roots = _integer_roots(spec)
    if discriminant(spec) == 0:
        mult = {r: 1 + (3 * r * r - 2 * a1 * r - a2 == 0) * (1 + (3 * r == a1))
                for r in roots}
        assert sum(mult.values()) == 3, "zero discriminant forces full split"
        return RepeatedRoot(tuple(sorted(mult.items())))
    if not roots:
        return Irreducible()
    if len(roots) == 3:
        return ThreeLinear(tuple(roots))
    a = roots[0]
    b = a - a1
    return LinearTimesQuadratic(a, b, a * b - a2)


# ---------------------------------------------------------------------------
# degeneracy: is some ratio of roots a root of unity?

# Every k > 1 with euler_phi(k) <= 6: a root ratio lies in the splitting
# field, of degree <= 6 over Q, so a root of unity there has such an order.
RATIO_ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)


def is_degenerate(spec):
    """(flag, witness): some ratio of characteristic roots is a root of unity.

    Repeated roots count as degenerate (ratio 1). Otherwise r_i/r_j has
    order dividing k exactly when r_i^k = r_j^k, that is, when the cubic
    X^3 - e1 X^2 + e2 X - e3 with roots r1^k, r2^k, r3^k has discriminant
    0. Its coefficients are e1 = s_k, e2 = (s_k^2 - s_2k)/2 and
    e3 = a3^k, from the power sums s_m = r1^m + r2^m + r3^m. The first
    such k in RATIO_ORDERS is the least order of a root-of-unity ratio.
    """
    if discriminant(spec) == 0:
        return True, "repeated root (ratio 1)"
    a1, a2, a3 = spec.coefficients
    s = list(term_iter(RecurrenceSpec(a1, a2, a3, 3, a1, a1 * a1 + 2 * a2),
                       2 * RATIO_ORDERS[-1]))
    for k in RATIO_ORDERS:
        if _disc(s[k], (s[2 * k] - s[k] ** 2) // 2, a3**k) == 0:
            return True, f"some root ratio is a primitive root of unity of order {k}"
    return False, None


# ---------------------------------------------------------------------------
# root moduli


_BISECT_STEPS = 130    # halvings of the bracket, far past a float's precision


def _bisect_root(psi, lo, hi):
    """Bisection for the root of an irreducible cubic psi in (lo, hi).

    lo and hi are integers or floats, so every point visited is k / 2^e for
    one e, and the sign of psi there is that of the integer
    2^(3e) psi(k / 2^e), the scaled cubic at k. It is never 0, since psi
    has no rational root.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    e = _BISECT_STEPS + max(lo.denominator, hi.denominator).bit_length() - 1
    k_lo, k_hi = int(lo * 2**e), int(hi * 2**e)
    scaled = [c << (e * (3 - i)) for i, c in enumerate(psi)]
    lo_positive = _poly_eval(scaled, k_lo) > 0
    assert lo_positive != (_poly_eval(scaled, k_hi) > 0), \
        "the ends must bracket a root"
    for _ in range(_BISECT_STEPS):
        # both ends start as multiples of 2^_BISECT_STEPS, so mid is exact
        mid = (k_lo + k_hi) // 2
        if (_poly_eval(scaled, mid) > 0) == lo_positive:
            k_lo = mid
        else:
            k_hi = mid
    return (k_lo + k_hi) / 2**(e + 1)


def root_moduli(spec):
    """Moduli of the three complex roots of the characteristic cubic."""
    kind = factorize(spec)
    if isinstance(kind, ThreeLinear):
        return sorted(abs(r) * 1.0 for r in kind.roots)
    if isinstance(kind, RepeatedRoot):
        return sorted(abs(r) * 1.0 for r, m in kind.roots for _ in range(m))
    if isinstance(kind, LinearTimesQuadratic):
        b, c = kind.b, kind.c
        dq = b * b - 4 * c
        if dq > 0:
            s = math.sqrt(dq)
            pair = [abs((-b + s) / 2), abs((-b - s) / 2)]
        else:
            pair = [math.sqrt(c)] * 2  # conjugate pair, |z|^2 = c
        return sorted([abs(kind.a) * 1.0] + pair)
    # irreducible cubic
    psi = char_poly(spec)
    bound = 1 + max(abs(c) for c in psi[:-1])
    if discriminant(spec) < 0:
        # one real root, one conjugate pair with |z|^2 = a3 / r
        r = _bisect_root(psi, -bound, bound)
        pair_sq = spec.a3 / r
        assert pair_sq > 0
        return sorted([abs(r)] + [math.sqrt(pair_sq)] * 2)
    # three distinct real roots, which the critical points separate; an
    # irreducible cubic has no rational root, so none sits on a cut
    a1, a2 = spec.a1, spec.a2
    s = math.sqrt(a1 * a1 + 3 * a2)
    points = [-bound, (a1 - s) / 3, (a1 + s) / 3, bound]
    return sorted(abs(_bisect_root(psi, points[i], points[i + 1]))
                  for i in range(3))


def gamma(spec):
    """Max modulus of the characteristic roots."""
    return root_moduli(spec)[-1]


# ---------------------------------------------------------------------------
# the three conditions


@dataclass(frozen=True)
class PolyAnalysis:
    discriminant: int
    factorization: object
    cond_i: bool
    cond_i_reason: str
    cond_ii: bool
    cond_ii_reason: str
    cond_iii: bool
    cond_iii_reason: str
    degenerate: bool
    gamma: float
    galois_label: str

    @property
    def satisfies_all(self):
        return self.cond_i and self.cond_ii and self.cond_iii

    def to_json_dict(self):
        f = self.factorization
        if isinstance(f, Irreducible):
            fd = {"kind": "irreducible"}
        elif isinstance(f, LinearTimesQuadratic):
            fd = {"kind": "linear_times_quadratic", "a": f.a, "b": f.b, "c": f.c}
        elif isinstance(f, ThreeLinear):
            fd = {"kind": "three_linear", "roots": list(f.roots)}
        else:
            fd = {"kind": "repeated_root",
                  "roots": [{"root": r, "multiplicity": m} for r, m in f.roots]}
        return {
            "discriminant": self.discriminant,
            "factorization": fd,
            "cond_i": self.cond_i,
            "cond_i_reason": self.cond_i_reason,
            "cond_ii": self.cond_ii,
            "cond_ii_reason": self.cond_ii_reason,
            "cond_iii": self.cond_iii,
            "cond_iii_reason": self.cond_iii_reason,
            "degenerate": self.degenerate,
            "gamma": self.gamma,
            "galois_label": self.galois_label,
            "satisfies_all": self.satisfies_all,
        }


def check_conditions(spec):
    disc = discriminant(spec)
    kind = factorize(spec)

    if isinstance(kind, Irreducible):
        label = "C3" if _is_square(disc) else "S3"
    elif isinstance(kind, LinearTimesQuadratic):
        label = "C2"
    elif isinstance(kind, ThreeLinear):
        label = "Trivial-split"
    else:
        label = "Degenerate"

    cond_i = label in ("S3", "C2")
    if cond_i:
        reason_i = "ok"
    elif label == "C3":
        reason_i = (f"discriminant {disc} is a perfect square, so the Galois "
                    "group is cyclic of order 3 and has no transposition")
    elif label == "Trivial-split":
        reason_i = "characteristic polynomial splits completely over Q"
    else:
        reason_i = "characteristic polynomial has a repeated root"

    if isinstance(kind, Irreducible) and abs(spec.a3) == 1:
        cond_ii, reason_ii = True, "ok"
    elif isinstance(kind, Irreducible):
        cond_ii = False
        reason_ii = f"irreducible but a3 = {spec.a3} is not +-1"
    elif isinstance(kind, LinearTimesQuadratic):
        if kind.a in (1, -1):
            cond_ii, reason_ii = False, f"integer root a = {kind.a}"
        elif abs(kind.c) != 1:
            cond_ii = False
            reason_ii = f"quadratic cofactor constant c = {kind.c} is not +-1"
        else:
            cond_ii, reason_ii = True, "ok"
    else:
        cond_ii = False
        reason_ii = "no factorization (X - a)(X^2 + bX + c) with the quadratic irreducible"

    degenerate, witness = is_degenerate(spec)
    cond_iii = not degenerate
    reason_iii = "ok" if cond_iii else witness

    return PolyAnalysis(
        discriminant=disc,
        factorization=kind,
        cond_i=cond_i,
        cond_i_reason=reason_i,
        cond_ii=cond_ii,
        cond_ii_reason=reason_ii,
        cond_iii=cond_iii,
        cond_iii_reason=reason_iii,
        degenerate=degenerate,
        gamma=gamma(spec),
        galois_label=label,
    )


# ---------------------------------------------------------------------------
# optimized exponent constants

LN2 = math.log(2)


def _exponent_gap(kappa, delta):
    """Residual of the balance equation between the two log-power savings.

    Zero when k*delta == (1-k)/2 - (k*delta/ln 2) * ln(e*(1-k)*ln 2/(2*k*delta)).
    """
    kd = kappa * delta
    lam = kd / LN2
    return (1 - kappa) / 2 - lam * math.log(math.e * (1 - kappa) * LN2 / (2 * kd)) - kd


def solve_exponents():
    """Solve for the optimized exponent constants.

    Returns {"delta", "kappa", "lambda", "exponent"} where exponent is
    kappa*delta, the saving over the trivial bound. The balance equation
    has two crossings in (0, 1); only the smaller-kappa one satisfies the
    side constraint lambda < (1-kappa)/2, so the bracket is located by a
    sign-change scan before bisecting.
    """
    delta = 1 - (1 + math.log(LN2)) / LN2
    lo = hi = None
    prev_k, prev_v = 1e-6, _exponent_gap(1e-6, delta)
    for i in range(1, 1000):
        k = i / 1000
        v = _exponent_gap(k, delta)
        if prev_v > 0 >= v:
            lo, hi = prev_k, k
            break
        prev_k, prev_v = k, v
    if lo is None:
        raise ArithmeticError("no sign change found for the exponent equation")
    flo = _exponent_gap(lo, delta)
    while hi - lo > 1e-14:
        mid = (lo + hi) / 2
        fmid = _exponent_gap(mid, delta)
        if fmid == 0:
            lo = hi = mid
            break
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    kappa = (lo + hi) / 2
    lam = kappa * delta / LN2
    if not lam < (1 - kappa) / 2:
        raise ArithmeticError("solution violates lambda < (1-kappa)/2")
    return {"delta": delta, "kappa": kappa, "lambda": lam,
            "exponent": kappa * delta}
