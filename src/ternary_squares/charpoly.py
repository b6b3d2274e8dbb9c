"""Analysis of the characteristic cubic X^3 - a1*X^2 - a2*X - a3.

Covers the exact discriminant, factorization over Q, the degeneracy test
(some root ratio a root of unity), the three admissibility conditions the
counting theorem needs, the dominant-root modulus, and the numeric solve
for the optimized exponent constants.

No polynomial arithmetic is needed beyond evaluating the cubic. One
integer root finder, `_scaled_roots`, bisects the scaled cubic
2^(3e) Psi(k / 2^e) on the pieces where it is monotone. At e = 0 it gives
the integer roots, which are the rational ones, and dividing one out is
synthetic division. At an e read off the coefficients it brackets every
real root between two multiples of 2^-e, and each root modulus is
rounded to a float once, at the end, from a bracket narrow enough that
both its ends round alike.
Degeneracy is read off the power sums s_k = r1^k + r2^k + r3^k, which obey
U's own recurrence: the ratio r_i/r_j has order dividing k exactly when the
cubic with roots r1^k, r2^k, r3^k, whose coefficients are symmetric in
the roots and so integers built from s_k, s_2k and a3^k, has a repeated
root.
"""

import math

from ._record import as_dict, record
from .recurrence import RecurrenceSpec, growth_rate, term_iter
from .sqrtmod import integer_sqrt


# ---------------------------------------------------------------------------
# factorization over Q


@record
class Irreducible:
    pass


@record
class LinearTimesQuadratic:
    """(X - a)(X^2 + bX + c) with the quadratic irreducible over Q."""
    a: int
    b: int
    c: int


@record
class ThreeLinear:
    roots: tuple  # three distinct integers


@record
class RepeatedRoot:
    roots: tuple  # (root, multiplicity) pairs


def _disc(a1, a2, a3):
    """Discriminant of X^3 - a1 X^2 - a2 X - a3."""
    return (a1 * a1 * a2 * a2 + 4 * a2**3 - 4 * a1**3 * a3
            - 18 * a1 * a2 * a3 - 27 * a3 * a3)


def discriminant(spec):
    return _disc(*spec.coefficients)


def _scaled_roots(spec, e):
    """The k with 2^e r in (k - 1, k] for the real roots r of Psi, ascending.

    Works on the scaled cubic P(k) = 2^(3e) Psi(k / 2^e), whose integer
    roots are the roots r with 2^e r an integer. With
    s = isqrt(4^e * max(a1^2 + 3*a2, 0)), each scaled critical point
    2^e (a1 -+ sqrt(a1^2 + 3*a2)) / 3 lies in (k - 1/3, k + 1) for the cut
    k = (a1*2^e -+ s) // 3, so P is strictly monotone on each piece that
    the two cuts leave of the scaled Cauchy bound [-2^e B, 2^e B]. Both
    cuts are tested directly. A piece whose ends do not straddle 0 holds
    no root; on the others, integer bisection finds the least k with P(k)
    on the far side of the sign change.

    At e = 0 every integer root is in the list, and the caller keeps the k
    with P(k) = 0. Past that, the list is complete once no simple root r
    lies within 2^(1-e) of a critical point c, for then no root falls
    between a piece and its cut. Let b = bitlen(B) with B = 1 + max|a_i|.
    - When a1^2 + 3*a2 > 0, both c lie in (-B, B), where |Psi| < 4 B^3,
      and |Psi(c1) Psi(c2)| = |disc| / 27 >= 1/27, so each
      |Psi(c)| > 2^-(3b + 7). Taylor at c gives
      |Psi(c)| <= |3c - a1| t^2 + |t|^3 < 3B t^2 with t = r - c, which
      forces |t| > 2^-(2b + 6).
    - When a1^2 + 3*a2 <= 0, the one cut is at c = a1/3 and
      27 Psi(a1/3) = -2*a1^3 - 9*a1*a2 - 27*a3 is an integer. If it
      is 0, a1/3 is an integer root and sits on the cut. Else
      |Psi(c)| >= 1/27, while Psi' <= 3B within 1 of c, so
      |t| > 2^-(b + 7).
    So any e >= 2b + 7 clears both.
    """
    a1, a2, a3 = spec.coefficients
    b1, b2, b3 = a1 << e, a2 << 2 * e, a3 << 3 * e

    def scaled(k):
        return ((k - b1) * k - b2) * k - b3

    bound = growth_rate(spec) << e
    s = math.isqrt(max(a1 * a1 + 3 * a2, 0) << 2 * e)
    k1, k2 = (b1 - s) // 3, (b1 + s) // 3
    found = {k for k in (k1, k2) if scaled(k) == 0}
    for lo, hi, sign in ((-bound, k1 - 1, 1), (k1 + 1, k2 - 1, -1),
                         (k2 + 1, bound, 1)):
        if lo > hi or sign * scaled(lo) > 0 or sign * scaled(hi) < 0:
            continue        # no sign change on this piece
        while lo < hi:      # the least x in [lo, hi] with sign*P(x) >= 0
            mid = (lo + hi) // 2
            if sign * scaled(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        found.add(lo)
    return sorted(found)


def factorize(spec):
    """Exact factorization shape of the characteristic cubic over Q.

    Every rational root is an integer. With an integer root a, synthetic
    division gives Psi = (X - a)(X^2 + bX + c), b = a - a1, c = a*b - a2,
    and the quadratic splits over Q exactly when all three roots are
    integers. A repeated root r of a monic integer cubic is an integer;
    it is double when Psi'(r) = 0 and triple when also 3r = a1.
    """
    a1, a2, a3 = spec.coefficients
    roots = [k for k in _scaled_roots(spec, 0)
             if ((k - a1) * k - a2) * k == a3]
    if discriminant(spec) == 0:
        mult = {r: 1 + (3 * r * r - 2 * a1 * r - a2 == 0) * (1 + (3 * r == a1))
                for r in roots}
        if sum(mult.values()) != 3:
            raise ArithmeticError(f"zero discriminant but roots {mult} of "
                                  f"{spec.coefficients} do not split Psi")
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


def _to_float(n, e):
    """n / 2^e rounded to the nearest float; past the largest float, IEEE
    round-to-nearest gives infinity, where int division raises."""
    try:
        return n / (1 << e)
    except OverflowError:
        return math.inf


def root_moduli(spec):
    """Moduli of the three complex roots of the characteristic cubic, each
    rounded correctly to a float.

    A repeated root is an integer. Otherwise each modulus gets integers
    lo <= hi with 2^e times it in [lo, hi]: for a real root r, 2^e r in
    [k - 1, k] from _scaled_roots (just k when r is an integer); with one
    real root, for the pair, the square roots of a3 2^(3e) / (2^e r) at
    the ends of that, as |z|^2 = a3 / r. Rounding is monotone, so when
    lo / 2^e and hi / 2^e round to one float (int division rounds
    correctly), the modulus does too; else e grows by 64. This ends: a
    bracket with two ends holds an irrational modulus, which is no
    midpoint of two floats. The first e, 2b + 64 with b = bitlen(B), is
    past _scaled_roots' 2b + 7, and |r| > 1/B^2 makes each bracket
    2^-64 wide relatively. A modulus past the largest float is
    `math.inf`, as IEEE rounding to nearest has it.
    """
    kind = factorize(spec)
    if isinstance(kind, RepeatedRoot):
        return sorted(_to_float(abs(r), 0) for r, m in kind.roots
                      for _ in range(m))
    a1, a2, a3 = spec.coefficients
    e = 2 * growth_rate(spec).bit_length() + 64
    while True:
        brackets = []
        for k in _scaled_roots(spec, e):
            r = k >> e
            exact = k == r << e and ((r - a1) * r - a2) * r == a3
            brackets.append(sorted((abs(k), abs(k - 1 + exact))))
        if len(brackets) == 1:      # the pair
            (lo, hi), num = brackets[0], abs(a3) << 3 * e
            brackets += [(math.isqrt(num // hi),
                          math.isqrt((num - 1) // lo) + 1)] * 2
        moduli = [(_to_float(lo, e), _to_float(hi, e)) for lo, hi in brackets]
        if all(lo == hi for lo, hi in moduli):
            return sorted(lo for lo, _ in moduli)
        e += 64


def gamma(spec):
    """Max modulus of the characteristic roots."""
    return root_moduli(spec)[-1]


# ---------------------------------------------------------------------------
# the three conditions


@record
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
            fd = {"kind": "linear_times_quadratic", **as_dict(f)}
        elif isinstance(f, ThreeLinear):
            fd = {"kind": "three_linear", "roots": list(f.roots)}
        else:
            fd = {"kind": "repeated_root",
                  "roots": [{"root": r, "multiplicity": m} for r, m in f.roots]}
        return {**as_dict(self), "factorization": fd,
                "satisfies_all": self.satisfies_all}


def check_conditions(spec):
    disc = discriminant(spec)
    kind = factorize(spec)

    if isinstance(kind, Irreducible):
        label = "C3" if disc >= 0 and integer_sqrt(disc)[1] else "S3"
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
