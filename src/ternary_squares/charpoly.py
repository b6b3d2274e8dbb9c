"""Analysis of the characteristic cubic X^3 - a1*X^2 - a2*X - a3.

Covers the exact discriminant, factorization over Q, the degeneracy test
(some root ratio a root of unity), the three admissibility conditions the
counting theorem needs, the dominant-root modulus, and the numeric solve
for the optimized exponent constants.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .recurrence import RecurrenceSpec

# ---------------------------------------------------------------------------
# small dense-polynomial helpers over Z, ascending coefficient lists


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_add(p, q):
    n = max(len(p), len(q))
    return _poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                       for i in range(n)])


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return _poly_trim(out)


def _poly_divmod_monic(p, d):
    """Divide p by a monic divisor d; exact integer quotient/remainder."""
    assert d[-1] == 1
    p = list(p)
    q = [0] * max(1, len(p) - len(d) + 1)
    for i in range(len(p) - len(d), -1, -1):
        coef = p[i + len(d) - 1]
        if coef:
            q[i] = coef
            for j, dj in enumerate(d):
                p[i + j] -= coef * dj
    return _poly_trim(q), _poly_trim(p[:len(d) - 1] or [0])


def char_poly(spec):
    """Ascending coefficients of X^3 - a1 X^2 - a2 X - a3."""
    return [-spec.a3, -spec.a2, -spec.a1, 1]


def _poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# Cyclotomic polynomials Phi_n for every n with euler_phi(n) <= 6: a root
# ratio that is a root of unity generates a field of degree <= 6 over Q.
CYCLOTOMIC = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    7: [1, 1, 1, 1, 1, 1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    12: [1, 0, -1, 0, 1],
    14: [1, -1, 1, -1, 1, -1, 1],
    18: [1, 0, 0, -1, 0, 0, 1],
}

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


def discriminant(spec):
    a1, a2, a3 = spec.coefficients
    return (a1 * a1 * a2 * a2 + 4 * a2**3 - 4 * a1**3 * a3
            - 18 * a1 * a2 * a3 - 27 * a3 * a3)


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
    """Exact factorization shape of the characteristic cubic over Q."""
    psi = char_poly(spec)
    if discriminant(spec) == 0:
        # a repeated root of a monic integer cubic is an integer
        mult = {}
        rem = psi
        for r in _integer_roots(spec):
            while True:
                q, residue = _poly_divmod_monic(rem, [-r, 1])
                if residue != [0]:
                    break
                rem = q
                mult[r] = mult.get(r, 0) + 1
        assert sum(mult.values()) == 3, "zero discriminant forces full split"
        return RepeatedRoot(tuple(sorted(mult.items())))
    roots = _integer_roots(spec)
    if not roots:
        return Irreducible()
    a = roots[0]
    quotient, residue = _poly_divmod_monic(psi, [-a, 1])
    assert residue == [0]
    c, b, _ = quotient  # X^2 + bX + c
    if _is_square(b * b - 4 * c):
        all_roots = tuple(sorted(roots))
        assert len(all_roots) == 3, (spec, roots)
        return ThreeLinear(all_roots)
    return LinearTimesQuadratic(a, b, c)


# ---------------------------------------------------------------------------
# degeneracy: is some ratio of roots a root of unity?


def _ratio_resultant(spec):
    """Degree-9 integer polynomial whose roots are the ratios r_i/r_j.

    It is the norm prod_i Psi(x*r_i) = a3^3 * prod_{i,j} (x - r_i/r_j):
    the determinant of multiplication by Psi(x*X) on Q[X]/Psi, whose
    entries are polynomials in x.
    """
    a1, a2, a3 = spec.coefficients
    # Psi(x*X) reduced by X^3 = a1 X^2 + a2 X + a3, coefficients of 1, X, X^2
    col = [[-a3, 0, 0, a3], [0, -a2, 0, a2], [0, 0, -a1, a1]]
    cols = [col]
    for _ in range(2):  # times X: shift up and reduce X^3
        c0, c1, c2 = cols[-1]
        cols.append([_poly_mul([a3], c2),
                     _poly_add(c0, _poly_mul([a2], c2)),
                     _poly_add(c1, _poly_mul([a1], c2))])
    det = [0]
    for i, j, k, sign in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                          (0, 2, 1, -1), (1, 0, 2, -1), (2, 1, 0, -1)):
        term = _poly_mul(_poly_mul(cols[0][i], cols[1][j]), cols[2][k])
        det = _poly_add(det, [sign * c for c in term])
    return det


def is_degenerate(spec):
    """(flag, witness): some ratio of characteristic roots is a root of unity.

    Repeated roots count as degenerate (ratio 1). Otherwise the three
    trivial diagonal ratios are divided out of the degree-9 ratio polynomial
    and the remainder is tested against each cyclotomic of degree <= 6.
    """
    if discriminant(spec) == 0:
        return True, "repeated root (ratio 1)"
    r9 = _ratio_resultant(spec)
    assert len(r9) == 10, "ratio polynomial must have degree 9"
    r6 = r9
    for _ in range(3):  # strip the three r_i/r_i = 1 diagonal ratios
        r6, rem = _poly_divmod_monic(r6, [-1, 1])
        assert rem == [0], "diagonal ratios must divide exactly"
    for n in sorted(CYCLOTOMIC):
        _, rem = _poly_divmod_monic(r6, CYCLOTOMIC[n])
        if rem == [0]:
            return True, f"some root ratio is a primitive root of unity of order {n}"
    return False, None


# ---------------------------------------------------------------------------
# root moduli


def _bisect_root(psi, lo, hi, iterations=130):
    """Exact-sign bisection for a root of psi in (lo, hi); Fraction endpoints."""
    lo, hi = Fraction(lo), Fraction(hi)
    flo = _poly_eval(psi, lo)
    if flo == 0:
        return float(lo)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        fmid = _poly_eval(psi, mid)
        if fmid == 0:
            return float(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return float((lo + hi) / 2)


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
    # three distinct real roots; critical points separate them
    a1, a2 = spec.a1, spec.a2
    s = math.sqrt(a1 * a1 + 3 * a2)
    crit = [(a1 - s) / 3, (a1 + s) / 3]
    # exact sign checks at the float critical points, nudging if a root
    # happens to sit unreasonably close (cannot occur for integer cubics
    # at desk scale, but verify instead of trusting)
    lo, hi = Fraction(-bound), Fraction(bound)
    cuts = []
    for t in crit:
        ft = Fraction(t)
        for _ in range(60):
            if _poly_eval(psi, ft) != 0:
                break
            ft += Fraction(1, 10**9)
        cuts.append(ft)
    points = [lo, cuts[0], cuts[1], hi]
    roots = []
    for i in range(3):
        a, b = points[i], points[i + 1]
        assert (_poly_eval(psi, a) > 0) != (_poly_eval(psi, b) > 0), \
            "critical points must separate the three real roots"
        roots.append(_bisect_root(psi, a, b))
    return sorted(abs(r) for r in roots)


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
    if not isinstance(spec, RecurrenceSpec):
        raise TypeError("condition analysis needs a ternary recurrence spec")
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
