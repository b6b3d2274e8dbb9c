"""Everything modulo p: fast terms, root counting, prime classification,
periods, root orders, multiplier groups, the Frobenius-reduced companion
sequence V, the periods and character sums of its progressions, and the
zero-pattern test in_P_fU. The sets K_y and L_y are read off a profile:
ord_alpha <= y and ord_ratio <= y.

All arithmetic modulo (Psi, p), Psi the characteristic cubic, is done in
one ring, F_p[X]/Psi: X^k = c0 + c1*X + c2*X^2 there gives
U_{k+j} = c0*U_j + c1*U_{j+1} + c2*U_{j+2} (mod p) for every j. Root
orders are read off X^e as well: at a prime in Z the ring is
F_p x F_p[X]/Q by the CRT, Q = Psi / (X - alpha), with X = (alpha, beta),
and each order splits at p - 1 into a descent on X^e with e | p + 1 and
an order of F_p scalars (see `classify_prime`).

Terminology used throughout: for a prime p at which the characteristic
cubic has exactly one root (the set Z), `alpha` is that root in F_p and
`beta`, `gamma` are the conjugate roots of the quadratic cofactor in
F_p^2, swapped by x -> x^p.
"""

import functools
import math
from dataclasses import dataclass

from .charpoly import discriminant
from .primes import factorize, is_prime, iter_primes
from .sqrtmod import legendre

DEFAULT_SCAN_STATES = 10**8

RAMIFIED = "ramified"


class ScanBudgetError(Exception):
    """A period or zero scan would exceed the configured state budget."""


# ---------------------------------------------------------------------------
# the ring F_p[X]/Psi

def _reduction_rows(spec, p):
    """X^3 and X^4 reduced modulo the characteristic cubic, coefficients
    (c0, c1, c2) for c0 + c1*X + c2*X^2."""
    a1, a2, a3 = spec.coefficients
    r3 = (a3 % p, a2 % p, a1 % p)
    r4 = ((a1 * a3) % p, (a1 * a2 + a3) % p, (a1 * a1 + a2) % p)
    return r3, r4


def _polymulmod(u, v, p, r3, r4):
    u0, u1, u2 = u
    v0, v1, v2 = v
    t3 = u1 * v2 + u2 * v1
    t4 = u2 * v2
    return ((u0 * v0 + t3 * r3[0] + t4 * r4[0]) % p,
            (u0 * v1 + u1 * v0 + t3 * r3[1] + t4 * r4[1]) % p,
            (u0 * v2 + u1 * v1 + u2 * v0 + t3 * r3[2] + t4 * r4[2]) % p)


def _x_pow(spec, e, p):
    """X^e modulo (characteristic cubic, p) as coefficients (c0, c1, c2).

    Left to right over the bits of e, starting from X at the leading bit.
    Each bit squares in place, without a general product: of the six
    products of the square, the X^3 and X^4 coefficients t3 = 2*c1*c2
    and t4 = c2^2 fold back through the reduction rows r3 and r4. A set
    bit then multiplies by X, a shift plus one reduction row (X^3 = r3)."""
    if e == 0:
        return (1 % p, 0, 0)
    (s0, s1, s2), (q0, q1, q2) = _reduction_rows(spec, p)
    c0, c1, c2 = 0, 1, 0
    for bit in bin(e)[3:]:
        t3 = 2 * c1 * c2
        t4 = c2 * c2
        c0, c1, c2 = ((c0 * c0 + t3 * s0 + t4 * q0) % p,
                      (2 * c0 * c1 + t3 * s1 + t4 * q1) % p,
                      (2 * c0 * c2 + c1 * c1 + t3 * s2 + t4 * q2) % p)
        if bit == "1":
            c0, c1, c2 = c2 * s0 % p, (c0 + c2 * s1) % p, (c1 + c2 * s2) % p
    return (c0, c1, c2)


def terms_at_multiples(spec, p, k_max):
    """[U_p, U_2p, ..., U_{k_max*p}] mod p, one ring multiplication each:
    X^{kp} = (X^p)^k modulo (characteristic cubic, p)."""
    r3, r4 = _reduction_rows(spec, p)
    u0, u1, u2 = (x % p for x in spec.initial_terms)
    step = c = _x_pow(spec, p, p)
    out = []
    for _ in range(k_max):
        out.append((c[0] * u0 + c[1] * u1 + c[2] * u2) % p)
        c = _polymulmod(c, step, p, r3, r4)
    return out


def term_mod(spec, n, p):
    """U_n mod p in O(log n) multiplications.

    X^n reduced modulo the characteristic cubic gives coefficients c_i
    with U_n = c0*U_0 + c1*U_1 + c2*U_2 (mod p).
    """
    if p < 2:
        raise ValueError("modulus must be >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    u0, u1, u2 = spec.initial_terms
    c0, c1, c2 = _x_pow(spec, n, p)
    return (c0 * u0 + c1 * u1 + c2 * u2) % p


# ---------------------------------------------------------------------------
# root counting mod p

def _root_count(spec, p, x_pow):
    """`count_roots_mod_p`, given x_pow(e) = X^e modulo (Psi, p)."""
    d = discriminant(spec)
    if d % p == 0:
        return RAMIFIED
    if p == 2:
        a1, a2, a3 = spec.coefficients
        return int(a3 % 2 == 0 or (1 - a1 - a2 - a3) % 2 == 0)
    if legendre(d, p) == -1:
        return 1
    return 3 if x_pow(p) == (0, 1, 0) else 0


def count_roots_mod_p(spec, p):
    """Number of distinct roots of the characteristic cubic in F_p:
    0, 1, 3, or "ramified" when p divides the discriminant d.

    At an odd prime Stickelberger gives (d/p) = (-1)^(3 - r), r the number
    of irreducible factors of Psi mod p, so there is one root exactly when
    (d/p) = -1. Otherwise r is 1 or 3: three roots when X^p = X, none when
    not. F_2 cannot hold three distinct roots, so at p = 2 there is one
    exactly when Psi(0) or Psi(1) is even.
    """
    return _root_count(spec, p, functools.partial(_x_pow, spec, p=p))


# ---------------------------------------------------------------------------
# element orders

def _element_order(pow_to, multiple, multiple_factors):
    """Smallest divisor t of `multiple` with pow_to(t) true.

    pow_to(multiple) is verified, not assumed: the order sweeps rely on
    these extractions to surface any failure of the claimed multiples
    (p-1, p+1, p^2+p+1, p(p-1)) rather than silently returning a wrong
    order.
    """
    if not pow_to(multiple):
        raise ArithmeticError(
            f"element order does not divide the claimed multiple {multiple}")
    t = multiple
    for q in multiple_factors:
        while t % q == 0 and pow_to(t // q):
            t //= q
    return t


def _scalar_order(x, p, fac_p1):
    """Order of x in F_p^*, given the factorization of p - 1."""
    return _element_order(lambda e: pow(x, e, p) == 1, p - 1, fac_p1)


# ---------------------------------------------------------------------------
# prime classification


@dataclass(frozen=True)
class PrimeProfile:
    p: int
    root_count: object          # 0, 1, 3, or "ramified"
    in_Z: bool
    alpha: int | None = None
    t_p: int | None = None
    k_p: int | None = None
    ord_alpha: int | None = None
    ord_ratio: int | None = None
    mult_order: int | None = None


def _state_period(spec, p, multiple, multiple_factors, x_pow):
    """Smallest k dividing `multiple` with state(k) = state(0), where
    state(k) = (U_k, U_{k+1}, U_{k+2}) mod p; `multiple` must be such a k.
    x_pow(e) gives X^e modulo (characteristic cubic, p).

    state(k) = c0*state(0) + c1*state(1) + c2*state(2) for
    X^k = c0 + c1*X + c2*X^2 (Cayley-Hamilton).
    """
    a1, a2, a3 = spec.coefficients
    u = [x % p for x in spec.initial_terms]
    if not any(u):
        return 1
    for _ in range(2):
        u.append((a1 * u[-1] + a2 * u[-2] + a3 * u[-3]) % p)

    def returns_at(k):
        c0, c1, c2 = x_pow(k)
        return all((c0 * u[j] + c1 * u[j + 1] + c2 * u[j + 2] - u[j]) % p == 0
                   for j in range(3))

    return _element_order(returns_at, multiple, multiple_factors)


def classify_prime(spec, p):
    """Full profile for an odd prime p not dividing a3.

    Primes in Z get every field: the F_p root alpha, the period t_p of
    the sequence mod p, the joint root order k_p, the orders of alpha and
    beta/gamma, and the multiplier-group order k_p / n0. Ramified primes
    and primes with 0 or 3 roots get a reduced profile (root count and
    period only).

    Every order here is that of a subgroup condition on n (X^n = 1, X^n
    a constant, X^n fixes the state) with a known multiple M1*M2. With r
    the least j | M2 for which n = M1*j meets it, and s the least i | M1
    for which n = r*i does, the order is r*s, as r = t / gcd(t, M1). Both
    halves are short: M1 = p - 1, and M2 = p + 1 at a prime in Z or
    p^2 + p + 1 at a no-root prime.

    At a prime in Z, F_p[X]/Psi = F_p x F_p[X]/Q by the CRT, with
    Q = Psi / (X - alpha) and X = (alpha, beta). Since beta^((p-1)j) = 1
    exactly when beta^j is in F_p, r is the least j | p + 1 with X^j mod Q
    a constant, and r is the order of beta/gamma. Then alpha^r and
    beta^r = gamma^r are F_p scalars, and every other order is an order
    in F_p^*, taken by builtin `pow`. At a no-root prime the ring is
    F_{p^3}, r is the least j | p^2 + p + 1 with X^j in F_p, and
    t_p = r * ord(X^r). Ramified and three-root primes descend over
    p(p-1) and p-1 directly.
    """
    if p == 2:
        raise ValueError("p = 2 is excluded from classification")
    if spec.a3 % p == 0:
        raise ValueError(f"p = {p} divides a3; the sequence mod p is not purely periodic")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    fac_p1 = factorize(p - 1)
    # one memo of X^e, so each descent's last power is not raised again
    x_pow = functools.cache(functools.partial(_x_pow, spec, p=p))
    root_count = _root_count(spec, p, x_pow)
    if root_count == RAMIFIED:
        t_p = _state_period(spec, p, p * (p - 1), {**fac_p1, p: 1}, x_pow)
        return PrimeProfile(p=p, root_count=RAMIFIED, in_Z=False, t_p=t_p)
    if root_count == 3:
        return PrimeProfile(p=p, root_count=3, in_Z=False,
                            t_p=_state_period(spec, p, p - 1, fac_p1, x_pow))
    u0, u1, u2 = (x % p for x in spec.initial_terms)
    if root_count == 0:
        # F_{p^3}: X^((p-1)j) = 1 exactly when X^j is in F_p
        t_p = 1
        if u0 or u1 or u2:
            m2 = p * p + p + 1
            r = _element_order(lambda j: x_pow(j)[1:] == (0, 0), m2,
                               factorize(m2))
            t_p = r * _scalar_order(x_pow(r)[0], p, fac_p1)
        return PrimeProfile(p=p, root_count=0, in_Z=False, t_p=t_p)

    # exactly one root alpha, that of the linear gcd(h, Psi) for
    # h = X^p - X = h0 + h1*X + h2*X^2: of h if h2 = 0, else of
    # h2^2 * (Psi mod h). Only the true alpha has Psi(alpha) = 0.
    a1, a2, a3 = spec.coefficients
    h0, h1, h2 = x_pow(p)
    h1 -= 1
    if h2 % p:
        h0, h1 = (h0 * h1 + a1 * h0 * h2 - a3 * h2 * h2,
                  h1 * h1 - h0 * h2 + a1 * h1 * h2 - a2 * h2 * h2)
    if h1 % p == 0:
        raise ArithmeticError(f"gcd(X^p - X, Psi) is not linear at p = {p}")
    alpha = -h0 * pow(h1, -1, p) % p
    if (((alpha - a1) * alpha - a2) * alpha - a3) % p:
        raise ArithmeticError(f"{alpha} is not a root of Psi mod {p}")
    # X^2 = -q1*X - q0 modulo Q = Psi / (X - alpha)
    q1 = (alpha - a1) % p
    q0 = (alpha * alpha - a1 * alpha - a2) % p

    def mod_q_is_scalar(j):
        _, c1, c2 = x_pow(j)
        return (c1 - c2 * q1) % p == 0

    r = _element_order(mod_q_is_scalar, p + 1, factorize(p + 1))
    c0, c1, c2 = x_pow(r)
    a = (c0 + (c1 + c2 * alpha) * alpha) % p        # alpha^r
    b = (c0 - c2 * q0) % p                          # beta^r = gamma^r
    ord_alpha = _scalar_order(alpha, p, fac_p1)
    ord_beta = r * _scalar_order(b, p, fac_p1)
    k_p = math.lcm(ord_alpha, ord_beta)
    # X^n is a constant exactly when alpha^n = beta^n = gamma^n
    n0 = r * _scalar_order(b * pow(a, -1, p) % p, p, fac_p1)
    # U_n = L(X^n) for the functional L(X^i) = U_i. Its alpha part is zero
    # when L vanishes on Q, its (beta, gamma) part when L vanishes on
    # X - alpha and X^2 - alpha*X; t_p is the lcm of the parts' orders.
    alpha_part = (u2 + q1 * u1 + q0 * u0) % p
    beta_part = (u1 - alpha * u0) % p or (u2 - alpha * u1) % p
    t_p = math.lcm(ord_alpha if alpha_part else 1, ord_beta if beta_part else 1)
    return PrimeProfile(p=p, root_count=1, in_Z=True, alpha=alpha, t_p=t_p,
                        k_p=k_p, ord_alpha=ord_alpha, ord_ratio=r,
                        mult_order=k_p // n0)


def _z_predicate(spec):
    """`in_Z(spec, .)` as a predicate of p, the discriminant computed once."""
    d = discriminant(spec)
    a3 = spec.a3
    return lambda p: (p != 2 and d % p != 0 and a3 % p != 0
                      and legendre(d, p) == -1)


def in_Z(spec, p):
    """Membership of p in Z: odd, unramified, coprime to a3, exactly one
    root mod p. Decided by one Legendre symbol of the discriminant
    (Frobenius parity), which agrees with the root count."""
    return _z_predicate(spec)(p)


def z_primes(spec, x):
    """Yield the primes p <= x in Z, increasing, by segmented enumeration."""
    is_z = _z_predicate(spec)
    for p in iter_primes(x):
        if is_z(p):
            yield p


# ---------------------------------------------------------------------------
# the reduced sequence V and sums over it

def _v_values_one_period(spec, p, max_states):
    """V_0 .. V_{t-1}, V_m = U_{p*m} mod p, where t is the state period of
    V; p must not divide a3.

    X^p has characteristic polynomial Psi mod p for every p (the Frobenius
    permutes the roots of Psi, multiplicities included), so V satisfies
    the recurrence of U mod p: one stepping pass from (U_0, U_p, U_2p).
    """
    s0 = (spec.initial_terms[0] % p, *terms_at_multiples(spec, p, 2))
    a1, a2, a3 = (c % p for c in spec.coefficients)
    values = []
    x, y, z = s0
    for _ in range(max_states + 1):
        values.append(x)
        x, y, z = y, z, (a1 * z + a2 * y + a3 * x) % p
        if (x, y, z) == s0:
            return values
    raise ScanBudgetError(
        f"V period for p={p} exceeds the {max_states}-state budget")


def _progression_word(values, c, d):
    """A word W and its minimal period t_{c,d,p}, where W reorders one
    full period of the subsequence V_{c+dk}, k = 1, 2, ..., given one
    period `values` of V.

    With g = gcd(d, t_v), the positions c + d(k+1) mod t_v run over the
    coset j = c (mod g), so W = values[c % g::g] holds the same values,
    read with step g instead of d. Since d/g is prime to t_v/g, W and the
    subsequence have the same minimal period. The shifts that fix W are
    the multiples of that period, so it is an element order: for t
    dividing n = len(W), W[t:] == W[:n-t] is the cyclic shift test,
    done in C."""
    if not 0 <= c < d:
        raise ValueError("need 0 <= c < d")
    g = math.gcd(d, len(values))
    word = values[c % g::g] if g > 1 else values
    n = len(word)
    return word, _element_order(lambda t: word[t:] == word[:n - t], n,
                                factorize(n))


def _progression_char_sum(values, c, d, chi):
    """Sum of chi(V_{c+dk}) over one minimal period k = 1 .. t_{c,d,p}.
    W and the subsequence's word are each len(W) / t_{c,d,p} copies of
    one period, and hold the same letters, so W[:t_{c,d,p}] holds the
    letters of one period of the subsequence."""
    word, t_cdp = _progression_word(values, c, d)
    return sum(map(chi.__getitem__, word[:t_cdp]))


def in_P_fU(spec, p, f_p):
    """Does U_{p*m} vanish mod p at 7 indices m_1 < ... < m_7 with
    m_7 - m_1 <= f_p?  Returns (flag, witness indices or None); the
    witness is the one with the smallest m_1.

    Works at every odd p not dividing a3, in Z or not, ramified included:
    V_m = U_{p*m} mod p is stepped over one period t, and m is scanned in
    [1, t + min(f_p, 6t)]. Periodicity makes that window exhaustive: a
    run may start in [1, t], and 7 consecutive zeros span at most 6t.
    """
    if p == 2 or spec.a3 % p == 0:
        raise ValueError("need odd p not dividing a3")
    if f_p < 1:
        raise ValueError("f_p must be positive")
    values = _v_values_one_period(spec, p, DEFAULT_SCAN_STATES)
    t = len(values)
    zeros = [m for m in range(1, t + int(min(f_p, 6 * t)) + 1)
             if values[m % t] == 0]
    for i in range(len(zeros) - 6):
        if zeros[i + 6] - zeros[i] <= f_p:
            return True, tuple(zeros[i:i + 7])
    return False, None
