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
an order of F_p scalars (see `classify_prime`). Every X^p an order is
read off is checked first: by the root it yields in Z, else against
X * X^(p-1). `classify_primes` profiles all primes up to x in one pass,
p - 1, p + 1 and p^2 + p + 1 factored off `primes.factor_table`.
`frobenius_powers` gives X^p at a run of primes with one ring product
per prime, in the ring modulo the product of a block of them, which
maps onto the ring mod each of its primes.

Terminology used throughout: for a prime p at which the characteristic
cubic has exactly one root (the set Z), `alpha` is that root in F_p and
`beta`, `gamma` are the conjugate roots of the quadratic cofactor in
F_p^2, swapped by x -> x^p.
"""

import math
from itertools import islice

from ._record import record
from .charpoly import discriminant
from .primes import factor_table, factorize, is_prime, iter_primes
from .sqrtmod import legendre

DEFAULT_SCAN_STATES = 10**8

RAMIFIED = "ramified"


class ScanBudgetError(Exception):
    """A period or zero scan would exceed the configured state budget."""


# ---------------------------------------------------------------------------
# the ring F_p[X]/Psi

def _reduction_rows(spec, p):
    """X^3 and X^4 reduced modulo the characteristic cubic, coefficients
    (c0, c1, c2) for c0 + c1*X + c2*X^2. Built once per prime and passed
    to every product and power of the ring mod p."""
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


def _x_pow(e, p, r3, r4):
    """X^e modulo (characteristic cubic, p) as coefficients (c0, c1, c2),
    given the reduction rows r3, r4 = `_reduction_rows(spec, p)`.

    Left to right over the bits of e, starting from X at the leading bit.
    Each bit squares in place, without a general product: of the six
    products of the square, the X^3 and X^4 coefficients 2*c1*c2 and
    c2^2 fold back through the reduction rows r3 and r4, the factor 2
    taken into a doubled r3 once. A set bit then multiplies by X, a shift
    plus one reduction row (X^3 = r3)."""
    if e == 0:
        return (1 % p, 0, 0)
    (s0, s1, s2), (q0, q1, q2) = r3, r4
    d0, d1, d2 = 2 * s0, 2 * s1, 2 * s2
    c0, c1, c2 = 0, 1, 0
    for bit in bin(e)[3:]:
        t3 = c1 * c2
        t4 = c2 * c2
        d = c0 + c0
        c0, c1, c2 = ((c0 * c0 + t3 * d0 + t4 * q0) % p,
                      (d * c1 + t3 * d1 + t4 * q1) % p,
                      (d * c2 + c1 * c1 + t3 * d2 + t4 * q2) % p)
        if bit == "1":
            c0, c1, c2 = c2 * s0 % p, (c0 + c2 * s1) % p, (c1 + c2 * s2) % p
    return (c0, c1, c2)


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
    c0, c1, c2 = _x_pow(n, p, *_reduction_rows(spec, p))
    return (c0 * u0 + c1 * u1 + c2 * u2) % p


# ---------------------------------------------------------------------------
# root counting mod p

# 4|d| past this many classes: (d/p) is one power per prime, no table
_CHARACTER_CLASSES = 1 << 16


def _discriminant_character(d):
    """p -> the Legendre symbol (d/p) of the discriminant d, at odd primes.

    By quadratic reciprocity (d/p) depends only on p mod 4|d| (Ireland
    and Rosen, Section 5.2): p = p' mod 4|d| gives (d/p) = (d/p') for odd
    primes p, p' not dividing d, and a class that shares an odd prime q
    with d holds no other odd prime than q. So the symbol is computed
    once per class and kept in a bytearray of 4|d| bytes, the value
    plus 2, 0 for a class not yet met. At d = 0 and past
    _CHARACTER_CLASSES classes it is the plain symbol, one modular power
    per prime and no table: a sweep then meets too few primes per class
    for a table to pay for its memory."""
    m = 4 * abs(d)
    if not 0 < m <= _CHARACTER_CLASSES:
        return lambda p: legendre(d, p)
    values = bytearray(m)

    def chi(p):
        r = p % m
        v = values[r]
        if not v:
            v = values[r] = legendre(d, p) + 2
        return v - 2
    return chi


def _root_count(spec, p, d, chi, x_pow):
    """`count_roots_mod_p`, given the discriminant d of the cubic, its
    character chi = `_discriminant_character(d)` and x_pow(e) = X^e
    modulo (Psi, p)."""
    if d % p == 0:
        return RAMIFIED
    if p == 2:
        a1, a2, a3 = spec.coefficients
        return int(a3 % 2 == 0 or (1 - a1 - a2 - a3) % 2 == 0)
    if chi(p) == -1:
        return 1
    return 3 if x_pow(p) == (0, 1, 0) else 0


def count_roots_mod_p(spec, p):
    """Number of distinct roots of the characteristic cubic in F_p:
    0, 1, 3, or "ramified" when p divides the discriminant d.

    At an odd prime Stickelberger gives (d/p) = (-1)^(3 - r), r the number
    of irreducible factors of Psi mod p, so there is one root exactly when
    (d/p) = -1. Otherwise r is 1 or 3: three roots when X^p = X, none when
    not. F_2 cannot hold three distinct roots, so at p = 2 there is one
    exactly when Psi(0) or Psi(1) is even. By reciprocity (d/p) depends
    only on p mod 4|d|, so the sweeps compute it once per class into a
    table (`_discriminant_character`), which falls back to the plain
    symbol past 2^16 classes. A p that is not prime raises ValueError.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = _reduction_rows(spec, p)
    d = discriminant(spec)
    return _root_count(spec, p, d, _discriminant_character(d),
                       lambda e: _x_pow(e, p, *rows))


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


@record
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
    a constant, and r is the order of beta/gamma. Its first step needs
    no power: beta^((p+1)/2) squares to beta^(p+1) = beta*gamma, the
    constant term q0 of Q, so it is in F_p exactly when q0 is a square
    mod p. Then alpha^r and
    beta^r = gamma^r are F_p scalars, and every other order is an order
    in F_p^*, taken by builtin `pow`. At a no-root prime the ring is
    F_{p^3}, r is the least j | p^2 + p + 1 with X^j in F_p, and
    t_p = r * ord(X^r). Ramified and three-root primes descend over
    p(p-1) and p-1 directly.

    X^p is checked before any order is read off it, and a wrong X^p
    raises ArithmeticError rather than give wrong orders. At a prime in Z
    the descent over p + 1 starts at X * X^p, and X^p is pinned by the
    root alpha it yields. Where (d/p) = 1, X^p must equal X * X^(p-1)
    for a second, independent power X^(p-1). At three roots that power
    is the period's multiple. At no root, where X^(p-1) != 1 makes the
    ring F_{p^3}, the multiple X^(p^2+p+1) = X * X^p * X^(p^2) is the
    norm of X and must be a3: the Frobenius sigma(y) = y^p fixes F_p, so
    X^(p^2) = sigma(X^p) takes one ring square of X^p, and the norm two
    more products, in place of a power of 2*log2(p) bits.

    `classify_primes` gives the same profiles for all primes up to x
    from one pass.
    """
    if p == 2:
        raise ValueError("p = 2 is excluded from classification")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if spec.a3 % p == 0:
        raise ValueError(f"p = {p} divides a3; the sequence mod p is not purely periodic")
    d = discriminant(spec)
    return _prime_profile(spec, p, d, _discriminant_character(d),
                          factorize)


def classify_primes(spec, x):
    """Yield the profile of every prime p <= x, increasing, from one pass:
    one prime sieve, one discriminant and one `factor_table(x)` for p - 1,
    p + 1 and p^2 + p + 1. At an odd p not dividing a3 it is
    `classify_prime(spec, p)`; at p = 2 and at p | a3, where the sequence
    mod p need not be purely periodic, it holds the root count only."""
    profile = _prime_profiler(spec, x)
    for p in iter_primes(x):
        yield profile(p)


def _prime_profiler(spec, x):
    """p -> its `classify_primes` profile, for primes p <= x, all read off
    one discriminant, its character and one factor table."""
    d = discriminant(spec)
    chi = _discriminant_character(d)
    factor = factor_table(x)
    return lambda p: _prime_profile(spec, p, d, chi, factor)


def _times_x(c, p, r3):
    """X * (c0 + c1*X + c2*X^2): a shift and one reduction row."""
    c0, c1, c2 = c
    return (c2 * r3[0] % p, (c0 + c2 * r3[1]) % p, (c1 + c2 * r3[2]) % p)


def _prime_profile(spec, p, d, chi, factor):
    """The profile of prime p (see `classify_prime`), given the
    discriminant d of the cubic, its character chi and factor(n), the
    factorization of n for n = p - 1, p + 1 and p^2 + p + 1. At p = 2 and
    at p | a3 the profile holds the root count only."""
    # one memo of X^e, so each descent's last power is not raised again
    r3, r4 = _reduction_rows(spec, p)
    powers = {}

    def x_pow(e):
        c = powers.get(e)
        if c is None:
            c = powers[e] = _x_pow(e, p, r3, r4)
        return c

    root_count = _root_count(spec, p, d, chi, x_pow)
    if p == 2 or spec.a3 % p == 0:
        return PrimeProfile(p, root_count, False)
    fac_p1 = factor(p - 1)
    if root_count == RAMIFIED:
        t_p = _state_period(spec, p, p * (p - 1), {**fac_p1, p: 1}, x_pow)
        return PrimeProfile(p=p, root_count=RAMIFIED, in_Z=False, t_p=t_p)
    if root_count != 1 and x_pow(p) != _times_x(x_pow(p - 1), p, r3):
        raise ArithmeticError(f"X^p is not X * X^(p-1) mod {p}")
    if root_count == 3:
        return PrimeProfile(p=p, root_count=3, in_Z=False,
                            t_p=_state_period(spec, p, p - 1, fac_p1, x_pow))
    u0, u1, u2 = (x % p for x in spec.initial_terms)
    if root_count == 0:
        # F_{p^3}: X^((p-1)j) = 1 exactly when X^j is in F_p
        t_p = 1
        if u0 or u1 or u2:
            # the multiple X^(p^2+p+1) = X * X^p * X^(p^2) is the norm of
            # X, the product a3 of the roots, where for X^p = c
            # X^(p^2) = sigma(c) = c0 + c1*c + c2*c^2
            c = x_pow(p)
            cc = _polymulmod(c, c, p, r3, r4)
            c_p2 = ((c[0] + c[1] * c[0] + c[2] * cc[0]) % p,
                    (c[1] * c[1] + c[2] * cc[1]) % p,
                    (c[1] * c[2] + c[2] * cc[2]) % p)
            m2 = p * p + p + 1
            norm = powers[m2] = _times_x(_polymulmod(c, c_p2, p, r3, r4),
                                         p, r3)
            if norm != (spec.a3 % p, 0, 0):
                raise ArithmeticError(f"the norm of X is not a3 mod {p}")
            r = _element_order(lambda j: x_pow(j)[1:] == (0, 0), m2,
                               factor(m2))
            t_p = r * _scalar_order(x_pow(r)[0], p, fac_p1)
        return PrimeProfile(p=p, root_count=0, in_Z=False, t_p=t_p)

    # exactly one root alpha, that of the linear gcd(h, Psi) for
    # h = X^p - X = h0 + h1*X + h2*X^2: of h if h2 = 0, else of
    # h2^2 * (Psi mod h). Only the true alpha has Psi(alpha) = 0.
    a1, a2, a3 = spec.coefficients
    c0, c1, c2 = h0, h1, h2 = c = x_pow(p)
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
    # X^p is the conjugate -q1 - X modulo Q. Then X^p = -q1 - X + k*Q, and
    # the alpha step above found the root only if k*Q(alpha) = 2*alpha + q1,
    # which fixes k: X^p is pinned, and the descent may start at
    # X^(p+1) = X * X^p, a shift and one row of r3
    if (c0 - c2 * q0 + q1) % p or (c1 - c2 * q1 + 1) % p:
        raise ArithmeticError(f"X^p is not the Frobenius of Psi mod {p}")
    powers[p + 1] = _times_x(c, p, r3)

    def mod_q_is_scalar(j):
        # beta^((p+1)/2) squares to beta^(p+1) = beta*gamma = q0, so it
        # is in F_p exactly when q0 is a square mod p
        if 2 * j == p + 1:
            return legendre(q0, p) == 1
        _, c1, c2 = x_pow(j)
        return (c1 - c2 * q1) % p == 0

    r = _element_order(mod_q_is_scalar, p + 1, factor(p + 1))
    c0, c1, c2 = x_pow(r)
    if (c1 - c2 * q1) % p:
        raise ArithmeticError(f"X^{r} is not a constant modulo Q at p = {p}")
    a =(c0 + (c1 + c2 * alpha) * alpha) % p        # alpha^r
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
    """`in_Z(spec, .)` as a predicate of p, the discriminant computed once.
    By reciprocity (d/p) depends only on p mod 4|d|, so it is computed
    once per class and kept in a table (`_discriminant_character`); past
    2^16 classes it is the plain symbol at each p, with no table."""
    d = discriminant(spec)
    chi = _discriminant_character(d)
    a3 = spec.a3
    return lambda p: (p != 2 and d % p != 0 and a3 % p != 0
                      and chi(p) == -1)


def in_Z(spec, p):
    """Membership of p in Z: odd, unramified, coprime to a3, exactly one
    root mod p. Decided by one Legendre symbol (d/p) of the discriminant
    (Frobenius parity), which agrees with the root count. By reciprocity
    (d/p) depends only on p mod 4|d|, which the sweeps use to compute it
    once per class (`_z_predicate`, falling back to the plain symbol past
    2^16 classes). A p that is not prime raises ValueError."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _z_predicate(spec)(p)


def z_primes(spec, x):
    """Yield the primes p <= x in Z, increasing, by segmented enumeration."""
    is_z = _z_predicate(spec)
    for p in iter_primes(x):
        if is_z(p):
            yield p


# ---------------------------------------------------------------------------
# the reduced sequence V and sums over it

def frobenius_seed(spec, p, c=None):
    """(a1, a2, a3, W_0, W_1, W_2): U's coefficients mod p, by which
    W_k = U_{kp} mod p steps, and W's first three terms
    (U_0, U_p, U_{2p}) mod p.

    Frobenius is a ring endomorphism of F_p[X]/Psi that fixes F_p, so X^p
    is a root of Psi there, and W obeys U's own recurrence,
    W_{k+3} = a1*W_{k+2} + a2*W_{k+1} + a3*W_k, at every prime p
    (ramified, or dividing a3, alike). The three terms are read off
    c = X^p modulo (characteristic cubic, p) and one ring square, as
    U_{kp} = L(c^k) for the functional L(X^i) = U_i. c is the walk's
    (`frobenius_powers`), else one fresh X^p mod p of its own. It seeds
    the obstruction table's rows and `frobenius_period`; the table's
    re-check seeds its own W the same way, but takes the walk's c only
    once it has proven it to be X^p, which a root test can do where
    (d/p) = -1, as Psi then has no other root in the ring but X and a
    constant (`representation.verified_obstructions`)."""
    r3, r4 = _reduction_rows(spec, p)
    if c is None:
        c = _x_pow(p, p, r3, r4)
    u0, u1, u2 = spec.initial_terms
    cc = _polymulmod(c, c, p, r3, r4)
    return (r3[2], r3[1], r3[0], u0 % p,
            (c[0] * u0 + c[1] * u1 + c[2] * u2) % p,
            (cc[0] * u0 + cc[1] * u1 + cc[2] * u2) % p)


# consecutive primes per modulus M of `frobenius_powers`
_WALK_BLOCK = 16


def frobenius_powers(spec, primes):
    """Yield (p, X^p modulo (characteristic cubic, p)) for the increasing
    odd primes p of `primes`, one ring product per prime.

    The primes go in blocks of _WALK_BLOCK consecutive ones, worked
    modulo their product M: F_M[X]/Psi maps onto F_q[X]/Psi for each
    q | M, so X^q modulo (Psi, M) reduces mod q to X^q modulo (Psi, q).
    A block starts from one power X^q1 mod (Psi, M) of its first prime;
    from p to the next prime p' it takes one ring product with X^(p'-p),
    then three reductions mod p'. The short powers X^g and the reduction
    rows are kept in symmetric residues mod M, each X^g one shift of
    X^(g-1), so a sequence with small coefficients multiplies M-sized
    numbers by small ones only."""
    primes = iter(primes)
    while block := list(islice(primes, _WALK_BLOCK)):
        m = math.prod(block)
        h = m >> 1
        r3, r4 = [tuple((v + h) % m - h for v in row)
                  for row in _reduction_rows(spec, m)]
        s0, s1, s2 = r3
        steps = [(1, 0, 0)]
        p = block[0]
        c = _x_pow(p, m, r3, r4)
        for q in block:
            if q != p:
                while len(steps) <= q - p:
                    c0, c1, c2 = steps[-1]
                    steps.append(((c2 * s0 + h) % m - h,
                                  (c0 + c2 * s1 + h) % m - h,
                                  (c1 + c2 * s2 + h) % m - h))
                c = _polymulmod(c, steps[q - p], m, r3, r4)
                p = q
            yield p, (c[0] % p, c[1] % p, c[2] % p)


def frobenius_period(spec, p, k_max, c=None):
    """[W_1, ..., W_t], W_k = U_{kp} mod p: the one walk of the sequence
    V of `in_P_fU` and `char_sum_sweep`; k_max must be positive.

    W_0, W_1, W_2 come from `frobenius_seed(spec, p, c)`, c the block
    walk's X^p or, when None, a fresh one; each later term is one scalar
    step of U's own recurrence, which W obeys at every prime. t is the
    least k >= 1 at which the state (W_k, W_{k+1}, W_{k+2}) returns to
    (W_0, W_1, W_2), or k_max if that comes first. The state fixes every
    later term, so a returning state gives W's minimal period, which
    divides every period of W, such as the order of X^p (p not dividing
    a3), and can be shorter. Where W is not purely periodic (p | a3,
    possibly) the state never returns, and t = k_max."""
    a1, a2, a3, w0, w1, w2 = frobenius_seed(spec, p, c)
    period = [w1]
    append = period.append
    x, y, z = w1, w2, (a1 * w2 + a2 * w1 + a3 * w0) % p
    for _ in range(k_max - 1):
        if x == w0 and y == w1 and z == w2:
            break
        x, y, z = y, z, (a1 * z + a2 * y + a3 * x) % p
        append(x)
    return period


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

    Works at every odd prime p not dividing a3, in Z or not, ramified
    included; `classify_prime` raises ValueError at any other p. Its
    period t_p of U mod p gives t = t_p / gcd(t_p, p), a period of
    V_m = U_{p*m} mod p since p*t is a multiple of t_p. Once t meets the
    scan budget, `frobenius_period` walks V to its minimal period t' | t,
    and m is scanned in [1, t' + min(f_p, 6t')]. Periodicity makes that
    window exhaustive: a run may start in [1, t'], and 7 consecutive
    zeros span at most 6t'.
    """
    if f_p < 1:
        raise ValueError("f_p must be positive")
    t_p = classify_prime(spec, p).t_p
    t = t_p // math.gcd(t_p, p)
    if t > DEFAULT_SCAN_STATES:
        raise ScanBudgetError(f"V period {t} at p={p} exceeds the budget")
    values = frobenius_period(spec, p, t)     # V_1, ..., V_t'
    t = len(values)
    zeros = [m for m in range(1, t + int(min(f_p, 6 * t)) + 1)
             if values[(m - 1) % t] == 0]
    for i in range(len(zeros) - 6):
        if zeros[i + 6] - zeros[i] <= f_p:
            return True, tuple(zeros[i:i + 7])
    return False, None
