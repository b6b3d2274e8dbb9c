"""Exact decision of N = u^2 + n*v^2 and membership classification.

One exact solver, Cornacchia's: factor N, run over the square divisors
g^2 | N, take every square root of -n modulo m = N/g^2 and the first
remainder of its Euclid descent that is at most isqrt(m), and keep the
solution with the smallest v. Certificates of a non-member come first
(`_check` states what each one proves):
- local (certificate m), before any factoring, at m = 64 and at
  m = q^(e+1) for each odd q^e || n;
- partial_factor and jacobi (certificate D): one Jacobi search over q^e
  for the primes q below 10^4 (partial_factor), then the cofactor they
  leave (jacobi, before any Pollard-Brent step), then q^e over the full
  factorization (partial_factor).
On top of that sits the cheap quadratic-residue obstruction: an odd prime
p | n with U_n a nonresidue mod p certifies that U_n = u^2 + n*v^2 has
no solution at all. `count` finds it for every n <= x at once with a
prime-major sieve over W_k = U_{kp} mod p (`obstruction_table`);
`qr_obstruction` decides one index.

Each verdict names its method: qr_sieve (Obstructed), witness_formula,
sign (a negative U_n), local, partial_factor, jacobi, cornacchia, or
not_attempted (Unknown past n_exact, where no exact tier ran; an Unknown
from cornacchia is a factorization timeout).

`classify_range` streams n = 1 .. x in order as two kinds of item. A
MembershipRecord is one index of the exact tier or of a witness formula.
A SieveBlock is a run of at most _BLOCK consecutive indices that the
sieve alone decides (obstructed, or not_attempted), read straight off
the sieve's table with no per-index object; it writes its CSV rows with
one join and tallies them from the table.

`_check` re-verifies every exact-tier, witness and `membership` verdict
from its certificate alone, one predicate per method, and raises
CertificateError, so it also runs under -O. `count` re-verifies the
sieve's obstructions in bulk, on another path (`verified_obstructions`).
A block compares its obstructed indices with the re-check's flags, and
at the first that failed the stream yields the rows before it as a
shorter block, then raises.
"""

import math
from array import array
from itertools import chain, compress, islice, product

from ._record import as_dict, record
from .modular import (frobenius_period, frobenius_powers, frobenius_seed,
                      term_mod)
from .primes import (FactorTimeout, factorize, is_prime, iter_primes,
                     trial_division)
from .recurrence import (DEFAULT_TERM_DIGITS, FIVE_FIB_SQ_MINUS_4,
                         POW2_PLUS_N, SQUARE_POW, TermBudgetError, lucas,
                         term, term_walker)
from .sqrtmod import _squares_mod, integer_sqrt, jacobi, legendre, sqrt_mod

DEFAULT_FACTOR_TIMEOUT_S = 10.0


# ---------------------------------------------------------------------------
# statuses

@record
class Member:
    u: int
    v: int


@record
class NonMember:
    pass


@record
class Obstructed:
    p: int


@record
class Unknown:
    pass


class CertificateError(ArithmeticError):
    """A verdict failed its re-verification."""


_STATUS_NAMES = {Member: "member", NonMember: "non_member",
                 Obstructed: "obstructed", Unknown: "unknown"}


def status_name(status):
    return _STATUS_NAMES[type(status)]


# ---------------------------------------------------------------------------
# the representation solver

def _cornacchia_primitive(m, n, m_factors):
    """The solutions (x, y) of x^2 + n*y^2 = m that Cornacchia's
    algorithm finds, m >= 1: every primitive one (at n = 1 one of (x, y)
    and (y, x), the one with the smaller y).

    A primitive solution has y invertible mod m and x/y a square root r
    of -n, and x is then the first remainder b <= isqrt(m) of the
    Euclidean chain of (m, r) (Cornacchia; Basilla 2004 proves it for
    composite m). So each root tests one b, and (b, y) is yielded only
    when (m - b^2)/n is the exact square y^2.
    """
    if m == 1:
        yield (1, 0)
        return
    if m == n:
        yield (0, 1)
        return
    lim = math.isqrt(m)
    for r in sqrt_mod(-n % m, m, m_factors):
        a, b = m, r
        while b > lim:
            a, b = b, a % b
        rem = m - b * b
        if rem % n == 0:
            y, exact = integer_sqrt(rem // n)
            if exact:
                yield (b, y)


_SQUARES_64 = [r for r, s in enumerate(_squares_mod(64)) if s]
_SQUARES_64_MASK = sum(1 << r for r in _SQUARES_64)
_IMAGE_64 = [None] * 64     # the masks of _image_mod_64, filled on demand


def _image_mod_64(n):
    """The image of u^2 + n*v^2 mod 64 as a 64-bit mask, bit a set when
    some u, v give a: the mask of the squares rotated by n*t for each
    square t. It depends on n mod 64 only."""
    c = n % 64
    if _IMAGE_64[c] is None:
        mask = 0
        for k in {c * t % 64 for t in _SQUARES_64}:
            mask |= _SQUARES_64_MASK << k | _SQUARES_64_MASK >> (64 - k)
        _IMAGE_64[c] = mask & (1 << 64) - 1
    return _IMAGE_64[c]


def _local_moduli(n):
    """(m, q, e) for the local test: (64, 2, 0), then (q^(e+1), q, e) for
    each odd q^e || n in increasing q. The q are the primes of n below
    10^8 (all of them while n < 10^8)."""
    yield 64, 2, 0
    for q, e in trial_division(n)[0].items():
        if q > 2:
            yield q ** (e + 1), q, e


def _outside_local_image(r, n, q, e):
    """r = N mod m is outside the image of u^2 + n*v^2 mod m, for m = 64
    (q = 2) or m = q^(e+1) with q an odd prime and q^e || n, e >= 1.

    In the odd case, with k = v_q(N) and N' = N/q^k: outside exactly
    when k < e and (k is odd or (N'/q) = -1), or k = e, e is odd and
    (N' * n/q^e / q) = -1. Both terms are read off N mod q^(e+1)."""
    if q == 2:
        return not _image_mod_64(n) >> r & 1
    if not r:
        return False
    k = 0
    while r % q == 0:
        r //= q
        k += 1
    if k < e:
        return k % 2 == 1 or legendre(r, q) == -1
    return e % 2 == 1 and legendre(r * (n // q**e), q) == -1


def _local_modulus(n_big, n):
    """The first m of _local_moduli(n) with N mod m outside the image of
    u^2 + n*v^2 mod m, else None. Any representation reduces mod m, so
    such an m certifies a non-member."""
    return next((m for m, q, e in _local_moduli(n)
                 if _outside_local_image(n_big % m, n, q, e)), None)


def _jacobi_divisor(divisors, n):
    """The first D of `divisors` with gcd(D, 2n) = 1 and Jacobi
    (-n/D) = -1, else None: for a D with D | N and gcd(D, N/D) = 1, a
    jacobi or partial_factor certificate (see _check)."""
    return next((d for d in divisors
                 if math.gcd(d, 2 * n) == 1 and jacobi(-n, d) == -1), None)


def _check(method, n, value, cert):
    """Re-verify a verdict of `method` at index n from its certificate
    alone, else raise CertificateError (also under -O):
    - qr_sieve, certificate p, value U_n mod p: p is an odd prime, p | n
      and U_n is a nonzero nonresidue mod p;
    - local, m, value N or N mod m: m is one of _local_moduli(n) and N is
      outside the image of u^2 + n*v^2 mod m;
    - partial_factor and jacobi, D, value N: D | N with gcd(D, N/D) =
      gcd(D, 2n) = 1 and Jacobi (-n/D) = -1. The symbol is the product of
      (-n/q)^e over q^e || D, so some prime q has an odd e and
      (-n/q) = -1, and q^e || N as well. Then N is not u^2 + n*v^2:
      q | u^2 + n*v^2 with -n a nonresidue mod q forces q | u and q | v,
      so (u/q, v/q) represents N/q^2, and descending this way shows that
      q divides N to an even power. No primality test is needed;
    - cornacchia and witness_formula, (u, v), value N: u^2 + n*v^2 = N.
    Any other method raises. A failure's message names p or m, never D
    or u, which can pass str's digit limit."""
    if method == "qr_sieve":
        ok = (cert > 2 and n % cert == 0 and is_prime(cert)
              and _is_nonresidue(value, cert))
    elif method == "local":
        ok = any(cert == m and _outside_local_image(value % m, n, q, e)
                 for m, q, e in _local_moduli(n))
    elif method in ("partial_factor", "jacobi"):
        ok = (cert > 1 and value % cert == 0 and math.gcd(cert, value // cert)
              == math.gcd(cert, 2 * n) == 1 and jacobi(-n, cert) == -1)
    elif method in ("cornacchia", "witness_formula"):
        ok = cert[0] ** 2 + n * cert[1] ** 2 == value
    else:
        raise CertificateError(f"no check for method {method} at n={n}")
    if not ok:
        what = (f"obstruction at p={cert}" if method == "qr_sieve" else
                f"local certificate at m={cert}" if method == "local" else
                f"{method} certificate")
        raise CertificateError(f"{what} failed re-verification at n={n}")


def _represent(n_big, n, factor_timeout_s):
    """(status, method) for N = u^2 + n*v^2 over nonnegative integers:
    the certificates of the module docstring in its order, then the
    Cornacchia descent's Member with the smallest v, or NonMember, or
    Unknown if factoring timed out. Each certificate and Member passes
    _check before it is returned."""
    if n_big < 0:
        raise ValueError("N must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if n_big == 0:
        return Member(0, 0), "cornacchia"
    m = _local_modulus(n_big, n)
    if m is not None:
        _check("local", n, n_big, m)
        return NonMember(), "local"
    factors, rest = trial_division(n_big)
    # rest has no prime below 10^4 and N/rest no other prime, so
    # gcd(rest, N/rest) = 1; rest = 1 has symbol 1. D = rest only here,
    # as the search after factorize meets rest only as a rejected q^e
    d = _jacobi_divisor(chain((q**e for q, e in sorted(factors.items())),
                              [rest]), n)
    if d is None and rest > 1:
        try:
            factors.update(factorize(rest, timeout_s=factor_timeout_s))
        except FactorTimeout:
            return Unknown(), "cornacchia"
        d = _jacobi_divisor((q**e for q, e in sorted(factors.items())), n)
    if d is not None:
        method = "jacobi" if d == rest else "partial_factor"
        _check(method, n, n_big, d)
        return NonMember(), method
    # every solution is g * (primitive solution of N/g^2), g = gcd(u, v),
    # and g runs over the exponent vectors h with 2h <= e
    found = []
    for halves in product(*(range(e // 2 + 1) for e in factors.values())):
        g = math.prod(q**h for q, h in zip(factors, halves))
        m_factors = {q: e - 2 * h for (q, e), h in zip(factors.items(), halves)
                     if e > 2 * h}
        found += [(g * y, g * x) for x, y in
                  _cornacchia_primitive(n_big // (g * g), n, m_factors)]
    if not found:
        return NonMember(), "cornacchia"
    v, u = min(found)
    _check("cornacchia", n, n_big, (u, v))
    return Member(u, v), "cornacchia"


def represent(n_big, n, factor_timeout_s=DEFAULT_FACTOR_TIMEOUT_S):
    """Decide N = u^2 + n*v^2: Member(u, v) with the smallest v >= 0,
    NonMember(), or Unknown() (only on a factorization timeout)."""
    status, _ = _represent(n_big, n, factor_timeout_s)
    return status


# ---------------------------------------------------------------------------
# the quadratic-residue obstruction

def qr_obstruction(spec, n):
    """Obstructed(p) for the smallest odd prime p | n with U_n a
    quadratic nonresidue mod p, else None.

    U_n = u^2 + n*v^2 reduces to U_n = u^2 mod any p | n, so a
    nonresidue certifies non-membership; this needs no assumption on the
    splitting of p.
    """
    if n < 2:
        return None
    for p in sorted(factorize(n)):
        if p != 2 and _is_nonresidue(term_mod(spec, n, p), p):
            return Obstructed(p)
    return None


def _is_nonresidue(r, p):
    """The obstruction's certificate predicate: U_n = r mod p is a nonzero
    quadratic nonresidue modulo the odd prime p, by Euler's criterion
    (r = 0 gives 0, not p - 1). `legendre(r, p) == -1` without its
    reduction and branches; the sieve's rows at p > x/p, the re-check and
    `qr_obstruction` all test through it."""
    return pow(r, p // 2, p) == p - 1


def obstruction_table(spec, x):
    """obs[n] for 0 <= n <= x: the smallest odd prime p | n with U_n a
    quadratic nonresidue mod p, or 0 where there is none.

    Prime-major, primes going up, so the first prime recorded at n is the
    smallest. The odd primes stream through `frobenius_powers`, one ring
    product per prime for X^p, which seeds W_k = U_{kp} mod p. When
    p <= x/p, the nonresidue flags of W up to its period, or to x/p
    (`frobenius_period`), read off the table of squares mod p, are tiled
    over the multiples of p. Past that, the row is stepped inline, and
    Euler's criterion tests only the multiples no smaller prime has
    claimed. Agrees with qr_obstruction. An array("I"), 4 bytes an
    index, so x must be below 2^32.
    """
    if x >= 1 << 32:
        raise ValueError("x must be below 2^32")
    obs = array("I", [0]) * (x + 1)
    for p, c in frobenius_powers(spec, islice(iter_primes(x), 1, None)):
        k_max = x // p
        if p <= k_max:
            period = frobenius_period(spec, p, k_max, c)
            squares = _squares_mod(p)
            flags = bytes([not squares[r] for r in period])
            reps, extra = divmod(k_max, len(flags))
            for n in compress(range(p, x + 1, p),
                              flags * reps + flags[:extra]):
                if not obs[n]:
                    obs[n] = p
        else:
            # stepped here, not by frobenius_period: a list per row made
            # the table 3-9% slower at x = 3*10^4 .. 3*10^5 (x86_64, 1 CPU)
            a1, a2, a3, w0, w1, w2 = frobenius_seed(spec, p, c)
            for n in range(p, x + 1, p):
                if not obs[n] and _is_nonresidue(w1, p):
                    obs[n] = p
                w0, w1, w2 = w1, w2, (a1 * w2 + a2 * w1 + a3 * w0) % p
    return obs


def verified_obstructions(spec, obs):
    """bytearray ok with ok[n] = 1 exactly where p = obs[n] is an odd prime
    of a fresh sieve, p | n and U_n mod p is a nonzero nonresidue.

    An independent re-check of obstruction_table, prime-major too, but on
    another path: `frobenius_seed` starts W from its own X^p, one
    `_x_pow` per prime, instead of the table's X^p from the block walk,
    and a plain loop steps U's recurrence over every multiple of p up to
    the last that names p, with no period assumed, where the table tiles
    one. It keeps its own loop, not `frobenius_period`, so that a wrong
    period rule cannot pass its own re-check. A prime that names no index
    takes no power. Sound, not complete: it proves every obstruction the
    table claims, not that the table missed none; a lost one leaves a
    sound unknown, so `upper_bound` stays a valid bound on the members.
    """
    x = len(obs) - 1
    ok = bytearray(x + 1)
    for p in islice(iter_primes(x), 1, None):
        end = x - x % p     # down to the last multiple of p that names p
        while end and obs[end] != p:
            end -= p
        if not end:
            continue
        a1, a2, a3, w0, w1, w2 = frobenius_seed(spec, p)
        for n in range(p, end + 1, p):
            if obs[n] == p and _is_nonresidue(w1, p):
                ok[n] = 1
            w0, w1, w2 = w1, w2, (a1 * w2 + a2 * w1 + a3 * w0) % p
    return ok


def non_squarefree_count(x):
    """#{n <= x : p^2 | n for some prime p}, by marking multiples of p^2."""
    flags = bytearray(x + 1)
    for p in iter_primes(math.isqrt(x)):
        flags[p * p::p * p] = b"\x01" * (x // (p * p))
    return flags.count(1)


# ---------------------------------------------------------------------------
# membership classification

# the count CSV's columns; MembershipRecord and SieveBlock write its rows
COUNT_COLUMNS = ("n", "status", "u", "v", "obstruction_p")


def _text(field):
    """str(field), "" for None; through Decimal past str's limit (4300
    digits), so `decimal` is imported only by a run that writes such a
    row."""
    if field is None:
        return ""
    try:
        return str(field)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(field))


def csv_line(fields):
    """One CSV row of `fields`, comma-joined with no quoting: no field
    of the package's CSVs holds a comma, a quote or a line break."""
    return ",".join(map(_text, fields)) + "\n"


@record
class MembershipRecord:
    n: int
    status: object
    method: str

    def __post_init__(self):
        if isinstance(self.status, Obstructed) and self.method != "qr_sieve":
            raise CertificateError("obstruction method failed "
                                   f"re-verification at n={self.n}")

    def csv_fields(self):
        s = self.status
        return (self.n, status_name(s),
                s.u if isinstance(s, Member) else "",
                s.v if isinstance(s, Member) else "",
                s.p if isinstance(s, Obstructed) else "")

    def csv_text(self):
        return csv_line(self.csv_fields())

    def tallies(self):
        """(status name, method, count) for the summary."""
        return ((status_name(self.status), self.method, 1),)


@record
class SieveBlock:
    """The indices lo, lo + 1, ..., lo + len(primes) - 1, decided by the
    sieve alone: Obstructed(p) (method qr_sieve) where p = primes[i] is
    nonzero, its re-check passed, else Unknown (method not_attempted).
    A record like MembershipRecord, but one per block, not per index."""
    lo: int
    primes: array       # a slice of obstruction_table

    def csv_text(self):
        return "".join([f"{n},obstructed,,,{p}\n" if p else f"{n},unknown,,,\n"
                        for n, p in enumerate(self.primes, self.lo)])

    def tallies(self):
        """(status name, method, count) for the summary, nonzero counts
        only, in the order their first rows come."""
        obstructed = len(self.primes) - self.primes.count(0)
        parts = [("obstructed", "qr_sieve", obstructed),
                 ("unknown", "not_attempted", len(self.primes) - obstructed)]
        if not self.primes[0]:
            parts.reverse()
        return [part for part in parts if part[2]]


# spec -> (r, m): _witness_formula has a witness exactly at n = r mod m
_WITNESS_CLASSES = {POW2_PLUS_N: (0, 2), SQUARE_POW: (0, 1),
                    FIVE_FIB_SQ_MINUS_4: (1, 2)}


def _witness_formula(spec, n):
    """Closed-form witness (u, v) for the three counterexample presets,
    at the n of their class in _WITNESS_CLASSES, else None."""
    residue_class = _WITNESS_CLASSES.get(spec)
    if residue_class is None or n % residue_class[1] != residue_class[0]:
        return None
    if spec == POW2_PLUS_N:
        return (2 ** (n // 2), 1)
    if spec == SQUARE_POW:
        return (2**n + 1, 0)
    return (lucas(n), 0)


def _classify(spec, n, n_exact, factor_timeout_s, term_at):
    """The record of an unobstructed index n: a closed-form witness where
    one exists, else the exact solver for n <= n_exact, else Unknown
    (method not_attempted). U_n = term_at(n); Members pass _check first."""
    witness = _witness_formula(spec, n)
    if witness is not None:
        _check("witness_formula", n, term_at(n), witness)
        return MembershipRecord(n, Member(*witness), "witness_formula")
    if n <= n_exact:
        u_n = term_at(n)
        if u_n < 0:     # u^2 + n*v^2 >= 0
            return MembershipRecord(n, NonMember(), "sign")
        status, method = _represent(u_n, n, factor_timeout_s)
        return MembershipRecord(n, status, method)
    return MembershipRecord(n, Unknown(), "not_attempted")


def _classifier(spec, settings):
    """_classify at increasing n, its terms from one term_walker."""
    n_exact, factor_timeout_s, term_digits = settings
    term_at = term_walker(spec, term_digits)
    return lambda n: _classify(spec, n, n_exact, factor_timeout_s, term_at)


def membership(spec, n, n_exact, factor_timeout_s=DEFAULT_FACTOR_TIMEOUT_S,
               term_digits=DEFAULT_TERM_DIGITS):
    """Classify one index n: obstruction first, then a closed-form witness
    where one exists, then the exact solver for n <= n_exact, else Unknown.
    Each certificate passes _check first, the obstruction's on a fresh
    term_mod."""
    if n < 1:
        raise ValueError("n must be positive")
    if spec.is_zero_sequence():
        raise ValueError("membership is undefined for the all-zero sequence")
    obstruction = qr_obstruction(spec, n)
    if obstruction is not None:
        p = obstruction.p   # p < 2 is no modulus, and fails _check
        _check("qr_sieve", n, term_mod(spec, n, p) if p > 1 else 0, p)
        return MembershipRecord(n, obstruction, "qr_sieve")
    return _classify(spec, n, n_exact, factor_timeout_s,
                     lambda k: term(spec, k, term_digits))


@record
class CountReport:
    x: int
    n_exact: int
    counts: dict
    method_counts: dict
    member_count: int
    certified_non_members: int
    upper_bound: int
    density_lower: float    # member_count / x
    density_upper: float    # upper_bound / x
    non_squarefree: int

    to_json_dict = as_dict


def _classify_chunk(args):
    """The records of a chunk of exact-tier indices in order, up to the
    first index whose classification raises. The stream classifies that
    index again in the parent, where it raises the same error after the
    rows before it, so a failure looks the same for every `workers`."""
    spec, indices, settings = args
    classify = _classifier(spec, settings)
    records = []
    try:
        for n in indices:
            records.append(classify(n))
    except (TermBudgetError, CertificateError):
        pass
    return records


def _pool_plan(indices, workers):
    """(worker count, chunks) for classifying `indices` in a process pool:
    about four contiguous chunks per worker, and never more workers than
    chunks. A worker count of 1 means no pool."""
    if workers <= 1 or not indices:
        return 1, [indices]
    size = -(-len(indices) // (4 * workers))
    chunks = [indices[i:i + size] for i in range(0, len(indices), size)]
    return min(workers, len(chunks)), chunks


def classify_range(spec, x, n_exact, workers=1,
                   factor_timeout_s=DEFAULT_FACTOR_TIMEOUT_S,
                   term_digits=DEFAULT_TERM_DIGITS):
    """An iterator over n = 1 .. x in order, as MembershipRecords and
    SieveBlocks.

    The arguments are checked, the obstruction sieve and its re-check run
    and the exact tier (unobstructed n <= n_exact) is classified when this
    is called. A record comes at each unobstructed n <= n_exact and each
    unobstructed n past it with a closed-form witness, classified as the
    iterator reaches it; blocks cover the indices between. So no item
    outlives its turn, and an obstruction that failed its re-check raises
    at its own index, after the rows before it. Only the exact tier is
    split over `workers` processes, by contiguous chunks, so the items
    are independent of `workers`."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if spec.is_zero_sequence():
        raise ValueError("membership is undefined for the all-zero sequence")
    obs = obstruction_table(spec, x)
    verified = verified_obstructions(spec, obs)
    settings = (n_exact, factor_timeout_s, term_digits)
    exact = [n for n in range(1, min(x, n_exact) + 1) if not obs[n]]
    workers, chunks = _pool_plan(exact, workers)
    pooled = {}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_classify_chunk,
                                 [(spec, chunk, settings) for chunk in chunks]):
                pooled.update((rec.n, rec) for rec in part)
    witnessed = ()
    if spec in _WITNESS_CLASSES:
        r, m = _WITNESS_CLASSES[spec]
        first = n_exact + 1 + (r - n_exact - 1) % m
        witnessed = (n for n in range(first, x + 1, m) if not obs[n])
    return _stream(spec, obs, verified, chain(exact, witnessed), pooled,
                   settings)


_BLOCK = 1 << 10    # the most indices in one SieveBlock


def _stream(spec, obs, verified, record_indices, pooled, settings):
    """A record at each of the increasing `record_indices` (from `pooled`
    where the pool classified it), and SieveBlocks over the rest of
    1 .. len(obs) - 1."""
    classify = _classifier(spec, settings)
    lo = 1
    for n in record_indices:
        yield from _sieve_blocks(obs, verified, lo, n)
        rec = pooled.pop(n, None)
        yield rec if rec is not None else classify(n)
        lo = n + 1
    yield from _sieve_blocks(obs, verified, lo, len(obs))


def _sieve_blocks(obs, verified, lo, hi):
    """SieveBlocks over lo .. hi - 1, at most _BLOCK indices each. Each
    block's obstructed indices must be exactly those the re-check flagged
    in `verified`; at the first index where they differ, the rows before
    it come as a shorter block and CertificateError is raised."""
    for start in range(lo, hi, _BLOCK):
        end = min(start + _BLOCK, hi)
        primes = obs[start:end]
        mask, flags = bytes(map(bool, primes)), verified[start:end]
        if mask != flags:
            bad = next(i for i, (a, b) in enumerate(zip(mask, flags))
                       if a != b)
            if bad:
                yield SieveBlock(start, primes[:bad])
            raise CertificateError(f"obstruction at p={primes[bad]} failed "
                                   f"re-verification at n={start + bad}")
        yield SieveBlock(start, primes)


def summarize(items, x, n_exact):
    """The CountReport of a classify_range stream."""
    counts = {"member": 0, "non_member": 0, "obstructed": 0, "unknown": 0}
    method_counts = {}
    for item in items:
        for status, method, k in item.tallies():
            counts[status] += k
            method_counts[method] = method_counts.get(method, 0) + k
    certified = counts["non_member"] + counts["obstructed"]
    return CountReport(
        x=x, n_exact=n_exact, counts=counts, method_counts=method_counts,
        member_count=counts["member"],
        certified_non_members=certified,
        upper_bound=x - certified,
        density_lower=counts["member"] / x,
        density_upper=(x - certified) / x,
        non_squarefree=non_squarefree_count(x),
    )


def count_range(spec, x, n_exact, workers=1,
                factor_timeout_s=DEFAULT_FACTOR_TIMEOUT_S,
                term_digits=DEFAULT_TERM_DIGITS):
    """Classify every n <= x and aggregate counts and density bounds.

    The upper bound on members is x minus the certified non-members
    (obstructed plus exact non-members); the lower bound is the verified
    member count. Pure function of its arguments. One pass over the
    stream, so memory does not grow with x beyond the sieve's table."""
    items = classify_range(spec, x, n_exact, workers, factor_timeout_s,
                           term_digits)
    return summarize(items, x, n_exact)
