"""Exact decision of N = u^2 + n*v^2 and membership classification.

Two decision tiers: bounded enumeration over v, square-sieved on long
ranges, and a Cornacchia tier (factor N, enumerate square divisors
g^2 | N, take every square root of -n modulo N/g^2, Euclid descent) for
inputs the scan cannot reach. The Cornacchia tier first looks for an odd
prime q with (-n/q) = -1 dividing N to an odd power, which certifies a
non-member from a partial factorization (method partial_factor).
On top of that sits the cheap quadratic-residue obstruction: an odd prime
p | n with U_n a nonresidue mod p certifies that U_n = u^2 + n*v^2 has
no solution at all. `count` finds it for every n <= x at once with a
prime-major sieve; `qr_obstruction` decides one index.

Each verdict names its method: qr_sieve (Obstructed), witness_formula,
sign (a negative U_n), enumeration, partial_factor, cornacchia, or
not_attempted (Unknown past n_exact, where no exact tier ran; an Unknown
from cornacchia is a factorization timeout).

`classify_range` streams n = 1 .. x in order as two kinds of item. A
MembershipRecord is one index of the exact tier or of a witness formula.
A SieveBlock is a run of at most _BLOCK consecutive indices that the
sieve alone decides (obstructed, or not_attempted), read straight off
the sieve's table with no per-index object; it writes its CSV rows with
one join and tallies them from the table.

Every Member, Obstructed, witness and partial_factor verdict is
re-verified by an explicit check that raises CertificateError, so the
checks also run under -O. `count` re-verifies its obstructions prime by
prime, on the subsequence U_p, U_2p, ... mod p, which obeys U's own
recurrence; a block compares its obstructed indices with those flags,
and at the first that failed the stream yields the rows before it as a
shorter block, then raises. `membership` re-verifies its one
obstruction by a fresh term_mod.
"""

import math
from array import array
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, compress
from typing import NamedTuple

from .modular import term_mod, terms_at_multiples
from .primes import (FactorTimeout, divisors_from_factorization, factorize,
                     is_prime, iter_primes, trial_division)
from .recurrence import (DEFAULT_TERM_DIGITS, FIVE_FIB_SQ_MINUS_4,
                         POW2_PLUS_N, SQUARE_POW, TermBudgetError, lucas,
                         term, term_walker)
from .sqrtmod import _squares_mod, integer_sqrt, legendre, sqrt_mod

# the largest sqrt(N/n) that _represent enumerates; read at each call
ENUM_LIMIT = 10**6
DEFAULT_FACTOR_TIMEOUT_S = 10.0


# ---------------------------------------------------------------------------
# statuses

@dataclass(frozen=True, slots=True)
class Member:
    u: int
    v: int


@dataclass(frozen=True, slots=True)
class NonMember:
    pass


@dataclass(frozen=True, slots=True)
class Obstructed:
    p: int


@dataclass(frozen=True, slots=True)
class Unknown:
    pass


class CertificateError(ArithmeticError):
    """A verdict failed its re-verification."""


def _certify(ok, what, n):
    if not ok:
        raise CertificateError(f"{what} failed re-verification at n={n}")


_STATUS_NAMES = {Member: "member", NonMember: "non_member",
                 Obstructed: "obstructed", Unknown: "unknown"}


def status_name(status):
    return _STATUS_NAMES[type(status)]


# ---------------------------------------------------------------------------
# the representation solver

# Moduli of the square sieve over v, pairwise coprime (2^6, 3^2 * 7,
# 5 * 13 and the other primes up to 47), each with its table of squares.
_SQUARE_SIEVE = tuple(
    (q, _squares_mod(q))
    for q in (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47))
_FIRST_SEGMENT = 2 * _SQUARE_SIEVE[0][0]    # no modulus pays below this
_MAX_SEGMENT = 1 << 16


def _represent_enumerate(n_big, n):
    """Member(u, v) with the smallest v, else NonMember(): isqrt on every
    v <= sqrt(N/n) that the square sieve keeps, in increasing v."""
    for candidates in _square_sieve(n_big, n, math.isqrt(n_big // n)):
        for v in candidates:
            rest = n_big - n * v * v
            u = math.isqrt(rest)
            if u * u == rest:
                return Member(u, v)
    return NonMember()


def _square_sieve(n_big, n, vmax):
    """The v in [0, vmax] at which N - n*v^2 is a square modulo every
    modulus in use, as one iterable per segment, in increasing v.

    Segments double in length up to _MAX_SEGMENT. Each modulus q strikes
    with one row, its good residues of v repeated over the segment and
    ANDed in as an integer: a few C-level passes per segment. Setting q up
    costs about q operations and strikes about half of the candidates, so
    q joins once a segment expects more than 2q candidates after the
    moduli already in use; the first segment is the plain range.
    """
    in_use = []         # (q, good residues of v mod q), a prefix of the sieve
    kept = 1.0          # expected share of v that survive the moduli in use
    lo, size = 0, _FIRST_SEGMENT
    while lo <= vmax:
        hi = min(lo + size, vmax + 1)
        width = hi - lo
        while len(in_use) < len(_SQUARE_SIEVE):
            q, squares = _SQUARE_SIEVE[len(in_use)]
            if width * kept <= 2 * q:
                break
            a, b = n_big % q, n % q
            good = bytes([squares[(a - b * r * r) % q] for r in range(q)])
            in_use.append((q, good))
            kept *= sum(good) / q
        if not kept:        # no v is a square modulo some q
            return
        if in_use:
            mask = -1
            for q, good in in_use:
                shift = lo % q
                row = (good[shift:] + good[:shift]) * (width // q + 1)
                mask &= int.from_bytes(row[:width], "little")
            yield compress(range(lo, hi), mask.to_bytes(width, "little"))
        else:
            yield range(lo, hi)
        lo, size = hi, min(2 * size, _MAX_SEGMENT)


def _cornacchia_primitive(m, n, m_factors):
    """A primitive solution (x, y) of x^2 + n*y^2 = m, or None.

    Every primitive solution has y invertible mod m and x/y a square root
    of -n, so walking the Euclidean remainder chain of (m, r) for every
    root r and square-testing (m - x^2)/n finds one whenever it exists.
    Candidates are only returned after the equation re-verifies exactly.
    """
    if m == 1:
        return (1, 0)
    if m == n:
        return (0, 1)
    lim = math.isqrt(m)
    for r in sqrt_mod(-n % m, m, m_factors):
        a, b = m, r
        while b > lim:
            a, b = b, a % b
        while b:
            rem = m - b * b
            if rem % n == 0:
                y, exact = integer_sqrt(rem // n)
                if exact:
                    return (b, y)
            a, b = b, a % b
    return None


def _represent(n_big, n, factor_timeout_s):
    """(status, method) for N = u^2 + n*v^2 over nonnegative integers;
    a Member is re-verified against N before it is returned."""
    if n_big < 0:
        raise ValueError("N must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if n_big == 0:
        return Member(0, 0), "enumeration"
    if math.isqrt(n_big // n) <= ENUM_LIMIT:
        status, method = _represent_enumerate(n_big, n), "enumeration"
    else:
        status, method = _represent_cornacchia(n_big, n, factor_timeout_s)
    if isinstance(status, Member):
        _certify(status.u**2 + n * status.v**2 == n_big,
                 f"{method} representation", n)
    return status, method


def _nonmember_prime(factors, n):
    """The smallest odd prime q of `factors` with an odd exponent and
    (-n/q) = -1, else None.

    Such a q certifies that N is not u^2 + n*v^2: q | u^2 + n*v^2 with
    -n a nonresidue mod q forces q | u and q | v, so (u/q, v/q) represents
    N/q^2, and descending this way shows that q divides N to an even
    power."""
    for q in sorted(factors):
        if q > 2 and factors[q] % 2 and legendre(-n, q) == -1:
            return q
    return None


def _represent_cornacchia(n_big, n, factor_timeout_s):
    """(status, method): NonMember by an odd-exponent prime q with
    (-n/q) = -1, looked for among the primes below 10^4 before any
    Pollard-Brent step and again in the full factorization (method
    partial_factor), else the Cornacchia descent."""
    factors, rest = trial_division(n_big)
    q = _nonmember_prime(factors, n)
    if q is None and rest > 1:
        try:
            factors.update(factorize(rest, timeout_s=factor_timeout_s))
        except FactorTimeout:
            return Unknown(), "cornacchia"
        q = _nonmember_prime(factors, n)
    if q is not None:
        _certify(q > 2 and _val(n_big, q) % 2 == 1 and is_prime(q)
                 and legendre(-n, q) == -1, f"non-member certificate at q={q}",
                 n)
        return NonMember(), "partial_factor"
    # imprimitive solutions are g * (primitive solution of N/g^2)
    square_part = {p: e // 2 for p, e in factors.items() if e >= 2}
    for g in divisors_from_factorization(square_part):
        m = n_big // (g * g)
        m_factors = {p: e - 2 * _val(g, p) for p, e in factors.items()
                     if e - 2 * _val(g, p) > 0}
        found = _cornacchia_primitive(m, n, m_factors)
        if found is not None:
            return Member(g * found[0], g * found[1]), "cornacchia"
    return NonMember(), "cornacchia"


def _val(g, p):
    e = 0
    while g % p == 0:
        g //= p
        e += 1
    return e


def represent(n_big, n, factor_timeout_s=DEFAULT_FACTOR_TIMEOUT_S):
    """Decide N = u^2 + n*v^2: Member(u, v), NonMember(), or Unknown()
    (the latter only on factorization timeout in the Cornacchia tier)."""
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
    quadratic nonresidue modulo the odd prime p."""
    return r != 0 and legendre(r, p) == -1


def obstruction_table(spec, x):
    """obs[n] for 0 <= n <= x: the smallest odd prime p | n with U_n a
    quadratic nonresidue mod p, or 0 where there is none.

    Prime-major: for each odd prime p <= x, U_p, U_2p, ... mod p are
    stepped one ring multiplication apart, and primes go up, so the first
    prime recorded at n is the smallest. Agrees with qr_obstruction.
    An array of machine ints: about 8 bytes per index.
    """
    obs = array("L", [0]) * (x + 1)
    for p in list(iter_primes(x))[1:]:
        residues = terms_at_multiples(spec, p, x // p)
        for n, r in zip(range(p, x + 1, p), residues):
            if not obs[n] and r and legendre(r, p) == -1:
                obs[n] = p
    return obs


def frobenius_terms(spec, p, k_max):
    """U_p, U_2p, ..., U_{k_max*p} mod p, one scalar step each.

    Frobenius is a ring endomorphism of F_p[X]/Psi that fixes F_p, so X^p
    is a root of Psi there, and W_k = U_{kp} mod p obeys U's own
    recurrence, W_{k+3} = a1*W_{k+2} + a2*W_{k+1} + a3*W_k, for every
    prime p (ramified, or dividing a3, alike). W_0 = U_0; W_1 and W_2 come
    from a fresh term_mod each, W_2 only when k_max >= 2."""
    if k_max < 1:
        return
    a1, a2, a3 = spec.coefficients
    w0, w1 = spec.u0 % p, term_mod(spec, p, p)
    w2 = term_mod(spec, 2 * p, p) if k_max >= 2 else 0
    for _ in range(k_max):
        yield w1
        w0, w1, w2 = w1, w2, (a1 * w2 + a2 * w1 + a3 * w0) % p


def verified_obstructions(spec, obs):
    """bytearray ok with ok[n] = 1 exactly where p = obs[n] is an odd prime
    of a fresh sieve, p | n and U_n mod p is a nonzero nonresidue.

    An independent re-check of obstruction_table, prime-major too, but on
    another path: the terms come from frobenius_terms, stepped up to the
    last multiple of p that names p, instead of the sieve's ring products.
    """
    x = len(obs) - 1
    ok = bytearray(x + 1)
    for p in list(iter_primes(x))[1:]:
        end = x - x % p     # down to the last multiple of p that names p
        while end and obs[end] != p:
            end -= p
        terms = frobenius_terms(spec, p, end // p)
        for n, r in zip(range(p, end + 1, p), terms):
            if obs[n] == p and _is_nonresidue(r, p):
                ok[n] = 1
    return ok


def non_squarefree_count(x):
    """#{n <= x : p^2 | n for some prime p}, by marking multiples of p^2."""
    flags = bytearray(x + 1)
    for p in iter_primes(math.isqrt(x)):
        flags[p * p::p * p] = b"\x01" * (x // (p * p))
    return flags.count(1)


# ---------------------------------------------------------------------------
# membership classification

def _text(field):
    """str(field); through Decimal past str's limit (4300 digits)."""
    try:
        return str(field)
    except ValueError:
        return str(Decimal(field))


@dataclass(frozen=True, slots=True)
class MembershipRecord:
    n: int
    status: object
    method: str

    def __post_init__(self):
        if isinstance(self.status, Obstructed):
            _certify(self.method == "qr_sieve", "obstruction method", self.n)

    def csv_fields(self):
        s = self.status
        return (self.n, status_name(s),
                s.u if isinstance(s, Member) else "",
                s.v if isinstance(s, Member) else "",
                s.p if isinstance(s, Obstructed) else "")

    def csv_text(self):
        return ",".join(map(_text, self.csv_fields())) + "\n"

    def tallies(self):
        """(status name, method, count) for the summary."""
        return ((status_name(self.status), self.method, 1),)


class SieveBlock(NamedTuple):
    """The indices lo, lo + 1, ..., lo + len(primes) - 1, decided by the
    sieve alone: Obstructed(p) (method qr_sieve) where p = primes[i] is
    nonzero, its re-check passed, else Unknown (method not_attempted).
    A named tuple, not a dataclass: it is cheaper to define at import."""
    lo: int
    primes: object      # a slice of obstruction_table

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
    (method not_attempted). term_at(n) gives U_n exactly. Every Member
    verdict is re-verified before it is returned."""
    witness = _witness_formula(spec, n)
    if witness is not None:
        u, v = witness
        _certify(u * u + n * v * v == term_at(n), "closed-form witness", n)
        return MembershipRecord(n, Member(u, v), "witness_formula")
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
    Member and Obstructed verdicts are re-verified before being returned;
    the obstruction by a fresh term_mod.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if spec.is_zero_sequence():
        raise ValueError("membership is undefined for the all-zero sequence")
    obstruction = qr_obstruction(spec, n)
    if obstruction is not None:
        p = obstruction.p
        _certify(p > 2 and n % p == 0 and is_prime(p)
                 and _is_nonresidue(term_mod(spec, n, p), p),
                 f"obstruction at p={p}", n)
        return MembershipRecord(n, obstruction, "qr_sieve")
    return _classify(spec, n, n_exact, factor_timeout_s,
                     lambda k: term(spec, k, term_digits))


@dataclass(frozen=True)
class CountReport:
    x: int
    n_exact: int
    counts: dict
    method_counts: dict
    member_count: int
    certified_non_members: int
    upper_bound: int
    non_squarefree: int

    @property
    def density_lower(self):
        return self.member_count / self.x

    @property
    def density_upper(self):
        return self.upper_bound / self.x

    def to_json_dict(self):
        return {
            "x": self.x,
            "n_exact": self.n_exact,
            "counts": dict(self.counts),
            "method_counts": dict(self.method_counts),
            "member_count": self.member_count,
            "certified_non_members": self.certified_non_members,
            "upper_bound": self.upper_bound,
            "density_lower": self.density_lower,
            "density_upper": self.density_upper,
            "non_squarefree": self.non_squarefree,
        }


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
            _certify(False, f"obstruction at p={primes[bad]}", start + bad)
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
