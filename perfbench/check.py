"""Output checks for the benchmark, written apart from the library.

Every check here uses its own arithmetic (integer recurrence, Euler's
criterion, trial division, a plain sieve, a 3x3 matrix power) so that a
defect in `ternary_squares` cannot hide itself. Each check returns
`(attempted, failures)`: the number of operations the command performed
and a list of one-line failure descriptions, one per failed operation
where the failure can be pinned to one.

The checks accept sound improvements: a `count` row may move from
`unknown` to a certified verdict, but a certified member never becomes a
non-member or the reverse, and every `member` and `obstructed` row is
re-verified from scratch.
"""

import base64
import csv
import hashlib
import io
import json
import math
import zlib

COUNT_HEADER = ["n", "status", "u", "v", "obstruction_p"]
PRIMES_HEADER = ["p", "root_count", "in_Z", "alpha", "t_p", "k_p",
                 "ord_alpha", "ord_ratio", "mult_order"]
# one letter per count row in the reference verdict strings
VERDICT_LETTER = {"member": "m", "non_member": "n", "obstructed": "o",
                  "unknown": "u"}
NOT_MEMBER = {"non_member", "obstructed"}
FLOAT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# independent arithmetic

def terms(spec, n_max):
    """Yield U_0 .. U_{n_max} exactly; `spec` is (a1, a2, a3, u0, u1, u2)."""
    a1, a2, a3, x, y, z = spec
    for _ in range(n_max + 1):
        yield x
        x, y, z = y, z, a1 * z + a2 * y + a3 * x


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(m):
    if m < 2:
        return []
    flags = bytearray([1]) * (m + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(m) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, m + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def discriminant(spec):
    """Discriminant of X^3 - a1 X^2 - a2 X - a3."""
    a1, a2, a3 = spec[:3]
    b, c, d = -a1, -a2, -a3
    return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d


def is_nonresidue(a, p):
    """Euler's criterion for an odd prime p and a not divisible by p."""
    return pow(a % p, (p - 1) // 2, p) == p - 1


def _mat_mul(x, y, p):
    (x0, x1, x2), (x3, x4, x5), (x6, x7, x8) = x
    (y0, y1, y2), (y3, y4, y5), (y6, y7, y8) = y
    return (((x0 * y0 + x1 * y3 + x2 * y6) % p, (x0 * y1 + x1 * y4 + x2 * y7) % p,
             (x0 * y2 + x1 * y5 + x2 * y8) % p),
            ((x3 * y0 + x4 * y3 + x5 * y6) % p, (x3 * y1 + x4 * y4 + x5 * y7) % p,
             (x3 * y2 + x4 * y5 + x5 * y8) % p),
            ((x6 * y0 + x7 * y3 + x8 * y6) % p, (x6 * y1 + x7 * y4 + x8 * y7) % p,
             (x6 * y2 + x7 * y5 + x8 * y8) % p))


def state_after(spec, k, p):
    """(U_k, U_{k+1}, U_{k+2}) mod p by square-and-multiply on the
    companion matrix."""
    a1, a2, a3 = spec[:3]
    m = ((0, 1, 0), (0, 0, 1), (a3 % p, a2 % p, a1 % p))
    out = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    while k:
        if k & 1:
            out = _mat_mul(out, m, p)
        m = _mat_mul(m, m, p)
        k >>= 1
    s = [v % p for v in spec[3:]]
    return tuple(sum(out[i][j] * s[j] for j in range(3)) % p for i in range(3))


# ---------------------------------------------------------------------------
# reference encoding

def encode_verdicts(statuses):
    letters = "".join(VERDICT_LETTER[s] for s in statuses)
    return base64.b64encode(zlib.compress(letters.encode(), 9)).decode()


def decode_verdicts(blob):
    return zlib.decompress(base64.b64decode(blob)).decode()


def row_crcs(lines):
    """16-bit CRC per CSV line, packed, compressed and base64-encoded."""
    raw = b"".join((zlib.crc32(line.encode()) & 0xFFFF).to_bytes(2, "big")
                   for line in lines)
    return base64.b64encode(zlib.compress(raw, 9)).decode()


def decode_row_crcs(blob):
    raw = zlib.decompress(base64.b64decode(blob))
    return [int.from_bytes(raw[i:i + 2], "big") for i in range(0, len(raw), 2)]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# count

def _int_field(value):
    try:
        return int(value)
    except ValueError:
        return None


def check_count(spec, x, n_exact, csv_text, summary_text, ref=None):
    """Check a `count` CSV and its JSON summary.

    Fails a row when a member does not satisfy u^2 + n*v^2 == U_n, when an
    obstruction prime is not an odd prime dividing n at which U_n is a
    nonresidue, when an exact-tier index (n <= n_exact) is unknown, or
    when a certified reference verdict flipped.
    """
    failures = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != COUNT_HEADER:
        return x, [f"count: bad header {rows[:1]}"] * x
    rows = rows[1:]
    if len(rows) != x:
        failures.append(f"count: {len(rows)} rows for x = {x}")
    verdicts = decode_verdicts(ref["verdicts"]) if ref else None
    tally = {s: 0 for s in VERDICT_LETTER}
    for (n, u_n), row in zip(enumerate(terms(spec, x)), [None] + rows):
        if n == 0:
            continue
        why = _check_count_row(n, u_n, n_exact, row)
        status = row[1] if len(row) == 5 else None
        if status in tally:
            tally[status] += 1
        if why is None and verdicts is not None:
            was = verdicts[n - 1]
            if was == "m" and status != "member":
                why = f"reference member became {status}"
            elif was in "no" and status not in NOT_MEMBER:
                why = f"reference non-member became {status}"
        if why is not None:
            failures.append(f"count n={n}: {why}")
    failures += _check_count_summary(x, n_exact, summary_text, tally, ref)
    return x, failures


def _check_count_row(n, u_n, n_exact, row):
    if len(row) != 5 or _int_field(row[0]) != n:
        return f"malformed row {row}"
    status, u, v, p = row[1], _int_field(row[2]), _int_field(row[3]), \
        _int_field(row[4])
    if status == "member":
        if u is None or v is None or u < 0 or v < 0:
            return f"member without a witness {row}"
        if u * u + n * v * v != u_n:
            return f"u^2 + n*v^2 != U_n for (u, v) = ({u}, {v})"
    elif status == "obstructed":
        if p is None or p % 2 == 0 or n % p or not is_prime(p):
            return f"obstruction prime {row[4]!r} is not an odd prime dividing n"
        if u_n % p == 0 or not is_nonresidue(u_n, p):
            return f"U_n is a residue mod the obstruction prime {p}"
    elif status == "unknown":
        if n <= n_exact:
            return "exact-tier index ended unknown"
    elif status != "non_member":
        return f"unknown status {status!r}"
    return None


def _check_count_summary(x, n_exact, summary_text, tally, ref):
    try:
        summary = json.loads(summary_text)
        counts = summary["counts"]
        certified = summary["certified_non_members"]
        density_upper = summary["density_upper"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return ["count: summary is not the expected JSON"]
    failures = []
    if summary.get("x") != x or summary.get("n_exact") != n_exact:
        failures.append("count summary: x or n_exact differs from the input")
    if counts != tally:
        failures.append(f"count summary: counts {counts} != CSV tally {tally}")
    if certified != tally["obstructed"] + tally["non_member"]:
        failures.append("count summary: certified_non_members != CSV tally")
    if not math.isclose(density_upper, (x - certified) / x, rel_tol=FLOAT_RTOL):
        failures.append("count summary: density_upper != (x - certified) / x")
    if ref is not None:
        # sound improvements only certify more; pinned values bound them
        if certified < ref["certified_non_members"]:
            failures.append(f"count summary: certified {certified} < "
                            f"reference {ref['certified_non_members']}")
        if density_upper > ref["density_upper"] * (1 + FLOAT_RTOL):
            failures.append(f"count summary: density_upper {density_upper} > "
                            f"reference {ref['density_upper']}")
    return failures


# ---------------------------------------------------------------------------
# primes

def check_primes(spec, p_max, csv_text, ref=None):
    """Check a `primes` CSV: one row per prime <= p_max; root counts
    agree with the discriminant's Legendre symbol; alpha is a root with
    the stated order; t_p returns the state to the start; and, with a
    reference, each row matches the one recorded at the seed."""
    lines = csv_text.splitlines()
    expected = primes_upto(p_max) if p_max >= 3 else []
    attempted = len(expected)
    if not lines or lines[0].split(",") != PRIMES_HEADER:
        return attempted, ["primes: bad header"] * max(attempted, 1)
    body = lines[1:]
    failures = []
    if len(body) != attempted:
        failures.append(f"primes: {len(body)} rows for {attempted} primes")
    crcs = decode_row_crcs(ref["row_crc16"]) if ref else None
    disc = discriminant(spec)
    for i, (p, line) in enumerate(zip(expected, body)):
        why = _check_prime_row(spec, disc, p, line.split(","))
        if why is None and crcs is not None and \
                (zlib.crc32(line.encode()) & 0xFFFF) != crcs[i]:
            why = "row differs from the reference"
        if why is not None:
            failures.append(f"primes p={p}: {why}")
    if ref is not None and not failures and sha256(csv_text) != ref["sha256"]:
        failures.append("primes: CSV digest differs from the reference")
    return attempted, failures


def _check_prime_row(spec, disc, p, row):
    if len(row) != len(PRIMES_HEADER) or _int_field(row[0]) != p:
        return f"malformed row {row}"
    rc, in_z = row[1], row[2]
    a1, a2, a3 = spec[:3]
    if p == 2 or a3 % p == 0:
        return None if in_z == "False" else "in_Z must be False"
    if disc % p == 0:
        expected_rc = {"ramified"}
    elif is_nonresidue(disc, p):
        expected_rc = {"1"}
    else:
        expected_rc = {"0", "3"}
    if rc not in expected_rc:
        return f"root_count {rc} contradicts the discriminant"
    if in_z != str(rc == "1"):
        return "in_Z disagrees with root_count"
    t_p = _int_field(row[4])
    if t_p is None or t_p < 1 or state_after(spec, t_p, p) != \
            tuple(v % p for v in spec[3:]):
        return f"t_p {row[4]!r} does not return the state to its start"
    if rc == "1":
        alpha, ord_alpha = _int_field(row[3]), _int_field(row[6])
        if alpha is None or (alpha**3 - a1 * alpha**2 - a2 * alpha - a3) % p:
            return f"alpha {row[3]!r} is not a root"
        if ord_alpha is None or (p - 1) % ord_alpha or \
                pow(alpha, ord_alpha, p) != 1:
            return f"ord_alpha {row[6]!r} is not an order of alpha"
    return None


# ---------------------------------------------------------------------------
# verify

def _z_primes(spec, lo, hi):
    disc = discriminant(spec)
    a3 = spec[2]
    return [p for p in primes_upto(hi) if lo <= p and p != 2 and disc % p
            and a3 % p and is_nonresidue(disc, p)]


def check_verify(spec, experiment, params, stdout_text, ref=None):
    """Check a `verify` report: it passed, the primes it handled are the
    ones it should have, and its observations match the reference."""
    if experiment == "z-density":
        handled = primes_upto(params["x"])
        counted = {"prime_count": len(handled),
                   "z_count": len(_z_primes(spec, 0, params["x"]))}
    elif experiment == "lemma5-sweep":
        handled = _z_primes(spec, params.get("p_min", 100), params["p_max"])
        counted = {"primes_checked": len(handled)}
    elif experiment == "char-sum-sweep":
        handled = _z_primes(spec, 0, params["p_max"])
        counted = {}
    else:
        raise ValueError(f"no check for experiment {experiment!r}")
    attempted = max(len(handled), 1)
    try:
        report = json.loads(stdout_text)
        obs = dict(report["observations"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return attempted, [f"{experiment}: output is not a report"] * attempted
    why = []
    if report.get("pass") is not True or report.get("violations"):
        why.append("the experiment did not pass")
    if experiment == "char-sum-sweep":
        counted["primes_checked"] = len(handled) - obs.get(
            "primes_skipped_budget", 0)
    for key, value in counted.items():
        if obs.get(key) != value:
            why.append(f"{key} = {obs.get(key)}, expected {value}")
    if ref is not None:
        for key, value in ref["observations"].items():
            got = obs.get(key)
            same = (math.isclose(got, value, rel_tol=FLOAT_RTOL)
                    if isinstance(value, float) and isinstance(got, float)
                    else got == value)
            if not same:
                why.append(f"{key} = {got}, reference {value}")
    # an aggregate cannot be pinned to one prime: all of them fail
    return attempted, ([f"{experiment}: " + "; ".join(why)] * attempted
                       if why else [])
