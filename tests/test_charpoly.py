import cmath
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys

import pytest

from ternary_squares import charpoly
from ternary_squares.charpoly import (Irreducible, LinearTimesQuadratic,
                                      RepeatedRoot, ThreeLinear,
                                      _exponent_gap,
                                      check_conditions,
                                      discriminant, factorize, gamma,
                                      is_degenerate, root_moduli,
                                      solve_exponents)
from ternary_squares.recurrence import (FIBONACCI, FIVE_FIB_SQ_MINUS_4,
                                        POW2_PLUS_FIB, POW2_PLUS_N,
                                        SQUARE_POW, TRIBONACCI,
                                        RecurrenceSpec)


def char_poly(spec):
    """Ascending coefficients of X^3 - a1 X^2 - a2 X - a3."""
    return [-spec.a3, -spec.a2, -spec.a1, 1]


def spec_from_roots(r1, r2, r3, u=(0, 0, 1)):
    a1 = r1 + r2 + r3
    a2 = -(r1 * r2 + r1 * r3 + r2 * r3)
    a3 = r1 * r2 * r3
    return RecurrenceSpec(a1, a2, a3, *u)


def test_discriminant_values():
    assert discriminant(TRIBONACCI) == -44
    assert discriminant(POW2_PLUS_FIB) == 5
    assert discriminant(POW2_PLUS_N) == 0


def test_discriminant_against_root_products():
    rng = random.Random(11)
    for _ in range(100):
        r1, r2, r3 = (rng.randint(-9, 9) for _ in range(3))
        if 0 in (r1, r2, r3):
            continue
        spec = spec_from_roots(r1, r2, r3)
        expect = ((r1 - r2) * (r1 - r3) * (r2 - r3)) ** 2
        assert discriminant(spec) == expect


def test_factorize_preset_shapes():
    assert factorize(TRIBONACCI) == Irreducible()
    assert factorize(POW2_PLUS_FIB) == LinearTimesQuadratic(2, -1, -1)
    assert factorize(FIVE_FIB_SQ_MINUS_4) == LinearTimesQuadratic(-1, -3, 1)
    assert factorize(POW2_PLUS_N) == RepeatedRoot(((1, 2), (2, 1)))
    assert factorize(SQUARE_POW) == ThreeLinear((1, 2, 4))


def expand_factorization(kind):
    """Multiply the reported factors back out, ascending coefficients."""
    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    if isinstance(kind, LinearTimesQuadratic):
        return mul([-kind.a, 1], [kind.c, kind.b, 1])
    if isinstance(kind, ThreeLinear):
        out = [1]
        for r in kind.roots:
            out = mul(out, [-r, 1])
        return out
    if isinstance(kind, RepeatedRoot):
        out = [1]
        for r, m in kind.roots:
            for _ in range(m):
                out = mul(out, [-r, 1])
        return out
    return None


def test_factorize_roundtrip_random():
    rng = random.Random(12)
    for _ in range(150):
        spec = RecurrenceSpec(rng.randint(-6, 6), rng.randint(-6, 6),
                              rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                              0, 0, 1)
        kind = factorize(spec)
        expanded = expand_factorization(kind)
        if expanded is not None:
            assert expanded == char_poly(spec), (spec, kind)


def test_split_discriminant_is_square():
    rng = random.Random(13)
    for _ in range(80):
        r1, r2, r3 = (rng.randint(-9, 9) for _ in range(3))
        if 0 in (r1, r2, r3):
            continue
        spec = spec_from_roots(r1, r2, r3)
        kind = factorize(spec)
        if isinstance(kind, ThreeLinear):
            d = discriminant(spec)
            assert d >= 0 and math.isqrt(d) ** 2 == d


def numeric_roots(spec):
    """The three complex roots of Psi by Durand-Kerner iteration."""
    a1, a2, a3 = spec.coefficients
    roots = [(0.4 + 0.9j) ** k for k in range(3)]
    for _ in range(2000):
        step = 0.0
        for i, z in enumerate(roots):
            den = 1
            for j, w in enumerate(roots):
                if j != i:
                    den *= z - w
            dz = (((z - a1) * z - a2) * z - a3) / den
            roots[i] = z - dz
            step = max(step, abs(dz))
        if step < 1e-15:
            break
    return roots


# every k > 1 with euler_phi(k) <= 6 (phi(k) >= sqrt(k/2) bounds the range)
SMALL_TOTIENT_ORDERS = [k for k in range(2, 100)
                        if sum(math.gcd(k, m) == 1 for m in range(k)) <= 6]


def ratio_order(roots):
    """Least k in SMALL_TOTIENT_ORDERS such that some r_i/r_j is within
    1e-9 of a k-th root of unity, or None."""
    for k in SMALL_TOTIENT_ORDERS:
        for i, j in itertools.permutations(range(3), 2):
            q = roots[i] / roots[j]
            if any(abs(q - cmath.exp(2j * math.pi * m / k)) < 1e-9
                   for m in range(k)):
                return k
    return None


def test_degeneracy_and_factorization_against_numeric_roots():
    seen = set()
    for a1, a2, a3 in itertools.product(range(-6, 7), repeat=3):
        if a3 == 0:
            continue
        spec = RecurrenceSpec(a1, a2, a3, 0, 0, 1)
        psi = char_poly(spec)
        flag, why = is_degenerate(spec)
        kind = factorize(spec)
        if not isinstance(kind, Irreducible):
            assert expand_factorization(kind) == psi, (spec, kind)
        if discriminant(spec) == 0:
            # repeated roots are ill-conditioned numerically; the exact
            # expansion above is the check
            assert isinstance(kind, RepeatedRoot)
            assert flag and "repeated" in why
            continue
        roots = numeric_roots(spec)
        k = ratio_order(roots)
        assert flag == (k is not None), spec
        if flag:
            assert why.endswith(f"order {k}"), (spec, why)
            seen.add(k)
        # the integer roots are the numeric roots next to an exact root
        near = sorted(round(z.real) for z in roots
                      if abs(z - round(z.real)) < 1e-6
                      and sum(c * round(z.real)**i
                              for i, c in enumerate(psi)) == 0)
        if isinstance(kind, Irreducible):
            assert near == [], spec
        elif isinstance(kind, LinearTimesQuadratic):
            assert near == [kind.a], (spec, kind)
        else:
            assert near == list(kind.roots), (spec, kind)
    # the orders a root-of-unity ratio of an integer cubic can have
    assert seen == {2, 3, 4, 6}


def test_degeneracy_presets():
    assert is_degenerate(TRIBONACCI) == (False, None)
    assert not is_degenerate(POW2_PLUS_FIB)[0]
    flag, why = is_degenerate(POW2_PLUS_N)
    assert flag and "repeated" in why


def test_degeneracy_unit_ratios():
    # X^3 - 1: the ratios are cube roots of unity
    flag, why = is_degenerate(RecurrenceSpec(0, 0, 1, 1, 1, 1))
    assert flag and "order 3" in why
    # roots 2 and -2 have ratio -1
    flag, why = is_degenerate(spec_from_roots(1, 2, -2))
    assert flag and "order 2" in why
    # roots of X^2+X+1 paired with X-2: primitive cube roots over a split
    flag, _ = is_degenerate(RecurrenceSpec(1, 1, 2, 0, 0, 1))  # (X-2)(X^2+X+1)
    assert flag


def test_gamma_values():
    assert abs(gamma(TRIBONACCI) - 1.839286755214161) < 1e-9
    assert gamma(POW2_PLUS_FIB) == pytest.approx(2.0, abs=1e-12)
    assert gamma(SQUARE_POW) == 4.0
    phi2 = ((1 + math.sqrt(5)) / 2) ** 2
    assert gamma(FIVE_FIB_SQ_MINUS_4) == pytest.approx(phi2, abs=1e-12)
    assert gamma(POW2_PLUS_N) == 2.0


def test_gamma_unit_product_bound():
    # |a3| = 1 forces the product of root moduli to be 1, so gamma >= 1
    rng = random.Random(15)
    for _ in range(50):
        spec = RecurrenceSpec(rng.randint(-5, 5), rng.randint(-5, 5),
                              rng.choice([-1, 1]), 0, 0, 1)
        moduli = root_moduli(spec)
        assert moduli[-1] >= 1 - 1e-12
        prod = moduli[0] * moduli[1] * moduli[2]
        assert prod == pytest.approx(1.0, rel=1e-9)


def test_gamma_three_real_irrational_roots():
    # X^3 - 3X + 1 has roots 2cos(2pi k/9)
    spec = RecurrenceSpec(0, 3, -1, 0, 0, 1)
    expected = sorted(abs(2 * math.cos(2 * math.pi * k / 9)) for k in (1, 2, 4))
    assert root_moduli(spec) == pytest.approx(expected, abs=1e-11)


def _psi_sign(spec, num, g):
    """Sign of Psi(num / 2^g), from the integer 2^(3g) Psi(num / 2^g)."""
    a1, a2, a3 = spec.coefficients
    v = num**3 - (a1 * num * num << g) - (a2 * num << 2 * g) - (a3 << 3 * g)
    return (v > 0) - (v < 0)


def _brackets_root(spec, m, sign):
    """Psi(sign * x) changes sign between m - ulp(m)/2 and m + ulp(m)/2."""
    n, d = m.as_integer_ratio()
    u, du = math.ulp(m).as_integer_ratio()
    den = 2 * max(d, du)                # both ends are multiples of 1/den
    mid, half = n * (den // d), u * (den // du) // 2
    g = den.bit_length() - 1
    return (_psi_sign(spec, sign * (mid - half), g)
            * _psi_sign(spec, sign * (mid + half), g) <= 0)


def moduli_error(spec, moduli):
    """None when the moduli of a cubic with simple roots are right, else why.

    Every real-root modulus must bracket a root of Psi(x) or Psi(-x) within
    half an ulp, and the three must multiply to |a3| within a few ulps.
    With one real root r, the other two are the conjugate pair, and r has
    the sign of a3 = r |z|^2.
    """
    num, den = 1, 1
    for m in moduli:
        n, d = m.as_integer_ratio()
        num, den = num * n, den * d
    a3 = abs(spec.a3)
    if abs(num - a3 * den) << 50 > a3 * den:
        return "the moduli do not multiply to |a3|"
    if discriminant(spec) > 0:
        if all(_brackets_root(spec, m, 1) or _brackets_root(spec, m, -1)
               for m in moduli):
            return None
        return "a real root is not within half an ulp of its modulus"
    sign = 1 if spec.a3 > 0 else -1
    for i, m in enumerate(moduli):
        pair = moduli[:i] + moduli[i + 1:]
        if pair[0] == pair[1] and _brackets_root(spec, m, sign):
            return None
    return "the real root is not within half an ulp of its modulus"


def random_cubics(seed, count, size):
    rng = random.Random(seed)
    while count:
        a1, a2, a3 = (rng.randint(-size, size) for _ in range(3))
        if a3:
            count -= 1
            yield RecurrenceSpec(a1, a2, a3, 0, 0, 1)


def test_root_moduli_are_correctly_rounded_on_30_digit_cubics():
    # the float cut points and 130 fixed halvings this replaced raised on
    # 58 of these cubics and returned a modulus off by up to 1.5e-8 on 134
    for spec in random_cubics(1, 300, 10**30):
        moduli = root_moduli(spec)
        assert moduli_error(spec, moduli) is None, (spec, moduli)


def test_root_moduli_near_a_cut():
    # a1^2 + 3*a2 < 0, and 27 Psi(1/3) = -2: the real root is within
    # 1e-31 of the one cut, a1/3
    spec = RecurrenceSpec(1, -3 * 10**30, 10**30, 0, 0, 1)
    a1, a2, a3 = spec.coefficients
    assert a1 * a1 + 3 * a2 < 0 and -2 * a1**3 - 9 * a1 * a2 - 27 * a3 == -2
    moduli = root_moduli(spec)
    assert moduli == [0.3333333333333333, 1732050807568877.2,
                      1732050807568877.2]
    assert moduli_error(spec, moduli) is None
    # three real roots, two of them near +-1e-15 on either side of the cut
    # at the critical point 0, where Psi(0) = -1
    spec = RecurrenceSpec(-10**30, 0, 1, 0, 0, 1)
    moduli = root_moduli(spec)
    assert moduli == [1e-15, 1e-15, 1e30]
    assert moduli_error(spec, moduli) is None


def test_root_moduli_refine_a_bracket_around_a_midpoint(monkeypatch):
    # Psi(m) = 2^-159 and Psi'(m) = -2^53 at m = 1 + 2^-53, the midpoint
    # of the floats 1 and 1 + 2^-52, so a root lies about 2^-212 above m.
    # The first bracket, 2^-172 wide, holds m, and its ends round apart
    spec = RecurrenceSpec(3, 2**53 - 3, -2**53, 0, 0, 1)
    precisions = []
    scaled_roots = charpoly._scaled_roots
    monkeypatch.setattr(charpoly, "_scaled_roots", lambda spec, e: (
        precisions.append(e) or scaled_roots(spec, e)))
    moduli = root_moduli(spec)
    assert precisions == [0, 172, 236]
    assert moduli[0] == 1 + 2**-52
    assert moduli_error(spec, moduli) is None


def test_root_moduli_of_integer_midpoints_are_exact():
    # 2^53 + 1 is the midpoint of two floats, as an integer root and as
    # the modulus of a complex pair; both round to even, 2^53, in one pass
    m = 2**53 + 1
    assert root_moduli(spec_from_roots(m, 1, -1)) == [1.0, 1.0, 2.0**53]
    # (X - 2)(X^2 + m^2)
    assert root_moduli(RecurrenceSpec(2, -m * m, 2 * m * m, 0, 0, 1)) \
        == [2.0, 2.0**53, 2.0**53]


def test_root_moduli_past_the_largest_float_round_to_infinity():
    # 2^1024 - 2^970 is the midpoint of the largest float and 2^1024:
    # below it a modulus rounds to the largest float, from it on (ties to
    # even) to infinity, as IEEE round-to-nearest has it
    top = 2**1024 - 2**970
    for r, expect in ((top - 1, sys.float_info.max), (top, math.inf)):
        # (X - r)(X^2 + 1), and (X - r)(X - 2)^2 with a repeated root
        assert root_moduli(RecurrenceSpec(r, -1, r, 0, 0, 1)) \
            == [1.0, 1.0, expect]
        assert root_moduli(spec_from_roots(r, 2, 2)) == [2.0, 2.0, expect]
    moduli = root_moduli(RecurrenceSpec(10**400, 0, 1, 0, 0, 1))
    assert moduli[:2] == [1e-200, 1e-200] and moduli[2] == math.inf
    assert gamma(RecurrenceSpec(10**309, 1, 1, 0, 0, 1)) == math.inf


_FOUND_SPEC = {"a1": 744726489994537504424004986909,
               "a2": -959661318383078421607848799266,
               "a3": 168119623153026641257349179253,
               "u0": 0, "u1": 0, "u2": 1}

_MODULI_UNDER_OPTIMIZE = """
import contextlib, io, json, sys
from ternary_squares.charpoly import root_moduli
from ternary_squares.cli import main
from ternary_squares.recurrence import RecurrenceSpec

assert not __debug__, "run me under python -O"
found, cubics = json.load(sys.stdin)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["analyze", "--spec", json.dumps(found)])
print(json.dumps({
    "code": code,
    "analyze": json.loads(out.getvalue()),
    "moduli": [root_moduli(RecurrenceSpec(*c, 0, 0, 1)) for c in cubics],
}))
"""


def test_root_moduli_are_right_under_optimize():
    specs = [RecurrenceSpec(_FOUND_SPEC["a1"], _FOUND_SPEC["a2"],
                            _FOUND_SPEC["a3"], 0, 0, 1)]
    specs += random_cubics(1, 300, 10**30)
    stdin = json.dumps([_FOUND_SPEC, [s.coefficients for s in specs]])
    proc = subprocess.run([sys.executable, "-O", "-c", _MODULI_UNDER_OPTIMIZE],
                          input=stdin, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 2      # a3 != +-1, so condition (ii) fails
    assert result["analyze"]["factorization"] == {"kind": "irreducible"}
    assert result["analyze"]["gamma"] == result["moduli"][0][-1]
    for spec, moduli in zip(specs, result["moduli"]):
        assert moduli_error(spec, moduli) is None, (spec, moduli)


def test_zero_discriminant_without_a_full_split_raises(monkeypatch):
    # a plain check, not an assert, so it holds under python -O too
    monkeypatch.setattr(charpoly, "_scaled_roots", lambda spec, e: [])
    with pytest.raises(ArithmeticError, match="do not split"):
        factorize(POW2_PLUS_N)


def test_conditions_good_presets():
    for spec in (TRIBONACCI, POW2_PLUS_FIB):
        a = check_conditions(spec)
        assert a.satisfies_all
    assert check_conditions(TRIBONACCI).galois_label == "S3"
    assert check_conditions(POW2_PLUS_FIB).galois_label == "C2"


def test_conditions_counterexamples():
    a = check_conditions(POW2_PLUS_N)
    assert not a.cond_i and not a.cond_iii and a.degenerate
    assert a.galois_label == "Degenerate"

    a = check_conditions(SQUARE_POW)
    assert not a.cond_i and a.cond_iii
    assert a.galois_label == "Trivial-split"
    assert "splits completely" in a.cond_i_reason

    a = check_conditions(FIVE_FIB_SQ_MINUS_4)
    assert a.cond_i and not a.cond_ii and a.cond_iii
    assert "integer root a = -1" in a.cond_ii_reason


def test_conditions_c3_cubic():
    # X^3 - 3X - 1 is irreducible with square discriminant 81: cyclic cubic
    a = check_conditions(RecurrenceSpec(0, 3, 1, 0, 0, 1))
    assert a.galois_label == "C3" and not a.cond_i
    assert "perfect square" in a.cond_i_reason


def test_conditions_fibonacci():
    a = check_conditions(FIBONACCI)
    assert a.factorization == LinearTimesQuadratic(1, -1, -1)
    assert a.cond_i and a.cond_iii and not a.cond_ii
    assert a.cond_ii_reason == "integer root a = 1"
    assert a.gamma == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def test_analysis_json():
    d = check_conditions(TRIBONACCI).to_json_dict()
    assert d["satisfies_all"] is True
    assert d["factorization"] == {"kind": "irreducible"}


def test_analyze_grid_pin():
    # sha256 of the analyze JSON for every cubic with a1, a2, a3 in
    # [-9, 9], a3 != 0; it moves only with a CHANGES.md entry saying why
    lines = [json.dumps(check_conditions(RecurrenceSpec(a1, a2, a3, 0, 0, 1))
                        .to_json_dict(), sort_keys=True)
             for a1, a2, a3 in itertools.product(range(-9, 10), repeat=3)
             if a3 != 0]
    assert len(lines) == 6498
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "0da263b07b4a7665fca71dbc6b008e2df048c8c2661ca40d34cdce64c70801d4"


def test_solve_exponents_paper_values():
    e = solve_exponents()
    assert abs(e["delta"] - 0.086071) < 1e-6
    assert abs(e["kappa"] - 0.600541) < 1e-4
    assert abs(e["exponent"] - 0.0516894) < 2e-6
    # the paper rounds lambda to 0.07452; the computed value is 0.074572
    assert abs(e["lambda"] - 0.07452) < 5e-4
    assert abs(e["lambda"] * math.log(2) - e["exponent"]) < 1e-9
    assert abs(_exponent_gap(e["kappa"], e["delta"])) < 1e-9
    assert e["lambda"] < (1 - e["kappa"]) / 2
