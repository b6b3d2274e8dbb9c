"""The package's value records (`ternary_squares._record.record`): the
behaviour that the package and its tests rely on."""

import pickle
import subprocess
import sys
from array import array

import pytest

from ternary_squares import _record, charpoly, modular, recurrence, \
    representation
from ternary_squares.charpoly import (Irreducible, LinearTimesQuadratic,
                                      RepeatedRoot, ThreeLinear,
                                      check_conditions)
from ternary_squares.modular import PrimeProfile, classify_prime
from ternary_squares.recurrence import TRIBONACCI, RecurrenceSpec
from ternary_squares.representation import (CountReport, Member,
                                            MembershipRecord, NonMember,
                                            Obstructed, SieveBlock, Unknown,
                                            classify_range, count_range)


def _samples():
    """One instance or more of every record type in the package."""
    block = next(item for item in classify_range(TRIBONACCI, 40, 0)
                 if isinstance(item, SieveBlock))
    return [
        TRIBONACCI, RecurrenceSpec(a1=2, a2=0, a3=-1, u0=0, u1=1, u2=1),
        Irreducible(), LinearTimesQuadratic(2, -1, -1),
        ThreeLinear((-1, 1, 2)), RepeatedRoot(((1, 2), (3, 1))),
        check_conditions(TRIBONACCI), classify_prime(TRIBONACCI, 7),
        PrimeProfile(3, 0, False, t_p=13),
        Member(2, 1), NonMember(), Obstructed(3), Unknown(),
        MembershipRecord(9, Member(2, 1), "cornacchia"),
        MembershipRecord(8, Obstructed(3), "qr_sieve"), block,
        count_range(TRIBONACCI, 100, 20),
    ]


def _record_types():
    modules = (recurrence, charpoly, modular, representation)
    return {value for module in modules for value in vars(module).values()
            if isinstance(value, type)
            and value.__dict__.get("__setattr__") is _record._frozen}


def test_samples_cover_every_record_type():
    assert {type(r) for r in _samples()} == _record_types()
    assert len(_record_types()) == 14


def test_records_of_different_types_are_unequal():
    assert NonMember() != Unknown() and not NonMember() == Unknown()
    assert NonMember() == NonMember() and Obstructed(3) != Obstructed(5)
    kinds = [Irreducible(), LinearTimesQuadratic(2, -1, -1),
             ThreeLinear((-1, 1, 2)), RepeatedRoot(((1, 2), (3, 1)))]
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            assert (a == b) == (i == j), (a, b)
    # no tuple equality, as a named tuple would have
    assert Member(2, 1) != (2, 1) and Obstructed(3) != (3,)


def test_frozen_records_hash_by_fields():
    same = RecurrenceSpec(1, 1, 1, 0, 0, 1)
    assert same is not TRIBONACCI
    assert same == TRIBONACCI and hash(same) == hash(TRIBONACCI)
    assert {TRIBONACCI: "t"}[same] == "t"
    assert len({Member(2, 1), Member(2, 1), Member(1, 2), NonMember(),
                Unknown()}) == 4
    assert hash(classify_prime(TRIBONACCI, 7)) == \
        hash(classify_prime(TRIBONACCI, 7))


def test_every_record_hashes_and_goes_in_a_set():
    samples = _samples()
    assert len({*samples, *_samples()}) == len(samples)
    for rec in samples:
        assert hash(rec) == hash(pickle.loads(pickle.dumps(rec))), rec


def test_sieve_blocks_hash_their_primes_as_items():
    # equal arrays of different typecodes are equal, so they must hash
    # equal: the items, not the bytes
    wide, narrow = array("I", [0, 7, 0, 3]), array("B", [0, 7, 0, 3])
    assert wide == narrow and wide.tobytes() != narrow.tobytes()
    assert SieveBlock(5, wide) == SieveBlock(5, narrow)
    assert hash(SieveBlock(5, wide)) == hash(SieveBlock(5, narrow))
    assert len({SieveBlock(5, wide), SieveBlock(5, narrow),
                SieveBlock(6, wide)}) == 2


def test_count_reports_hash_and_go_in_a_set():
    # counts and method_counts are dicts; equal dicts hash equal in any order
    report = count_range(TRIBONACCI, 50, 0)
    again = count_range(TRIBONACCI, 50, 0)
    assert list(report.method_counts) == ["not_attempted", "qr_sieve"]
    reordered = CountReport(**{**_record.as_dict(report), "method_counts":
                               dict(reversed(report.method_counts.items()))})
    assert report == again == reordered
    assert hash(report) == hash(again) == hash(reordered)
    assert {report, again, reordered} == {report}
    assert count_range(TRIBONACCI, 51, 0) not in {report}


def test_records_refuse_assignment():
    for rec in _samples():
        for name in rec.__slots__ or ("x",):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 0
        assert not hasattr(rec, "__dict__")
    assert Member.__slots__ == ("u", "v") and NonMember.__slots__ == ()
    assert MembershipRecord.__slots__ == ("n", "status", "method")


def test_every_record_pickles():
    for rec in _samples():
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec) and back == rec, rec


def test_construction_defaults_and_repr():
    profile = PrimeProfile(5, 0, False, t_p=24)
    assert profile == PrimeProfile(p=5, root_count=0, in_Z=False, alpha=None,
                                   t_p=24)
    assert (profile.alpha, profile.k_p, profile.mult_order) == (None,) * 3
    assert repr(profile) == (
        "PrimeProfile(p=5, root_count=0, in_Z=False, alpha=None, t_p=24, "
        "k_p=None, ord_alpha=None, ord_ratio=None, mult_order=None)")
    assert repr(NonMember()) == "NonMember()"
    assert repr(MembershipRecord(8, Obstructed(3), "qr_sieve")) == \
        "MembershipRecord(n=8, status=Obstructed(p=3), method='qr_sieve')"
    with pytest.raises(TypeError,
                       match=r"^PrimeProfile\.__init__\(\) missing"):
        PrimeProfile(5)
    with pytest.raises(TypeError):
        Member(1, 2, 3)


_CHECKS_UNDER_OPTIMIZE = """
import pickle
from ternary_squares.recurrence import RecurrenceSpec
from ternary_squares.representation import (CertificateError,
                                            MembershipRecord, Obstructed)

assert not __debug__, "run me under python -O"
try:
    RecurrenceSpec(a1=1, a2=1, a3=0, u0=0, u1=0, u2=1)
except ValueError:
    print("a3")


class Forged:
    # what a worker process would send for a forged record
    def __reduce__(self):
        return MembershipRecord, (6, Obstructed(3), "cornacchia")


try:
    pickle.loads(pickle.dumps(Forged()))
except CertificateError:
    print("unpickled")
"""


def test_record_checks_run_under_optimize_and_on_unpickling():
    proc = subprocess.run([sys.executable, "-O", "-c", _CHECKS_UNDER_OPTIMIZE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["a3", "unpickled"]
