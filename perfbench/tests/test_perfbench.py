"""Tests of the benchmark itself: the checker rejects tampered outputs,
accepts sound improvements, and a tiny run of each workload reports every
metric named in BENCHMARK.json.

Run from the root of the repository: python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import record_references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TRIBONACCI = workloads.TRIBONACCI


def _outcome(tmp_path, command):
    outcome = run.run_command(command, tmp_path, traced=False)
    assert outcome.returncode == 0
    return outcome


@pytest.fixture(scope="module")
def exact_count(tmp_path_factory):
    """tribonacci, n <= 60 with the exact tier on: members, non-members
    and obstructed rows."""
    command = workloads.Command("count", TRIBONACCI, (("x", 60), ("n_exact", 60)))
    outcome = _outcome(tmp_path_factory.mktemp("count"), command)
    return outcome, record_references.reference(outcome)


@pytest.fixture(scope="module")
def primes_csv(tmp_path_factory):
    command = workloads.Command("primes", TRIBONACCI, (("max", 400),))
    outcome = _outcome(tmp_path_factory.mktemp("primes"), command)
    return outcome, record_references.reference(outcome)


def _count_failures(outcome, ref, csv_text=None):
    return check.check_count(TRIBONACCI, 60, 60,
                             outcome.csv_text if csv_text is None else csv_text,
                             outcome.stdout, ref)[1]


def _edit_row(csv_text, status, edit):
    """Apply `edit` to the first row with `status`; returns (n, new text)."""
    lines = csv_text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[1] == status:
            lines[i] = ",".join(edit(fields))
            return int(fields[0]), "\n".join(lines) + "\n"
    raise AssertionError(f"no {status} row")


def test_untampered_outputs_pass(exact_count, primes_csv):
    assert _count_failures(*exact_count) == []
    outcome, ref = primes_csv
    assert check.check_primes(TRIBONACCI, 400, outcome.csv_text, ref)[1] == []


def test_flipped_member_verdict_is_rejected(exact_count):
    outcome, ref = exact_count
    n, text = _edit_row(outcome.csv_text, "member",
                        lambda f: [f[0], "non_member", "", "", ""])
    failures = _count_failures(outcome, ref, text)
    assert any(f.startswith(f"count n={n}: reference member") for f in failures)


def test_wrong_member_witness_is_rejected(exact_count):
    outcome, _ = exact_count
    n, text = _edit_row(outcome.csv_text, "member",
                        lambda f: [f[0], f[1], str(int(f[2]) + 1), f[3], f[4]])
    assert any(f.startswith(f"count n={n}: u^2 + n*v^2")
               for f in _count_failures(outcome, None, text))


def test_wrong_obstruction_prime_is_rejected(exact_count):
    outcome, ref = exact_count
    n, text = _edit_row(outcome.csv_text, "obstructed",
                        lambda f: [*f[:4], "7" if int(f[0]) % 7 else "11"])
    assert any(f.startswith(f"count n={n}: obstruction prime")
               for f in _count_failures(outcome, ref, text))
    # 3 divides this n, but U_n is a square mod 3
    u = list(check.terms(TRIBONACCI, 60))
    n = next(n for n in range(3, 61, 3) if u[n] % 3 == 1)
    lines = outcome.csv_text.splitlines()
    lines[n] = f"{n},obstructed,,,3"
    failures = _count_failures(outcome, None, "\n".join(lines) + "\n")
    assert any(f.startswith(f"count n={n}: U_n is a residue") for f in failures)


def test_exact_tier_unknown_fails_but_new_certificates_pass(exact_count):
    outcome, ref = exact_count
    n, text = _edit_row(outcome.csv_text, "non_member",
                        lambda f: [f[0], "unknown", "", "", ""])
    assert any(f.startswith(f"count n={n}: exact-tier index ended unknown")
               for f in _count_failures(outcome, ref, text))
    # a reference `unknown` may become a certified verdict
    verdicts = check.decode_verdicts(ref["verdicts"])
    loose = dict(ref, verdicts=check.encode_verdicts(
        "unknown" if i == n - 1 else
        {v: k for k, v in check.VERDICT_LETTER.items()}[letter]
        for i, letter in enumerate(verdicts)))
    assert _count_failures(outcome, loose) == []


def test_edited_primes_row_is_rejected(primes_csv):
    outcome, ref = primes_csv
    lines = outcome.csv_text.splitlines()
    row = next(i for i, line in enumerate(lines[1:], start=1)
               if line.split(",")[2] == "True")
    fields = lines[row].split(",")
    fields[5] = str(int(fields[5]) * 2)          # k_p: not checked directly
    lines[row] = ",".join(fields)
    failures = check.check_primes(TRIBONACCI, 400, "\n".join(lines) + "\n", ref)[1]
    assert failures == [f"primes p={fields[0]}: row differs from the reference"]
    fields[4] = str(int(fields[4]) + 1)          # t_p: checked independently
    lines[row] = ",".join(fields)
    failures = check.check_primes(TRIBONACCI, 400, "\n".join(lines) + "\n", None)[1]
    assert failures and "t_p" in failures[0]


def test_reference_clock_counts_ticks_and_stops():
    affinity = os.sched_getaffinity(0)
    clock = run.RefClock()
    t0 = time.monotonic()
    time.sleep(0.2)
    t1 = time.monotonic()
    clock.stop()
    assert clock.proc.returncode is not None
    assert os.sched_getaffinity(0) == affinity
    # alone on its CPU the loop ticks at about its nominal rate
    assert 0.02 < clock.seconds(t0, t1) < 2
    with pytest.raises(RuntimeError):
        clock.seconds(t0, time.monotonic() + 1)


def _benchmark_names(section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "0", "--trace", str(trace), "--size", "tiny"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(_benchmark_names(section))
