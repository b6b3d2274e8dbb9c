import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from ternary_squares import representation
from ternary_squares.cli import COUNT_COLUMNS, PRIMES_COLUMNS, main
from ternary_squares.recurrence import PRESETS
from ternary_squares.representation import (membership, non_squarefree_count,
                                            status_name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_good_preset(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "tribonacci")
    assert code == 0
    data = json.loads(out)
    assert data["galois_label"] == "S3"
    assert data["satisfies_all"] is True


def test_analyze_condition_failure_exit_2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "five-fib-sq-minus-4")
    assert code == 2
    data = json.loads(out)
    assert data["cond_ii"] is False
    assert "integer root a = -1" in data["cond_ii_reason"]
    # Fibonacci's cubic (X - 1)(X^2 - X - 1) fails (ii) at its root 1
    code, out, _ = run_cli(capsys, "analyze", "--preset", "fibonacci")
    assert code == 2
    data = json.loads(out)
    assert data["cond_ii_reason"] == "integer root a = 1"
    assert data["cond_i"] is True and data["cond_iii"] is True


def test_analyze_input_errors(capsys):
    code, _, err = run_cli(capsys, "analyze", "--spec",
                           '{"a1":0,"a2":0,"a3":0,"u0":0,"u1":0,"u2":1}')
    assert code == 1 and "a3" in err
    code, _, _ = run_cli(capsys, "analyze", "--preset", "unknown-name")
    assert code == 1
    code, _, _ = run_cli(capsys, "analyze")
    assert code == 1
    code, _, _ = run_cli(capsys, "analyze", "--preset", "tribonacci",
                         "--spec", "{}")
    assert code == 1


def test_primes_csv(capsys):
    code, out, err = run_cli(capsys, "primes", "--preset", "tribonacci",
                             "--max", "13")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,root_count,in_Z,alpha,t_p,k_p,ord_alpha,ord_ratio,mult_order"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3", "5", "7", "11", "13"]
    in_z = {r[0]: r[2] for r in rows}
    assert in_z["7"] == "True" and in_z["13"] == "True"
    assert in_z["2"] == "False" and in_z["11"] == "False"
    assert "#Z(13)/pi(13) = 2/6" in err


def test_primes_small_max_keeps_p_2(capsys):
    header = "p,root_count,in_Z,alpha,t_p,k_p,ord_alpha,ord_ratio,mult_order"
    code, out, err = run_cli(capsys, "primes", "--preset", "tribonacci",
                             "--max", "2")
    assert code == 0
    assert out.split("\n") == [header, "2,ramified,False,,,,,,", ""]
    assert err == "#Z(2)/pi(2) = 0/1 = 0.0000\n"
    code, out, err = run_cli(capsys, "primes", "--preset", "tribonacci",
                             "--max", "1")
    assert (code, out, err) == (0, header + "\n", "")


def test_primes_pow2_plus_fib_z_set(capsys):
    code, out, _ = run_cli(capsys, "primes", "--preset", "pow2-plus-fib",
                           "--max", "30")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    z_set = [r[0] for r in rows if r[2] == "True"]
    assert z_set == ["3", "7", "13", "17", "23"]


def test_count_single_row(capsys):
    code, out, err = run_cli(capsys, "count", "--preset", "tribonacci",
                             "--x", "1", "--n-exact", "120", "--threads", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,status,u,v,obstruction_p"
    assert lines[1] == "1,member,0,0,"
    summary = json.loads(err)
    assert summary["schema_version"] == "1"
    assert summary["counts"]["member"] == 1
    assert "wall_time_s" in summary


def test_count_to_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "count", "--preset", "square-pow",
                           "--x", "50", "--threads", "1",
                           "--output", str(out_path))
    assert code == 0
    summary = json.loads(out)     # summary goes to stdout when CSV is a file
    assert summary["density_lower"] == 1.0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 51
    assert lines[1].startswith("1,member,3,0")


def test_count_obstruction_row(capsys):
    code, out, _ = run_cli(capsys, "count", "--preset", "tribonacci",
                           "--x", "10", "--n-exact", "120", "--threads", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert "7,obstructed,,,7" in lines


def test_count_negative_terms_are_non_members(capsys):
    code, out, err = run_cli(capsys, "count", "--spec",
                             '{"a1":1,"a2":1,"a3":1,"u0":-5,"u1":-3,"u2":-1}',
                             "--x", "20", "--n-exact", "20", "--threads", "1")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 20
    assert {row[1] for row in rows} == {"non_member", "obstructed"}
    assert "5,obstructed,,,5" in out.split("\n")
    summary = json.loads(err)
    assert summary["certified_non_members"] == 20
    assert summary["method_counts"] == {"sign": 16, "qr_sieve": 4}


def test_count_failed_reverification_exit_2(capsys, monkeypatch):
    from ternary_squares import representation
    monkeypatch.setattr(representation, "_witness_formula",
                        lambda spec, n: (1, 1))
    code, _, err = run_cli(capsys, "count", "--preset", "pow2-plus-n",
                           "--x", "4")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "re-verification" in err and "Traceback" not in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_count_budget_exit_3_keeps_rows_before_failing_index(
        tmp_path, capsys, threads):
    # the 3-digit term budget first refuses U_15 = 1705, tribonacci's first
    # 4-digit term (index 15 is unobstructed, so the exact tier needs it)
    failed, whole = tmp_path / "failed.csv", tmp_path / "whole.csv"
    code, out, err = run_cli(capsys, "count", "--preset", "tribonacci",
                             "--x", "60", "--n-exact", "60",
                             "--term-digits", "3", "--threads", threads,
                             "--output", str(failed))
    assert code == 3 and out == ""
    assert err == "budget exhausted: term 15 has more than the 3-digit " \
        "budget\n"
    code, *_ = run_cli(capsys, "count", "--preset", "tribonacci",
                       "--x", "14", "--n-exact", "60", "--threads", "1",
                       "--output", str(whole))
    assert code == 0
    assert failed.read_text() == whole.read_text()
    assert failed.read_text().count("\n") == 15


# (count arguments, CSV lines, CSV SHA-256, budget message), pinned from
# runs that computed each exact term from U_0 afresh. The budget first
# binds at a witness index past --n-exact (pow2-plus-n with --n-exact 0,
# five-fib-sq-minus-4), after a pooled exact tier (--threads 2), and by
# the growth estimate before any digit count (U_n = n).
_BUDGET_RUNS = [
    ("--preset pow2-plus-n --x 200 --n-exact 0 --term-digits 20 --threads 1",
     68, "8f5f28fc859fdbf187bb9cd45d23d63403b19e37a1c135c27072d6cbaae84671",
     "term 67 has more than the 20-digit budget"),
    ("--preset pow2-plus-n --x 200 --n-exact 90 --term-digits 20 --threads 2",
     68, "ea1ee11e206144d2fd56f093f6d0133ed3b87e11f0ee31d377d6f0bc86cf1912",
     "term 67 has more than the 20-digit budget"),
    ("--preset square-pow --x 100 --n-exact 30 --term-digits 25 --threads 2",
     42, "94147ff709183dce3c98a6c8d637e64e8283b77138a2bafd3cff2e7dc4fb600d",
     "term 42 has more than the 25-digit budget"),
    ("--preset five-fib-sq-minus-4 --x 300 --n-exact 0 --term-digits 30 "
     "--threads 1",
     73, "878a0f5689761a039fcc1f318bfee3bfea170beda0fa9a9800e2769011f421b6",
     "term 72 has more than the 30-digit budget"),
    ('--spec {"a1":3,"a2":-3,"a3":1,"u0":0,"u1":1,"u2":2} --x 40 '
     "--n-exact 40 --term-digits 3 --threads 2",
     20, "1ba2193c30146b3c55fb3d26899d3483d7dafa1199ae69304df064541ca2b659",
     "term 20 would have roughly 12 digits, over the 3-digit budget"),
]


@pytest.mark.parametrize("args, lines, sha, message", _BUDGET_RUNS)
def test_count_budget_prefix_is_pinned(tmp_path, capsys, args, lines, sha,
                                       message):
    path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "count", *args.split(" "),
                             "--output", str(path))
    assert (code, out, err) == (3, "", f"budget exhausted: {message}\n")
    data = path.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha


def test_count_forged_obstruction_exit_2_keeps_rows_before_failing_index(
        tmp_path, capsys, monkeypatch):
    from ternary_squares import representation
    monkeypatch.setattr(representation, "obstruction_table",
                        lambda spec, x: [0] * x + [3])   # 3 does not divide 8
    out_path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "count", "--preset", "tribonacci",
                             "--x", "8", "--threads", "1",
                             "--output", str(out_path))
    assert code == 2 and out == ""
    assert err == "error: obstruction at p=3 failed re-verification at n=8\n"
    assert out_path.read_text().split("\n") == \
        ["n,status,u,v,obstruction_p"] + [f"{n},unknown,,," for n in
                                          range(1, 8)] + [""]


@pytest.mark.parametrize("p, n", [(9, 9), (5, 12), (2, 4), (3, 6)])
def test_count_forged_table_entry_exit_2_keeps_rows_before_it(
        tmp_path, capsys, monkeypatch, p, n):
    # a composite p (the true entry at 9 is 3), a p that does not divide n,
    # an even p, and a p at which U_6 = 7 is a residue, each forged into
    # the true table
    from ternary_squares import representation
    true_table = representation.obstruction_table

    def forged(spec, x):
        obs = list(true_table(spec, x))
        obs[n] = p
        return obs

    whole = tmp_path / "whole.csv"
    code, *_ = run_cli(capsys, "count", "--preset", "tribonacci",
                       "--x", str(n - 1), "--threads", "1",
                       "--output", str(whole))
    assert code == 0
    monkeypatch.setattr(representation, "obstruction_table", forged)
    failed = tmp_path / "failed.csv"
    code, out, err = run_cli(capsys, "count", "--preset", "tribonacci",
                             "--x", "30", "--threads", "1",
                             "--output", str(failed))
    assert code == 2 and out == ""
    assert err == f"error: obstruction at p={p} failed re-verification " \
        f"at n={n}\n"
    assert failed.read_text() == whole.read_text()


def _oracle_count(spec, x, n_exact, threads):
    """The CSV text and summary of `count` built index by index from
    `membership`, written by csv.writer and tallied by hand."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COUNT_COLUMNS)
    counts = {"member": 0, "non_member": 0, "obstructed": 0, "unknown": 0}
    method_counts = {}
    for n in range(1, x + 1):
        rec = membership(spec, n, n_exact)
        writer.writerow(rec.csv_fields())
        counts[status_name(rec.status)] += 1
        method_counts[rec.method] = method_counts.get(rec.method, 0) + 1
    certified = counts["non_member"] + counts["obstructed"]
    summary = {"schema_version": "1", "threads": threads, "x": x,
               "n_exact": n_exact, "counts": counts,
               "method_counts": method_counts,
               "member_count": counts["member"],
               "certified_non_members": certified,
               "upper_bound": x - certified,
               "density_lower": counts["member"] / x,
               "density_upper": (x - certified) / x,
               "non_squarefree": non_squarefree_count(x)}
    return out.getvalue(), summary


def _count_to_file(capsys, path, *argv):
    code, out, err = run_cli(capsys, "count", *argv, "--output", str(path))
    summary = json.loads(out) if out else None
    if summary is not None:
        summary.pop("wall_time_s")
    return code, summary, err


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_exact", [0, 40])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_count_stream_matches_membership_oracle(
        tmp_path, capsys, monkeypatch, preset, n_exact, threads):
    # 16-index blocks, so that blocks end next to records and each other
    monkeypatch.setattr(representation, "_BLOCK", 16)
    x = 200
    path = tmp_path / "rows.csv"
    code, summary, _ = _count_to_file(
        capsys, path, "--preset", preset, "--x", str(x), "--n-exact",
        str(n_exact), "--threads", str(threads))
    text, expected = _oracle_count(PRESETS[preset], x, n_exact, threads)
    assert code == 0
    assert path.read_text() == text
    assert json.dumps(summary) == json.dumps(expected)


def test_count_stream_matches_membership_oracle_at_full_blocks(
        tmp_path, capsys):
    x = 2 * representation._BLOCK + 100
    path = tmp_path / "rows.csv"
    code, summary, _ = _count_to_file(capsys, path, "--preset", "tribonacci",
                                      "--x", str(x), "--threads", "1")
    text, expected = _oracle_count(PRESETS["tribonacci"], x, 0, 1)
    assert code == 0
    assert path.read_text() == text
    assert json.dumps(summary) == json.dumps(expected)


def test_count_undecided_indices_are_not_attempted(capsys, tmp_path):
    # past --n-exact an unobstructed index is unknown by method
    # not_attempted; qr_sieve counts only the sieve's obstructions
    code, summary, _ = _count_to_file(
        capsys, tmp_path / "rows.csv", "--preset", "fibonacci", "--x", "1000",
        "--n-exact", "100", "--threads", "1")
    assert code == 0
    assert summary["method_counts"]["qr_sieve"] == 482 == \
        summary["counts"]["obstructed"]
    assert summary["method_counts"]["not_attempted"] == 456 == \
        summary["counts"]["unknown"]


def _first_record_index(n_exact):
    """The first unobstructed tribonacci index n < n_exact: its record is
    the exact tier's, and n + 1 is still in the exact range."""
    table = representation.obstruction_table(PRESETS["tribonacci"], n_exact)
    return next(n for n in range(2, n_exact) if not table[n])


@pytest.mark.parametrize("where", ["first of a block", "last of a block",
                                   "first of all", "after a record"])
def test_count_forged_entry_in_a_block_exit_2_keeps_rows_before_it(
        tmp_path, capsys, monkeypatch, where):
    # blocks of 16 from index 1 at --n-exact 0, so 17 opens the second
    # block and 32 ends it; at --n-exact 30 the forged index follows an
    # exact-tier record; 9 is composite, so no re-check can pass it
    monkeypatch.setattr(representation, "_BLOCK", 16)
    n_exact = 30 if where == "after a record" else 0
    n = {"first of a block": 17, "last of a block": 32, "first of all": 1,
         "after a record": _first_record_index(30) + 1}[where]
    true_table = representation.obstruction_table

    def forged(spec, x):
        obs = true_table(spec, x)
        obs[n] = 9
        return obs

    whole = tmp_path / "whole.csv"
    code, *_ = _count_to_file(capsys, whole, "--preset", "tribonacci",
                              "--x", str(max(n - 1, 1)),
                              "--n-exact", str(n_exact), "--threads", "1")
    assert code == 0
    monkeypatch.setattr(representation, "obstruction_table", forged)
    failed = tmp_path / "failed.csv"
    code, summary, err = _count_to_file(
        capsys, failed, "--preset", "tribonacci", "--x", "60", "--n-exact",
        str(n_exact), "--threads", "1")
    assert code == 2 and summary is None
    assert err == f"error: obstruction at p=9 failed re-verification " \
        f"at n={n}\n"
    rows = whole.read_text().split("\n")[:n] + [""]
    assert failed.read_text() == "\n".join(rows)


_READER_CLOSES_AFTER_ONE_LINE = [
    ["primes", "--preset", "fibonacci", "--max", "40000"],
    ["count", "--preset", "tribonacci", "--x", "30000", "--threads", "1"],
]


@pytest.mark.parametrize("argv", _READER_CLOSES_AFTER_ONE_LINE)
def test_closed_stdout_ends_quietly(argv):
    # both commands write well over a pipe's buffer, so the reader's close
    # is met by a write
    header = COUNT_COLUMNS if argv[0] == "count" else PRIMES_COLUMNS
    with subprocess.Popen([sys.executable, "-m", "ternary_squares", *argv],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == (",".join(header) + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_cli_import_leaves_process_pool_unloaded():
    # only count with a pooled exact tier needs concurrent.futures.process
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ternary_squares.cli; "
         "sys.exit('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_constants(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert abs(float(values["delta"]) - 0.086071) < 1e-6
    assert abs(float(values["kappa"]) - 0.600541) < 1e-4
    assert abs(float(values["exponent"]) - 0.0516894) < 2e-6


def test_verify_pass_and_fail(capsys):
    code, out, err = run_cli(capsys, "verify", "smooth-count",
                             "--param", "x=10", "--param", "y=2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert ["value", 4] in report["observations"]
    assert "smooth-count: pass" in err

    # an impossible tolerance turns the density experiment into a failure
    code, out, _ = run_cli(capsys, "verify", "z-density",
                           "--preset", "tribonacci",
                           "--param", "x=1000", "--param", "tolerance=1e-9")
    assert code == 2
    assert json.loads(out)["pass"] is False


def test_verify_experiment_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "no-such-thing")
    assert code == 1 and "unknown experiment" in err
    code, _, _ = run_cli(capsys, "verify", "smooth-count", "--param", "x=ten")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "smooth-count", "--param", "bad")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "smooth-count",
                         "--param", "zzz=1")
    assert code == 1


def test_verify_omega_iz_report_is_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "omega-iz",
                           "--preset", "tribonacci", "--param", "n=91")
    assert code == 0
    report = json.loads(out)
    assert ["value", 2] in report["observations"]
    assert report["parameters"]["spec"]["a1"] == 1


def test_verify_counterexample_density(capsys):
    code, out, _ = run_cli(capsys, "verify", "counterexample-density",
                           "--preset", "square-pow", "--param", "x=100")
    assert code == 0
    report = json.loads(out)
    assert dict(map(tuple, report["observations"]))["member_density"] == 1.0


def test_verify_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify", "smooth-count",
                           "--param", "x=1000000000", "--param", "y=10")
    assert code == 3 and "budget" in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "tribonacci"}))
    code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["galois_label"] == "S3"
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    code, _, _ = run_cli(capsys, "analyze", "--config", str(bad))
    assert code == 1
    # keys the file does not take are an input error, not silently ignored
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"preset": "tribonacci", "factor_timeout": -5,
                                 "n_exact": 50, "bogus": 1}))
    code, out, err = run_cli(capsys, "count", "--config", str(extra),
                             "--x", "20", "--threads", "1")
    assert code == 1 and out == ""
    assert "bogus" in err and "factor_timeout" in err and "n_exact" in err
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"spec": {"a1": 1, "a2": 1, "a3": 1,
                                       "u0": 0, "u1": 0, "u2": 1},
                              "threads": 1}))
    code, _, err = run_cli(capsys, "count", "--config", str(ok), "--x", "20")
    assert code == 0 and '"threads": 1' in err


def test_threads_resolution(capsys, monkeypatch):
    monkeypatch.setenv("TERNARY_THREADS", "2")
    code, *_ = run_cli(capsys, "count", "--preset", "tribonacci", "--x", "5")
    assert code == 0
    monkeypatch.setenv("TERNARY_THREADS", "junk")
    code, *_ = run_cli(capsys, "count", "--preset", "tribonacci", "--x", "5")
    assert code == 1
    monkeypatch.delenv("TERNARY_THREADS")
    code, *_ = run_cli(capsys, "count", "--preset", "tribonacci", "--x", "5",
                       "--threads", "0")
    assert code == 1


def test_negative_n_exact_is_input_error(capsys):
    code, out, err = run_cli(capsys, "count", "--preset", "tribonacci",
                             "--x", "20", "--n-exact", "-7", "--threads", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--n-exact" in err
    assert err.count("\n") == 1


def test_usage_errors_exit_1(capsys):
    # argparse's own exit code 2 would read as a failed condition
    code, out, err = run_cli(capsys, "count", "--preset", "tribonacci")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--x" in err and err.count("\n") == 1
    code, _, err = run_cli(capsys, "count", "--preset", "tribonacci",
                           "--x", "abc")
    assert code == 1 and "invalid int value" in err
    code, _, err = run_cli(capsys, "analyze", "--scan-states", "5",
                           "--preset", "tribonacci")
    assert code == 1 and "unrecognized arguments" in err
    code, _, _ = run_cli(capsys)
    assert code == 1
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0


def test_budget_validation(capsys):
    code, _, err = run_cli(capsys, "analyze", "--preset", "tribonacci",
                           "--factor-timeout", "-1")
    assert code == 1 and "budget" in err
