"""The ternary-squares benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sieve-tier --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each workload command runs in a fresh `python3` process with `--threads
1`. A run first makes one warm-up iteration over the workload's commands
and checks every output (check.py); then, for `--seconds`, it repeats
iterations and checks each output that differs from the warm-up's.

With `--trace 0` it reports the end-to-end metrics, medians over the
timed iterations:

    wall_s       spawn to exit of each command, summed over the commands
    setup_s      spawn until `cli.main` is about to be entered, summed
    peak_rss_mb  the largest max-RSS of any command of the iteration

The timed iterations of `--trace 0` run on one CPU beside refclock.py,
and wall_s and setup_s are read on that reference clock (see RefClock):
the elapsed times of a shared host drift by 20-40%, the reference
seconds by a few percent. The elapsed median is in the report.

With `--trace 1` it alternates untraced iterations with iterations run
under tracer.py and reports the per-layer metrics (medians for times),
plus `trace.overhead_s`, traced minus untraced `wall_s`. These are
elapsed times, without the reference clock. The spans and counters of
the first traced pass are left in
perfbench/.work/<workload>-seed<seed>-trace.json.

The human-readable report goes to standard error: each metric with its
unit, median, tail percentile and sample count, `error_rate` (failed over
attempted operations), and the machine (nproc, Python, git SHA). The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 when every output
passed its check, 1 when one did not, and 2 when the program is missing.
"""

import argparse
import array
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
WORK_ROOT = HERE / ".work"
COMMAND_TIMEOUT_S = 120
# one tick of refclock.py counts as this many reference seconds; a tick
# takes about that long on a 2-vCPU x86_64 VM with nothing beside it
REF_TICK_S = 0.002

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# running commands

@dataclass
class Outcome:
    """What one command did: its timings and outputs."""
    command: workloads.Command
    returncode: int
    spawned: float   # time.monotonic() at the spawn,
    entered: float   # on entering `cli.main` (the exit if it never did)
    ended: float     # and at the exit
    rss_kb: int
    stdout: str
    csv_text: str
    trace: dict   # tracer.Trace.to_json() of a traced command, else None

    def fingerprint(self):
        """The outputs that must repeat exactly; `count` reports its own
        wall time, which is dropped."""
        stdout = self.stdout
        if self.command.kind == "count":
            try:
                summary = json.loads(stdout)
                summary.pop("wall_time_s", None)
                stdout = json.dumps(summary, sort_keys=True)
            except json.JSONDecodeError:
                pass
        return (self.returncode, stdout, self.csv_text)


def _read(path):
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return ""


def run_command(command, work, traced):
    """Spawn one CLI command, wait for it and collect what it did."""
    env = dict(os.environ)
    # bytecode caching on, as for an installed package; the warm-up
    # iteration fills the caches
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_csv, stamp, trace_json = work / "out.csv", work / "stamp", work / "trace.json"
    for path in (out_csv, stamp, trace_json):
        path.unlink(missing_ok=True)
    script, side = (HERE / "tracer.py", trace_json) if traced else \
        (HERE / "launch.py", stamp)
    argv = [sys.executable, str(script), str(side), *command.argv(out_csv)]
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    if proc.returncode != 0:
        print(f"perfbench: exit {proc.returncode} from {' '.join(argv[2:])}\n"
              f"{stderr[-2000:]}", file=sys.stderr)
    entered, _, peak_kb = _read(stamp).partition(" ")
    # a command that died before `main` counts its whole run as set-up
    entered = float(entered) if entered else ended
    trace = json.loads(_read(trace_json) or "null") if traced else None
    return Outcome(command, proc.returncode, spawned, entered, ended,
                   int(peak_kb) if peak_kb else 0, stdout, _read(out_csv),
                   trace)


def run_iteration(commands, work, traced=False):
    return [run_command(c, work, traced) for c in commands]


class RefClock:
    """refclock.py on the CPU that runs the commands.

    Starting it pins this process, and so every command started later, to
    one CPU; the loop runs there too. `seconds(t0, t1)` is the number of
    ticks the loop completed between two `time.monotonic()` readings,
    interpolated within a tick, times REF_TICK_S. As the command and the
    loop take equal turns on the CPU, that is the command's duration at
    the loop's speed: it grows with the command's work, while a slow
    spell of the host slows both alike.
    """

    def __init__(self):
        self.affinity = None
        if hasattr(os, "sched_setaffinity"):
            self.affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(self.affinity)})
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "refclock.py")],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        self.stamps = None
        if self.proc.stdout.read(1) != b"\n":
            self._end()
            raise RuntimeError("perfbench: the reference clock did not start")

    def _end(self):
        self.proc.kill()
        self.proc.wait()
        if self.affinity:
            os.sched_setaffinity(0, self.affinity)

    def stop(self):
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        finally:
            self._end()
        self.stamps = array.array("d", out)

    def _ticks(self, t):
        stamps = self.stamps
        i = bisect.bisect_right(stamps, t)
        if i == 0 or i == len(stamps):
            raise RuntimeError("perfbench: a command ran while the reference "
                               "clock was not ticking")
        lo, hi = stamps[i - 1], stamps[i]
        return i - 1 + (t - lo) / (hi - lo)

    def seconds(self, t0, t1):
        return (self._ticks(t1) - self._ticks(t0)) * REF_TICK_S

    def tick_ms(self):
        """The median elapsed time of one tick, in ms."""
        return statistics.median(
            b - a for a, b in zip(self.stamps, self.stamps[1:])) * 1000


# ---------------------------------------------------------------------------
# checking outputs

def check_outcome(outcome, references):
    """(attempted, failures) for one command's outputs."""
    c = outcome.command
    v = c.values
    ref = references.get(c.key)
    if c.kind == "count":
        attempted, failures = check.check_count(
            c.spec, v["x"], v["n_exact"], outcome.csv_text, outcome.stdout, ref)
    elif c.kind == "primes":
        attempted, failures = check.check_primes(
            c.spec, v["max"], outcome.csv_text, ref)
    else:
        attempted, failures = check.check_verify(
            c.spec, c.experiment, v, outcome.stdout, ref)
    if outcome.returncode != 0:
        # a command that exits non-zero fails all of its operations
        failures = [f"{c.key}: exit code {outcome.returncode}"] * attempted
    return attempted, failures[:attempted]


class Checker:
    """Checks each outcome, re-checking only outputs not seen before."""

    def __init__(self, references):
        self.references = references
        self.seen = {}   # (command key, fingerprint) -> (attempted, failures)
        self.attempted = 0
        self.failures = []

    def __call__(self, outcomes):
        for outcome in outcomes:
            key = (outcome.command.key, outcome.fingerprint())
            if key not in self.seen:
                self.seen[key] = check_outcome(outcome, self.references)
            attempted, failures = self.seen[key]
            self.attempted += attempted
            self.failures += failures


# ---------------------------------------------------------------------------
# measuring

def tail_text(values):
    slow = tracer.tail(values)
    return f"p{slow[0]:.0f} {slow[1]:.6g}" if slow else "no tail (n < 11)"


def measure(workload, seed, seconds, traced, size):
    commands = workloads.build(workload, seed, size)
    references = json.loads(REFERENCES.read_text()) if size == "full" else {}
    checker = Checker(references)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    clock = None
    try:
        checker(run_iteration(commands, work))   # warm-up
        # the traced run reports times from inside the command, which
        # sharing a CPU with the reference clock would double
        clock = None if traced else RefClock()
        plain, traced_its = [], []
        start = time.monotonic()
        while time.monotonic() - start < seconds or not plain:
            plain.append(run_iteration(commands, work))
            checker(plain[-1])
            if traced:
                traced_its.append(run_iteration(commands, work, traced=True))
                checker(traced_its[-1])
    finally:
        if clock:
            clock.stop()
        shutil.rmtree(work, ignore_errors=True)
    duration = clock.seconds if clock else (lambda t0, t1: t1 - t0)

    def wall(it):
        return sum(duration(o.spawned, o.ended) for o in it)

    samples = {
        "wall_s": [wall(it) for it in plain],
        "setup_s": [sum(duration(o.spawned, o.entered) for o in it)
                    for it in plain],
        "peak_rss_mb": [max(o.rss_kb for o in it) / 1024 for it in plain],
    }
    notes = []
    if clock:
        elapsed = statistics.median(sum(o.ended - o.spawned for o in it)
                                    for it in plain)
        notes.append(f"wall_s and setup_s in reference seconds; one tick "
                     f"took {clock.tick_ms():.3f} ms (median, nominal "
                     f"{REF_TICK_S * 1000:g}); elapsed wall_s {elapsed:.6g} s "
                     f"(median, sharing the CPU)")
    if traced:
        # the spans and counters of one traced pass stay for inspection
        (WORK_ROOT / f"{workload}-seed{seed}-trace.json").write_text(
            json.dumps([o.trace for o in traced_its[0]]))
        per_pass = [tracer.layer_metrics([o.trace for o in it if o.trace])
                    for it in traced_its]
        overhead = statistics.median(wall(it) for it in traced_its) - \
            statistics.median(samples["wall_s"])
        samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
        samples["trace.overhead_s"] = [overhead]
        units = {name: tracer.metric_unit(name) for name in samples}
    else:
        units = END_TO_END
    metrics = {name: {"value": (statistics.median_low(values)
                                if units[name] == "count"
                                else statistics.median(values)),
                      "unit": units[name]}
               for name, values in samples.items()}
    return commands, checker, samples, metrics, notes


# ---------------------------------------------------------------------------
# reporting

def machine():
    sha = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()} "
            f"({platform.machine()}), git {sha}")


def report(workload, seed, commands, checker, samples, metrics, notes):
    err = sys.stderr
    print(f"== {workload} (seed {seed}); {machine()}", file=err)
    for c in commands:
        print(f"   ternary-squares {c.key}", file=err)
    for name, m in metrics.items():
        values = samples[name]
        print(f"   {name:<44} {m['value']:>12.6g} {m['unit']:<6} median; "
              f"{tail_text(values)}; n = {len(values)}", file=err)
    for line in notes:
        print(f"   {line}", file=err)
    rate = len(checker.failures) / checker.attempted
    print(f"   {'error_rate':<44} {rate:>12.6g} {'ratio':<6} "
          f"{len(checker.failures)} failed of {checker.attempted} operations",
          file=err)
    for line in checker.failures[:20]:
        print(f"   FAILED {line}", file=err)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full", help="input size (tiny: for tests)")
    args = parser.parse_args(argv)
    if not (SRC / "ternary_squares" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        commands, checker, samples, metrics, notes = measure(
            name, args.seed, args.seconds, args.trace == 1, args.size)
        report(name, args.seed, commands, checker, samples, metrics, notes)
        correct &= not checker.failures
        print(json.dumps({"correct": not checker.failures,
                          "attempted": checker.attempted,
                          "failed": len(checker.failures),
                          "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
