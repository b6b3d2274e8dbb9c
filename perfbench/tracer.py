"""Traced run of the ternary-squares CLI, and the per-layer metrics.

Usage: python3 tracer.py TRACE_JSON ARG...

Wraps the public functions of each `ternary_squares` module, runs
`cli.main(ARG...)` and writes what the wrappers saw to TRACE_JSON. Each
wrapper replaces the function under every name that any package module
bound it to (`representation`, `modular`, `sqrtmod` and `experiments`
each hold their own `factorize`, for example), so calls between modules
are seen too. Nothing in `src/` changes.

Spans (name, start, end, parent, attributes) are kept for each command,
each `membership` index and each `classify_prime` prime. Every other
function is summed into counters, overall and per enclosing span, so
that millions of `legendre` calls do not fill memory. Self time is a
call's duration minus the time its traced children took; private helpers
such as `_x_pow` and `Fp2` stay inside their caller's self time.
"""

import json
import statistics
import sys
import time

clock = time.perf_counter

SPAN = "span"            # one span per call
CALL = "call"            # counters only
GENERATOR = "generator"  # counters, timing each step of the generator

# (module, function, kind); "cli" is the command itself
TRACED = [
    ("representation", "membership", SPAN),
    ("modular", "classify_prime", SPAN),
    ("representation", "qr_obstruction", CALL),
    ("representation", "summarize", CALL),
    ("primes", "factorize", CALL),
    ("primes", "pollard_brent", CALL),
    ("primes", "is_prime", CALL),
    ("primes", "iter_primes", GENERATOR),
    ("modular", "term_mod", CALL),
    ("modular", "count_roots_mod_p", CALL),
    ("sqrtmod", "legendre", CALL),
    ("sqrtmod", "sqrt_mod", CALL),
    ("recurrence", "term", CALL),
    ("charpoly", "discriminant", CALL),
    ("experiments", "char_sum_sweep", CALL),
    ("experiments", "lemma5_sweep", CALL),
    ("experiments", "z_density", CALL),
]

# functions reported as <name>.calls and <name>.self_s
CALLS_AND_SELF = [
    "modular.term_mod", "representation.qr_obstruction", "primes.factorize",
    "primes.pollard_brent", "primes.is_prime", "modular.classify_prime",
    "modular.count_roots_mod_p", "sqrtmod.legendre", "sqrtmod.sqrt_mod",
    "recurrence.term", "charpoly.discriminant",
]
# functions reported as <name>.self_s only
SELF_ONLY = [
    "representation.summarize", "experiments.char_sum_sweep",
    "experiments.lemma5_sweep", "experiments.z_density", "cli",
]
MEMBERSHIP_METHODS = ["qr_sieve", "witness_formula", "enumeration",
                      "cornacchia"]


def _new_stat():
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0,
            "hits": 0, "timeouts": 0, "yielded": 0}


class Trace:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.frames = []      # child seconds of each open traced call
        self.open_spans = []  # indices into self.spans
        self.spans = []       # [name, start, end, parent, attrs]
        self.stats = {}       # name -> _new_stat()
        self.by_parent = {}   # "name<parent span name" -> [calls, self_s]

    def _account(self, name, stat, duration, self_s):
        stat["self_s"] += self_s
        stat["total_s"] += duration
        if duration > stat["max_s"]:
            stat["max_s"] = duration
        parent = self.spans[self.open_spans[-1]][0] if self.open_spans else "-"
        cell = self.by_parent.setdefault(f"{name}<{parent}", [0, 0.0])
        cell[0] += 1
        cell[1] += self_s

    def wrap(self, name, fn, kind, timeout_error=None):
        """A wrapper around `fn` that records it under `name`."""
        stat = self.stats.setdefault(name, _new_stat())
        frames = self.frames

        def finish(start, child):
            duration = clock() - start
            frames.pop()
            if frames:
                frames[-1][0] += duration
            self._account(name, stat, duration, duration - child[0])
            return duration

        if kind == GENERATOR:
            def traced_generator(*args, **kwargs):
                stat["calls"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    child = [0.0]
                    frames.append(child)
                    start = clock()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        finish(start, child)
                    stat["yielded"] += 1
                    yield value
            return traced_generator

        def traced(*args, **kwargs):
            stat["calls"] += 1
            span = None
            if kind == SPAN:
                parent = self.open_spans[-1] if self.open_spans else None
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent,
                                   {"arg": args[1] if len(args) > 1 else None}])
                self.open_spans.append(span)
            child = [0.0]
            frames.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if timeout_error is not None and isinstance(exc, timeout_error):
                    stat["timeouts"] += 1
                raise
            finally:
                if span is not None:
                    self.open_spans.pop()
                duration = finish(start, child)
                if span is not None:
                    self.spans[span][1:3] = start, start + duration
            if result is not None and name == "representation.qr_obstruction":
                stat["hits"] += 1
            if span is not None and hasattr(result, "method"):
                self.spans[span][4]["method"] = result.method
            return result
        return traced

    def install(self):
        """Wrap every TRACED function under all of its bindings; returns
        the wrapped `cli.main`."""
        import importlib
        cli = importlib.import_module("ternary_squares.cli")
        primes = importlib.import_module("ternary_squares.primes")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "ternary_squares" or key.startswith("ternary_squares.")]
        for module_name, fn_name, kind in TRACED:
            original = getattr(importlib.import_module(
                f"ternary_squares.{module_name}"), fn_name)
            wrapped = self.wrap(f"{module_name}.{fn_name}", original, kind,
                                primes.FactorTimeout)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
            for entry in cli.EXPERIMENTS.values():
                if entry["fn"] is original:
                    entry["fn"] = wrapped
        return self.wrap("cli", cli.main, SPAN)

    def to_json(self):
        return {"spans": self.spans, "stats": self.stats,
                "by_parent": self.by_parent}


# ---------------------------------------------------------------------------
# per-layer metrics

def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def layer_metrics(traces):
    """Per-layer metrics of one traced pass over a workload's commands;
    `traces` holds one Trace.to_json() per command."""
    stats = {}
    for trace in traces:
        for name, stat in trace["stats"].items():
            total = stats.setdefault(name, _new_stat())
            for key, value in stat.items():
                total[key] = max(total[key], value) if key == "max_s" \
                    else total[key] + value

    def stat(name):
        return stats.get(name, _new_stat())

    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = stat(name)["calls"]
        metrics[f"{name}.self_s"] = stat(name)["self_s"]
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = stat(name)["self_s"]
    qr = stat("representation.qr_obstruction")
    metrics["representation.qr_obstruction.hit_ratio"] = \
        qr["hits"] / qr["calls"] if qr["calls"] else 0.0
    metrics["primes.factorize.max_s"] = stat("primes.factorize")["max_s"]
    metrics["primes.factorize.timeouts"] = stat("primes.factorize")["timeouts"]
    metrics["primes.iter_primes.s"] = stat("primes.iter_primes")["total_s"]
    metrics["primes.iter_primes.yielded"] = stat("primes.iter_primes")["yielded"]

    spans = [s for trace in traces for s in trace["spans"]
             if s[0] == "representation.membership"]
    durations = [end - start for _, start, end, _, _ in spans]
    metrics["representation.membership.calls"] = len(spans)
    metrics["representation.membership.p50_s"] = \
        statistics.median(durations) if durations else 0.0
    slow = tail(durations)
    metrics["representation.membership.tail_s"] = \
        slow[1] if slow else max(durations, default=0.0)
    metrics["representation.membership.max_s"] = max(durations, default=0.0)
    for method in MEMBERSHIP_METHODS:
        mine = [end - start for _, start, end, _, attrs in spans
                if attrs.get("method") == method]
        metrics[f"representation.membership.{method}.calls"] = len(mine)
        metrics[f"representation.membership.{method}.s"] = sum(mine, 0.0)
    return metrics


def metric_unit(name):
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


if __name__ == "__main__":
    trace = Trace()
    main = trace.install()
    try:
        code = main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(trace.to_json(), fh)
    sys.exit(code)
