"""Command-line harness.

Subcommands: analyze, primes, count, verify, constants. Exit codes are a
stable contract: 0 success/pass, 1 input error, 2 condition or
verification failure, 3 budget exhaustion, 141 (128 + SIGPIPE) standard
output closed by its reader before the command finished.
"""

import argparse
import json
import os
import sys
import time
from operator import attrgetter

from . import experiments as ex
from .charpoly import check_conditions, solve_exponents
from .modular import (DEFAULT_SCAN_STATES, PrimeProfile, ScanBudgetError,
                      classify_primes)
from .primes import FactorTimeout
from .recurrence import (DEFAULT_TERM_DIGITS, PRESETS, TermBudgetError,
                         spec_from_json)
from .representation import (COUNT_COLUMNS, DEFAULT_FACTOR_TIMEOUT_S,
                             CertificateError, classify_range, csv_line,
                             summarize)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILED = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141

PRIMES_COLUMNS = PrimeProfile.__slots__
CONFIG_KEYS = ("preset", "spec", "threads")


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 1), not argparse's 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="ternary-squares",
        description="Ternary recurrences U_n and the representation "
                    "U_n = u^2 + n*v^2: analysis, prime profiles, counts "
                    "and empirical verification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="named sequence: " + ", ".join(sorted(PRESETS)))
    common.add_argument("--spec", help='inline spec JSON {"a1":..,"a2":..,"a3":..,"u0":..,"u1":..,"u2":..}')
    common.add_argument("--config", help="JSON file with default options")
    common.add_argument("--threads", type=int, default=None,
                        help="worker count (default: TERNARY_THREADS or CPU count)")
    common.add_argument("--factor-timeout", type=float,
                        default=DEFAULT_FACTOR_TIMEOUT_S,
                        help="seconds allowed per factorization "
                             "(default %(default)s)")
    common.add_argument("--term-digits", type=int, default=DEFAULT_TERM_DIGITS,
                        help="exact-term decimal digit budget "
                             "(default %(default)s)")
    common.add_argument("--output", help="write CSV here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="conditions (i)(ii)(iii) for the characteristic cubic; "
                            "JSON output, exit 2 if any condition fails")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("primes", parents=[common],
                       help="per-prime profile CSV: " + ",".join(PRIMES_COLUMNS))
    p.add_argument("--max", type=int, required=True, help="largest prime to profile")
    p.set_defaults(fn=cmd_primes)

    p = sub.add_parser("count", parents=[common],
                       help="classify n <= x; CSV " + ",".join(COUNT_COLUMNS) +
                            " plus a JSON summary")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--n-exact", type=int, default=0,
                   help="exact representation is attempted for n up to this (default 0)")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named experiment; exit 0 iff it passes")
    p.add_argument("experiment", help="one of: " + ", ".join(sorted(EXPERIMENTS)))
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="experiment parameter override (repeatable)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("constants", parents=[common],
                       help="the optimized exponent constants")
    p.set_defaults(fn=cmd_constants)
    return parser


def _load_config(args):
    if not args.config:
        return {}
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {args.config}: {exc}")
    if not isinstance(cfg, dict):
        raise InputError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise InputError(f"unknown config key(s) {unknown}; "
                         f"the file takes {list(CONFIG_KEYS)}")
    return cfg


def _resolve_spec(args, cfg):
    preset = args.preset or cfg.get("preset")
    inline = args.spec or cfg.get("spec")
    if preset and inline:
        raise InputError("give either --preset or --spec, not both")
    if preset:
        try:
            spec = spec_from_json(preset)
        except KeyError as exc:
            raise InputError(str(exc))
    elif inline:
        try:
            obj = json.loads(inline) if isinstance(inline, str) else inline
            spec = spec_from_json(obj)
        except (json.JSONDecodeError, ValueError) as exc:
            raise InputError(f"bad spec: {exc}")
    else:
        raise InputError("a sequence is required: --preset NAME or --spec JSON")
    return spec, preset


def _thread_count(args, cfg):
    if args.threads is not None:
        n = args.threads
    elif os.environ.get("TERNARY_THREADS"):
        try:
            n = int(os.environ["TERNARY_THREADS"])
        except ValueError:
            raise InputError("TERNARY_THREADS must be an integer")
    elif "threads" in cfg:
        n = int(cfg["threads"])
    else:
        n = os.cpu_count() or 1
    if n < 1:
        raise InputError("thread count must be >= 1")
    return n


def _check_budgets(args):
    if not args.factor_timeout > 0 or args.term_digits <= 0:
        raise InputError("budgets must be positive")


def _open_output(args):
    if args.output:
        return open(args.output, "w", encoding="utf-8", newline=""), True
    return sys.stdout, False


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args, cfg):
    spec, _ = _resolve_spec(args, cfg)
    analysis = check_conditions(spec)
    print(json.dumps(analysis.to_json_dict(), indent=2))
    return EXIT_OK if analysis.satisfies_all else EXIT_FAILED


def cmd_primes(args, cfg):
    spec, _ = _resolve_spec(args, cfg)
    out, close_out = _open_output(args)
    columns = attrgetter(*PRIMES_COLUMNS)
    n_primes = n_z = 0
    try:
        out.write(csv_line(PRIMES_COLUMNS))
        for prof in classify_primes(spec, args.max):
            n_primes += 1
            n_z += prof.in_Z
            out.write(csv_line(columns(prof)))
    finally:
        if close_out:
            out.close()
    if n_primes:
        print(f"#Z({args.max})/pi({args.max}) = {n_z}/{n_primes} "
              f"= {n_z / n_primes:.4f}", file=sys.stderr)
    return EXIT_OK


def cmd_count(args, cfg):
    spec, _ = _resolve_spec(args, cfg)
    if args.x < 1:
        raise InputError("--x must be >= 1")
    if args.n_exact < 0:
        raise InputError("--n-exact must be >= 0")
    threads = _thread_count(args, cfg)
    start = time.monotonic()
    items = classify_range(spec, args.x, args.n_exact, workers=threads,
                           factor_timeout_s=args.factor_timeout,
                           term_digits=args.term_digits)
    out, close_out = _open_output(args)
    try:
        out.write(csv_line(COUNT_COLUMNS))
        report = summarize(_written(out, items), args.x, args.n_exact)
    finally:
        if close_out:
            out.close()
    wall = time.monotonic() - start
    summary = {"schema_version": SCHEMA_VERSION,
               "threads": threads,
               "wall_time_s": round(wall, 3)}
    summary.update(report.to_json_dict())
    stream = sys.stdout if close_out else sys.stderr
    print(json.dumps(summary, indent=2), file=stream)
    return EXIT_OK


def _written(out, items):
    """The stream's items, each after its CSV rows are written: a failure
    in the stream leaves the rows before the failing index in the CSV."""
    for item in items:
        out.write(item.csv_text())
        yield item


# the keywords under which an experiment takes the CLI's budgets
BUDGET_KEYWORDS = ("term_digits", "factor_timeout_s")


def _report_experiment(fn):
    """fn's value as an ExperimentReport; its parameters are the keyword
    arguments, the budgets left out."""
    def run(**params):
        value = fn(**params)
        shown = {k: (v.to_json_dict() if hasattr(v, "to_json_dict") else v)
                 for k, v in params.items() if k not in BUDGET_KEYWORDS}
        report = ex.ExperimentReport(getattr(fn, "__name__", "experiment"),
                                     shown)
        report.observe("value", value)
        return report
    return run


EXPERIMENTS = {
    "z-density": {
        "needs_spec": True, "fn": ex.z_density,
        "params": {"x": int, "tolerance": float},
        "defaults": {"x": 10**6, "tolerance": 0.05},
    },
    "lemma5-sweep": {
        "needs_spec": True, "fn": ex.lemma5_sweep,
        "params": {"p_min": int, "p_max": int},
        "defaults": {"p_min": 100, "p_max": 10**5},
    },
    "multiplier-sweep": {
        "needs_spec": True, "fn": ex.multiplier_sweep,
        "params": {"p_min": int, "p_max": int},
        "defaults": {"p_min": 3, "p_max": 10**4},
    },
    "beukers-zero-count": {
        "needs_spec": True, "fn": ex.beukers_zero_count,
        "params": {"n_max": int},
        "defaults": {"n_max": 500},
        "budget": "term_digits",
    },
    "char-sum-sweep": {
        "needs_spec": True, "fn": ex.char_sum_sweep,
        "params": {"p_max": int, "max_states": int},
        "defaults": {"p_max": 1000, "max_states": DEFAULT_SCAN_STATES},
    },
    "smooth-count": {
        "needs_spec": False, "fn": _report_experiment(ex.smooth_count),
        "params": {"x": int, "y": int},
        "defaults": {"x": 100, "y": 5},
    },
    "divisor-interval-count": {
        "needs_spec": False, "fn": _report_experiment(ex.divisor_interval_count),
        "params": {"x": int, "y": float, "z": float},
        "defaults": {"x": 20, "y": 2, "z": 4},
    },
    "shifted-prime-count": {
        "needs_spec": False, "fn": _report_experiment(ex.shifted_prime_count),
        "params": {"x": int, "y": float, "z": float, "lam": int},
        "defaults": {"x": 50, "y": 2, "z": 4, "lam": -1},
    },
    "omega-iz": {
        "needs_spec": True, "fn": _report_experiment(ex.omega_IZ),
        "params": {"n": int, "z3": float, "y2": float},
        "defaults": {"z3": 2, "y2": 10**6},
        "budget": "factor_timeout_s",
    },
    "counterexample-density": {
        "needs_spec": "preset", "fn": ex.counterexample_density,
        "params": {"x": int},
        "defaults": {"x": 1000},
        "budget": "term_digits",
    },
}


def cmd_verify(args, cfg):
    name = args.experiment
    if name not in EXPERIMENTS:
        raise InputError(f"unknown experiment {name!r}; "
                         f"choose from {sorted(EXPERIMENTS)}")
    entry = EXPERIMENTS[name]
    params = dict(entry["defaults"])
    for kv in args.param:
        if "=" not in kv:
            raise InputError(f"--param wants K=V, got {kv!r}")
        key, _, raw = kv.partition("=")
        if key not in entry["params"]:
            raise InputError(f"experiment {name} has no parameter {key!r}; "
                             f"valid: {sorted(entry['params'])}")
        try:
            params[key] = entry["params"][key](raw)
        except ValueError:
            raise InputError(f"parameter {key} must be {entry['params'][key].__name__}")
    missing = {k for k in entry["params"] if params.get(k) is None}
    if missing:
        raise InputError(f"experiment {name} needs --param for {sorted(missing)}")

    kwargs = dict(params)
    if entry["needs_spec"] == "preset":
        spec, preset = _resolve_spec(args, cfg)
        if preset is None:
            raise InputError("counterexample-density needs --preset")
        kwargs = {"preset_name": preset, "spec": spec, **kwargs}
    elif entry["needs_spec"]:
        spec, _ = _resolve_spec(args, cfg)
        kwargs = {"spec": spec, **kwargs}
    if "budget" in entry:
        budgets = {"term_digits": args.term_digits,
                   "factor_timeout_s": args.factor_timeout}
        kwargs[entry["budget"]] = budgets[entry["budget"]]

    report = entry["fn"](**kwargs)
    report.name = name
    print(json.dumps(report.to_json_dict(), indent=2))
    status = "pass" if report.passed else "FAIL"
    summary_bits = ", ".join(f"{label}={value}" for label, value in report.observations[:4])
    print(f"{name}: {status} ({summary_bits}; "
          f"{len(report.violations)} violations)", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_constants(args, cfg):
    values = solve_exponents()
    for key in ("delta", "kappa", "lambda", "exponent"):
        print(f"{key} = {values[key]:.7g}")
    return EXIT_OK


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        _check_budgets(args)
        return args.fn(args, cfg)
    except (InputError, ValueError, KeyError, TypeError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TermBudgetError, ScanBudgetError, ex.CountBudgetError,
            FactorTimeout) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except BrokenPipeError:
        # the reader went away (`| head`): stop quietly, with stdout on
        # devnull so that its flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
