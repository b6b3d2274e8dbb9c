"""The benchmark's workloads: a seed and a size give the CLI commands of
one iteration. The program receives only the generated arguments.

Seed 0 runs the named inputs: the `tribonacci` preset, and `pow2-plus-n`
on exact-tier; they are the first entry of each list below. Any other
seed takes one of the other entries, so every input the benchmark can
run has a reference output (see record_references.py). The lists hold only
inputs whose cost is within a few percent of seed 0's, so that spread
across seeds measures the machine, not the input:

- SWEEP_SPECS: irreducible, non-degenerate cubics with coefficients in
  [-2, 2] and a3 = +-1, with three starting terms each, whose sweeps pass
  and whose `primes` and `char-sum-sweep` call counts are within 3% of
  tribonacci's.
- SIEVE_SPECS: such cubics with small starting terms whose sieve-tier
  call count (cProfile) is within 0.6% of tribonacci's, so
  `qr_obstruction` tries about as many primes per index.
- EXACT_WINDOWS: (sequence, x) windows of the exact tier whose summed
  per-index time is close to tribonacci's at x = 142, and in which every
  index takes well under a second, far below the factor budget.
"""

import json
from dataclasses import dataclass

TRIBONACCI = (1, 1, 1, 0, 0, 1)
POW2_PLUS_N = (4, -5, 2, 1, 3, 6)
PRESET_NAMES = {TRIBONACCI: "tribonacci", POW2_PLUS_N: "pow2-plus-n"}
SPEC_KEYS = ("a1", "a2", "a3", "u0", "u1", "u2")

WORKLOADS = ("sieve-tier", "exact-tier", "prime-sweeps")
FACTOR_TIMEOUT_S = 60

# (a1, a2, a3, u0, u1, u2)
SIEVE_SPECS = [
    TRIBONACCI,
    (0, 1, 1, 0, 0, 1), (-1, 0, 1, 0, 0, 1), (1, -2, 1, 0, 0, 1),
    (-1, -1, 1, 0, 0, 1), (0, -2, 1, 0, 0, 1), (2, 0, 1, 0, 0, 1),
    (2, -1, 1, 0, 0, 1), (2, 2, 1, 1, 2, 3), (2, -1, 1, 1, 2, 3),
    (-1, -1, 1, 1, 2, 3), (0, -1, 1, 0, 0, 1),
]
SWEEP_SPECS = [
    TRIBONACCI,
    (1, -1, -1, 0, 0, 1), (-1, -1, 1, 0, 0, 1), (-1, 1, -1, 0, 0, 1),
    (1, 1, 1, 1, 2, 3), (1, -1, -1, 1, 2, 3), (-1, -1, 1, 1, 2, 3),
    (-1, 1, -1, 1, 2, 3), (1, 1, 1, 2, 0, 1), (1, -1, -1, 2, 0, 1),
    (-1, -1, 1, 2, 0, 1), (-1, 1, -1, 2, 0, 1),
]
# ((a1, a2, a3, u0, u1, u2), x) for the Cornacchia-heavy command; the
# pow2-plus-n command takes its x from POW2_WINDOWS
EXACT_WINDOWS = [
    (TRIBONACCI, 142),
    ((1, 1, 1, 0, 0, 3), 140), ((1, 1, 1, 1, 1, 3), 119),
    ((1, 1, 1, 3, 3, 3), 143), ((1, 1, 1, 3, 2, 1), 149),
    ((1, 1, 1, 0, 3, 1), 124),
]
# pow2-plus-n costs the same for every x in [97, 136]: index 97 is its
# only slow index below 137
POW2_WINDOWS = [130, 100, 104, 108, 112, 116, 120, 124, 128, 133, 136]

SIZES = {
    # full: 1.5-3 s per iteration on a 2-vCPU x86_64 machine
    "full": {"sieve_x": 30000, "primes_max": 20000, "lemma5_p_max": 5000,
             "char_sum_p_max": 250, "z_density_x": 150000},
    # tiny: for the benchmark's own tests
    "tiny": {"sieve_x": 300, "primes_max": 300, "lemma5_p_max": 400,
             "char_sum_p_max": 40, "z_density_x": 3000,
             "exact_x": 40, "pow2_x": 40},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `params` are the subcommand's own values."""
    kind: str                 # "count", "primes" or "verify"
    spec: tuple               # (a1, a2, a3, u0, u1, u2)
    params: tuple             # ((name, value), ...)
    experiment: str = None    # for "verify"

    @property
    def values(self):
        return dict(self.params)

    def argv(self, output=None):
        """CLI arguments; `output` is the CSV path for count and primes."""
        preset = PRESET_NAMES.get(self.spec)
        if preset:
            sequence = ["--preset", preset]
        else:
            sequence = ["--spec", json.dumps(dict(zip(SPEC_KEYS, self.spec)),
                                             separators=(",", ":"))]
        v = self.values
        if self.kind == "count":
            args = ["count", *sequence, "--x", str(v["x"]),
                    "--n-exact", str(v["n_exact"])]
            if v["n_exact"]:
                args += ["--factor-timeout", str(FACTOR_TIMEOUT_S)]
        elif self.kind == "primes":
            args = ["primes", *sequence, "--max", str(v["max"])]
        else:
            args = ["verify", self.experiment, *sequence]
            for k, val in self.params:
                args += ["--param", f"{k}={val}"]
        args += ["--threads", "1"]
        if output is not None and self.kind != "verify":
            args += ["--output", str(output)]
        return args

    @property
    def key(self):
        """The reference key: the arguments without the output path."""
        return " ".join(self.argv())


def _pick(items, seed):
    """items[0] for seed 0, else one of the other items."""
    if seed == 0 or len(items) == 1:
        return items[0]
    return items[1 + (seed - 1) % (len(items) - 1)]


def build(workload, seed, size="full"):
    """The commands of one iteration of `workload`."""
    s = SIZES[size]
    if workload == "sieve-tier":
        spec = _pick(SIEVE_SPECS, seed)
        return [Command("count", spec, (("x", s["sieve_x"]), ("n_exact", 0)))]
    if workload == "exact-tier":
        spec, x = _pick(EXACT_WINDOWS, seed)
        pow2_x = _pick(POW2_WINDOWS, seed)
        if size != "full":
            x, pow2_x = s["exact_x"], s["pow2_x"]
        return [Command("count", spec, (("x", x), ("n_exact", x))),
                Command("count", POW2_PLUS_N,
                        (("x", pow2_x), ("n_exact", pow2_x)))]
    if workload == "prime-sweeps":
        spec = _pick(SWEEP_SPECS, seed)
        return [
            Command("primes", spec, (("max", s["primes_max"]),)),
            Command("verify", spec, (("p_max", s["lemma5_p_max"]),),
                    "lemma5-sweep"),
            Command("verify", spec, (("p_max", s["char_sum_p_max"]),),
                    "char-sum-sweep"),
            Command("verify", spec, (("x", s["z_density_x"]),), "z-density"),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
