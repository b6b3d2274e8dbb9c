"""Run the ternary-squares CLI untraced, recording when `main` is entered
and the process's peak resident memory.

Usage: python3 launch.py STAMP_FILE ARG...

ARG... go to `cli.main` unchanged. STAMP_FILE receives two numbers:
`time.monotonic()` once `ternary_squares.cli` is imported, and, when the
command ends, the peak resident set in KiB. The peak is read from this
process's own VmHWM: the max-RSS that wait4 reports for a child can
include the parent's memory when the child was started by vfork.
"""

import sys
import time

from ternary_squares import cli


def peak_rss_kb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="ascii") as fh:
        fh.write(repr(time.monotonic()))
    try:
        code = cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "a", encoding="ascii") as fh:
            fh.write(f" {peak_rss_kb()}")
    sys.exit(code)
