"""The reference clock: a fixed pure-Python loop that shares one CPU with
the benchmarked commands and counts how much work that CPU did meanwhile.

Usage: python3 refclock.py

It writes a newline to standard output once the first tick is done and
repeats `tick()` until it receives SIGTERM, or until the process that
started it has exited, so that it never outlives a killed run. Then it
writes the `time.monotonic()` at the end of every tick to standard
output as doubles in the machine's byte order and exits.

On a shared host the speed of a CPU drifts by 20-40% over seconds and
minutes, and elapsed times drift with it. run.py pins itself, this loop
and every command it starts to one CPU, where the scheduler gives the
loop and the command equal turns of a few ms. Counted in ticks of the
loop, a command's duration moves with the work it does but hardly with
the speed of the host; see `RefClock` in run.py.
"""

import array
import os
import signal
import sys
import time

M61 = (1 << 61) - 1
M127 = (1 << 127) - 1


def tick():
    """About 2 ms of interpreter work of the program's kind: small-int
    arithmetic, modular powers, a dict and big-int products."""
    s = 0
    seen = {}
    for i in range(1, 450):
        s += pow(i, 65537, M61) % 1009
        seen[i & 31] = s
    x = 3
    for _ in range(150):
        x = x * x % M127
    return s + x + len(seen)


def main():
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    tick()
    stamps = array.array("d", [time.monotonic()])
    # ticking: the caller may start timing
    sys.stdout.buffer.write(b"\n")
    sys.stdout.buffer.flush()
    clock = time.monotonic
    while not stop and os.getppid() == parent:
        tick()
        stamps.append(clock())
    sys.stdout.buffer.write(stamps.tobytes())
    sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
