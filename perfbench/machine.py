"""Machine speed calibration and the machine record noted in every result.

On the 2-core machine this benchmark was written on, Python's speed changes
by a factor of up to about 1.7, many times a second and in phases that last
seconds.  CPU time changes with wall time, so this is not scheduler noise
that CPU time would hide.  Every timed step is therefore bracketed by
``calibrate()``, a fixed stdlib-only loop.  The headline timings are wall
time divided by the mean of the two calibration times around the step, in
calibration units, ``cu``.

The loop does not track the speed of starting a process: set-up times
divided by it spread as much as raw ones.  Set-up times are instead divided
by the time of a reference start, ``reference_start_s()``, taken just
before, and given in seconds at a fixed reference speed.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

CALIBRATION_ITERATIONS = 40_000
# A fresh interpreter that imports a fixed set of standard-library modules:
# start-up work of the same kind as a benchmark set-up (process start,
# reading and running compiled modules) that no change to dualbench moves.
REFERENCE_START = ("-c", "import argparse, dataclasses, decimal, email.message, fractions, "
                   "hashlib, http.client, json, random, statistics, typing, unittest")
# Its wall time at the reference speed, a typical value on the machine the
# benchmark was written on.
REFERENCE_START_S = 0.15


def calibrate(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Wall seconds for a fixed stdlib-only loop, about 30 ms on the machine
    the benchmark was written on.

    It has two parts.  One is a tight loop of small-int arithmetic and list
    and dict updates.  The other builds and probes a large set, dict and
    list.  The machine's slow phases slowed the tight part more than they
    slowed dualbench's allocation-heavy code.  Dividing by the sum of both
    parts gave the lowest step-to-step spread on all four workloads,
    against either part alone.  The loop touches no dualbench code, so a
    later change to the program cannot move it.
    """
    start = time.perf_counter()
    x = 0x9E3779B9
    acc = 0
    table = [0] * 1024
    seen = {}
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] += (x >> 7) ^ i
        acc ^= table[(x >> 10) & 1023] + (x & i).bit_count()
        seen[x & 255] = i
    members = frozenset((i * 40503) & 65535 for i in range(30000))
    counts = dict.fromkeys(range(0, 40000, 3), 0)
    acc += sum(1 for w in range(0, 65536, 7) if w in members)
    acc += sum([i & 7 for i in range(40000)]) + len(counts)
    if acc == -1 or len(seen) > 256:  # keep the loop's results live
        raise RuntimeError("calibration loop miscomputed")
    return time.perf_counter() - start


def reference_start_s() -> float:
    """Wall seconds to start, run and end the reference interpreter."""
    start = time.perf_counter()
    # no timeout: with one, the wait polls with sleeps of up to 50 ms
    subprocess.run([sys.executable, *REFERENCE_START], stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record() -> dict:
    """nproc, Python version, CPU model and load average, read without writing."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    load = _read("/proc/loadavg").split()[:3]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cpu_model": model or platform.processor(),
        "loadavg_start": [float(x) for x in load],
    }
