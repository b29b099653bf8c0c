"""Host speed, read continuously beside a workload.

Other tenants of the shared host slow every process here by up to half,
for seconds to minutes at a time, and a run's wall times move with
them by a fifth.  So each workload process starts this module as a
sampler process: every :data:`PERIOD_S` it pins itself to the next CPU
and times a fixed pure-Python loop in thread CPU time.  CPU time leaves
out the time the sampler waits for a CPU, so the workload's own load
does not enter a reading, while a core slowed by other tenants does.
The sampler prints its readings as JSON when its stdin closes.

A measured interval is then reported at a fixed host speed.  The
readings cut it into pieces; each piece counts its wall time times
:data:`REFERENCE_S` over the median of the :data:`MIN_READINGS`
readings nearest it, and the pieces add up.  A change to the program
still shows in full; the host's speed mostly does not.

The sampler costs about 1% of one CPU.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

#: seconds between readings
PERIOD_S = 0.1
#: iterations of the timed loop
LOOPS = 20_000
#: about the loop's CPU time on a 2.1 GHz Xeon core in a quiet stretch
#: of the host: every time is reported at the host speed where a
#: reading is this long
REFERENCE_S = 0.0012
#: each piece of an interval is scaled by this many readings around it
MIN_READINGS = 5


def _loop() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return total


class HostClock:
    """The sampler process, and the scaling of intervals by its
    readings.  ``stop`` it before scaling; it always waits for the
    process to end."""

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None
        #: ``(perf_counter at the end, CPU seconds)`` per reading
        self.readings: List[Tuple[float, float]] = []

    def start(self) -> "HostClock":
        # -I: no site hooks, so a traced run does not trace the sampler
        self.proc = subprocess.Popen(
            [sys.executable, "-I", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            stdout, _ = self.proc.communicate(b"", timeout=10.0)
            self.readings = [tuple(r) for r in json.loads(stdout)]
        except (subprocess.TimeoutExpired, ValueError):
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def slowdown(self) -> float:
        """The median reading over :data:`REFERENCE_S`: about how many
        times longer the run's wall times are than the reported ones."""
        if not self.readings:
            return 0.0
        return statistics.median(cpu for _, cpu in self.readings) \
            / REFERENCE_S

    def seconds(self, t0: float, t1: float) -> float:
        """Wall time from ``t0`` to ``t1`` at the reference speed."""
        times = [t for t, _ in self.readings]
        if not times:
            raise RuntimeError("the host clock took no readings")
        cuts = [t0] + times[bisect.bisect_right(times, t0):
                            bisect.bisect_left(times, t1)] + [t1]
        return sum((b - a) * REFERENCE_S / self._reading(times, a, b)
                   for a, b in zip(cuts, cuts[1:]))

    def _reading(self, times: List[float], t0: float, t1: float) -> float:
        """The median of the readings in ``[t0, t1]``, widened to the
        :data:`MIN_READINGS` nearest."""
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while hi - lo < MIN_READINGS and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0
                                    and t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return statistics.median(cpu for _, cpu in self.readings[lo:hi])


def main() -> int:
    done = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.buffer.read()
        done.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    cpus = sorted(os.sched_getaffinity(0))
    readings = []
    while not done.wait(PERIOD_S):
        os.sched_setaffinity(0, {cpus[len(readings) % len(cpus)]})
        t0 = time.thread_time()
        _loop()
        readings.append((time.perf_counter(), time.thread_time() - t0))
    json.dump(readings, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
