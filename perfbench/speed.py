"""Latencies at a reference CPU speed, for measuring on a shared machine.

Other tenants of a shared machine change the speed of its CPUs by 20% and
more over periods of seconds, which is as long as a whole run of a short
benchmark. The sampler times a fixed pure-Python loop at least every
EVERY_S of wall time, and a request's latency is multiplied by CAL_REF_S
over the median loop time of the samples within WINDOW_S of the request.
Set-up times are scaled the same way.

An interval timer also raises SIGALRM in the middle of a request; the
handler runs the loop in the main thread between bytecodes, so the loop and
the program never run at once, and the handler's time is taken out of the
request it interrupted. While the process has children (the worker
processes of verify with ``--jobs``, a set-up's interpreter), the handler
takes no sample: a loop
run while the workers hold the CPUs would measure the program's own load,
not the machine's speed, and credit the program for it. Children are read
from /proc; where it cannot be read, samples are taken only between
requests.

A sample is the median of as many loop timings as fill SHARE of the wall
time since the previous sample, at least one, so the long gaps around a
request that took seconds are bridged by longer samples.

CAL_REF_S is the median loop time on the machine the baseline was measured
on (see README.md) when it is quiet; there and then scaled and unscaled
figures agree on average. Every run also prints its unscaled figures.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

CAL_ITERS = 20_000
CAL_REF_S = 1.2e-3
EVERY_S = 0.2
WINDOW_S = 0.5  # samples this close to a request's ends also count for it
SHARE = 0.01


def calibration_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for k in range(CAL_ITERS):
        acc += k * k
    return time.perf_counter() - t0


def has_children() -> bool:
    """Whether this process has child processes; True when /proc cannot tell."""

    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as f:
                if f.read().strip():
                    return True
    except OSError:
        return True
    return False


class SpeedSampler:
    """CPU-speed samples of one run; start() and stop() bracket the measured loop."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter time of each sample
        self.loop_s: list[float] = []
        self.spent = 0.0  # seconds spent taking samples

    def _sample(self) -> None:
        t0 = time.perf_counter()
        gap = t0 - self.at[-1] if self.at else EVERY_S
        loops = max(1, round(SHARE * gap / CAL_REF_S))
        self.loop_s.append(statistics.median(calibration_loop() for _ in range(loops)))
        t1 = time.perf_counter()
        self.at.append(t1)
        self.spent += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        if not has_children():
            self._sample()

    def between(self) -> None:
        """Called between requests: sample if EVERY_S has passed since the last sample."""

        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self._sample()

    def start(self) -> None:
        self.between()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Factor taking a latency measured over [t0, t1] to the reference speed."""

        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        window = self.loop_s[lo:hi] or self.loop_s
        return CAL_REF_S / statistics.median(window)
