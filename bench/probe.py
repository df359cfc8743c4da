"""Machine-speed probe: a fixed reference computation, timed on a timer all
through a run, so that the workload's time can be rescaled to one speed.

On a shared 2-vCPU VM the same code ran up to 1.7x slower for stretches of
seconds to minutes, with user time equal to wall time (no stolen time the
process could subtract).  Ten 30-second census runs then spread by 0.38
(IQR / median) in wall time, over the 0.25 a run-time bound can be.  The
slowdown hits the reference and the workload alike: sampled every 0.25 s
from inside the workload, it took that spread down to 0.04 on the same
machine, where a reference timed only between tasks managed 0.13.

The reference runs in the workload's own main thread from a SIGALRM handler,
so it samples the machine during every task, long ones included, and needs
no second CPU.  It is benchmark code only (Fraction and small numpy
arithmetic), so no change to the program can make it faster; the garbage
collector is off while it runs, so that objects the program keeps alive do
not slow it either.  The time the handler takes is measured and taken out of
the task times.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction
from typing import List

import numpy as np

PERIOD_S = 0.25
# Reference time of the nominal machine: run_s is the batch's wall time
# scaled by REFERENCE_S / (mean probe time during the batch), i.e. seconds on
# a machine where `reference()` takes this long (7-10 ms on a shared 2-vCPU VM).
REFERENCE_S = 0.008


def reference() -> None:
    """Exact-rational Laurent-style products and a small float solve loop,
    the two kinds of work the workloads do in Python."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in a.items():
            out[i + k, j - l] = out.get((i + k, j - l), 0) + x * y
    m = np.eye(3) * 3.0 + 1.0
    v = np.ones(3)
    for _ in range(100):
        v = np.linalg.solve(m, v) + 0.5


class SpeedProbe:
    """Context manager: while active, times `reference()` every PERIOD_S.
    `samples` are the reference times; `spent` is their sum, the time the
    probe took away from whatever it interrupted."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            reference()
        finally:
            elapsed = time.perf_counter() - t0
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        """perf_counter less the time the probe has taken so far."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
