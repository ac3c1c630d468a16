"""Host-speed yardstick: scales host times to a fixed reference speed.

On a shared host the speed drifts by up to 1.5x in phases that last from a
second to a whole run, and every design slows together.  Running a fixed
pure-Python kernel right before and right after each timed piece of work
measures the speed the work ran at, so its time can be scaled to what it
would have taken at ``REFERENCE_S``.

The kernel is a bytecode-bound integer loop.  Against simulator cells it
tracked the host's slow phases with a log-log slope near 1, where
cache-simulating kernels with small or large working sets slowed down more
than the simulator did and over-corrected.  It uses no code from ``src/``,
so a change to the simulator cannot move it.  Changing the kernel or
``REFERENCE_S`` redefines every host metric of the benchmark.
"""

from __future__ import annotations

import time

#: Median of 651 ``run()`` times over ten benchmark runs on the 2-vCPU
#: Intel Xeon host (2.1 GHz, Python 3.11) the benchmark was tuned on.
REFERENCE_S = 0.035

_OPS = 300_000


def run() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    started = time.perf_counter()
    state = 1
    for step in range(_OPS):
        state = (state * 1103515245 + step) & 0x7FFFFFFF
    elapsed = time.perf_counter() - started
    if state < 0:  # consumes the result so the loop cannot be skipped
        raise RuntimeError("yardstick state went negative")
    return elapsed


class HostSpeed:
    """Yardstick runs bracketing a sequence of timed pieces of work."""

    def __init__(self) -> None:
        self.samples = [run()]

    def scale(self) -> float:
        """Factor taking the work timed since the last call to reference speed.

        Runs the kernel again; the work's speed is the mean of the runs just
        before and just after it.
        """
        self.samples.append(run())
        return 2 * REFERENCE_S / (self.samples[-2] + self.samples[-1])
