"""Host speed, sampled through a fixed reference task, to scale timings by.

The benchmark runs on shared machines whose speed drifts: on the host that
defined the benchmark (2 vCPUs at 2.1 GHz, Python 3.11) a fixed pure-Python
task took 0.85-1.8x its median time from one 0.14 s stretch to the next,
in bursts of a second or two, and process CPU time moved with it.  While a
run measures, an interval timer interrupts it every ``INTERVAL`` seconds and
times a small pure-Python task that does not touch the package, inside the
calls being measured as well as between them.  Each call's time, less the
time those samples took, is then multiplied by ``REF_SECONDS`` over the
median sample time from ``PAD`` seconds before the call to ``PAD`` seconds
after it.  A change to the package cannot move the reference task, only
the host can, so the scaled times keep every difference between two
versions of the code and lose most of the host's drift, including drift
inside a call of a second or more.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# median reference time, taken on the timer, on the host that defined the
# benchmark, so that scaled times read as seconds on that host
REF_SECONDS = 1.3e-3
# seconds between samples: a sample costs about REF_SECONDS, so 3% of a run
INTERVAL = 0.04
# a call is scaled by the samples taken during it and this long around it,
# which holds at least five for the shortest call
PAD = 0.1

_WORDS = [f"id{i}" for i in range(400)]


def reference_task() -> int:
    """Dict, frozenset and string work of the kind the package does."""
    acc = 0
    for r in range(6):
        table = {}
        for w in _WORDS:
            table[w] = frozenset(_WORDS[: (len(w) + r) % 7 + 1])
        acc += sum(len(v) for v in table.values())
    return acc


class Speed:
    """Timestamped reference samples of one run, taken on a timer signal."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_task()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, seconds: float) -> float:
        """A time taken over ``start..start+seconds`` at reference speed."""
        end = start + seconds
        inside = self.took[bisect_left(self.at, start):bisect_right(self.at, end)]
        near = self.took[bisect_left(self.at, start - PAD):bisect_right(self.at, end + PAD)]
        return (seconds - sum(inside)) * REF_SECONDS / statistics.median(near or self.took)

    def scaled(self, result) -> float:
        """A result's time at reference speed."""
        return self.scale(result.start, result.seconds)

    def median_factor(self) -> float:
        return REF_SECONDS / statistics.median(self.took)
