"""Reference-normalized timing.

The machines this benchmark runs on share their cores with other tenants.
Their speed drifts by tens of percent over seconds and minutes, for every
process alike: CPU time inflates as much as wall time, so neither can be
compared across runs as it stands.  So each measured process runs a fixed
pure-Python reference kernel from a SIGALRM timer every SAMPLE_EVERY
seconds, and every timed interval is rescaled by the speed the kernel saw
around it:

    normalized = sum over the work between samples of
                 gap * REFERENCE_S / (median of the nearest reference times)

The kernel's own time is left out of every interval.  REFERENCE_S is the
kernel's best time in a tight loop on an uncontended core of the 2-core
Xeon (2.1 GHz, Python 3.11) the benchmark was defined on.

The scale depends on the program as well as on the machine.  In place,
right after clanhess's work, the kernel runs slower than in its own loop,
because clanhess leaves the caches and the heap in its own state; a change
that disturbs the kernel less speeds it up and so hides part of its own
gain, and one that disturbs it more hides part of its cost.  Every
PAIR_EVERY-th sample therefore reruns the kernel at once, warm, and the
ratio of the in-place time to the warm one is reported.  At the seed
commit it was 1.00 to 1.10 per run.  A change that wrote a 4 MB buffer
before each W-set call raised it by about 0.01, and wall_s read 29% slower
against 31% when normalized by the warm reruns; README.md gives the
figures.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

clock = time.perf_counter

REFERENCE_S = 0.000084  # the kernel on an uncontended core
SAMPLE_EVERY = 0.002  # seconds between reference samples
NEAREST = 4  # samples whose median scales one stretch of work
PAIR_EVERY = 8  # every 8th sample runs the kernel a second time, warm


def reference_kernel():
    """Fixed work of the kinds clanhess does: tuple slicing and building,
    small sorts, dict traffic and integer bit operations."""
    table: dict = {}
    word = (3, 1, 4, 2, 6, 5, 8, 7)
    mask = 0
    for i in range(100):
        word = word[1:] + word[:1]
        key = tuple(sorted(word[:4]))
        table[key] = table.get(key, 0) + 1
        mask |= 1 << (i % 61)
        mask &= ~(1 << ((i * 7) % 61))
    return len(table), mask


class Sampler:
    """Reference samples (start, seconds, end) taken in this process."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.ends: list[float] = []  # later than start + seconds after a warm rerun
        self.ratios: list[float] = []  # in-place over warm kernel time
        self.started = 0.0
        self.busy = False

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = clock()
            reference_kernel()
            t1 = clock()
            if len(self.starts) % PAIR_EVERY == 0:
                reference_kernel()
                self.ratios.append((t1 - t0) / (clock() - t1))
            self.starts.append(t0)
            self.seconds.append(t1 - t0)
            self.ends.append(clock())

    def _on_alarm(self, signum, frame) -> None:
        # a late alarm can land inside this handler; nesting would leave
        # the samples out of time order
        if not self.busy:
            self.busy = True
            self.sample()
            self.busy = False

    def start(self) -> None:
        self.started = clock()
        self.sample(NEAREST // 2)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample(NEAREST // 2)

    def _scale(self, j: int) -> float:
        """REFERENCE_S over the median of the NEAREST samples around index j."""
        lo = max(0, min(j - NEAREST // 2, len(self.seconds) - NEAREST))
        return REFERENCE_S / statistics.median(self.seconds[lo : lo + NEAREST])

    def kernel(self) -> dict[str, float]:
        """The median in-place reference time, to compare with REFERENCE_S,
        and the median ratio of an in-place time to the warm rerun right
        after it, which shows how much the state clanhess leaves behind
        slows the kernel."""
        return {
            "kernel_s": statistics.median(self.seconds),
            "inplace_ratio": statistics.median(self.ratios),
        }

    def edge_scales(self) -> tuple[float, float]:
        """The scales of the first and of the last samples, for the
        stretches before start() and after stop() (process start-up and
        exit), which the parent times."""
        return self._scale(0), self._scale(len(self.seconds))

    def normalize(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] minus the samples inside it, rescaled."""
        i = bisect.bisect_left(self.starts, t0)
        total, at = 0.0, t0
        while i < len(self.starts) and self.starts[i] < t1:
            total += (self.starts[i] - at) * self._scale(i)
            at = self.ends[i]
            i += 1
        return total + max(0.0, t1 - at) * self._scale(i)
