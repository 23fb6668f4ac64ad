"""Machine-speed normalization for timings taken on a shared machine.

The benchmark was built on a two-core virtual machine (Intel Xeon) whose
host is shared. Measured there, the same pure-Python loop ran anywhere
from 60 to 147 ms in windows of under a second, with slow phases lasting
tens of seconds, so raw wall times of one job swung by 30% between
consecutive runs of the same inputs.

To take that out, a fixed reference loop, which uses builtins only and none
of the library, is timed in short samples interleaved with the measured
work: every ``PERIOD_S`` a SIGALRM handler runs one sample. The work's wall
time, less the time spent in samples, is then scaled by ``REFERENCE_S`` over
the mean sample time: the result is the time the work would have taken at
the machine speed where one sample takes ``REFERENCE_S``. Both the raw and
the normalized times are reported.

ITIMER_REAL timers are not inherited across fork, so pool workers never
sample; only the process that runs the job does.
"""

from __future__ import annotations

import signal
from time import perf_counter

# One reference sample on the two-core Xeon virtual machine the benchmark
# was built on, in a phase when its host was not slowing it.
REFERENCE_S = 0.00035
PERIOD_S = 0.05
_BASE = tuple(range(1, 13))


def reference(n: int = 400) -> int:
    """Tuple slicing, dict updates and integer arithmetic, like the verifier's
    inner loops. It imports nothing, so it can run before the set-up probe
    imports the library."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = _BASE[i % 7 :] + (i & 15,)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + table[key] * (i % 5)) % 1_000_003
    return acc


def sample() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def calibrate(reps: int = 7) -> float:
    """Median sample time right now."""
    return sorted(sample() for _ in range(reps))[reps // 2]


class Sampler:
    """Samples the reference loop every ``PERIOD_S`` while the block runs.

    The handler stays installed after the block, so an alarm already in
    flight when the timer stops lands in a discarded list instead of
    reaching the default action.
    """

    def _handler(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.taken = tuple(self.samples)
        self.samples = []
        return False

    def normalized(self) -> float:
        """Wall time less the samples, at the reference speed."""
        taken = self.taken or (sample(),)
        mean = sum(taken) / len(taken)
        return (self.wall - sum(self.taken)) * REFERENCE_S / mean
