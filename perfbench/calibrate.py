"""Times at one reference speed, so that runs at different moments agree.

A shared host changes the speed of the same Python code by 30% or more, and
not only from one second to the next: on a 2-vCPU Xeon VM a fixed kernel
took 0.31 or 0.55 ms, flipping between the two within one 1 s op.  So the
benchmark rescales every time it gates to the speed at which the kernel
below takes `REFERENCE_MS`:

- Time is the CPU time of the calling thread, which leaves out stretches in
  which it waited for a core.
- While a block is timed, SIGPROF fires every `INTERVAL_S` of CPU time and
  its handler runs the kernel once.  The handler's time is left out of the
  block's.  One sample of the kernel is also taken before and after it.
- The samples fall at equal steps of CPU time, so the block's time at the
  reference speed is its CPU time times the mean of
  REFERENCE_MS / kernel time over them.

A change to linkspace moves the block's time and not the kernel's, so it
moves the rescaled time by the same share.

Only `signal` and `time` are imported here (the interpreter has loaded what
`signal` needs at start-up), so a probe can time `import linkspace` after
importing this module without loading any of linkspace's dependencies first.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns, thread_time_ns

#: Kernel time, in ms, that defines the reference speed: about its time on
#: a 2-vCPU Intel Xeon VM with Python 3.11 in a quiet period.
REFERENCE_MS = 0.6

#: CPU time between two kernel samples inside a timed block.
INTERVAL_S = 0.005

#: Kernel runs per sample outside a block; the sample is their median.
REPEATS = 3

_BARS = (3, 5, 8, 9, 11, 12, 13)


def kernel() -> int:
    """Subset sums, tuples, frozensets, a dict, sorting and formatting: the
    kinds of work linkspace's own layers do, with builtins only."""
    n, total = len(_BARS), sum(_BARS)
    short = {}
    for mask in range(1, 1 << n):
        part = tuple(i for i in range(n) if mask >> i & 1)
        short[frozenset(part)] = 2 * sum(_BARS[i] for i in part) < total
    kept = sorted((len(k), tuple(sorted(k))) for k, v in short.items() if v)
    return len(",".join(f"{size}:{members}" for size, members in kept))


def kernel_ns() -> int:
    """One sample outside a block: the median CPU time of REPEATS kernel
    runs, in ns."""
    times = []
    for _ in range(REPEATS):
        began = thread_time_ns()
        kernel()
        times.append(thread_time_ns() - began)
    return sorted(times)[REPEATS // 2]


def to_reference(cpu_ns: int, samples: list[int]) -> float:
    """`cpu_ns` of CPU time at the reference speed, given the kernel times
    sampled at equal steps of it."""
    return cpu_ns * REFERENCE_MS * 1e6 * sum(1 / k for k in samples) / len(samples)


class Stopwatch:
    """Times calls at the reference speed.  Owns SIGPROF while it lives, and
    must be used from the main thread."""

    def __init__(self) -> None:
        self._last = kernel_ns()  # the sample after the previous call
        self._inside: list[int] = []
        self._handler_ns = 0
        self._busy = False
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that lands in the handler itself
            return
        self._busy = True
        began = thread_time_ns()
        kernel()
        self._inside.append(thread_time_ns() - began)
        self._handler_ns += thread_time_ns() - began
        self._busy = False

    def time(self, fn, *args):
        """(fn(*args), wall-clock ns, ns at the reference speed), with the
        sampling left out of both times."""
        self._inside, self._handler_ns = [], 0
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            wall, cpu = perf_counter_ns(), thread_time_ns()
            result = fn(*args)
            cpu, wall = thread_time_ns() - cpu, perf_counter_ns() - wall
            inside, spent = list(self._inside), self._handler_ns
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        before, self._last = self._last, kernel_ns()
        samples = [before, *inside, self._last]
        return result, wall - spent, to_reference(cpu - spent, samples)
