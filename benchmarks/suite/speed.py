"""Host-speed sampling, so timings read at one reference speed.

A shared 2-vCPU sandbox does not run at a steady speed: for stretches of
a fraction of a second to half a minute, outside load makes the same
Python work take up to twice as long.  CPU time does not help (the
process is on-CPU throughout), and a median over a run's repeats does
not either when a slow stretch outlasts half the run.

:class:`Speedometer` therefore samples the host's speed *during* the
measured work: every :data:`PERIOD_S` a ``SIGALRM`` handler times
:func:`probe`, a fixed pure-Python loop (dict, heap and integer work,
like the serving stack's own), and records when it ran and how long it
took.  :meth:`Speedometer.seconds` converts a wall interval into
reference seconds: each stretch between samples is scaled by
``PROBE_REFERENCE_NS / probe time`` around it (a median over
neighbouring samples, so one interrupted probe does not count), and the
probes' own time is left out.  In a slow stretch the probe slows with
the work and the scale factor cancels it.  Raw wall seconds are
reported next to every reference figure.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

__all__ = ["PERIOD_S", "PROBE_REFERENCE_NS", "Speedometer", "probe"]

#: A fixed probe time, a little above :func:`probe`'s uncontended
#: duration during a replay on a 2-vCPU x86 sandbox with CPython 3.11
#: (255-270 us).  A constant, so a reference second means the same
#: amount of work on every run and commit.
PROBE_REFERENCE_NS = 300_000
#: Seconds between probes; a probe takes about 1.5% of that.
PERIOD_S = 0.02
#: Samples on each side of a stretch whose median probe time scales it.
_SMOOTH = 2


def probe() -> int:
    """Nanoseconds for a fixed pure-Python dict/heap/integer loop."""
    state = 12345
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    total = 0
    started = time.perf_counter_ns()
    for i in range(400):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        table[i] = state
        heapq.heappush(heap, (state % 1000, i))
        if len(heap) > 32:
            _, key = heapq.heappop(heap)
            total += table.pop(key)
    return time.perf_counter_ns() - started


class Speedometer:
    """Samples :func:`probe` on a timer signal while active.

    Use as a context manager around the measured work; :meth:`pause`
    stops sampling for stretches that must run unperturbed (traced
    replays).  Sample ``i`` ended at ``ends[i]`` and took
    ``durations[i]`` nanoseconds.
    """

    def __init__(self) -> None:
        self.ends: list[int] = []
        self.durations: list[int] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        duration = probe()
        self.ends.append(time.perf_counter_ns())
        self.durations.append(duration)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.resume()
        return self

    def __exit__(self, *exc_info) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _factor(self, index: int) -> float:
        """Reference/measured speed for the stretch ending at sample
        ``index`` (clamped to the samples taken)."""
        index = min(max(index, 0), len(self.durations) - 1)
        window = self.durations[
            max(index - _SMOOTH, 0):index + _SMOOTH + 1
        ]
        return PROBE_REFERENCE_NS / statistics.median(window)

    def seconds(self, start_ns: int, end_ns: int) -> float:
        """Reference seconds of work in the wall interval, probes excluded.

        With no sample at all the interval is returned unscaled.
        """
        if not self.durations:
            return (end_ns - start_ns) / 1e9
        total = 0.0
        cursor = start_ns
        index = bisect.bisect_right(self.ends, start_ns)
        while index < len(self.ends) and self.ends[index] <= end_ns:
            probe_start = self.ends[index] - self.durations[index]
            total += max(probe_start - cursor, 0) * self._factor(index)
            cursor = self.ends[index]
            index += 1
        total += (end_ns - cursor) * self._factor(index)
        return total / 1e9

    def probe_ns(self, start_ns: int, end_ns: int) -> int:
        """Wall time spent in probes inside the interval."""
        low = bisect.bisect_right(self.ends, start_ns)
        high = bisect.bisect_right(self.ends, end_ns)
        return sum(self.durations[low:high])
