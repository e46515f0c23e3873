"""Host-speed sampling, so that timings from a shared host can be compared.

The machines this benchmark runs on are slices of shared hosts, whose speed
drifts by tens of percent from one minute to the next.  ``HostSpeed`` runs a
fixed probe kernel of pure Python (no library code) every ``PERIOD_S``
seconds of the pass, from a SIGALRM handler in the main thread, and at both
ends of it.  It keeps

* ``paused``: the wall time spent in probes so far; ``clock()`` is wall time
  with it taken out, so intervals read on it exclude the probes,
* ``paused_cpu``: the CPU time spent in probes so far; ``cpu_clock()`` is the
  process's CPU time with it taken out, and
* ``scale``: ``NOMINAL_PROBE_S`` divided by the mean thread CPU time of a
  probe since ``start``, i.e. how much faster a host of nominal speed would
  have run the probes than this one did.

A time multiplied by ``scale`` is the time the same work takes on a host where
one probe takes ``NOMINAL_PROBE_S``.  The probes are sampled over the same
interval as the work they normalise, so a slow spell of the host slows both.
Thread CPU time is used for a probe because in a pass with worker threads the
probe may wait for the interpreter lock, which is not host speed.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
NOMINAL_PROBE_S = 0.004  # one probe on an idle Xeon core at 2 GHz, Python 3.11
END_PROBES = 5


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def value(self, x):
        return self.a * x + self.b


def probe_kernel() -> int:
    """A fixed mix of object creation, small-tuple sorting and hashing, dict
    updates and a list sort, the kinds of work the library spends its time on."""
    seen: dict[tuple, int] = {}
    for i in range(2000):
        item = _Item(i, i + 1)
        key = tuple(sorted((i % 7, i % 5, i % 3, i % 11)))
        seen[key] = seen.get(key, 0) + item.value(3)
    values = [(i * 7919) % 10007 for i in range(2000)]
    values.sort()
    return len(seen) + values[-1]


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self.paused_cpu = 0.0
        for _ in range(3):  # warm the interpreter's caches for the kernel
            self._probe()

    def clock(self) -> float:
        """Wall seconds with the time spent in probes taken out."""
        return time.perf_counter() - self.paused

    def cpu_clock(self) -> float:
        """CPU seconds of the process, all threads, with the probes taken out."""
        return time.process_time() - self.paused_cpu

    def _probe(self, *_signal_args) -> None:
        began = time.perf_counter()
        cpu = time.thread_time()
        probe_kernel()
        spent = time.thread_time() - cpu
        self.samples.append(spent)
        self.paused_cpu += spent
        self.paused += time.perf_counter() - began

    def start(self) -> None:
        """Begin a new interval: probe now and every ``PERIOD_S`` seconds."""
        self.samples = []
        for _ in range(END_PROBES):
            self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(END_PROBES):
            self._probe()

    @property
    def scale(self) -> float:
        """Nominal over measured probe time, for the interval since ``start``."""
        return NOMINAL_PROBE_S * len(self.samples) / sum(self.samples)
