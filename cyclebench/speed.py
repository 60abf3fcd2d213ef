"""The machine's current speed, for scaling times measured on a shared host.

Wall times on the shared 2-vCPU machine where this benchmark was written
drift by 10-40 % over minutes with the host's load, and both vCPUs drift
together.  ``probe()`` times a fixed piece of interpreter work.  A time t
measured next to probes p is reported as t * (REFERENCE_S / mean(p)) ** k,
its value at the speed where one probe takes REFERENCE_S.  The exponent k
is how strongly the work follows the probe; ``workloads.SENSITIVITY``
holds it per workload.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 0.001
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Seconds for a fixed mix of the interpreter work the CLI does: integer
    bit loops, list and dict building, string formatting.  The garbage
    collector is held off meanwhile, so that a collection of whatever the
    process holds does not land in the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(250):
            m = (i * 2654435761) & 0xFFFFFFFF
            bits = []
            while m:
                low = m & -m
                bits.append(low.bit_length())
                m ^= low
            key = f"{i}:{len(bits)}"
            table[key] = tuple(bits)
            table.get(key)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, probes, k: float = 1.0) -> float:
    return seconds * (REFERENCE_S * len(probes) / sum(probes)) ** k


def scaled(marks, k: float) -> float:
    """Time between the first and the last probe, without probe time, scaled
    stretch by stretch by the probes on either side."""
    return sum(scale(s1 - e0, (e0 - s0, e1 - s1), k)
               for (s0, e0), (s1, e1) in zip(marks, marks[1:]))


class SpeedProbes:
    """Probes taken every PROBE_EVERY_S by a timer signal while a batch runs.

    The handler runs between bytecodes of whatever the batch is doing; it
    records (start, end) of each probe so that probe time can be left out
    of the batch's times and the work between two probes scaled by them.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def take(self, *_signal_args) -> None:
        start = time.perf_counter()
        probe()
        self.marks.append((start, time.perf_counter()))

    def __enter__(self):
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def within(self, start: float, end: float) -> float:
        """Probe seconds inside [start, end]."""
        return sum(e - s for s, e in self.marks if start <= s and e <= end)
