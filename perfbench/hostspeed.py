"""How fast the host runs Python while a pass runs, from a calibration kernel.

On a shared host the CPU time of one pass swings by up to 50 % with the
load of its neighbours (hyper-thread siblings, shared caches), which
switches the host between a fast and a slow state every few hundred
milliseconds and drifts over minutes.  :class:`SpeedProbe` samples that
state while a pass runs: a ``SIGALRM`` handler, which Python runs in the
main thread between two bytecodes of the pass, times one short burst of
a fixed kernel every :data:`PERIOD_S` seconds.  The kernel mixes the
operations the simulator spends its time on (heap pushes and pops of
tuples, dict look-ups, attribute reads and method calls) and imports
nothing from the program, so a change to the program never changes it.

A pass's CPU time, minus the bursts', times ``REFERENCE_S / mean burst
time`` reads as CPU seconds on a quiet host; a slower program still
reads proportionally slower.  On a two-vCPU host whose pass times spread
by 15 % (coefficient of variation), the scaled times spread by 3 %.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any

#: wall seconds between two bursts (their CPU cost is ~3 % of a pass)
PERIOD_S = 0.04

#: CPU seconds of one burst on a quiet host (the 1st percentile of 3000
#: back-to-back bursts on a 2-vCPU Intel Xeon VM), so scaled times read
#: as CPU seconds on that host when it is quiet
REFERENCE_S = 0.0008

_ROUNDS = 1000


class _Entry:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def cost(self, tick: int) -> int:
        return (self.weight * tick) & 0xFFFF


_TABLE = {key: _Entry(key, key % 97 + 1) for key in range(4096)}


def _kernel(rounds: int) -> int:
    heap: list[tuple[int, int]] = []
    total = 0
    for tick in range(rounds):
        entry = _TABLE[(tick * 2654435761) & 0xFFF]
        total += entry.cost(tick)
        heapq.heappush(heap, (entry.key ^ tick, tick))
        if len(heap) > 256:
            total ^= heapq.heappop(heap)[1]
    return total


def burst_seconds() -> float:
    """CPU seconds the calling thread spends on one burst of the kernel."""
    started = time.thread_time()
    _kernel(_ROUNDS)
    return time.thread_time() - started


class SpeedProbe:
    """Bursts of the kernel between :meth:`start` and :meth:`stop`.

    One burst runs at each end, so even a pass shorter than
    :data:`PERIOD_S` gets a sample.  Use it in the main thread only.
    """

    def __init__(self) -> None:
        #: CPU seconds of each burst since the last :meth:`start`
        self.samples: list[float] = []
        self._previous: Any = None

    def _sample(self, *_: object) -> None:
        self.samples.append(burst_seconds())

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def ref_seconds(self, cpu_s: float) -> float:
        """Quiet-host CPU seconds of a block timed from start to stop.

        ``cpu_s`` is the block's CPU time, bursts included; they are
        taken out before the rest is scaled by the host's mean speed.
        """
        scale = REFERENCE_S / statistics.fmean(self.samples)
        return (cpu_s - sum(self.samples)) * scale


__all__ = ["PERIOD_S", "REFERENCE_S", "SpeedProbe", "burst_seconds"]
