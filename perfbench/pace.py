"""Host-speed normalization of timed operations.

The shared host this benchmark runs on changes speed by up to 1.8x within
minutes: the same pass over the `cells-datapath` cells took 3.6 s in one
run and 6.5 s in a run three minutes earlier.  The process's CPU time
tracks its wall time exactly, so the slowdown cannot be seen from inside
the guest.  ``Pace`` therefore interrupts each timed operation every
``INTERVAL_S`` (``SIGALRM``) and times a fixed pure-Python mini
event simulation: a heap of events, set-associative dictionary probes
and scattered list updates.  Its median time is the host's speed during
that operation.  The loop shares no code with the simulator, so a change
to the simulator moves the normalized time exactly as much as the raw
one.  Raw times exclude the samples.  Normalized times are the raw ones
scaled to a host on which one sample takes ``REFERENCE_S``.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import Callable, List, Tuple

#: sampling period during a timed operation
INTERVAL_S = 0.05
#: one sample's median time on the reference host (2-core VM, CPython 3.11.7)
REFERENCE_S = 0.00100
_STEPS = 400


class Pace:
    """Times operations raw and normalized to ``REFERENCE_S``."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._keys = [rng.randrange(1 << 20) for _ in range(4096)]
        # larger than the CPU caches, like the simulator's tables
        self._table = [[i] for i in range(100_000)]
        # the sample allocates no new container objects, so that it does
        # not shift the timing of the simulator's garbage collections
        self._sets = [dict() for _ in range(64)]
        self._queue: List[int] = []
        self._samples: List[float] = []
        self._spent = 0.0
        #: ``REFERENCE_S`` over the last operation's median sample
        self.factor = 1.0
        #: every operation's median sample, for diagnostics
        self.medians: List[float] = []

    def _sample(self, *_args) -> None:
        """Events are ints ``when << 40 | seq << 20 | key`` on a heap;
        each probes a set-associative table and bumps a scattered cell."""
        start = time.perf_counter()
        sets, keys, table, queue = self._sets, self._keys, self._table, self._queue
        for entries in sets:
            entries.clear()
        queue[:] = range(16)
        for seq in range(16, _STEPS + 16):
            event = heapq.heappop(queue)
            key = event & 0xFFFFF
            probe = keys[key & 4095]
            entries = sets[probe & 63]
            if probe in entries:
                entries[probe] = entries.pop(probe)
            else:
                if len(entries) >= 8:
                    entries.popitem()
                entries[probe] = True
            table[(key * 2654435761) % 100_000][0] += 1
            when = (event >> 40) + 1 + (key & 3)
            heapq.heappush(queue, when << 40 | seq << 20 | ((key * 31 + 7) & 0xFFFFF))
        spent = time.perf_counter() - start
        self._samples.append(spent)
        self._spent += spent

    def measure(self, operation: Callable[[], object]) -> Tuple[float, float, object]:
        """Run ``operation`` while sampling; returns (raw seconds,
        normalized seconds, result)."""
        self._samples, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            start = time.perf_counter()
            result = operation()
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - self._spent
        if not self._samples:  # shorter than one period
            self._sample()
        self.medians.append(statistics.median(self._samples))
        self.factor = REFERENCE_S / self.medians[-1]
        return raw, raw * self.factor, result
