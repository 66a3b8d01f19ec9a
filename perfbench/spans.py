"""In-memory span recorder for the benchmark's traced run.

A span has a name, a start, an end and the span that was open when it
began (its parent).  Each thread keeps its own stack of open spans.  When
a span ends, its duration and self time (duration minus the time its
child spans cover) are added to a per-name aggregate, and its duration
is added to its parent's child time.

Hot layer boundaries are crossed millions of times per run, so only
spans whose name the ``keep`` predicate accepts are stored individually
(cells, sections, checkpoint operations); every span is aggregated.
Each thread aggregates into its own table, which keeps locks off the hot
path; the accessors sum the tables.  ``dump`` writes the aggregates and
the kept spans as JSON.

After ``os.fork`` the child starts with empty aggregates
(:meth:`Recorder.reset_after_fork`), so a forked worker reports only its
own work; the parent folds the workers' dumps back in with ``merge``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional


class Recorder:
    """Per-thread span stacks with per-name (count, total, self) sums."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep: Callable[[str], bool] = lambda name: True,
    ) -> None:
        self.clock = clock
        self.keep = keep
        #: free-form counters (events, transactions, stats sums)
        self.counts: Dict[str, float] = {}
        #: kept spans: (id, name, start, end, parent id or None, pid)
        self.spans: List[tuple] = []
        self.pid = os.getpid()
        #: one name -> [count, total s, self s] table per thread
        self._tables: List[Dict[str, List[float]]] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def begin(self, name: str) -> Optional[list]:
        """Open a span; returns the frame to pass to :meth:`end`.

        Returns ``None`` (and opens nothing) when the innermost open span
        has the same name: a wrapped method whose subclass override calls
        ``super()`` is one span, not two.
        """
        stack, _ = self._thread_state()
        if stack and stack[-1][0] == name:
            return None
        parent = stack[-1][3] if stack else None
        frame = [name, self.clock(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = self.clock()
        stack, table = self._thread_state()
        self._close(stack, table, frame, now, self.keep(frame[0]))

    def _close(self, stack, table, frame, now, keep) -> None:
        # frames close in LIFO order; should an inner frame have been
        # left open, it is discarded with its parent
        while stack and stack.pop() is not frame:
            pass
        name, start, child, span_id, parent = frame
        duration = now - start
        if stack:
            stack[-1][2] += duration
        agg = table.get(name)
        if agg is None:
            agg = table[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if keep:
            self.spans.append((span_id, name, start, now, parent, self.pid))

    def wrap(self, name_of, fn: Callable, before=None, after=None) -> Callable:
        """``fn`` with a span around every call (:meth:`begin` inlined).

        ``name_of`` is the span name or a function of the first argument
        (the instance, for methods).  ``before(args, kwargs)`` runs
        before the call and its return value is passed on to
        ``after(args, kwargs, result, token)``; neither runs for a call
        that opens no span.
        """
        fixed = name_of if isinstance(name_of, str) else None
        keep_fixed = fixed is not None and self.keep(fixed)
        clock, local, ids = self.clock, self._local, self._ids
        keep, close, thread_state = self.keep, self._close, self._thread_state

        def wrapper(*args, **kwargs):
            name = fixed or name_of(args[0])
            try:
                stack, table = local.stack, local.table
            except AttributeError:
                stack, table = thread_state()
            if stack:
                top = stack[-1]
                if top[0] == name:
                    return fn(*args, **kwargs)
                parent = top[3]
            else:
                parent = None
            token = before(args, kwargs) if before is not None else None
            frame = [name, 0.0, 0.0, next(ids), parent]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stack, table, frame, clock(), keep_fixed if fixed else keep(name))
            if after is not None:
                after(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    # accessors ------------------------------------------------------- #
    @property
    def totals(self) -> Dict[str, List[float]]:
        """name -> [count, total seconds, self seconds] over all threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (count, total, self_time) in list(table.items()):
                agg = merged.setdefault(name, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += total
                agg[2] += self_time
        return merged

    def count(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def counter(self, name: str) -> float:
        return self.counts.get(name, 0)

    # fork / persistence ---------------------------------------------- #
    def reset_after_fork(self) -> None:
        """Forget the parent's sums in a forked child.  Everything is
        cleared in place because wrappers hold references to it; the
        parent's open frames stay on the stack and are never ended."""
        self._lock = threading.Lock()
        for table in self._tables:
            table.clear()
        self.counts.clear()
        self.spans.clear()
        self.pid = os.getpid()

    def state(self) -> dict:
        return {"totals": self.totals, "counts": self.counts, "spans": self.spans}

    def merge(self, state: dict) -> None:
        """Add another recorder's :meth:`state` into this one."""
        _, table = self._thread_state()
        with self._lock:
            for name, (count, total, self_time) in state["totals"].items():
                agg = table.setdefault(name, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += total
                agg[2] += self_time
            for name, value in state["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + value
            self.spans.extend(tuple(span) for span in state["spans"])

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.state(), handle)
        os.replace(tmp, path)
