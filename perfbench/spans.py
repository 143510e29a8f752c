"""In-memory spans and counts for the traced run, and their self times.

The measuring process creates one :class:`Recorder` before any worker
pool forks. Wrappers (:mod:`perfbench.layers`) call :meth:`Recorder.enter`
and :meth:`Recorder.leave` around each layer's entry points; a span
holds its metric name, start, end, parent span and the unit it ran in.

Pool workers are forked from the measuring process, so they inherit the
wrappers and the recorder. A :mod:`multiprocessing` after-fork hook gives
each worker an empty span list and an exit finalizer that writes it to
``<out_dir>/spans-<pid>-<ns>.bin`` when the worker ends: spans stay in
memory until then. The current unit lives in a shared
:class:`multiprocessing.RawValue`, so a worker that outlives one unit
(the campaign's persistent pool) still tags its spans with the unit the
parent is running.

Counts are plain read-modify-write on a dict: the measuring process
never runs wrapped code on two threads at once (the campaign's loop
thread waits while its executor thread runs a round), and each worker
runs one shard at a time.
"""

from __future__ import annotations

import contextlib
import glob
import itertools
import marshal
import os
import threading
import time
from collections import defaultdict
from multiprocessing import RawValue, util

clock = time.perf_counter

#: parent id of a span that adopts the top-level spans inside its
#: interval (see :meth:`Recorder.interval`)
ADOPT = -1


class Recorder:
    """Spans and counts of one process, tagged with the current unit."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        #: when the latest campaign round returned (its commit starts)
        self.round_end = 0.0
        self._unit = RawValue("q", -1)
        self._reset()
        # multiprocessing clears its finalizer registry in a new child
        # before it runs these hooks, so the finalizer is made here
        util.register_after_fork(self, Recorder._after_fork)

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _after_fork(self) -> None:
        self._reset()
        util.Finalize(None, self.flush, exitpriority=100)

    def set_unit(self, index: int) -> None:
        self._unit.value = index

    # -- spans ------------------------------------------------------------

    def stack(self) -> list[tuple[int, str]]:
        """This thread's open spans, innermost last: ``(id, metric)``."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def enter(self, metric: str) -> tuple[int, int, float]:
        stack = self.stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, metric))
        return sid, parent, clock()

    def leave(self, metric: str, token: tuple[int, int, float]) -> None:
        end = clock()
        sid, parent, start = token
        self.stack().pop()
        self.spans.append((sid, parent, metric, start, end, self._unit.value))

    @contextlib.contextmanager
    def span(self, metric: str):
        token = self.enter(metric)
        try:
            yield
        finally:
            self.leave(metric, token)

    def interval(self, metric: str, start: float, end: float) -> None:
        """Record a span the code does not bracket with one call.

        It becomes the parent of every top-level span of this process
        and unit that lies inside ``[start, end]``.
        """
        self.spans.append(
            (next(self._ids), ADOPT, metric, start, end, self._unit.value)
        )

    def add(self, name: str, value: float) -> None:
        key = (self._unit.value, name)
        self.counts[key] = self.counts.get(key, 0) + value

    # -- output -----------------------------------------------------------

    def flush(self) -> None:
        if not self.spans and not self.counts:
            return
        path = os.path.join(
            self.out_dir, f"spans-{os.getpid()}-{time.monotonic_ns()}.bin"
        )
        with open(path, "wb") as handle:
            marshal.dump((self.spans, list(self.counts.items())), handle)


def load_worker_files(out_dir: str) -> list[tuple[list, list]]:
    """Every ``(spans, counts)`` pair the workers wrote at exit."""
    loaded = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.bin"))):
        with open(path, "rb") as handle:
            loaded.append(marshal.load(handle))
    return loaded


def self_times(spans: list[tuple]) -> tuple[dict, dict]:
    """Self time per ``(unit, metric)`` and top-level time per unit.

    A span's self time is its duration minus the durations of its
    direct children. Spans come from one process; children never
    overlap each other because they ran on their parent's thread.
    """
    adopters: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[1] == ADOPT:
            adopters[span[5]].append(span)
    child_time: dict[int, float] = defaultdict(float)
    top_level: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end, unit in spans:
        if parent == 0:
            for adopter in adopters.get(unit, ()):
                if adopter[3] <= start and end <= adopter[4]:
                    parent = adopter[0]
                    break
        if parent > 0:
            child_time[parent] += end - start
        else:
            top_level[unit] += end - start
    selfs: dict[tuple[int, str], float] = defaultdict(float)
    for sid, _, metric, start, end, unit in spans:
        selfs[(unit, metric)] += end - start - child_time[sid]
    return selfs, top_level
