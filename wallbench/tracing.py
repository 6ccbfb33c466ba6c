"""Per-layer tracing from the benchmark's side of the API.

:class:`LayerTracer` wraps the public entry points of each layer of the
program (class attributes patched for the duration of one traced trial,
restored afterwards) and keeps, per layer, the number of calls, the busy
time and the self time -- busy time minus the time spent inside spans of
other wrapped calls made from within it.  Nothing under ``src/`` carries
instrumentation; the wrappers live here and are installed only for the
traced trial, so untraced trials run the program untouched.

Spans are aggregated as they close rather than stored, which keeps memory
flat however many millions of calls a trial makes.  Because every span's
self time is its duration minus its children's, the self times of all
layers sum to the time covered by top-level spans; the driver's own time
is what lies between top-level spans.  :meth:`LayerTracer.reconcile`
checks that the two add up to the traced wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.concurrency.lock_manager import LockManager
from repro.engine.database import Database
from repro.engine.fuzzy import FuzzyScan
from repro.shard.sweeper import LazySweeper
from repro.storage.index import HashIndex
from repro.storage.mvcc import MvccManager, SnapshotScan
from repro.storage.schema import TableSchema
from repro.storage.table import Table
from repro.transform.foj import FojRuleEngine
from repro.transform.lazy import LazyMigrator
from repro.transform.split import SplitRuleEngine
from repro.wal.durable import SimulatedDisk
from repro.wal.log import LogManager

perf_counter = time.perf_counter


def _rows_returned(args: tuple, result: object) -> int:
    return len(result)


def _run_length(args: tuple, result: object) -> int:
    # RuleEngine.apply_run(self, table_name, kind, items)
    return len(args[3])


def _one(args: tuple, result: object) -> int:
    return 1


#: (layer, class, method, item counter or None).  The transformation
#: buckets (``transform.populate`` / ``propagate`` / ``sync``) are opened
#: by the driver around each ``step()`` call, by the phase on entry.
ENTRY_POINTS: List[Tuple[str, type, str, Optional[Callable]]] = [
    ("engine", Database, "begin", None),
    ("engine", Database, "read", None),
    ("engine", Database, "update", None),
    ("engine", Database, "insert", None),
    ("engine", Database, "commit", None),
    ("engine", Database, "abort", None),
    ("concurrency", LockManager, "acquire", None),
    ("concurrency", LockManager, "release_all", None),
    ("storage.table", Table, "get", None),
    ("storage.table", Table, "insert_row", _one),
    ("storage.table", Table, "update_rowid", _one),
    ("storage.schema", TableSchema, "normalize", None),
    ("storage.schema", TableSchema, "validate_changes", None),
    ("storage.index", HashIndex, "lookup", None),
    ("wal", LogManager, "append", None),
    ("wal", LogManager, "append_batch", None),
    ("wal", LogManager, "flush", None),
    ("wal", LogManager, "records_slice", None),
    ("wal", SimulatedDisk, "append", None),
    ("wal", SimulatedDisk, "sync", None),
    ("scan", FuzzyScan, "next_chunk", _rows_returned),
    ("scan", SnapshotScan, "next_chunk", _rows_returned),
    ("scan", LazySweeper, "next_chunk", _rows_returned),
    ("transform.rules", SplitRuleEngine, "apply", _one),
    ("transform.rules", SplitRuleEngine, "apply_run", _run_length),
    ("transform.rules", FojRuleEngine, "apply", _one),
    ("transform.rules", FojRuleEngine, "apply_run", _run_length),
    ("transform.lazy", LazyMigrator, "on_access", None),
    ("storage.mvcc", MvccManager, "note_write", None),
    ("storage.mvcc", MvccManager, "on_commit", None),
    ("storage.mvcc", MvccManager, "gc", None),
]

#: Every layer the trace reports, wrapped or driver-opened.
LAYERS: Tuple[str, ...] = (
    "engine", "concurrency", "storage.table", "storage.schema",
    "storage.index", "wal", "scan", "transform.populate",
    "transform.propagate", "transform.sync", "transform.rules",
    "transform.lazy", "storage.mvcc",
)


@dataclass
class LayerStats:
    """Aggregates of one layer's spans."""

    calls: int = 0
    busy: float = 0.0       # seconds, outermost spans of the layer only
    self_time: float = 0.0  # seconds, excluding nested spans
    outer: int = 0          # calls not nested in a call of the same layer
    items: int = 0          # rows / records / writes, outermost calls
    depth: int = 0          # open spans of this layer (re-entrancy)


class _Frame:
    __slots__ = ("stats", "start", "child")

    def __init__(self, stats: LayerStats, start: float) -> None:
        self.stats = stats
        self.start = start
        self.child = 0.0


class LayerTracer:
    """Aggregating span recorder over the program's layer entry points."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {
            name: LayerStats() for name in LAYERS}
        #: (class name, method) -> [calls, raised], for per-method ratios.
        self.methods: Dict[Tuple[str, str], List[int]] = {}
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[type, str, object]] = []
        self.active = False
        self._t_start = 0.0
        self._t_stop = 0.0
        self._last_top_end = 0.0
        self._paused_at = 0.0
        self.paused = 0.0
        #: Time outside any span: the driver's own work.
        self.driver = 0.0

    # -- span bookkeeping -----------------------------------------------------

    def enter(self, layer: str) -> _Frame:
        """Open a span of ``layer`` (the driver uses this around step())."""
        stats = self.layers[layer]
        stats.depth += 1
        frame = _Frame(stats, perf_counter())
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        """Close the innermost span (which must be ``frame``)."""
        end = perf_counter()
        stack = self._stack
        stack.pop()
        stats = frame.stats
        duration = end - frame.start
        stats.calls += 1
        stats.self_time += duration - frame.child
        stats.depth -= 1
        if stats.depth == 0:
            stats.busy += duration
            stats.outer += 1
        if stack:
            stack[-1].child += duration
        else:
            self.driver += frame.start - self._last_top_end
            self._last_top_end = end

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point; idempotent per tracer."""
        if self._patches:
            return
        for layer, cls, name, counter in ENTRY_POINTS:
            self._patch(layer, cls, name, counter)

    def uninstall(self) -> None:
        """Restore every patched class attribute."""
        for cls, name, original in reversed(self._patches):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._patches = []

    def _patch(self, layer: str, cls: type, name: str,
               counter: Optional[Callable]) -> None:
        func = getattr(cls, name)
        own = cls.__dict__.get(name)
        method = self.methods.setdefault((cls.__name__, name), [0, 0])
        stats = self.layers[layer]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            frame = tracer.enter(layer)
            method[0] += 1
            try:
                result = func(*args, **kwargs)
            except BaseException:
                method[1] += 1
                raise
            finally:
                tracer.exit(frame)
            if counter is not None and stats.depth == 0:
                stats.items += counter(args, result)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        setattr(cls, name, traced)
        self._patches.append((cls, name, own))

    # -- the traced window ----------------------------------------------------

    def start(self) -> None:
        self.active = True
        self._t_start = self._last_top_end = perf_counter()

    def pause(self) -> None:
        """Stop recording (the correctness gate is not part of the trace)."""
        self._paused_at = perf_counter()
        self.driver += self._paused_at - self._last_top_end
        self.active = False

    def resume(self) -> None:
        now = perf_counter()
        self.paused += now - self._paused_at
        self._last_top_end = now
        self.active = True

    def stop(self) -> None:
        self._t_stop = perf_counter()
        self.driver += self._t_stop - self._last_top_end
        self.active = False

    @property
    def wall(self) -> float:
        """Traced wall time in seconds, pauses excluded."""
        return self._t_stop - self._t_start - self.paused

    def reconcile(self) -> Tuple[float, float]:
        """(sum of layer self times + driver time, traced wall time)."""
        total = sum(s.self_time for s in self.layers.values())
        return total + self.driver, self.wall

    def method_counts(self, cls_name: str, name: str) -> Tuple[int, int]:
        """(calls, calls that raised) of one wrapped method."""
        calls, raised = self.methods.get((cls_name, name), (0, 0))
        return calls, raised
