"""Single-threaded closed-loop driver: 8 logical clients plus one live
schema transformation, interleaved by operation count.

Each logical client runs ``begin``, ``OPS_PER_TXN`` reads/updates and
``commit``, one engine call per turn, and plans its next transaction only
when the last one has committed.  An attempt aborted by deadlock
detection or doomed by the synchronization is retried with the same
operations, so every planned transaction eventually commits; the aborted
attempts are counted.  Clients take turns round-robin; a client parked on
a lock, latch or blocked table is skipped until the engine's wake channel
reports it runnable.  While the transformation runs, the driver calls
``step(step_budget)`` after every ``OPS_PER_STEP`` client turns, so every
count in a trial depends only on the seed and the code -- only the clocks
vary.

A trial has three measured windows:

* **before** -- ``before_txns`` commits with no transformation running
  (after ``warmup_txns`` unmeasured ones);
* **during** -- from the first ``step()`` until the transformation
  reports ``Phase.DONE``;
* **after** -- ``after_txns`` commits on the transformed tables.

At ``DONE`` the driver lets every in-flight transaction finish and runs
the correctness gate before the *after* window starts.

Liveness: when every client with work is parked, the driver steps the
transformation instead of waiting for the operation-count tick.  If a full
round of clients plus that step changes nothing, the trial fails with the
phase and the parked transactions named -- it never spins.  A deadlock the
lock manager does not detect (a wait-for cycle through a lock-mirroring
proxy owner) is named as such in that failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import (
    DeadlockError,
    LockWaitError,
    NoSuchTableError,
    Phase,
    TransactionAbortedError,
)

from wallbench.clock import SpeedClock
from wallbench.workloads import CLIENTS, OPS_PER_STEP, Setup, Workload

perf_counter = time.perf_counter

#: Step buckets: the phase a ``step()`` call starts in picks its bucket.
STEP_BUCKETS = {
    Phase.CREATED: "populate", Phase.PREPARED: "populate",
    Phase.POPULATING: "populate", Phase.PROPAGATING: "propagate",
    Phase.SYNCHRONIZING: "sync", Phase.BACKGROUND: "sync",
}

#: Client turns between two clock marks.  Marks fall at the same points of
#: the (deterministic) work in every trial of a seed, so the same chunk of
#: work can be compared across trials.
MARK_EVERY = 128

#: Upper bound on client turns per measured transaction before a window
#: is declared stuck (a liveness guard for livelock, not for deadlock).
MAX_TURNS_PER_TXN = 400


class DriverError(RuntimeError):
    """The trial could not make progress or produced a wrong result."""


@dataclass
class Client:
    """One logical closed-loop client."""

    rng: object
    plan: List[tuple] = field(default_factory=list)
    txn: object = None
    op: int = 0
    #: perf_counter at the first ``begin`` of the logical transaction.
    t0: float = 0.0
    parked: bool = False
    #: False while the client waits for the next window to open.
    active: bool = False
    #: Logical tables already known to be swapped when this attempt began.
    swapped: frozenset = frozenset()
    #: (shadow table, key, attribute, value) writes of this attempt.
    writes: List[tuple] = field(default_factory=list)


@dataclass
class StepBucket:
    """Wall time and work of the ``step()`` calls of one phase bucket."""

    calls: int = 0
    seconds: float = 0.0
    propagated: int = 0


@dataclass
class TrialResult:
    """Everything one trial measured and counted."""

    setup_s: float
    commits: Dict[str, int]                   # window -> commits inside
    latencies: Dict[str, List[float]]         # window -> txn ms
    counts: Dict[str, object]                 # exact, clock-free counts
    steps: Dict[str, StepBucket]
    step_max_ms: float
    sync_window_ms: float
    extras: Dict[str, object]
    #: The trial's clock marks, each window's (first, last) mark index,
    #: and per window the index of the last mark before each latency
    #: sample's commit.
    clock: SpeedClock
    spans: Dict[str, Tuple[int, int]]
    latency_marks: Dict[str, List[int]]

    def window_seconds(self, window: str) -> float:
        """Wall time of ``window``."""
        first, last = self.spans[window]
        return sum(self.clock.seconds(i) for i in range(first, last))


class Driver:
    """Runs one trial of a workload on a freshly built :class:`Setup`."""

    def __init__(self, setup: Setup, tracer=None) -> None:
        self.setup = setup
        self.workload: Workload = setup.workload
        self.db = setup.db
        self.tf = setup.tf
        self.tracer = tracer
        self.clients = [Client(setup.client_rng(i))
                        for i in range(CLIENTS)]
        self._by_txn: Dict[int, Client] = {}
        #: Logical source tables a client has found swapped away.
        self.swapped: set = set()
        #: Window whose throughput a commit counts toward.
        self.window = "idle"
        #: Window a commit's latency sample belongs to (a drain keeps the
        #: window it follows, so transactions straddling DONE count as
        #: *during*).
        self.sample_window: Optional[str] = None
        self.turns = 0
        self.committed = 0
        self.attempts = 0
        self.aborted_deadlock = 0
        self.aborted_doomed = 0
        self.planned = 0
        self.latencies: Dict[str, List[float]] = {
            "before": [], "during": [], "after": []}
        self.commits: Dict[str, int] = {"before": 0, "during": 0,
                                        "after": 0}
        self.steps = {name: StepBucket()
                      for name in ("populate", "propagate", "sync")}
        self.step_max = 0.0
        self._sync_start: Optional[float] = None
        self.sync_window = 0.0
        self.tf_running = False
        self.clock = SpeedClock()
        self.latency_marks: Dict[str, List[int]] = {
            name: [] for name in self.latencies}
        self.spans: Dict[str, Tuple[int, int]] = {}
        #: Every table object seen, by identity (probe statistics).
        self._tables: Dict[int, object] = {}
        self.db.on_wake = self._on_wake

    # -- engine wake channel --------------------------------------------------

    def _on_wake(self, txn_ids: List[int]) -> None:
        for txn_id in txn_ids:
            client = self._by_txn.get(txn_id)
            if client is not None:
                client.parked = False

    # -- one client turn ------------------------------------------------------

    def _turn(self, c: Client) -> None:
        db = self.db
        try:
            if c.txn is None:
                if not c.plan:
                    c.plan = self.setup.plan_txn(c.rng)
                    c.t0 = perf_counter()
                    self.planned += 1
                c.txn = db.begin()
                self._by_txn[c.txn.txn_id] = c
                c.op = 0
                c.writes = []
                c.swapped = frozenset(self.swapped)
                self.attempts += 1
            elif c.op < len(c.plan):
                self._operation(c, c.plan[c.op])
                c.op += 1
            else:
                db.commit(c.txn)
                self._committed(c)
        except LockWaitError:
            c.parked = True
        except DeadlockError:
            db.abort(c.txn)
            self.aborted_deadlock += 1
            self._restart(c)
        except TransactionAbortedError:
            self.aborted_doomed += 1
            self._restart(c)

    def _operation(self, c: Client, op: tuple) -> None:
        kind, table, key, attr, value, fallback_key = op
        db = self.db
        fallback = self.setup.fallbacks.get(table)
        if fallback is not None and table in c.swapped:
            self._routed(c, kind, fallback, fallback_key, value)
            return
        try:
            if kind == "r":
                db.read(c.txn, table, key)
            else:
                db.update(c.txn, table, key, {attr: value})
                if fallback is not None:
                    c.writes.append((table, key, attr, value))
        except NoSuchTableError:
            if fallback is None:
                raise
            # The swap retired the source table since this attempt began.
            self.swapped.add(table)
            c.swapped = c.swapped | {table}
            self._routed(c, kind, fallback, fallback_key, value)

    def _routed(self, c: Client, kind: str, fallback: tuple, key: tuple,
                value: float) -> None:
        table, attr, shadow = fallback
        if kind == "r":
            self.db.read(c.txn, table, key)
        else:
            self.db.update(c.txn, table, key, {attr: value})
            c.writes.append((shadow, key, attr, value))

    def _committed(self, c: Client) -> None:
        now = perf_counter()
        window = self.window
        if window in self.commits:
            self.commits[window] += 1
        if self.sample_window is not None:
            self.latencies[self.sample_window].append((now - c.t0) * 1000.0)
            self.latency_marks[self.sample_window].append(
                len(self.clock.marks) - 1)
        self.committed += 1
        self.setup.apply_committed(c.writes)
        self._by_txn.pop(c.txn.txn_id, None)
        c.txn = None
        c.plan = []
        c.writes = []
        if window == "drain":
            c.active = False

    def _restart(self, c: Client) -> None:
        """Retry the aborted attempt's plan from ``begin``."""
        self._by_txn.pop(c.txn.txn_id, None)
        c.txn = None
        c.parked = False
        c.writes = []

    # -- transformation steps -------------------------------------------------

    def _step(self) -> None:
        tf = self.tf
        entered = tf.phase
        name = STEP_BUCKETS.get(entered, "sync")
        bucket = self.steps[name]
        before = tf.stats["propagated_records"]
        tracer = self.tracer
        frame = None if tracer is None else \
            tracer.enter("transform." + name)
        start = perf_counter()
        try:
            report = tf.step(self.workload.step_budget)
        finally:
            end = perf_counter()
            if frame is not None:
                tracer.exit(frame)
        elapsed = end - start
        bucket.calls += 1
        bucket.seconds += elapsed
        bucket.propagated += tf.stats["propagated_records"] - before
        if elapsed > self.step_max:
            self.step_max = elapsed
        if entered is Phase.SYNCHRONIZING and self._sync_start is None:
            self._sync_start = start
        if self._sync_start is not None and self.sync_window == 0.0 and \
                tf.phase is not Phase.SYNCHRONIZING:
            self.sync_window = end - self._sync_start
        if report.stalled:
            raise DriverError(
                f"{tf.transform_id}: propagation cannot keep up "
                f"(phase {tf.phase.value}); raise step_budget")
        if tf.phase is Phase.ABORTED:
            raise DriverError(f"{tf.transform_id} aborted")

    def _fingerprint(self) -> tuple:
        tf = self.tf
        return (tf.phase, tuple(tf.stats.values()), self.db.log.end_lsn)

    # -- the scheduling loop --------------------------------------------------

    def _run(self, done, limit: int, what: str) -> None:
        """Give clients turns (and the transformation its steps) until
        ``done()`` holds; ``limit`` caps the turns spent."""
        clients = self.clients
        start_turns = self.turns
        while not done():
            ran = False
            for c in clients:
                if c.parked:
                    txn = c.txn
                    if txn is None or not (txn.is_finished or txn.doomed):
                        continue
                    # Aborted under us (non-blocking abort dooms old
                    # transactions): the next call surfaces the abort.
                    c.parked = False
                if not c.active:
                    continue
                self._turn(c)
                ran = True
                self.turns += 1
                if self.tf_running and self.turns % OPS_PER_STEP == 0:
                    self._step()
                if self.turns % MARK_EVERY == 0:
                    self.clock.mark()
                if self.tf_running and done():
                    return
            if ran:
                if self.turns - start_turns > limit:
                    raise DriverError(
                        f"{what}: no completion after {limit} client turns "
                        f"(phase {self.tf.phase.value})")
                continue
            if not any(c.active for c in clients):
                raise DriverError(f"{what}: no client has work left")
            self._all_parked(what)

    def _all_parked(self, what: str) -> None:
        """Every client with work is parked: step instead of waiting."""
        parked = sorted(c.txn.txn_id for c in self.clients
                        if c.parked and c.txn is not None)
        if self.tf_running:
            before = self._fingerprint()
            self._step()
            if any(not c.parked for c in self.clients if c.active) or \
                    self._fingerprint() != before:
                return
        cycle = self._proxy_cycle()
        if cycle is not None:
            raise DriverError(
                f"{what}: undetected deadlock -- wait-for cycle {cycle} "
                f"through a lock-mirroring proxy owner, which the lock "
                f"manager's deadlock detection does not see; transformation "
                f"phase {self.tf.phase.value}, parked transactions {parked}")
        raise DriverError(
            f"{what}: no progress -- transformation phase "
            f"{self.tf.phase.value}, parked transactions {parked}")

    def _proxy_cycle(self) -> Optional[List[int]]:
        """A wait-for cycle through a proxy owner, as a list of transaction
        ids, or ``None``.

        Under lock mirroring an old transaction's mirrored locks are held
        and requested under its proxy owner (the negated id).  The proxy
        waits on the transaction's behalf, and its locks are released only
        after the transaction ends, yet the lock manager's wait-for graph
        treats the two ids as unrelated.  A cycle that runs through a proxy
        is therefore a deadlock the engine never detects (and a hang in a
        threaded deployment).  Merging every proxy into its transaction
        finds exactly these.
        """
        graph: Dict[int, set] = {}
        for waiter, blockers in self.db.locks._wait_for_graph().items():
            graph.setdefault(abs(waiter), set()).update(
                abs(b) for b in blockers)
        for c in self.clients:
            if c.parked and c.txn is not None:
                path = _path(graph, c.txn.txn_id, c.txn.txn_id)
                if path is not None:
                    return path
        return None

    def _activate(self, window: str) -> None:
        self.window = window
        self.sample_window = self.window if window in self.latencies \
            else None
        for c in self.clients:
            c.active = True

    def _drain(self, what: str) -> None:
        """Let in-flight transactions finish; start no new ones."""
        self.window = "drain"
        for c in self.clients:
            if c.txn is None and not c.plan:
                c.active = False
        self._run(lambda: not any(c.active for c in self.clients),
                  MAX_TURNS_PER_TXN * len(self.clients), what)

    def _window(self, name: str, first: int) -> None:
        """Close window ``name`` opened at mark ``first``."""
        last = self.clock.mark()
        self.spans[name] = (first, last)

    def _commits_reach(self, target: int):
        return lambda: self.committed >= target

    # -- a whole trial --------------------------------------------------------

    def run(self, setup_s: float) -> TrialResult:
        w = self.workload
        tracer = self.tracer
        if tracer is not None:
            tracer.start()
        counters0 = self._program_counters()

        self._activate("warmup")
        self._run(self._commits_reach(w.warmup_txns),
                  MAX_TURNS_PER_TXN * w.warmup_txns, "warmup")
        self._activate("before")
        first = self.clock.mark()
        target = self.committed + w.before_txns
        self._run(self._commits_reach(target),
                  MAX_TURNS_PER_TXN * w.before_txns, "before")
        self._window("before", first)

        self._activate("during")
        self.tf_running = True
        first = self.clock.mark()
        self._step()
        # Livelock guard: generous against the turns population alone
        # needs at this step ratio.
        rows = w.rows + w.s_rows
        self._run(lambda: self.tf.phase is Phase.DONE,
                  100 * rows * OPS_PER_STEP // w.step_budget + 200_000,
                  "during")
        self._window("during", first)
        self.tf_running = False

        self._drain("drain after DONE")
        if tracer is not None:
            tracer.pause()
        problems = self.setup.check_targets()
        if problems:
            raise DriverError("correctness gate failed: " +
                              "; ".join(problems))
        if tracer is not None:
            tracer.resume()

        self._activate("after")
        first = self.clock.mark()
        target = self.committed + w.after_txns
        self._run(self._commits_reach(target),
                  MAX_TURNS_PER_TXN * w.after_txns, "after")
        self._window("after", first)
        self._drain("final drain")
        if tracer is not None:
            tracer.stop()
        self.db.on_wake = None

        counters1 = self._program_counters()
        tf = self.tf
        counts = {
            "committed": self.committed,
            "planned": self.planned,
            "attempts": self.attempts,
            "failed": self.aborted_deadlock + self.aborted_doomed,
            "aborted_deadlock": self.aborted_deadlock,
            "aborted_doomed": self.aborted_doomed,
            "turns": self.turns,
            "marks": len(self.clock.marks),
            "steps": sum(b.calls for b in self.steps.values()),
            "propagated_records": tf.stats["propagated_records"],
            "iterations": tf.stats["iterations"],
            "lazy_misses": tf.stats["lazy_miss_migrations"],
            "latched_units": tf.stats["sync_latch_units"],
            "lock_waits": counters1["lock_waits"] - counters0["lock_waits"],
            "deadlocks": counters1["deadlocks"] - counters0["deadlocks"],
            "probe_hits": counters1["probe_hits"] - counters0["probe_hits"],
            "probe_misses": counters1["probe_misses"] -
            counters0["probe_misses"],
            "log_records": self.db.log.end_lsn,
            "disk_bytes": counters1["disk_bytes"],
            "disk_syncs": counters1["disk_syncs"],
        }
        extras = {
            "disk_bytes_delta": counters1["disk_bytes"] -
            counters0["disk_bytes"],
            "disk_syncs_delta": counters1["disk_syncs"] -
            counters0["disk_syncs"],
            "mvcc": dict(self.db.mvcc.stats) if self.db.mvcc else {},
        }
        return TrialResult(
            setup_s=setup_s, commits=dict(self.commits),
            latencies=self.latencies, counts=counts, steps=self.steps,
            step_max_ms=self.step_max * 1000.0,
            sync_window_ms=self.sync_window * 1000.0, extras=extras,
            clock=self.clock, spans=self.spans,
            latency_marks=self.latency_marks)

    def _program_counters(self) -> Dict[str, int]:
        """Counters the program keeps itself (no tracing needed).

        Probe statistics are summed over every table seen in this trial,
        including source tables the swap has since dropped.
        """
        db = self.db
        for name in db.catalog.table_names():
            table = db.table(name)
            self._tables.setdefault(id(table), table)
        hits = misses = 0
        for table in self._tables.values():
            for index in table.indexes.values():
                hits += index.probe_stats["hits"]
                misses += index.probe_stats["misses"]
        disk = db.log.disk
        return {"lock_waits": db.locks.wait_count,
                "deadlocks": db.locks.deadlock_count,
                "probe_hits": hits, "probe_misses": misses,
                "disk_bytes": disk.size, "disk_syncs": disk.syncs}


def _path(graph: Dict[int, set], start: int, target: int
          ) -> Optional[List[int]]:
    """A path of one or more edges from start to target, or ``None``."""
    stack = [(node, [start, node]) for node in graph.get(start, ())]
    seen = {node for node, _ in stack}
    while stack:
        node, path = stack.pop()
        if node == target:
            return path
        for nxt in graph.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
    return None


def build(workload: Workload, seed: int) -> Tuple[Setup, float]:
    """Build a fresh setup; returns it with its set-up time in seconds at
    the reference speed (see :mod:`wallbench.clock`)."""
    clock = SpeedClock()
    clock.mark()
    setup = Setup(workload, seed, clock)
    clock.mark()
    return setup, sum(clock.scaled(i) for i in range(len(clock.marks) - 1))
