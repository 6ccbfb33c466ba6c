"""The benchmark's workloads: schemas, bulk data, key streams and oracles.

Every input is derived from the ``--seed`` argument through private
``random.Random`` instances; nothing here uses the simulator's scenario
builders.  A workload builds its own tables through :mod:`repro.api`,
attaches a :class:`~repro.api.SimulatedDisk` to the log (default
immediate flush policy: every commit frames, CRCs and syncs), and
creates the transformation object up front, so a ``storage="mvcc"``
workload runs its *before* window on the multi-version store too.

Update values are drawn when a transaction is planned, so an aborted
attempt is retried with exactly the same writes.  Only committed writes
reach the shadow copy of the source tables that the correctness gate
compares against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.api import (
    Database,
    FojSpec,
    FojTransformation,
    SimulatedDisk,
    SplitSpec,
    SplitTransformation,
    TableSchema,
    TransformOptions,
    bulk_load,
    full_outer_join,
    rows_equal,
    split,
)

from wallbench.clock import SpeedClock

#: One planned operation: (kind, logical table, key, attribute, value,
#: fallback key).  ``kind`` is ``"r"`` (read) or ``"u"`` (update); the
#: fallback key addresses the same logical record after the swap.
Op = Tuple[str, str, Tuple, str, float, Tuple]

#: Logical table -> (post-swap table, attribute, shadow table) for
#: updates routed through the new schema.
Fallbacks = Dict[str, Tuple[str, str, str]]

#: Logical closed-loop clients, operations per transaction, and client
#: turns between two ``step()`` calls -- the same on every workload.
CLIENTS = 8
OPS_PER_TXN = 10
OPS_PER_STEP = 8

#: Rows per committed bulk-load batch (``bulk_load``'s own batch size).
LOAD_BATCH = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (sizes are at scale 1.0)."""

    name: str
    why: str
    operator: str                 # "split" or "foj"
    rows: int                     # T rows (split) / R rows (foj)
    s_rows: int                   # S rows (foj only)
    groups: int                   # distinct split values (split only)
    dummy_rows: int
    source_share: float           # share of operations on source tables
    read_share: float             # share of operations that are reads
    hot_keys: int                 # 0: uniform source keys
    hot_share: float              # share of source accesses to the hot set
    options: Dict[str, object] = field(default_factory=dict)
    warmup_txns: int = 200
    before_txns: int = 3000
    after_txns: int = 3000
    step_budget: int = 32         # units offered to each step()

    def scaled(self, scale: float) -> "Workload":
        """The same workload with data sizes and window lengths scaled."""
        if scale == 1.0:
            return self

        def s(n: int, floor: int) -> int:
            return max(floor, int(n * scale))

        return replace(
            self, rows=s(self.rows, 200), s_rows=s(self.s_rows, 80),
            groups=s(self.groups, 40), dummy_rows=s(self.dummy_rows, 100),
            hot_keys=min(self.hot_keys, s(self.rows, 200) // 4),
            warmup_txns=s(self.warmup_txns, 10),
            before_txns=s(self.before_txns, 50),
            after_txns=s(self.after_txns, 50))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="split-propagate",
        why=("split T into T_r+T_s at 20k rows, eager latch storage, "
             "nonblocking_abort; 80% of updates hit T, uniform keys: "
             "time goes to propagating the log tail (Rules 8-11)"),
        operator="split", rows=20_000, s_rows=0, groups=8_000,
        dummy_rows=2_000, source_share=0.8, read_share=0.0,
        hot_keys=0, hot_share=0.0,
        options={"sync": "nonblocking_abort"},
        step_budget=9),
    Workload(
        name="foj-populate",
        why=("full outer join R+S at 50k/20k rows (the paper's size), "
             "eager latch storage, nonblocking_commit lock mirroring; 5% "
             "of updates hit the sources: time goes to the initial "
             "population"),
        operator="foj", rows=50_000, s_rows=20_000, groups=0,
        dummy_rows=2_000, source_share=0.05, read_share=0.0,
        hot_keys=0, hot_share=0.0,
        options={"sync": "nonblocking_commit"},
        step_budget=48),
    Workload(
        name="split-lazy-hot",
        why=("the split with lazy population, mvcc storage and "
             "version_flip; 70% reads, 90% of T accesses on a 200-key hot "
             "set: lazy misses, version chains and lock contention"),
        operator="split", rows=20_000, s_rows=0, groups=8_000,
        dummy_rows=2_000, source_share=0.8, read_share=0.7,
        hot_keys=200, hot_share=0.9,
        options={"sync": "version_flip", "storage": "mvcc",
                 "population_mode": "lazy"},
        step_budget=6),
)}


class Setup:
    """A freshly built database plus everything a trial needs to drive it.

    Attributes:
        db: The database (a :class:`SimulatedDisk` attached to its log).
        tf: The schema transformation, created but not yet stepped.
        targets: Names of the tables the transformation publishes.
        fallbacks: Post-swap routing of each logical source table.
    """

    def __init__(self, workload: Workload, seed: int,
                 clock: SpeedClock) -> None:
        self.workload = workload
        self.seed = seed
        self.clock = clock
        rng = random.Random(f"setup:{workload.name}:{seed}")
        self.db = Database()
        self.db.log.attach_disk(SimulatedDisk())
        self.db.create_table(TableSchema("dummy", ["id", "payload"],
                                         primary_key=["id"]))
        self._load("dummy", [{"id": i, "payload": 0.0}
                             for i in range(workload.dummy_rows)])
        options = TransformOptions(transform_id=f"wallbench-{workload.name}",
                                   **workload.options)
        #: Mutable shadow of the committed source state, keyed by
        #: logical table then primary key.
        self.shadow: Dict[str, Dict[Tuple, Dict[str, object]]] = {}
        if workload.operator == "split":
            self._build_split(rng, options)
        else:
            self._build_foj(rng, options)
        keys = self.source_keys[self.hot_table]
        hot = rng.sample(keys, min(workload.hot_keys, len(keys)))
        self.hot_set: List[Tuple] = hot

    # -- builders -----------------------------------------------------------

    def _load(self, table: str, rows: List[Dict[str, object]]) -> None:
        """Bulk-load in committed batches of 1000 rows (as ``bulk_load``
        does), with a clock mark after each batch so set-up time can be
        scaled to the machine's speed batch by batch."""
        for start in range(0, len(rows), LOAD_BATCH):
            bulk_load(self.db, table, rows[start:start + LOAD_BATCH])
            self.clock.mark()

    def _build_split(self, rng: random.Random,
                     options: TransformOptions) -> None:
        w = self.workload
        self.db.create_table(TableSchema("T", ["id", "name", "grp", "info"],
                                         primary_key=["id"]))
        rows = []
        for i in range(w.rows):
            grp = rng.randrange(w.groups)
            rows.append({"id": i, "name": float(i), "grp": grp,
                         "info": f"g{grp}"})
        self._load("T", rows)
        self.shadow["T"] = {(r["id"],): dict(r) for r in rows}
        self.spec = SplitSpec.derive(self.db.table("T").schema,
                                     r_name="T_r", s_name="T_s",
                                     split_attr="grp", s_attrs=["info"])
        self.tf = SplitTransformation(self.db, self.spec, options=options)
        self.targets = ("T_r", "T_s")
        self.source_keys = {"T": [(i,) for i in range(w.rows)]}
        self.source_attr = {"T": "name"}
        self.fallbacks: Fallbacks = {"T": ("T_r", "name", "T")}
        self.hot_table = "T"

    def _build_foj(self, rng: random.Random,
                   options: TransformOptions) -> None:
        w = self.workload
        self.db.create_table(TableSchema("R", ["a", "b", "c"],
                                         primary_key=["a"]))
        self.db.create_table(TableSchema("S", ["c", "d", "e"],
                                         primary_key=["c"]))
        # 1.2x the S key range: one in six R rows has no S partner and
        # about one in eight S rows has no R partner, so both NULL-padded
        # sides of the join are exercised.
        r_rows = [{"a": i, "b": float(i),
                   "c": rng.randrange(int(w.s_rows * 1.2))}
                  for i in range(w.rows)]
        s_rows = [{"c": c, "d": float(c), "e": f"s{c}"}
                  for c in range(w.s_rows)]
        self._load("R", r_rows)
        self._load("S", s_rows)
        self.shadow["R"] = {(r["a"],): dict(r) for r in r_rows}
        self.shadow["S"] = {(s["c"],): dict(s) for s in s_rows}
        self.spec = FojSpec.derive(self.db.table("R").schema,
                                   self.db.table("S").schema,
                                   target_name="T", join_attr_r="c",
                                   join_attr_s="c")
        self.tf = FojTransformation(self.db, self.spec, options=options)
        self.targets = ("T",)
        self.source_keys = {"R": [(i,) for i in range(w.rows)],
                            "S": [(c,) for c in range(w.s_rows)]}
        self.source_attr = {"R": "b", "S": "d"}
        # After the swap both logical sources are served by T: an R-side
        # update rewrites the same record's ``b``; an S-side update turns
        # into an R-side update of its planned fallback key.
        self.fallbacks = {"R": ("T", "b", "R"), "S": ("T", "b", "R")}
        self.hot_table = "R"

    # -- key streams --------------------------------------------------------

    def client_rng(self, client: int) -> random.Random:
        """The private random stream of one logical client."""
        return random.Random(f"client:{self.workload.name}:{self.seed}:"
                             f"{client}")

    def plan_txn(self, rng: random.Random) -> List[Op]:
        """Draw one transaction: ``OPS_PER_TXN`` reads/updates."""
        w = self.workload
        sources = list(self.source_keys)
        ops: List[Op] = []
        for _ in range(OPS_PER_TXN):
            kind = "r" if rng.random() < w.read_share else "u"
            if rng.random() < w.source_share:
                table = sources[rng.randrange(len(sources))]
                keys = self.source_keys[table]
                if table == self.hot_table and self.hot_set and \
                        rng.random() < w.hot_share:
                    key = self.hot_set[rng.randrange(len(self.hot_set))]
                else:
                    key = keys[rng.randrange(len(keys))]
                # An S-side FOJ update is rerouted to a random R-side key.
                main_keys = self.source_keys[self.hot_table]
                fallback = key if table == self.hot_table else \
                    main_keys[rng.randrange(len(main_keys))]
                ops.append((kind, table, key, self.source_attr[table],
                            rng.random(), fallback))
            else:
                key = (rng.randrange(w.dummy_rows),)
                ops.append((kind, "dummy", key, "payload", rng.random(),
                            key))
        return ops

    # -- the correctness gate -----------------------------------------------

    def apply_committed(self, writes: List[Tuple[str, Tuple, str, float]]
                        ) -> None:
        """Fold one committed transaction's source writes into the shadow."""
        for table, key, attr, value in writes:
            self.shadow[table][key][attr] = value

    def check_targets(self) -> List[str]:
        """Compare the published tables with the operator applied to the
        shadow of the committed source state; returns the mismatches."""
        problems: List[str] = []

        def rows_of(name: str) -> List[Dict[str, object]]:
            return [dict(row.values) for row in self.db.table(name).scan()]

        if self.workload.operator == "split":
            r_rows, s_rows, counters, _ = split(
                self.spec, self.shadow["T"].values())
            if not rows_equal(rows_of("T_r"), r_rows):
                problems.append("T_r differs from split(shadow T)")
            if not rows_equal(rows_of("T_s"), s_rows):
                problems.append("T_s differs from split(shadow T)")
            s_table = self.db.table("T_s")
            actual = {s_table.schema.key_of(row.values): row.meta["counter"]
                      for row in s_table.scan()}
            if actual != counters:
                problems.append("T_s duplicate counters differ from "
                                "split(shadow T)")
        else:
            expected = full_outer_join(self.spec, self.shadow["R"].values(),
                                       self.shadow["S"].values())
            if not rows_equal(rows_of("T"), expected):
                problems.append("T differs from full_outer_join(shadow R, "
                                "shadow S)")
        return problems


def corrupt_one_target_row(setup: Setup) -> None:
    """Overwrite one non-key value of one published row (self-test aid)."""
    table = setup.db.table(setup.targets[0])
    row = next(iter(table.scan()))
    attr = next(a for a in table.schema.attribute_names
                if a not in table.schema.primary_key)
    table.update_rowid(row.rowid, {attr: "corrupted"})


def workload_names() -> List[str]:
    """Workload names in definition order."""
    return list(WORKLOADS)


def get(name: str, scale: float = 1.0) -> Optional[Workload]:
    """Look up a workload by name, scaled; ``None`` if unknown."""
    workload = WORKLOADS.get(name)
    return None if workload is None else workload.scaled(scale)
