"""Self-tests of the wall-clock benchmark (run from the repository root):

    PYTHONPATH=src python -m pytest -q wallbench/tests
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from repro.api import DeadlockError, LockWaitError
from repro.concurrency.locks import LockMode, record_resource

from wallbench import workloads
from wallbench.clock import REFERENCE_S, SpeedClock
from wallbench.driver import Driver, DriverError, build
from wallbench.run import check_counts, per_layer, per_layer_names, result_line
from wallbench.tracing import LayerTracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Small enough for a few seconds per trial, large enough that every
#: phase (population, propagation iterations, synchronization) runs.
SCALE = 0.05


def trial(name: str, seed: int = 1):
    setup, setup_s = build(workloads.get(name, SCALE), seed)
    return setup, Driver(setup).run(setup_s)


@pytest.mark.parametrize("name", workloads.workload_names())
def test_tiny_run_of_each_workload_completes(name):
    setup, result = trial(name)
    counts = result.counts
    assert counts["committed"] == counts["planned"]
    assert counts["iterations"] >= 1
    assert all(result.commits[w] > 0 for w in ("before", "during", "after"))
    assert setup.tf.done
    # The shadow follows post-swap writes too, so the published tables
    # still match the operator after the *after* window.
    assert setup.check_targets() == []


def test_gate_catches_one_corrupted_target_row():
    setup, _ = trial("split-propagate")
    workloads.corrupt_one_target_row(setup)
    assert setup.check_targets() != []


def test_driver_fails_when_the_gate_fails():
    setup, setup_s = build(workloads.get("foj-populate", SCALE), 1)
    check = setup.check_targets

    def corrupted_check():
        workloads.corrupt_one_target_row(setup)
        return check()

    setup.check_targets = corrupted_check
    with pytest.raises(DriverError, match="correctness gate failed"):
        Driver(setup).run(setup_s)


def test_counts_repeat_for_a_seed_and_differ_for_another():
    _, a = trial("split-lazy-hot", seed=3)
    _, b = trial("split-lazy-hot", seed=3)
    _, c = trial("split-lazy-hot", seed=4)
    assert check_counts([a, b]) is None
    assert check_counts([a, c]) is not None


def test_liveness_guard_names_phase_and_parked_transactions():
    setup, setup_s = build(workloads.get("split-propagate", SCALE), 1)
    db = setup.db
    # A transaction outside the driver locks every row any client can
    # touch, so all clients park and nothing can wake them.
    blocker = db.begin()
    for key in setup.source_keys["T"]:
        db.update(blocker, "T", key, {"name": -1.0})
    for i in range(setup.workload.dummy_rows):
        db.update(blocker, "dummy", (i,), {"payload": -1.0})
    with pytest.raises(DriverError, match=r"no progress.*phase created.*"
                                          r"parked transactions \[\d"):
        Driver(setup).run(setup_s)


def test_traced_trial_reconciles_and_reports_every_layer_metric():
    workload = workloads.get("split-propagate", SCALE)
    setup, setup_s = build(workload, 1)
    untraced = Driver(setup).run(setup_s)
    setup, setup_s = build(workload, 1)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = Driver(setup, tracer).run(setup_s)
    finally:
        tracer.uninstall()
    assert check_counts([untraced, traced]) is None
    total, wall = tracer.reconcile()
    assert abs(total - wall) <= 1e-6 * max(wall, 1.0)
    metrics = per_layer(untraced, traced, tracer)
    assert set(per_layer_names()) <= set(metrics)
    for layer in ("engine", "concurrency", "storage.table", "wal", "scan",
                  "transform.populate", "transform.propagate",
                  "transform.rules"):
        assert metrics[f"{layer}.calls"] > 0, layer


def test_run_fails_without_the_program_under_test(tmp_path):
    shutil.copytree(os.path.join(ROOT, "wallbench"),
                    tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "split-propagate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json

    from wallbench.run import END_TO_END

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        workloads.workload_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        per_layer_names()


def test_cycle_through_a_proxy_owner_fails_the_run():
    # The lock state of the hang the liveness guard found on
    # split-lazy-hot: a new transaction holds X on a target record and
    # waits for X on its source record, which an old transaction holds S;
    # the old transaction's proxy owner (the negated id, which takes its
    # mirrored locks) waits for S on that target record.  The lock
    # manager's wait-for graph does not link the proxy to its owner, so
    # it detects no deadlock.
    setup, _ = build(workloads.get("split-propagate", SCALE), 1)
    db = setup.db
    old, new = db.begin(), db.begin()
    source = record_resource(db.table("T").uid, (1,))
    target = record_resource(db.table("dummy").uid, (1,))
    db.locks.acquire(old.txn_id, source, LockMode.S)
    db.locks.acquire(new.txn_id, target, LockMode.X)
    with pytest.raises(LockWaitError):
        db.locks.acquire(new.txn_id, source, LockMode.X)
    with pytest.raises(LockWaitError):
        db.locks.acquire(-old.txn_id, target, LockMode.S)

    driver = Driver(setup)
    for client, txn in zip(driver.clients, (old, new)):
        client.txn, client.parked, client.active = txn, True, True
        driver._by_txn[txn.txn_id] = client
    with pytest.raises(DriverError, match=r"undetected deadlock.*"
                                          r"cycle \[(\d+), \d+, \1\].*"
                                          r"phase created.*parked "
                                          r"transactions \[\d+, \d+\]"):
        driver._all_parked("test")
    assert not old.is_finished and not new.is_finished


def test_result_line_counts_aborted_attempts_as_failed():
    setup, setup_s = build(workloads.get("split-propagate", SCALE), 1)
    update = setup.db.update
    forced = []

    def update_once_deadlocked(txn, *args, **kwargs):
        if not forced:
            forced.append(txn.txn_id)
            raise DeadlockError(txn.txn_id, (txn.txn_id,))
        return update(txn, *args, **kwargs)

    setup.db.update = update_once_deadlocked
    result = Driver(setup).run(setup_s)
    counts = result.counts
    assert counts["failed"] >= 1 and counts["aborted_deadlock"] >= 1
    line = result_line(counts, {}, {})
    assert line["failed"] == counts["failed"]
    assert line["attempted"] == counts["attempts"] == \
        counts["committed"] + counts["failed"]


def test_clock_scales_chunks_by_the_reference_slowdown():
    clock = SpeedClock()
    # Two chunks of 10 ms each; the reference slice ran at the nominal
    # speed around the first and at half speed around the second.
    clock.stops = [0.0, 0.010, 0.030]
    clock.marks = [0.0, 0.020, 0.040]
    clock.refs = [REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S]
    assert clock.seconds(0) == pytest.approx(0.010)
    assert clock.seconds(1) == pytest.approx(0.010)
    assert clock.scaled(0) == pytest.approx(0.010)
    assert clock.scaled(1) == pytest.approx(0.005)
    marks = clock.mark(), clock.mark()
    assert marks == (3, 4) and clock.refs[-1] > 0.0
