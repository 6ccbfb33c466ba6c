"""Wall-clock benchmark: user transactions before, during and after a live
schema change.

Usage (from the repository root)::

    python3 wallbench/run.py --workload split-propagate --seed 1 \\
        --seconds 20 --trace 0

One run repeats the same seeded trial -- set up, *before*, *during* and
*after* windows, correctness gate -- ``--seconds`` / 12 times (at least
twice), checks that every trial did exactly the same work, and prints a
human-readable report on standard error and one JSON object as the last
line of standard output.

``--trace 0`` reports the end-to-end metrics.  Every time in them is
scaled to a reference speed of the machine: the driver times a fixed slice
of interpreter work at every clock mark, and each chunk of work between
two marks is divided by how much slower than nominal that slice ran.
``setup_s`` is the median over trials.  Window times and transaction
latencies are *typical*: the trials replay identical work, so each chunk
(and each transaction) is taken at its median trial.  ``--trace 1`` runs
one untraced and one traced trial and reports the per-layer metrics of the
traced one, in plain wall-clock time.

Exit status: 0 on success; 1 if the correctness gate, the liveness guard
or the count-repeat check fails; 2 on bad arguments; 3 if the program
under test cannot be imported.  No result line is printed unless the run
succeeded.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Trials per untraced run: ``--seconds`` over the nominal wall time of
#: one trial (every workload is sized to about this), at least two (the
#: count-repeat check needs a pair).
TRIAL_SECONDS = 12.0
MIN_TRIALS = 2
MAX_TRIALS = 8
#: A run whose next trial would end past this many seconds fails instead.
RUN_DEADLINE_S = 150.0

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "txn_per_s.before": "txn/s",
    "txn_per_s.during": "txn/s",
    "txn_per_s.after": "txn/s",
    "txn_ms.p50.during": "ms",
    "txn_ms.p99.during": "ms",
    "txn_ms.p99.before": "ms",
    "transform_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) beyond ``<layer>.calls/busy_ms/
#: self_ms``: name -> (unit, the end-to-end metric it should move).
LAYER_EXTRAS = {
    "engine.self_ms_per_op": ("ms", "txn_per_s.before, all workloads"),
    "concurrency.waits": ("count", "txn_ms.p99.during on split-lazy-hot"),
    "concurrency.deadlocks": ("count", "txn_failed_ratio on split-lazy-hot"),
    "concurrency.grant_ratio": ("ratio",
                                "txn_ms.p99.during on split-lazy-hot"),
    "storage.schema.calls_per_row": ("ratio",
                                     "transform_s, setup_s on foj-populate"),
    "storage.index.probe_hits": ("count",
                                 "transform_s on split-propagate"),
    "storage.index.probe_misses": ("count",
                                   "transform_s on split-propagate"),
    "storage.index.probe_hit_ratio": ("ratio",
                                      "transform_s on split-propagate"),
    "wal.bytes_per_txn": ("B/txn", "txn_per_s.before on split-propagate, "
                                   "foj-populate"),
    "wal.syncs_per_txn": ("syncs/txn", "txn_per_s.before on "
                                       "split-propagate, foj-populate"),
    "populate.rows_per_s": ("rows/s", "transform_s on foj-populate"),
    "propagate.records_per_s": ("records/s",
                                "transform_s on split-propagate"),
    "transform.iterations": ("count", "transform_s on split-propagate"),
    "transform.sync.window_ms": ("ms", "txn_ms.p99.during"),
    "transform.sync.latched_units": ("units", "txn_ms.p99.during"),
    "transform.step.max_ms": ("ms", "txn_ms.p99.during"),
    "transform.rules.records_per_call": ("records/call",
                                         "propagate.records_per_s on "
                                         "split-propagate"),
    "lazy.misses": ("count", "txn_ms.p99.during on split-lazy-hot"),
    "lazy.miss_ms": ("ms", "txn_ms.p99.during on split-lazy-hot"),
    "mvcc.versions": ("count", "txn_per_s.during on split-lazy-hot"),
    "mvcc.trimmed": ("count", "txn_per_s.during on split-lazy-hot"),
    "txn_failed_ratio": ("ratio", "deadlock + doomed aborts / attempts"),
    "trace.overhead_ratio": ("ratio", "traced / untraced during time, at "
                                      "the reference speed"),
    "trace.driver_ms": ("ms", "driver's own time in the traced trial"),
    "trace.wall_ms": ("ms", "traced wall time, gate excluded"),
}

#: What each layer should move, for the report.
LAYER_TARGETS = {
    "engine": "txn_per_s.before on all three workloads",
    "concurrency": "txn_ms.p99.during, txn_failed_ratio on split-lazy-hot",
    "storage.table": "transform_s, setup_s on foj-populate",
    "storage.schema": "transform_s, setup_s on foj-populate",
    "storage.index": "transform_s on split-propagate",
    "wal": "txn_per_s.before on split-propagate and foj-populate",
    "scan": "transform_s on foj-populate",
    "transform.populate": "transform_s on foj-populate",
    "transform.propagate": "transform_s on split-propagate",
    "transform.sync": "txn_ms.p99.during",
    "transform.rules": "propagate.records_per_s on split-propagate",
    "transform.lazy": "txn_ms.p99.during on split-lazy-hot",
    "storage.mvcc": "txn_per_s.during on split-lazy-hot",
}


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order.

    Every traced layer reports calls, busy and self time; a layer that
    does not run on a workload (the lazy-miss hook and the MVCC manager
    run on split-lazy-hot only) reads 0.
    """
    from wallbench.tracing import LAYERS

    names: Dict[str, str] = {}
    for layer in LAYERS:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.busy_ms"] = "ms"
        names[f"{layer}.self_ms"] = "ms"
    for name, (unit, _) in LAYER_EXTRAS.items():
        names[name] = unit
    return names


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ensure_hash_seed(argv: List[str]) -> None:
    """Re-execute with a fixed string-hash seed.

    Set iteration order over string-keyed values follows the hash seed;
    pinning it keeps the work a seed implies identical across processes,
    not just across trials of one process.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
              + argv, env)


def run_trials(workload, seed: int, seconds: float, trace: bool):
    """Run the trials of one benchmark run; returns (trials, tracer)."""
    from wallbench.driver import Driver, DriverError, build
    from wallbench.tracing import LayerTracer

    # A fixed trial count per (workload, --seconds): the run never fits
    # more or fewer trials because the machine happened to be fast or slow.
    n_trials = 2 if trace else max(
        MIN_TRIALS, min(MAX_TRIALS, round(seconds / TRIAL_SECONDS)))
    trials = []
    tracer: Optional[LayerTracer] = None
    started = time.perf_counter()
    while True:
        traced = trace and len(trials) == 1
        # The cyclic collector is off for the whole trial and runs between
        # trials.  A generation-2 collection over the trial's heap pauses
        # every client for 10-130 ms at allocation-count-driven points;
        # whether one lands inside the short *during* window depends on
        # the seed, which would make that window's p99 bimodal.  Cyclic
        # garbage the trial leaves behind shows in ``peak_rss_mb``.
        gc.disable()
        try:
            setup, setup_s = build(workload, seed)
            if traced:
                tracer = LayerTracer()
                tracer.install()
            try:
                result = Driver(setup, tracer if traced else None).run(
                    setup_s)
            finally:
                if traced:
                    tracer.uninstall()
        finally:
            gc.enable()
        trials.append(result)
        del setup
        gc.collect()
        elapsed = time.perf_counter() - started
        if len(trials) >= n_trials:
            break
        if elapsed * (len(trials) + 1) / len(trials) > RUN_DEADLINE_S:
            raise DriverError(
                f"{len(trials)} of {n_trials} trials took {elapsed:.0f} s; "
                f"the next would end past {RUN_DEADLINE_S:.0f} s")
    return trials, tracer


def check_counts(trials) -> Optional[str]:
    """``None`` if every trial did identical work, else a description."""
    first = trials[0].counts
    for i, trial in enumerate(trials[1:], start=2):
        if trial.counts != first:
            diff = {k: (first.get(k), trial.counts.get(k))
                    for k in sorted(set(first) | set(trial.counts))
                    if first.get(k) != trial.counts.get(k)}
            return f"trial {i} counts differ from trial 1: {diff}"
    return None


def typical_seconds(trials, window: str) -> float:
    """Time of ``window`` at the reference speed, each chunk of work at its
    median trial.

    Trials of one seed do identical work, and the driver's clock marks
    fall at the same points of it, so chunk ``i`` is the same work in
    every trial.  Each chunk's wall time is divided by how much slower than
    the reference speed the machine ran it; the median over trials then
    drops what the correction leaves, such as a pause that hit one trial.
    """
    first, last = trials[0].spans[window]
    return sum(statistics.median(t.clock.scaled(i) for t in trials)
               for i in range(first, last))


def typical_latencies(trials, window: str) -> List[float]:
    """Each transaction's latency (ms) at the reference speed, at its
    median trial.

    The k-th commit of a window is the same logical transaction in every
    trial of a seed; its latency is corrected by the machine's speed in
    the chunk it committed in.
    """
    per_trial = [[ms / t.clock.slowdown(mark) for ms, mark in
                  zip(t.latencies[window], t.latency_marks[window])]
                 for t in trials]
    return [statistics.median(sample) for sample in zip(*per_trial)]


def end_to_end(trials) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    during = typical_seconds(trials, "during")
    during_ms = typical_latencies(trials, "during")
    return {
        "setup_s": statistics.median(t.setup_s for t in trials),
        "txn_per_s.before": trials[0].commits["before"] /
        typical_seconds(trials, "before"),
        "txn_per_s.during": trials[0].commits["during"] / during,
        "txn_per_s.after": trials[0].commits["after"] /
        typical_seconds(trials, "after"),
        "txn_ms.p50.during": percentile(during_ms, 50),
        "txn_ms.p99.during": percentile(during_ms, 99),
        "txn_ms.p99.before": percentile(
            typical_latencies(trials, "before"), 99),
        "transform_s": during,
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced, traced, tracer) -> Dict[str, float]:
    """The per-layer metrics of a traced trial."""
    layers = tracer.layers
    out: Dict[str, float] = {}
    for layer, stats in layers.items():
        out[f"{layer}.calls"] = stats.calls
        out[f"{layer}.busy_ms"] = stats.busy * 1000.0
        out[f"{layer}.self_ms"] = stats.self_time * 1000.0
    counts = traced.counts
    engine = layers["engine"]
    acquires, refused = tracer.method_counts("LockManager", "acquire")
    writes = layers["storage.table"].items
    probes = counts["probe_hits"] + counts["probe_misses"]
    populate_s = traced.steps["populate"].seconds
    propagate = traced.steps["propagate"]
    rules = layers["transform.rules"]
    out.update({
        "engine.self_ms_per_op": _ratio(engine.self_time * 1000.0,
                                        engine.calls),
        "concurrency.waits": counts["lock_waits"],
        "concurrency.deadlocks": counts["deadlocks"],
        "concurrency.grant_ratio": _ratio(acquires - refused, acquires),
        "storage.schema.calls_per_row": _ratio(
            layers["storage.schema"].calls, writes),
        "storage.index.probe_hits": counts["probe_hits"],
        "storage.index.probe_misses": counts["probe_misses"],
        "storage.index.probe_hit_ratio": _ratio(counts["probe_hits"],
                                                probes),
        "wal.bytes_per_txn": _ratio(traced.extras["disk_bytes_delta"],
                                    counts["committed"]),
        "wal.syncs_per_txn": _ratio(traced.extras["disk_syncs_delta"],
                                    counts["committed"]),
        "populate.rows_per_s": _ratio(layers["scan"].items, populate_s),
        "propagate.records_per_s": _ratio(propagate.propagated,
                                          propagate.seconds),
        "transform.iterations": counts["iterations"],
        "transform.sync.window_ms": traced.sync_window_ms,
        "transform.sync.latched_units": counts["latched_units"],
        "transform.step.max_ms": traced.step_max_ms,
        "transform.rules.records_per_call": _ratio(rules.items,
                                                   rules.outer),
        "lazy.misses": counts["lazy_misses"],
        # The lazy hook's busy time per migrated record.
        "lazy.miss_ms": _ratio(layers["transform.lazy"].busy * 1000.0,
                               counts["lazy_misses"]),
        "mvcc.versions": traced.extras["mvcc"].get("stamped", 0),
        "mvcc.trimmed": traced.extras["mvcc"].get("reclaimed", 0),
        "txn_failed_ratio": _ratio(counts["failed"], counts["attempts"]),
        "trace.overhead_ratio": _ratio(
            typical_seconds([traced], "during"),
            typical_seconds([untraced], "during")),
        "trace.driver_ms": tracer.driver * 1000.0,
        "trace.wall_ms": tracer.wall * 1000.0,
    })
    return out


def report(workload, seed: int, trials, metrics: Dict[str, float],
           units: Dict[str, str], tracer=None) -> None:
    """Human-readable report on standard error."""
    from wallbench.clock import REFERENCE_S

    err = sys.stderr
    t0 = trials[0]
    print(f"# wallbench {workload.name} seed={seed} trials={len(trials)}",
          file=err)
    print(f"#   {workload.why}", file=err)
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.4f} {units[name]}", file=err)
    samples = {w: len(t0.latencies[w]) for w in ("before", "during", "after")}
    print(f"  latency samples (transactions per window, each timed at its "
          f"median of {len(trials)} trials): {samples}", file=err)
    print("  per trial, plain wall clock (setup_s at the reference speed; "
          "slowdown = median reference time over the nominal one):",
          file=err)
    for i, t in enumerate(trials, start=1):
        tps = " ".join(f"{w}={t.commits[w] / t.window_seconds(w):.0f}"
                       for w in ("before", "during", "after"))
        slowdown = statistics.median(t.clock.refs) / REFERENCE_S
        print(f"  trial {i}: setup_s={t.setup_s:.3f} txn/s {tps} "
              f"transform_s={t.window_seconds('during'):.3f} "
              f"slowdown={slowdown:.2f}", file=err)
    counts = t0.counts
    failed = _ratio(counts["failed"], counts["attempts"])
    rates = {w: sum(t.commits[w] for t in trials) /
             sum(t.window_seconds(w) for t in trials)
             for w in ("before", "during")}
    before, during = rates["before"], rates["during"]
    print(f"  txn_failed_ratio {failed:.5f} "
          f"({counts['failed']} of {counts['attempts']} attempts: "
          f"{counts['aborted_deadlock']} deadlock, "
          f"{counts['aborted_doomed']} doomed)", file=err)
    print(f"  relative throughput during/before {during / before:.3f} "
          "(printed only: op-count interleaving makes it fall when the "
          "user path gets faster)", file=err)
    print(f"  counts (identical in every trial): "
          f"{json.dumps(counts, sort_keys=True)}", file=err)
    if tracer is not None:
        print("  layer                  calls      busy_ms      self_ms  "
              "should move", file=err)
        for layer, stats in tracer.layers.items():
            print(f"  {layer:20s} {stats.calls:9d} "
                  f"{stats.busy * 1000.0:12.2f} "
                  f"{stats.self_time * 1000.0:12.2f}  "
                  f"{LAYER_TARGETS[layer]}", file=err)
        for name, (unit, target) in LAYER_EXTRAS.items():
            print(f"  {name:36s} -> {target}", file=err)
        total, wall = tracer.reconcile()
        print(f"  reconciliation: layer self + driver = {total * 1000:.2f} "
              f"ms, traced wall = {wall * 1000:.2f} ms", file=err)


def result_line(counts: Dict[str, int], metrics: Dict[str, float],
                units: Dict[str, str]) -> Dict[str, object]:
    """The JSON result: one trial's transaction attempts, the attempts
    aborted (by deadlock detection or doomed by the synchronization) and
    retried, and the metrics."""
    return {
        "correct": True,
        "attempted": counts["attempts"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _ensure_hash_seed(argv)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        from wallbench import workloads
        from wallbench.driver import DriverError
    except ImportError as exc:
        print(f"wallbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 3
    workload = workloads.get(args.workload)
    if workload is None:
        print(f"wallbench: unknown workload {args.workload!r}; available: "
              f"{workloads.workload_names()}", file=sys.stderr)
        return 2

    try:
        trials, tracer = run_trials(workload, args.seed, args.seconds,
                                    bool(args.trace))
    except DriverError as exc:
        print(f"wallbench: {workload.name} seed={args.seed}: {exc}",
              file=sys.stderr)
        return 1
    mismatch = check_counts(trials)
    if mismatch is not None:
        print(f"wallbench: count-repeat check failed: {mismatch}",
              file=sys.stderr)
        return 1
    if args.trace:
        total, wall = tracer.reconcile()
        if abs(total - wall) > 0.01 * wall:
            print(f"wallbench: traced time does not reconcile: layers + "
                  f"driver = {total:.4f} s, wall = {wall:.4f} s",
                  file=sys.stderr)
            return 1
        metrics = per_layer(trials[0], trials[1], tracer)
        units = per_layer_names()
    else:
        metrics = end_to_end(trials)
        units = END_TO_END
    report(workload, args.seed, trials, metrics, units,
           tracer if args.trace else None)
    print(json.dumps(result_line(trials[0].counts, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
