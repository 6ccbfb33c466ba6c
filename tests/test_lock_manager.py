"""Unit tests for the lock manager: waits, deadlocks, latches, cleanup."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DeadlockError, LockWaitError
from repro.concurrency import LockManager, LockMode, LockOrigin
from repro.obs import Metrics

S, X = LockMode.S, LockMode.X
RES = ("rec", 1, (1,))
RES2 = ("rec", 1, (2,))


def test_grant_and_reentrant_acquire():
    lm = LockManager()
    lm.acquire(1, RES, X)
    lm.acquire(1, RES, X)  # reentrant
    lm.acquire(1, RES, S)  # covered by X
    assert lm.holds(1, RES, X)


def test_shared_locks_coexist():
    lm = LockManager()
    lm.acquire(1, RES, S)
    lm.acquire(2, RES, S)
    assert lm.holds(1, RES, S) and lm.holds(2, RES, S)


def test_conflicting_request_waits_and_is_granted_on_release():
    lm = LockManager()
    lm.acquire(1, RES, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)
    assert 2 in lm.waiting_txns()
    woken = lm.release_all(1)
    assert woken == [2]
    # Retry finds the granted queued request.
    lm.acquire(2, RES, X)
    assert lm.holds(2, RES, X)


def test_fifo_fairness_no_overtaking():
    lm = LockManager()
    lm.acquire(1, RES, S)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)  # queued behind the S holder
    # A new S request must NOT overtake the queued X writer.
    with pytest.raises(LockWaitError):
        lm.acquire(3, RES, S)
    woken = lm.release_all(1)
    assert woken[0] == 2  # writer first


def test_upgrade_grants_when_sole_holder():
    lm = LockManager()
    lm.acquire(1, RES, S)
    lm.acquire(1, RES, X)  # upgrade in place
    assert lm.holds(1, RES, X)


def test_upgrade_waits_and_queue_jumps():
    lm = LockManager()
    lm.acquire(1, RES, S)
    lm.acquire(2, RES, S)
    with pytest.raises(LockWaitError):
        lm.acquire(1, RES, X)  # upgrade blocked by 2's S
    lm.release_all(2)
    lm.acquire(1, RES, X)
    assert lm.holds(1, RES, X)


def test_deadlock_two_txn_cycle():
    lm = LockManager()
    lm.acquire(1, RES, X)
    lm.acquire(2, RES2, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)  # 2 waits for 1
    with pytest.raises(DeadlockError):
        lm.acquire(1, RES2, X)  # would close the cycle
    assert lm.deadlock_count == 1
    # Victim's request was withdrawn: releasing 2 leaves no orphan waiter.
    lm.release_all(1)
    lm.acquire(2, RES, X)


def test_deadlock_three_txn_cycle():
    lm = LockManager()
    a, b, c = ("rec", 1, ("a",)), ("rec", 1, ("b",)), ("rec", 1, ("c",))
    lm.acquire(1, a, X)
    lm.acquire(2, b, X)
    lm.acquire(3, c, X)
    with pytest.raises(LockWaitError):
        lm.acquire(1, b, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, c, X)
    with pytest.raises(DeadlockError):
        lm.acquire(3, a, X)


def test_release_single_resource():
    lm = LockManager()
    lm.acquire(1, RES, X)
    lm.acquire(1, RES2, X)
    lm.release(1, RES)
    assert not lm.holds(1, RES)
    assert lm.holds(1, RES2)


def test_release_all_purges_waiting_requests():
    """Regression: an aborted transaction's queued request must not be
    granted to the dead owner later (it would starve all waiters)."""
    lm = LockManager()
    lm.acquire(1, RES, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)
    lm.release_all(2)  # txn 2 aborts while waiting
    woken = lm.release_all(1)
    assert woken == []  # no zombie grant
    assert lm.holders(RES) == []
    lm.acquire(3, RES, X)  # resource fully available


def test_release_all_wakes_chain():
    lm = LockManager()
    lm.acquire(1, RES, X)
    for txn in (2, 3):
        with pytest.raises(LockWaitError):
            lm.acquire(txn, RES, S)
    woken = lm.release_all(1)
    assert set(woken) == {2, 3}  # both readers granted together


def test_grant_direct_installs_without_check():
    lm = LockManager()
    lm.grant_direct(-5, RES, X, LockOrigin.SOURCE_A)
    lm.grant_direct(-6, RES, X, LockOrigin.SOURCE_B)  # compatible by Fig.2
    holders = lm.holders(RES)
    assert {h.txn_id for h in holders} == {-5, -6}
    # A native writer now conflicts and must wait.
    with pytest.raises(LockWaitError):
        lm.acquire(7, RES, X)
    lm.release_all(-5)
    with pytest.raises(LockWaitError):
        lm.acquire(7, RES, X)  # still blocked by -6
    woken = lm.release_all(-6)
    assert woken == [7]


def test_source_origin_locks_conflict_with_native_reads_per_fig2():
    lm = LockManager()
    lm.grant_direct(-5, RES, X, LockOrigin.SOURCE_A)
    with pytest.raises(LockWaitError):
        lm.acquire(8, RES, S)  # T.r vs R.w: conflict
    lm2 = LockManager()
    lm2.grant_direct(-5, RES, S, LockOrigin.SOURCE_A)
    lm2.acquire(8, RES, S)  # T.r vs R.r: compatible


def test_try_acquire():
    lm = LockManager()
    assert lm.try_acquire(1, RES, X)
    assert not lm.try_acquire(2, RES, S)
    assert lm.try_acquire(1, RES, S)  # already covered
    assert 2 not in lm.waiting_txns()  # try does not enqueue


def test_locks_of():
    lm = LockManager()
    lm.acquire(1, RES, X)
    lm.acquire(1, RES2, S)
    assert lm.locks_of(1) == {RES, RES2}
    lm.release_all(1)
    assert lm.locks_of(1) == set()


def test_latch_lifecycle_and_waiters():
    lm = LockManager()
    lm.latch_table(10, "tf")
    assert lm.is_latched(10)
    with pytest.raises(LockWaitError):
        lm.check_latch(10, 1)
    with pytest.raises(LockWaitError):
        lm.check_latch(10, 2)
    with pytest.raises(LockWaitError):
        lm.check_latch(10, 1)  # re-check does not duplicate the waiter
    woken = lm.unlatch_table(10, "tf")
    assert woken == [1, 2]
    assert not lm.is_latched(10)
    lm.check_latch(10, 3)  # no-op when unlatched


def test_latch_reentrant_same_owner_conflicts_other():
    lm = LockManager()
    lm.latch_table(10, "tf")
    lm.latch_table(10, "tf")  # reentrant
    with pytest.raises(LockWaitError):
        lm.latch_table(10, "other")
    lm.unlatch_table(10, "other")  # wrong owner: no-op
    assert lm.is_latched(10)
    lm.unlatch_table(10, "tf")
    assert not lm.is_latched(10)


def test_wait_count_statistics():
    lm = LockManager()
    lm.acquire(1, RES, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)
    assert lm.wait_count == 1


# ---------------------------------------------------------------------------
# Proxy owners (lock mirroring)
# ---------------------------------------------------------------------------

SRC = ("rec", 3, (1,))   # a source record
TGT = ("rec", 4, (1,))   # the transformed record it mirrors to
A, B = 1, 2              # A is a new transaction, B an old one
PROXY_B = -B             # holds and requests B's mirrored locks


def _mirrored(lm, txn, proxy, source, target, mode=X):
    """An old transaction's lock on a source record, mirrored onto the
    transformed record under its proxy (what ``LockMirror`` does)."""
    lm.acquire(txn, source, mode)
    lm.link_proxy(proxy, txn)
    lm.acquire(proxy, target, mode, origin=LockOrigin.SOURCE_A)


def test_cycle_through_proxy_lock_is_a_deadlock():
    """A holds a native lock and waits behind B's mirrored proxy lock;
    B then waiting on A closes a cycle through the proxy."""
    lm = LockManager()
    _mirrored(lm, B, PROXY_B, SRC, TGT)
    lm.acquire(A, RES, X)
    with pytest.raises(LockWaitError):
        lm.acquire(A, TGT, X)        # native X vs the proxy's mirrored X
    with pytest.raises(DeadlockError) as err:
        lm.acquire(B, RES, X)        # B -> A -> proxy of B
    assert err.value.txn_id == B
    assert lm.deadlock_count == 1
    lm.release_all(B)                # the victim aborts; A still waits
    assert A in lm.waiting_txns()    # on the proxy until B's end record
    assert lm.release_all(PROXY_B) == [A]
    lm.acquire(A, TGT, X)


def test_proxy_request_closing_a_cycle_names_its_transaction():
    """The proxy's own request closes the cycle: the victim is B, and the
    proxy's request is withdrawn."""
    lm = LockManager()
    lm.acquire(B, SRC, X)
    lm.acquire(A, TGT, X)
    with pytest.raises(LockWaitError):
        lm.acquire(A, SRC, X)        # A waits on B (new txn's source lock)
    lm.link_proxy(PROXY_B, B)
    with pytest.raises(DeadlockError) as err:
        lm.acquire(PROXY_B, TGT, X, origin=LockOrigin.SOURCE_A)
    assert err.value.txn_id == B
    assert PROXY_B not in lm.waiting_txns()


def test_ending_a_transaction_withdraws_its_proxys_queued_requests():
    """Regression: a request queued by the proxy on B's behalf must not
    outlive B.  Granted later, it would be held for a finished
    transaction whose end record the propagator may already have passed."""
    metrics = Metrics()
    lm = LockManager(metrics)
    lm.acquire(A, TGT, X)
    lm.acquire(B, SRC, X)
    lm.link_proxy(PROXY_B, B)
    with pytest.raises(LockWaitError):
        lm.acquire(PROXY_B, TGT, X, origin=LockOrigin.SOURCE_A)
    assert metrics.blame.snapshot()["edges"]["open"] == 1
    assert lm.release_all(B) == []   # B aborts while its proxy waits
    assert PROXY_B not in lm.waiting_txns()
    assert metrics.blame.snapshot()["edges"]["open"] == 0
    assert lm.release_all(A) == []   # no grant to the dead proxy
    assert lm.holders(TGT) == []


def test_proxy_granted_locks_outlive_the_transaction():
    lm = LockManager()
    _mirrored(lm, B, PROXY_B, SRC, TGT)
    lm.release_all(B)                # B commits
    assert lm.holds(PROXY_B, TGT, X)
    with pytest.raises(LockWaitError):
        lm.acquire(A, TGT, X)
    assert lm.release_all(PROXY_B) == [A]


def _merged_cycle(lm):
    """A cycle in the wait-for graph with every proxy merged into its
    transaction, or ``None``."""
    graph = {}
    for waiter, blockers in lm._wait_for_graph().items():
        graph.setdefault(abs(waiter), set()).update(abs(b) for b in blockers)
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in graph.get(node, ()):
            if state.get(nxt) == "open":
                return path + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for node in list(graph):
        if node not in state:
            found = visit(node, [node])
            if found:
                return found
    return None


_OPS = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([S, X])),
                min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(old=st.lists(st.booleans(), min_size=2, max_size=4),
       plans=st.lists(_OPS, min_size=4, max_size=4),
       schedule=st.lists(st.integers(0, 63), max_size=60))
def test_no_parked_state_holds_a_proxy_cycle(old, plans, schedule):
    """Random native/mirrored interleavings over three source records and
    their transformed images.  Old transactions lock source records and
    mirror onto the targets under their proxy; new ones lock targets and
    mirror onto the sources under their own id.  A proxy's locks are
    released only by a later "propagator" action after its transaction
    ended.  After every action the proxy-merged wait-for graph is
    acyclic, and whenever every live transaction is parked a proxy
    release is pending (no all-parked state is stuck)."""
    lm = LockManager()
    txns = list(range(1, len(old) + 1))
    pos = {t: 0 for t in txns}
    parked, done, held_by_proxy = set(), set(), set()

    def run(t):
        if pos[t] == len(plans[t - 1]):
            done.add(t)
            if old[t - 1]:
                held_by_proxy.add(t)
            return lm.release_all(t)
        index, mode = plans[t - 1][pos[t]]
        src, tgt = ("rec", 1, (index,)), ("rec", 2, (index,))
        try:
            if old[t - 1]:
                _mirrored(lm, t, -t, src, tgt, mode)
            else:
                lm.acquire(t, tgt, mode)
                lm.acquire(t, src, mode)
        except LockWaitError:
            parked.add(t)
            return []
        except DeadlockError as exc:
            assert exc.txn_id == t
            done.add(t)
            woken = lm.release_all(t)
            if old[t - 1]:
                held_by_proxy.add(t)
            return woken
        pos[t] += 1
        return []

    def actions():
        runnable = [("run", t) for t in txns
                    if t not in done and t not in parked]
        return runnable + [("propagate", t) for t in sorted(held_by_proxy)]

    def act(kind, t):
        if kind == "run":
            woken = run(t)
        else:
            held_by_proxy.discard(t)
            woken = lm.release_all(-t)
        parked.difference_update(abs(w) for w in woken)
        assert _merged_cycle(lm) is None

    for choice in schedule:
        options = actions()
        if not options:
            break
        act(*options[choice % len(options)])
    for _ in range(200):             # drain round-robin: must finish
        options = actions()
        if not options:
            break
        act(*options[0])
    assert done == set(txns), (parked, held_by_proxy)
