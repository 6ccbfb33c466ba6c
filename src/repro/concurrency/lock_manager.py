"""Lock manager: record/table locks, wait queues, deadlock detection, latches.

The manager is synchronous and single-threaded (the reproduced prototype
interleaves transactions at operation granularity).  A request that cannot
be granted is *enqueued* and :class:`~repro.common.errors.LockWaitError` is
raised; the caller parks the transaction and retries the same operation once
:meth:`LockManager.release_all` (or an unlatch) reports the transaction as
woken.  Retrying re-enters :meth:`acquire`, which recognizes the granted
queued request.

Deadlocks are detected eagerly at enqueue time with a wait-for-graph cycle
check; the requester is the victim and its request is withdrawn.  A *proxy
owner* -- the id under which lock mirroring holds and requests a
transaction's mirrored locks -- is folded onto its transaction in that
graph (:meth:`LockManager.link_proxy`): the proxy waits on the
transaction's behalf and releases only after the transaction has ended, so
a cycle through it is a cycle through the transaction.

Table **latches** model the short exclusive pauses the transformation
framework takes during synchronization (Section 3.4): while a table is
latched, every record operation on it waits.  Latches are not owned by
transactions and are not subject to deadlock detection (they are held for
one bounded final propagation only).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.common.errors import DeadlockError, LockWaitError
from repro.concurrency.locks import (
    LockMode,
    LockOrigin,
    compatible,
)
from repro.obs import NULL_METRICS, Metrics


@dataclass(eq=False)
class LockRequest:
    """One transaction's (granted or waiting) claim on a resource.

    Compared by identity: queues remove the request object itself.
    """

    txn_id: int
    mode: LockMode
    origin: LockOrigin = LockOrigin.NATIVE
    granted: bool = False


class _ResourceState:
    """Granted set and FIFO wait queue for one resource."""

    __slots__ = ("granted", "waiting")

    def __init__(self) -> None:
        self.granted: List[LockRequest] = []
        self.waiting: Deque[LockRequest] = deque()

    def waiting_for(self, txn_id: int) -> Optional[LockRequest]:
        for request in self.waiting:
            if request.txn_id == txn_id:
                return request
        return None

    def empty(self) -> bool:
        return not self.granted and not self.waiting


class LockManager:
    """All locks and latches of one database."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self._resources: Dict[tuple, _ResourceState] = {}
        #: Granted requests per transaction, by resource: a covered
        #: re-acquire is two dict gets, and release_all walks this map.
        self._held: Dict[int, Dict[tuple, LockRequest]] = {}
        #: Resources on which a transaction has an ungranted queued
        #: request.  Must be purged on release_all: a request left behind
        #: by an aborted transaction would later be granted to a dead
        #: owner and starve every subsequent waiter.
        self._txn_waiting: Dict[int, Set[tuple]] = {}
        #: Proxy owner -> its transaction, and back (see link_proxy).
        self._proxy_txn: Dict[int, int] = {}
        self._txn_proxy: Dict[int, int] = {}
        self._latches: Dict[str, str] = {}
        self._latch_waiters: Dict[str, List[int]] = {}
        #: Clock reading at latch acquisition, for hold-time accounting.
        self._latch_since: Dict[str, float] = {}
        #: Observability registry (``lock.waits``, ``lock.deadlocks``,
        #: ``latch.hold_time``, ...); the no-op singleton by default.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Statistics: total waits, deadlocks (read by the simulator).
        self.wait_count = 0
        self.deadlock_count = 0

    # -- lock acquisition ------------------------------------------------------

    def acquire(self, txn_id: int, resource: tuple, mode: LockMode,
                origin: LockOrigin = LockOrigin.NATIVE) -> None:
        """Acquire (or wait for) ``mode`` on ``resource`` for ``txn_id``.

        Returns normally once the lock is held.  If the lock cannot be
        granted now, the request is enqueued and :class:`LockWaitError` is
        raised; a retry after wake-up finds the granted request and returns.
        Raises :class:`DeadlockError` (withdrawing the request) if waiting
        would close a wait-for cycle.
        """
        held = self._held.get(txn_id)
        own = None if held is None else held.get(resource)
        if own is not None:
            if own.mode is mode or own.mode.covers(mode):
                return
            state = self._resources[resource]
            # Upgrade to the join of the held and requested modes.
            upgraded = own.mode.join(mode)
            others = [g for g in state.granted if g.txn_id != txn_id]
            if all(compatible(g.mode, g.origin, upgraded, origin)
                   for g in others):
                own.mode = upgraded
                own.origin = origin if origin.is_source else own.origin
                return
            waiter = state.waiting_for(txn_id)
            if waiter is None:
                waiter = LockRequest(txn_id, upgraded, origin)
                state.waiting.appendleft(waiter)  # upgrades queue-jump
                self._remember_waiting(txn_id, resource)
            self._check_deadlock(txn_id, resource)
            self.wait_count += 1
            self.metrics.inc("lock.waits")
            self._blame_begin(txn_id, resource, state, upgraded, origin)
            raise LockWaitError(resource, txn_id)

        state = self._resources.get(resource)
        if state is None:
            state = self._resources[resource] = _ResourceState()
        waiting = self._txn_waiting.get(txn_id)
        if waiting is not None and resource in waiting:
            waiter = state.waiting_for(txn_id)
            if waiter is not None:
                if waiter.granted:
                    state.waiting.remove(waiter)
                    state.granted.append(waiter)
                    self._remember(txn_id, resource, waiter)
                    return
                self._check_deadlock(txn_id, resource)
                raise LockWaitError(resource, txn_id)

        if self._grantable(state, mode, origin, txn_id):
            request = LockRequest(txn_id, mode, origin, True)
            state.granted.append(request)
            self._remember(txn_id, resource, request)
            return

        state.waiting.append(LockRequest(txn_id, mode, origin))
        self._remember_waiting(txn_id, resource)
        try:
            self._check_deadlock(txn_id, resource)
        except DeadlockError:
            self._withdraw(state, txn_id)
            self._forget_waiting(txn_id, resource)
            raise
        self.wait_count += 1
        self.metrics.inc("lock.waits")
        self._blame_begin(txn_id, resource, state, mode, origin)
        raise LockWaitError(resource, txn_id)

    def _blame_begin(self, txn_id: int, resource: tuple,
                     state: _ResourceState, mode: LockMode,
                     origin: LockOrigin) -> None:
        """Open a blame wait edge against the owners standing in the way.

        Holders are the incompatible granted owners at enqueue time; when
        the block is purely FIFO fairness (a conflicting waiter queued
        ahead), that waiter is the blocker instead.  Idempotent per
        (waiter, resource) -- retries never restart the clock.
        """
        if not self.metrics.enabled:
            return
        holders = [g.txn_id for g in state.granted
                   if g.txn_id != txn_id
                   and not compatible(g.mode, g.origin, mode, origin)]
        if not holders:
            holders = [w.txn_id for w in state.waiting
                       if w.txn_id != txn_id
                       and not compatible(w.mode, w.origin, mode, origin)]
        self.metrics.blame.begin_wait(txn_id, resource, holders, "lock")

    def try_acquire(self, txn_id: int, resource: tuple, mode: LockMode,
                    origin: LockOrigin = LockOrigin.NATIVE) -> bool:
        """Acquire without waiting; return False instead of enqueueing."""
        state = self._resources.get(resource)
        if state is None:
            state = self._resources[resource] = _ResourceState()
        own = self._held.get(txn_id, {}).get(resource)
        if own is not None and own.mode.covers(mode):
            return True
        if own is None and self._grantable(state, mode, origin, txn_id):
            request = LockRequest(txn_id, mode, origin, True)
            state.granted.append(request)
            self._remember(txn_id, resource, request)
            return True
        if own is not None:
            upgraded = own.mode.join(mode)
            others = [g for g in state.granted if g.txn_id != txn_id]
            if all(compatible(g.mode, g.origin, upgraded, origin)
                   for g in others):
                own.mode = upgraded
                return True
        return False

    def grant_direct(self, txn_id: int, resource: tuple, mode: LockMode,
                     origin: LockOrigin) -> None:
        """Install a lock without compatibility checking.

        Used by the synchronization step to *materialize* the locks the
        propagator maintained on the transformed tables during the
        transformation (Section 3.3: "they are ignored for now").  By
        construction, only mutually compatible source-origin locks are ever
        materialized, and no native lock can exist yet because the
        transformed table was not publicly visible.
        """
        state = self._resources.get(resource)
        if state is None:
            state = self._resources[resource] = _ResourceState()
        own = self._held.get(txn_id, {}).get(resource)
        if own is not None:
            own.mode = own.mode.join(mode)
            own.origin = origin
            return
        request = LockRequest(txn_id, mode, origin, True)
        state.granted.append(request)
        self._remember(txn_id, resource, request)

    def _grantable(self, state: _ResourceState, mode: LockMode,
                   origin: LockOrigin, txn_id: int) -> bool:
        if any(not compatible(g.mode, g.origin, mode, origin)
               for g in state.granted if g.txn_id != txn_id):
            return False
        # FIFO fairness: do not overtake existing waiters with a
        # conflicting request.
        for waiter in state.waiting:
            if not compatible(waiter.mode, waiter.origin, mode, origin):
                return False
        return True

    def _remember(self, txn_id: int, resource: tuple,
                  request: LockRequest) -> None:
        held = self._held.get(txn_id)
        if held is None:
            self._held[txn_id] = {resource: request}
        else:
            held[resource] = request
        self._forget_waiting(txn_id, resource)

    def _remember_waiting(self, txn_id: int, resource: tuple) -> None:
        self._txn_waiting.setdefault(txn_id, set()).add(resource)

    def _forget_waiting(self, txn_id: int, resource: tuple) -> None:
        waiting = self._txn_waiting.get(txn_id)
        if waiting is not None:
            waiting.discard(resource)
            if not waiting:
                del self._txn_waiting[txn_id]

    def _withdraw(self, state: _ResourceState, txn_id: int) -> None:
        waiter = state.waiting_for(txn_id)
        if waiter is not None:
            state.waiting.remove(waiter)

    # -- release ------------------------------------------------------------------

    def release(self, txn_id: int, resource: tuple) -> List[int]:
        """Release one lock; returns ids of transactions woken by grants."""
        state = self._resources.get(resource)
        if state is None:
            return []
        held = self._held.get(txn_id)
        own = None if held is None else held.pop(resource, None)
        if own is not None:
            state.granted.remove(own)
        else:
            self._withdraw(state, txn_id)
            self._forget_waiting(txn_id, resource)
            self.metrics.blame.end_wait(txn_id, resource,
                                        outcome="abandoned")
        woken = self._promote(resource, state)
        if state.empty():
            self._resources.pop(resource, None)
        return woken

    def release_all(self, txn_id: int) -> List[int]:
        """Release every lock of a transaction (end of strict 2PL).

        Also withdraws the still-queued requests of the transaction's
        proxy owner: they were made on its behalf for an operation that
        will never complete.  The proxy's *granted* locks stay; the
        propagator releases them at the transaction's end record.

        Returns the ids of transactions whose queued requests became
        granted; the caller (simulator or session driver) re-schedules them.
        """
        held = self._held.pop(txn_id, None) or {}
        waiting = self._txn_waiting.pop(txn_id, None) or set()
        proxy = self._txn_proxy.pop(txn_id, None)
        proxied = self._proxy_txn.pop(txn_id, None)
        if proxied is not None and self._txn_proxy.get(proxied) == txn_id:
            del self._txn_proxy[proxied]
        # Any wait this transaction still had open (lock, latch or
        # blocked-table) ends here as abandoned: strict 2PL release is
        # the common exit of commit, abort and deadlock-victim paths.
        # Scoped roles (a lazy-miss marking) die with the transaction.
        self.metrics.blame.abandon_waits(txn_id)
        self.metrics.blame.clear_role(txn_id)
        woken: List[int] = []
        for resource, own in held.items():
            state = self._resources.get(resource)
            if state is None:
                continue
            state.granted.remove(own)
            if resource in waiting:
                self._withdraw(state, txn_id)
            self._settle(resource, state, woken)
        for resource in waiting.difference(held):
            state = self._resources.get(resource)
            if state is not None:
                self._withdraw(state, txn_id)
                self._settle(resource, state, woken)
        proxy_waiting = None if proxy is None \
            else self._txn_waiting.pop(proxy, None)
        if proxy_waiting:
            self.metrics.blame.abandon_waits(proxy)
            for resource in proxy_waiting:
                state = self._resources.get(resource)
                if state is not None:
                    self._withdraw(state, proxy)
                    self._settle(resource, state, woken)
        return woken

    def _settle(self, resource: tuple, state: _ResourceState,
                woken: List[int]) -> None:
        """Promote waiters after a removal; drop the state once empty."""
        if state.waiting:
            woken.extend(self._promote(resource, state))
        if state.empty():
            self._resources.pop(resource, None)

    def _promote(self, resource: tuple, state: _ResourceState) -> List[int]:
        """Grant queued requests now compatible, FIFO; return woken txns."""
        woken: List[int] = []
        changed = True
        while changed:
            changed = False
            for waiter in list(state.waiting):
                if all(compatible(g.mode, g.origin, waiter.mode,
                                  waiter.origin)
                       for g in state.granted
                       if g.txn_id != waiter.txn_id):
                    state.waiting.remove(waiter)
                    own = self._held.get(waiter.txn_id, {}).get(resource)
                    if own is not None:
                        own.mode = own.mode.join(waiter.mode)
                        self._forget_waiting(waiter.txn_id, resource)
                    else:
                        waiter.granted = True
                        state.granted.append(waiter)
                        self._remember(waiter.txn_id, resource, waiter)
                    self.metrics.blame.end_wait(waiter.txn_id, resource)
                    woken.append(waiter.txn_id)
                    changed = True
                else:
                    break  # strict FIFO beyond the first blocked waiter
        return woken

    # -- introspection ----------------------------------------------------------------

    def holders(self, resource: tuple) -> List[LockRequest]:
        """Granted requests on a resource."""
        state = self._resources.get(resource)
        return list(state.granted) if state else []

    def holds(self, txn_id: int, resource: tuple,
              mode: Optional[LockMode] = None) -> bool:
        """Whether the transaction holds (at least) ``mode`` on resource."""
        own = self._held.get(txn_id, {}).get(resource)
        if own is None:
            return False
        return True if mode is None else own.mode.covers(mode)

    def locks_of(self, txn_id: int) -> Set[tuple]:
        """Resources on which the transaction holds locks."""
        return set(self._held.get(txn_id, ()))

    def waiting_txns(self) -> Set[int]:
        """Ids of transactions with a queued (ungranted) request."""
        result: Set[int] = set()
        for state in self._resources.values():
            for waiter in state.waiting:
                if not waiter.granted:
                    result.add(waiter.txn_id)
        return result

    # -- deadlock detection ------------------------------------------------------------

    def link_proxy(self, proxy: int, txn_id: int) -> None:
        """Declare ``proxy`` the owner of ``txn_id``'s mirrored locks.

        From now on the wait-for graph folds the proxy onto the
        transaction, so a cycle through the proxy is detected (and the
        victim is the transaction), and ending the transaction withdraws
        the proxy's queued requests.
        """
        self._proxy_txn[proxy] = txn_id
        self._txn_proxy[txn_id] = proxy

    def _check_deadlock(self, txn_id: int, resource: tuple) -> None:
        """Raise :class:`DeadlockError` if ``txn_id`` waiting closes a cycle.

        A proxy requester is checked, and named the victim, as its
        transaction.
        """
        start = self._proxy_txn.get(txn_id, txn_id)
        graph = self._wait_for_graph()
        # DFS from start looking for a path back to start.
        stack: List[Tuple[int, Tuple[int, ...]]] = [(start, (start,))]
        seen: Set[int] = set()
        while stack:
            node, path = stack.pop()
            for successor in graph.get(node, ()):  # holders node waits for
                if successor == start:
                    self.deadlock_count += 1
                    self.metrics.inc("lock.deadlocks")
                    raise DeadlockError(start, path)
                if successor not in seen:
                    seen.add(successor)
                    stack.append((successor, path + (successor,)))

    def _wait_for_graph(self) -> Dict[int, Set[int]]:
        """Waiter -> the owners it waits for, proxies folded onto their
        transactions."""
        owner = self._proxy_txn.get
        graph: Dict[int, Set[int]] = {}
        for state in self._resources.values():
            if not state.waiting:
                continue
            ahead: List[LockRequest] = list(state.granted)
            for waiter in state.waiting:
                if waiter.granted:
                    ahead.append(waiter)
                    continue
                blockers = {
                    owner(other.txn_id, other.txn_id)
                    for other in ahead
                    if other.txn_id != waiter.txn_id
                    and not compatible(other.mode, other.origin,
                                       waiter.mode, waiter.origin)
                }
                if blockers:
                    graph.setdefault(owner(waiter.txn_id, waiter.txn_id),
                                     set()).update(blockers)
                ahead.append(waiter)
        return graph

    # -- table latches -----------------------------------------------------------------

    def latch_table(self, table: str, owner: str) -> None:
        """Take the exclusive table latch (transformation sync only)."""
        current = self._latches.get(table)
        if current is not None and current != owner:
            raise LockWaitError(("latch", table), -1)
        if current is None and self.metrics.enabled:
            self._latch_since[table] = self.metrics.now()
            self.metrics.inc("latch.acquired")
            self.metrics.trace("latch.acquire", table=table, owner=owner)
        self._latches[table] = owner

    def unlatch_table(self, table: str, owner: str) -> List[int]:
        """Drop the latch; returns transaction ids waiting on it."""
        if self._latches.get(table) == owner:
            del self._latches[table]
            if self.metrics.enabled:
                since = self._latch_since.pop(table, None)
                held = 0.0 if since is None else self.metrics.now() - since
                self.metrics.inc("latch.released")
                self.metrics.observe("latch.hold_time", held)
                self.metrics.trace("latch.release", table=table,
                                   owner=owner, held=held)
        waiters = self._latch_waiters.pop(table, [])
        for waiter in waiters:
            self.metrics.blame.end_wait(waiter, ("latch", table))
        return waiters

    def is_latched(self, table: str) -> bool:
        """Whether the table is currently latched."""
        return table in self._latches

    def check_latch(self, table: str, txn_id: int) -> None:
        """Raise :class:`LockWaitError` (and register the waiter) if latched."""
        if table in self._latches:
            waiters = self._latch_waiters.setdefault(table, [])
            if txn_id not in waiters:
                waiters.append(txn_id)
            self.wait_count += 1
            self.metrics.inc("latch.waits")
            self.metrics.blame.begin_wait(
                txn_id, ("latch", table), (self._latches[table],), "latch")
            raise LockWaitError(("latch", table), txn_id)
