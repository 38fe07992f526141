"""Scatter-gather batch execution across replica endpoints.

Grid WEKA (the paper's §2 related work) distributes bulk workloads —
"labelling of test data using a previously built classifier" — across
an ad-hoc pool of machines.  :class:`ScatterGather` is that capability
for any batched operation: it splits an ordered work list across replica
endpoints, sizes each endpoint's chunks adaptively (an EWMA of its
per-item latency aims every dispatch at a fixed time slice, so fast
replicas take bigger bites), merges results back in input order, and
migrates the chunks of a failed endpoint to the survivors — the same
fold-migration semantics :func:`repro.services.grid
.distributed_cross_validate` has always had, factored out so bulk
scoring and cross-validation share one engine.

The helper is policy-only: it never touches sockets or envelopes itself
(the caller's ``dispatch`` callback does, typically via
``ServiceProxy.call``/``call_many``), and it must stay free of chaos
imports (enforced by ``tools/layering_lint.py``) — fault injection
belongs to the transport chains underneath.

A failed dispatch is read by :func:`repro.ws.failover.verdict_of`.  A
shed is *backpressure*, not death: the chunk is re-queued, the
endpoint's next bite halved, and the worker backs off for the server's
``Retry-After`` hint — a slowdown instead of a migration, until
``max_overloads`` *consecutive* sheds demote the endpoint to dead.

Metrics: ``ws.scatter.rebalance`` counts chunk migrations off dead
endpoints; ``ws.scatter.backpressure`` counts overload backoffs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import DeadlineExceeded, WorkflowError
from repro.obs import get_metrics
from repro.ws import failover
from repro.ws.admission import DEFAULT_RETRY_HINT_S
from repro.ws.deadline import current_deadline

#: Process-wide default chunk size (``repro run --batch-size`` sets it).
DEFAULT_CHUNK = 64

_default_chunk = DEFAULT_CHUNK


def set_default_chunk(size: int) -> None:
    """Set the process-wide initial chunk size (≥ 1)."""
    global _default_chunk
    _default_chunk = max(1, int(size))


def default_chunk() -> int:
    """The process-wide initial chunk size."""
    return _default_chunk


def resolve_endpoints(endpoints) -> list:
    """Materialise a caller's endpoint argument into a proxy list.

    Callers historically pass a static sequence of client proxies; the
    mesh introduced *endpoint sources* — objects exposing ``proxies()``
    that answer one proxy per currently-live replica (see
    :meth:`repro.ws.mesh.endpoints.ServiceEndpoints.proxies`).  This
    duck-typed resolution is what lets ``grid.*``, bulk scoring and the
    experiment runner consume live discovery without importing the mesh:
    resolve at run start, and a replica set that changed since the last
    run is simply picked up on the next resolution.
    """
    if hasattr(endpoints, "proxies"):
        return list(endpoints.proxies())
    return list(endpoints)


@dataclass
class ChunkDispatch:
    """Bookkeeping for one dispatch attempt of one chunk."""

    endpoint: int
    indices: tuple[int, ...]
    attempts: int = 1
    migrated: bool = False
    completed: bool = True
    seconds: float = 0.0


@dataclass
class ScatterReport:
    """Merged results + execution trace of one scatter-gather run."""

    results: list
    dispatches: list[ChunkDispatch] = field(default_factory=list)

    @property
    def rebalances(self) -> int:
        """Chunk attempts that failed and were migrated to survivors."""
        return sum(1 for d in self.dispatches if not d.completed)

    def endpoint_loads(self) -> dict[int, int]:
        """Completed items per endpoint (failed attempts excluded)."""
        loads: dict[int, int] = {}
        for d in self.dispatches:
            if d.completed:
                loads[d.endpoint] = loads.get(d.endpoint, 0) \
                    + len(d.indices)
        return loads


class _EndpointState:
    """Adaptive chunk sizing for one endpoint (EWMA of per-item time)."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.ewma_s: float | None = None
        self.consecutive_overloads = 0

    def observe(self, per_item_s: float) -> None:
        if self.ewma_s is None:
            self.ewma_s = per_item_s
        else:
            self.ewma_s = (self.alpha * per_item_s
                           + (1.0 - self.alpha) * self.ewma_s)


class ScatterGather:
    """Split an ordered work list across *n_endpoints* replicas.

    ``run(items, dispatch)`` drives one worker thread per endpoint;
    each repeatedly takes the next chunk off a shared queue and calls
    ``dispatch(endpoint, chunk_items, indices)``, which must return one
    result per item (in chunk order).  A dead endpoint's worker exits
    and its chunk is re-queued for the survivors, who stay until nothing
    is pending or in flight.  Chunk sizes start at *chunk* and adapt per
    endpoint: an EWMA of observed per-item seconds aims each dispatch
    at *target_chunk_s* of work, clamped to ``[min_chunk, max_chunk]``.
    An ambient deadline (captured at ``run`` time — worker threads do
    not inherit contextvars) stops dispatching and fails the run fast.
    """

    def __init__(self, n_endpoints: int, *, chunk: int | None = None,
                 min_chunk: int = 1, max_chunk: int = 256,
                 target_chunk_s: float = 0.25, alpha: float = 0.3,
                 max_overloads: int = 8, clock: Clock = SYSTEM_CLOCK,
                 name: str = "scatter"):
        if n_endpoints < 1:
            raise WorkflowError("scatter-gather needs ≥ 1 endpoint")
        self.n_endpoints = n_endpoints
        self.chunk = chunk if chunk is not None else default_chunk()
        self.min_chunk = max(1, min_chunk)
        self.max_chunk = max(self.min_chunk, max_chunk)
        self.target_chunk_s = target_chunk_s
        #: Consecutive sheds tolerated per endpoint before it is
        #: treated like a failed replica (its chunk migrates).
        self.max_overloads = max_overloads
        #: Injectable so backoff behaviour is testable without sleeping.
        self.clock = clock
        self.name = name
        self._states = [_EndpointState(alpha) for _ in range(n_endpoints)]

    def _note_overload(self, endpoint: int) -> int:
        """Record one shed (caller holds the run lock); halve the bite.

        Returns the endpoint's consecutive-overload count.  The EWMA is
        inflated instead of zeroed so the next successful dispatch
        re-converges smoothly from the smaller chunk.
        """
        state = self._states[endpoint]
        state.consecutive_overloads += 1
        if state.ewma_s is None:
            # no latency signal yet: seed the EWMA so the next bite is
            # half the configured chunk
            half = max(self.min_chunk, self.chunk // 2)
            state.ewma_s = self.target_chunk_s / half
        else:
            state.ewma_s *= 2.0
        return state.consecutive_overloads

    def chunk_for(self, endpoint: int) -> int:
        """Current chunk size for *endpoint* (adaptive after feedback)."""
        state = self._states[endpoint]
        if state.ewma_s is None:
            size = self.chunk
        elif state.ewma_s <= 0:
            size = self.max_chunk
        else:
            size = int(round(self.target_chunk_s / state.ewma_s))
        return max(self.min_chunk, min(self.max_chunk, size))

    def run(self, items: Sequence, dispatch: Callable,
            on_chunk: Callable | None = None) -> ScatterReport:
        """Dispatch *items* across the endpoints; merge in input order.

        *on_chunk*, when given, is called as ``on_chunk(endpoint,
        indices, results)`` immediately after each chunk completes —
        while other endpoints are still executing — so callers can
        persist partial progress (the experiment runner checkpoints
        every completed cell here).  Calls are serialised under the
        run lock in completion order; an exception raised by the
        callback is fatal to the whole run, and the chunk it covered
        is *not* recorded as completed — a checkpoint that did not
        happen is never mistaken for one that did.
        """
        items = list(items)
        results: list = [None] * len(items)
        pending = deque(range(len(items)))
        handoffs = [0] * len(items)  # times a dead endpoint gave it back
        in_flight = 0
        errors: list[Exception] = []
        fatal: list[Exception] = []
        dispatches: list[ChunkDispatch] = []
        lock = threading.Condition()
        deadline = current_deadline()

        def book(endpoint: int, indices: list[int], out, elapsed: float,
                 error: Exception | None) -> float | None:
            """Record one dispatch (lock held); returns the seconds to
            back off before the next, ``None`` if the worker exits.

            An incomplete chunk is re-queued whatever the verdict.  A
            shed earns smaller bites after a backoff; an endpoint that
            is unreachable, answers with a service fault, or sheds
            beyond patience or past the budget is dead to this run;
            anything else (budget spent, contract broken) is fatal.
            """
            state = self._states[endpoint]
            if error is None:
                if on_chunk is not None:
                    # before the chunk is recorded: a checkpoint that
                    # did not happen must leave it un-done, and is never
                    # an endpoint death however the failure is spelled
                    try:
                        on_chunk(endpoint, list(indices), list(out))
                    except Exception as exc:
                        pending.extendleft(reversed(indices))
                        fatal.append(exc)
                        return None
                for i, value in zip(indices, out):
                    results[i] = value
                state.observe(elapsed / max(1, len(indices)))
                state.consecutive_overloads = 0
                attempts = 1 + max(handoffs[i] for i in indices)
                dispatches.append(ChunkDispatch(
                    endpoint, tuple(indices), attempts=attempts,
                    migrated=attempts > 1, seconds=elapsed))
                return 0.0
            pending.extendleft(reversed(indices))
            verdict = failover.verdict_of(error)
            if verdict == failover.SHED:
                get_metrics().counter("ws.scatter.backpressure").inc()
                if self._note_overload(endpoint) <= self.max_overloads:
                    pause = error.retry_after_s or DEFAULT_RETRY_HINT_S
                    if deadline is None or deadline.remaining() > pause:
                        return pause
                    error = DeadlineExceeded(
                        f"{self.name}: {pause:.3f}s overload backoff "
                        f"exceeds the remaining budget")
            elif failover.stops(verdict, error, faults_end_walk=False):
                fatal.append(error)
                return None
            errors.append(error)
            for i in indices:
                handoffs[i] += 1
            dispatches.append(ChunkDispatch(
                endpoint, tuple(indices), migrated=True, completed=False))
            get_metrics().counter("ws.scatter.rebalance").inc()
            return None

        def worker(endpoint: int) -> None:
            nonlocal in_flight
            while True:
                with lock:
                    # an idle worker stays while any chunk is in flight:
                    # a peer that dies hands its chunk back, and somebody
                    # has to be left to pick it up
                    while not pending and in_flight and not fatal:
                        lock.wait()
                    if not pending or fatal or (
                            deadline is not None and deadline.expired):
                        return  # the join-side checks raise
                    in_flight += 1
                    size = min(self.chunk_for(endpoint), len(pending))
                    indices = [pending.popleft() for _ in range(size)]
                out, error = None, None
                start = time.perf_counter()
                try:
                    out = dispatch(endpoint, [items[i] for i in indices],
                                   list(indices))
                    if out is None or len(out) != len(indices):
                        got = len(out) if out is not None else "no"
                        raise WorkflowError(
                            f"{self.name} dispatch returned {got} "
                            f"result(s) for {len(indices)} item(s)")
                except Exception as exc:
                    error = exc
                with lock:
                    in_flight -= 1
                    lock.notify_all()
                    pause = book(endpoint, indices, out,
                                 time.perf_counter() - start, error)
                if pause is None:
                    return
                if pause:
                    self.clock.sleep(pause)

        threads = [threading.Thread(target=worker, args=(i,),
                                    name=f"{self.name}-worker-{i}")
                   for i in range(self.n_endpoints)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if fatal:
            raise fatal[0]
        if pending:
            if deadline is not None:
                deadline.check(self.name)
            for exc in errors:
                if failover.verdict_of(exc) == failover.SPENT:
                    raise exc
            raise WorkflowError(
                f"{len(pending)} {self.name} item(s) undispatchable: "
                f"all {self.n_endpoints} endpoint(s) died "
                f"({errors[0]!r})")
        return ScatterReport(results=results, dispatches=dispatches)
