"""Admission control: token buckets, priority queueing, load shedding.

The paper's Tomcat/Axis deployment survives bursty miners because the
servlet container bounds its worker pool and refuses the overflow; our
equivalent is this module.  An :class:`AdmissionController` decides,
*before any dispatch work happens*, whether a call may run now, wait
briefly in a bounded priority queue, or be shed with
:class:`~repro.errors.OverloadedError` (the ``repro:Overloaded`` SOAP
fault on the wire).  Sheds are deliberately cheap — no lifecycle work,
no instance acquisition, ideally not even an XML parse (the async front
door in :mod:`repro.ws.aserve` reads the caller identity from HTTP
headers) — so a saturated server spends its cycles answering the calls
it admits.

Three mechanisms compose, checked in this order:

1. **Global token bucket** (``rate``/``burst``) — the server's overall
   sustainable request rate.
2. **Per-principal token buckets** (``principal_rate``/
   ``principal_burst``) — one greedy client cannot starve the rest.
3. **Concurrency gate + priority queue** (``max_concurrent``/
   ``max_queue``) — up to ``max_concurrent`` calls run at once; the
   overflow waits in a bounded queue ordered by the request's priority
   (higher wins; FIFO within a class).  A full queue sheds the lowest
   priority — evicting a queued waiter when the newcomer outranks it.

Everything is usable from plain threads *and* from an asyncio event
loop (:meth:`AdmissionController.admit` vs
:meth:`~AdmissionController.admit_async`); wakeups cross the boundary
via ``loop.call_soon_threadsafe``.  Layering: this module is policy —
it must not import transports, servers, clients or chaos
(``tools/layering_lint.py`` enforces it).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import OverloadedError
from repro.obs import get_metrics

__all__ = ["TokenBucket", "AdmissionController", "AdmissionHandler",
           "Ticket"]

#: Fallback ``retry_after_s`` hint when no token bucket can compute a
#: better one (queue sheds): long enough to matter, short enough that a
#: backing-off client re-offers promptly once load drops.
DEFAULT_RETRY_HINT_S = 0.05


class TokenBucket:
    """Classic token bucket on an injectable clock; thread-safe.

    Tokens accrue continuously at ``rate`` per second up to ``burst``;
    :meth:`try_take` never blocks — admission control *sheds*, it does
    not make the server wait on behalf of the client.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Clock = SYSTEM_CLOCK):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(max(burst, 1.0))
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock.monotonic()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock.monotonic()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available; ``False`` means shed."""
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until *tokens* will have accrued (a client hint)."""
        with self._lock:
            self._refill()
            deficit = tokens - self._tokens
            return max(deficit, 0.0) / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens


class Ticket:
    """Permission to run one admitted call; release exactly once.

    Context-manager use (``with controller.admit(...):``) is the safe
    idiom; :meth:`release` is idempotent for the manual paths.
    """

    def __init__(self, controller: "AdmissionController"):
        self._controller = controller
        self._released = False

    def release(self) -> None:
        """Give the concurrency slot back (idempotent)."""
        if not self._released:
            self._released = True
            self._controller._release()

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


@dataclass
class _Waiter:
    """One queued call: who it is, how it ranks, how to wake it."""

    priority: int
    seq: int
    principal: str
    outcome: Optional[str] = None      # "admitted" | "shed" once decided
    event: Optional[threading.Event] = None          # sync waiters
    future: Optional[asyncio.Future] = None          # async waiters
    loop: Optional[asyncio.AbstractEventLoop] = None
    enqueued_at: float = 0.0
    shed_reason: str = ""
    retry_after_s: float = field(default=DEFAULT_RETRY_HINT_S)

    def wake(self, outcome: str) -> None:
        """Deliver the decision (caller holds the controller lock)."""
        self.outcome = outcome
        if self.event is not None:
            self.event.set()
        if self.future is not None and self.loop is not None:
            def _resolve(future: asyncio.Future = self.future,
                         value: str = outcome) -> None:
                if not future.done():
                    future.set_result(value)
            self.loop.call_soon_threadsafe(_resolve)


class AdmissionController:
    """Decide run / wait / shed for every incoming call.

    Thread-safe and loop-safe: the sync server chains call
    :meth:`admit` from worker threads while the async front door calls
    :meth:`admit_async` on the event loop; both feed the same buckets,
    gate and queue, so policy holds across serving planes.

    Parameters
    ----------
    max_concurrent:
        Calls allowed to run simultaneously.
    max_queue:
        Waiters allowed behind the gate before shedding starts.
        ``0`` disables queueing entirely (immediate shed when busy).
    rate / burst:
        Global token bucket; ``None`` disables the global rate limit.
    principal_rate / principal_burst:
        Per-principal buckets, lazily created per identity; ``None``
        disables per-principal limiting.  The anonymous principal
        (``""``) shares one bucket like any other identity.
    queue_timeout_s:
        Longest a call may wait in the queue before being shed.  Wall
        clock (a real ``threading.Event`` wait) — the injectable
        *clock* governs only bucket refill math.
    retry_hint_s:
        The ``retry_after_s`` floor advertised on queue sheds
        (full/evicted/timed out).  Under heavy oversubscription a
        bigger hint is the server's only lever against thousands of
        shed clients re-offering immediately and spending its cycles
        on rejections instead of answers.
    clock:
        Time source for the buckets (tests pass a
        :class:`~repro.clock.FakeClock` for deterministic refill).
    """

    def __init__(self, max_concurrent: int = 8, max_queue: int = 32,
                 rate: float | None = None, burst: float | None = None,
                 principal_rate: float | None = None,
                 principal_burst: float | None = None,
                 queue_timeout_s: float = 1.0,
                 retry_hint_s: float = DEFAULT_RETRY_HINT_S,
                 clock: Clock = SYSTEM_CLOCK):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = int(max_concurrent)
        self.max_queue = int(max_queue)
        self.queue_timeout_s = float(queue_timeout_s)
        self.retry_hint_s = float(retry_hint_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._inflight = 0
        self._seq = 0
        self._queue: list[_Waiter] = []
        self._global_bucket = (
            TokenBucket(rate, burst if burst is not None else rate, clock)
            if rate is not None else None)
        self._principal_rate = principal_rate
        self._principal_burst = (principal_burst if principal_burst
                                 is not None else principal_rate)
        self._principal_buckets: dict[str, TokenBucket] = {}

    # -- introspection -------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- the decision --------------------------------------------------------

    def _shed(self, reason: str, principal: str,
              retry_after_s: float) -> OverloadedError:
        metrics = get_metrics()
        metrics.counter("ws.admission.shed", reason=reason).inc()
        if principal:
            metrics.counter("ws.admission.shed_by_principal",
                            principal=principal).inc()
        return OverloadedError(
            f"admission control shed this call ({reason}); "
            f"retry after {retry_after_s:.3f}s",
            retry_after_s=retry_after_s)

    def _check_buckets(self, principal: str) -> None:
        """Raise the rate-limit sheds; cheapest checks first."""
        if self._global_bucket is not None \
                and not self._global_bucket.try_take():
            raise self._shed("rate", principal,
                             self._global_bucket.retry_after())
        if self._principal_rate is not None:
            bucket = self._principal_buckets.get(principal)
            if bucket is None:
                bucket = TokenBucket(self._principal_rate,
                                     self._principal_burst, self._clock)
                self._principal_buckets[principal] = bucket
            if not bucket.try_take():
                raise self._shed("principal_rate", principal,
                                 bucket.retry_after())

    def _gate(self, waiter_factory, principal: str, priority: int):
        """Pass the concurrency gate now, or return an enqueued waiter.

        Returns ``None`` when admitted immediately; otherwise the
        waiter built by *waiter_factory* is queued (possibly evicting a
        lower-priority waiter) and returned.  Raises the shed when
        there is no room at this priority.
        """
        with self._lock:
            if self._inflight < self.max_concurrent:
                self._inflight += 1
                get_metrics().counter("ws.admission.admitted").inc()
                self._note_depth()
                return None
            if len(self._queue) >= self.max_queue:
                victim = self._lowest_ranked()
                if victim is None or victim.priority >= priority:
                    raise self._shed("queue_full", principal,
                                     self._retry_hint())
                # the newcomer outranks the tail of the queue: trade
                self._queue.remove(victim)
                victim.shed_reason = "evicted"
                victim.retry_after_s = self._retry_hint()
                victim.wake("shed")
                get_metrics().counter("ws.admission.evicted").inc()
            self._seq += 1
            waiter = waiter_factory(priority, self._seq, principal)
            waiter.enqueued_at = self._clock.monotonic()
            self._queue.append(waiter)
            get_metrics().counter("ws.admission.queued").inc()
            self._note_depth()
            return waiter

    def _lowest_ranked(self) -> Optional[_Waiter]:
        """The queue's weakest entry: lowest priority, newest within it."""
        if not self._queue:
            return None
        return min(self._queue, key=lambda w: (w.priority, -w.seq))

    def _highest_ranked(self) -> Optional[_Waiter]:
        """The next waiter to run: highest priority, oldest within it."""
        if not self._queue:
            return None
        return max(self._queue, key=lambda w: (w.priority, -w.seq))

    def _retry_hint(self) -> float:
        if self._global_bucket is not None:
            return max(self._global_bucket.retry_after(),
                       self.retry_hint_s)
        return self.retry_hint_s

    def _note_depth(self) -> None:
        metrics = get_metrics()
        metrics.gauge("ws.admission.inflight").set(self._inflight)
        metrics.gauge("ws.admission.queue_depth").set(len(self._queue))

    def _release(self) -> None:
        """One admitted call finished: hand its slot to the best waiter."""
        with self._lock:
            self._inflight -= 1
            runner = self._highest_ranked()
            if runner is not None:
                self._queue.remove(runner)
                self._inflight += 1
                get_metrics().counter("ws.admission.admitted").inc()
                get_metrics().histogram(
                    "ws.admission.queue_wait_seconds").observe(
                    self._clock.monotonic() - runner.enqueued_at)
                runner.wake("admitted")
            self._note_depth()

    def _abandon(self, waiter: _Waiter) -> bool:
        """Remove a timed-out waiter; ``False`` if it was decided first."""
        with self._lock:
            if waiter.outcome is not None:
                return False
            self._queue.remove(waiter)
            self._note_depth()
            return True

    # -- public entry points -------------------------------------------------

    def admit(self, principal: str = "", priority: int = 0) -> Ticket:
        """Admit or shed one call from a plain thread.

        Returns a :class:`Ticket` (use as a context manager around the
        dispatch) or raises :class:`~repro.errors.OverloadedError`.
        Blocks at most ``queue_timeout_s`` while queued.
        """
        self._check_buckets(principal)

        def factory(prio: int, seq: int, who: str) -> _Waiter:
            return _Waiter(priority=prio, seq=seq, principal=who,
                           event=threading.Event())

        waiter = self._gate(factory, principal, priority)
        if waiter is None:
            return Ticket(self)
        waiter.event.wait(self.queue_timeout_s)
        if waiter.outcome == "admitted":
            return Ticket(self)
        if waiter.outcome == "shed":
            raise self._shed(waiter.shed_reason or "evicted", principal,
                             waiter.retry_after_s)
        if self._abandon(waiter):
            raise self._shed("queue_timeout", principal,
                             self._retry_hint())
        # decided while we were giving up: honour the decision
        if waiter.outcome == "admitted":
            return Ticket(self)
        raise self._shed(waiter.shed_reason or "evicted", principal,
                         waiter.retry_after_s)

    async def admit_async(self, principal: str = "",
                          priority: int = 0) -> Ticket:
        """Admit or shed one call from the event loop (never blocks it)."""
        self._check_buckets(principal)
        loop = asyncio.get_running_loop()

        def factory(prio: int, seq: int, who: str) -> _Waiter:
            return _Waiter(priority=prio, seq=seq, principal=who,
                           future=loop.create_future(), loop=loop)

        waiter = self._gate(factory, principal, priority)
        if waiter is None:
            return Ticket(self)
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(waiter.future), self.queue_timeout_s)
        except asyncio.TimeoutError:
            if self._abandon(waiter):
                raise self._shed("queue_timeout", principal,
                                 self._retry_hint()) from None
            outcome = waiter.outcome
        if outcome == "admitted":
            return Ticket(self)
        raise self._shed(waiter.shed_reason or "evicted", principal,
                         waiter.retry_after_s)


class AdmissionHandler:
    """The server-chain step: gate every dispatch through a controller.

    Sits right after the ``deadline`` step in the container chain (see
    ``ServiceContainer(admission=...)``): a call whose budget is spent
    is rejected before it costs an admission token, and an admitted
    call holds its concurrency slot for exactly the stats → cache →
    lifecycle → dispatch span below it.  Raises
    :class:`~repro.errors.OverloadedError`, which the gateways encode
    as the ``repro:Overloaded`` fault — *not* a ``soapenv:Server``
    fault, so client retry policies back off instead of re-offering.
    """

    name = "admission"

    def __init__(self, controller: AdmissionController):
        self.controller = controller

    def around(self, request: Any, ctx: Any):
        """Admit (or shed) the dispatch, holding the slot across it."""
        with self.controller.admit(principal=request.principal,
                                   priority=request.priority):
            return (yield request)
