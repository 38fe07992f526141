"""Per-endpoint circuit breakers: fail fast instead of hammering the dead.

The §3 fault-tolerance requirement ("complete the task if a fault occurs by
moving the job to another resource") implies *noticing* a dead resource
quickly.  Retries alone keep paying full timeouts against an endpoint that
is down; a :class:`CircuitBreaker` remembers recent failures per endpoint
and short-circuits further sends while the endpoint is presumed dead, so
callers migrate to replicas immediately.  Which outcomes count as
failures is not decided here: :func:`repro.ws.failover.settle` is the
only caller of the ``record_*``/``release`` half of the protocol.

Classic three-state machine:

* **closed** — calls flow; ``failure_threshold`` *consecutive* failures
  trip the breaker.
* **open** — every call fails fast with
  :class:`~repro.errors.CircuitOpenError`.  After ``cooldown_s`` on the
  injected clock the breaker moves to half-open.
* **half-open** — up to ``half_open_max`` probe calls are let through; a
  success closes the breaker, a failure re-opens it for another cooldown,
  and a probe that proved neither hands its slot back (``release``).

State changes and fast-failures feed the metrics registry
(``ws.breaker.state`` gauge, ``ws.breaker.transitions`` /
``ws.breaker.fast_failures`` counters).
"""

from __future__ import annotations

import threading

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import CircuitOpenError
from repro.obs import get_metrics

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Gauge encoding of the states (0 = healthy, higher = worse).
_STATE_VALUE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Consecutive-failure breaker with cooldown and half-open probes."""

    def __init__(self, endpoint: str = "", failure_threshold: int = 5,
                 cooldown_s: float = 30.0, half_open_max: int = 1,
                 clock: Clock = SYSTEM_CLOCK):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.endpoint = endpoint
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_max = half_open_max
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.fast_failures = 0

    # -- state -----------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, applying cooldown expiry (open → half-open)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and \
                self._clock.monotonic() - self._opened_at \
                >= self.cooldown_s:
            self._transition(HALF_OPEN)
            self._probes_in_flight = 0

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        metrics = get_metrics()
        metrics.counter("ws.breaker.transitions",
                        endpoint=self.endpoint, to=state).inc()
        metrics.gauge("ws.breaker.state",
                      endpoint=self.endpoint).set(_STATE_VALUE[state])

    # -- call protocol ---------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open admits probes.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and \
                    self._probes_in_flight < self.half_open_max:
                self._probes_in_flight += 1
                return True
            self.fast_failures += 1
            get_metrics().counter("ws.breaker.fast_failures",
                                  endpoint=self.endpoint).inc()
            return False

    def ensure_closed(self, what: str = "call") -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit open for {self.endpoint or 'endpoint'}: "
                f"{what} failed fast (cooldown {self.cooldown_s}s)")

    def release(self) -> None:
        """Hand an admitted call's probe slot back with no health verdict."""
        with self._lock:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_success(self) -> None:
        """Note a successful call: closes the circuit."""
        with self._lock:
            # one verdict per logical call — the transport's stale
            # retry happens *below* the breaker gate, so a healed
            # keep-alive never double-counts here
            get_metrics().counter("ws.breaker.successes",
                                  endpoint=self.endpoint).inc()
            self._consecutive_failures = 0
            self._probes_in_flight = 0
            self._transition(CLOSED)

    def record_failure(self) -> None:
        """Note a failed call: may trip (or re-open) the circuit."""
        with self._lock:
            get_metrics().counter("ws.breaker.failures",
                                  endpoint=self.endpoint).inc()
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or \
                    self._consecutive_failures >= self.failure_threshold:
                self._consecutive_failures = 0
                self._opened_at = self._clock.monotonic()
                self._probes_in_flight = 0
                self._transition(OPEN)
