"""CircuitBreaker: state machine, cooldown, half-open probes, metrics."""

import pytest

from repro.clock import FakeClock
from repro.errors import CircuitOpenError
from repro.obs import get_metrics
from repro.ws.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


def make_breaker(**kw):
    clock = FakeClock()
    kw.setdefault("failure_threshold", 3)
    kw.setdefault("cooldown_s", 10.0)
    breaker = CircuitBreaker("http://r0/services/S", clock=clock, **kw)
    return breaker, clock


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.ensure_closed()  # no raise

    def test_trips_after_consecutive_failures(self):
        breaker, _ = make_breaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        with pytest.raises(CircuitOpenError):
            breaker.ensure_closed("probe")

    def test_success_resets_the_failure_streak(self):
        breaker, _ = make_breaker(failure_threshold=3)
        for _ in range(5):
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == CLOSED  # never 3 *consecutive* failures

    def test_cooldown_moves_open_to_half_open(self):
        breaker, clock = make_breaker(failure_threshold=1, cooldown_s=10)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_limited_probes(self):
        breaker, clock = make_breaker(failure_threshold=1)
        breaker.record_failure()
        clock.advance(11)
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # concurrent second call fails fast

    def test_half_open_success_closes(self):
        breaker, clock = make_breaker(failure_threshold=1)
        breaker.record_failure()
        clock.advance(11)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens_for_another_cooldown(self):
        breaker, clock = make_breaker(failure_threshold=3)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(11)
        assert breaker.state == HALF_OPEN
        breaker.record_failure()  # one strike in half-open is enough
        assert breaker.state == OPEN
        clock.advance(11)
        assert breaker.state == HALF_OPEN

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestBreakerMetrics:
    def test_transitions_and_state_gauge(self):
        breaker, clock = make_breaker(failure_threshold=1)
        metrics = get_metrics()
        endpoint = breaker.endpoint
        breaker.record_failure()
        assert metrics.counter("ws.breaker.transitions",
                               endpoint=endpoint, to=OPEN).value == 1
        assert metrics.gauge("ws.breaker.state",
                             endpoint=endpoint).value == 2
        clock.advance(11)
        assert breaker.state == HALF_OPEN
        assert metrics.gauge("ws.breaker.state",
                             endpoint=endpoint).value == 1
        breaker.record_success()
        assert metrics.counter("ws.breaker.transitions",
                               endpoint=endpoint, to=CLOSED).value == 1
        assert metrics.gauge("ws.breaker.state",
                             endpoint=endpoint).value == 0

    def test_fast_failures_counted(self):
        breaker, _ = make_breaker(failure_threshold=1)
        breaker.record_failure()
        for _ in range(3):
            assert not breaker.allow()
        assert breaker.fast_failures == 3
        assert get_metrics().counter(
            "ws.breaker.fast_failures",
            endpoint=breaker.endpoint).value == 3


class TestProbeSlotAlwaysComesBack:
    """A half-open probe that proves nothing (the caller ran out of
    budget) must hand its slot back, or the breaker fast-fails a
    possibly healthy endpoint for good."""

    def test_spent_probe_behind_the_gate_does_not_wedge_the_breaker(self):
        from repro.errors import DeadlineExceeded, TransportError
        from repro.ws.pipeline import BreakerGate, CallContext, run_chain
        from repro.ws.soap import SoapRequest, SoapResponse

        breaker, clock = make_breaker(failure_threshold=1, cooldown_s=10)
        script = [TransportError("down"), DeadlineExceeded("spent"), "ok"]

        def terminal(request):
            action = script.pop(0)
            if isinstance(action, Exception):
                raise action
            return SoapResponse(request.service, request.operation, action)

        def call():
            return run_chain([BreakerGate(breaker)], SoapRequest("S", "op"),
                             CallContext("test", service="S",
                                         operation="op"), terminal)

        with pytest.raises(TransportError):
            call()                      # trips the breaker
        assert breaker.state == OPEN
        clock.advance(11)               # cooldown over: one probe allowed
        with pytest.raises(DeadlineExceeded):
            call()                      # the probe says nothing of health
        assert breaker.state == HALF_OPEN
        assert call().result == "ok"    # ... so the next call is a probe
        assert breaker.state == CLOSED

    def test_release_is_a_no_op_on_a_closed_breaker(self):
        breaker, _ = make_breaker()
        breaker.release()
        assert breaker.state == CLOSED and breaker.allow()
