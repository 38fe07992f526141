"""The one failure taxonomy and the one failover walk: the verdict table,
the walk's breaker discipline, and a differential run proving the tool,
the router and the scatter plane read the same failure the same way."""

import inspect
import threading

import pytest

from repro import errors
from repro.clock import FakeClock
from repro.errors import (CircuitOpenError, DeadlineExceeded,
                          OverloadedError, ServiceError, TransportError)
from repro.workflow import ReplicatedServiceTool
from repro.ws import failover
from repro.ws.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.ws.failover import ANSWERED, SHED, SPENT, UNREACHABLE
from repro.ws.payload import MalformedBody, PayloadMissError
from repro.ws.pipeline import BreakerGate, CallContext, run_chain
from repro.ws.scatter import ScatterGather
from repro.ws.soap import SoapFault, SoapRequest, SoapResponse
from tests.mesh.test_router import FixedPolicy, make_router

#: Every exception class the toolkit defines, read once.  A new class in
#: ``repro.errors`` fails the table test until it is classified here.
VERDICTS = {
    "ReproError": ANSWERED, "DataError": ANSWERED,
    "ArffParseError": ANSWERED, "OptionError": ANSWERED,
    "NotFittedError": ANSWERED, "ServiceError": ANSWERED,
    "TransportError": UNREACHABLE, "CircuitOpenError": UNREACHABLE,
    "DeadlineExceeded": SPENT, "OverloadedError": SHED,
    "WsdlError": ANSWERED, "RegistryError": ANSWERED,
    "WorkflowError": ANSWERED, "CableError": ANSWERED,
    "EnactmentError": ANSWERED,
}


def instance_of(cls):
    if cls is errors.EnactmentError:
        return cls("task", ValueError("cause"))
    return cls("boom")


class TestVerdictTable:
    def test_every_toolkit_error_is_classified(self):
        defined = {name: cls for name, cls
                   in inspect.getmembers(errors, inspect.isclass)
                   if issubclass(cls, errors.ReproError)}
        assert sorted(defined) == sorted(VERDICTS)
        for name, cls in defined.items():
            assert failover.verdict_of(instance_of(cls)) == VERDICTS[name], \
                name

    @pytest.mark.parametrize("exc, verdict", [
        (None, ANSWERED),
        (SoapFault("soapenv:Server", "app error"), ANSWERED),
        (PayloadMissError("ab" * 32), UNREACHABLE),
        (MalformedBody("bad gzip"), UNREACHABLE),
        (OSError("connection refused"), UNREACHABLE),
        (ConnectionResetError("reset"), UNREACHABLE),
        (TimeoutError("socket timeout"), UNREACHABLE),
        (ValueError("a bug"), ANSWERED),
    ])
    def test_wire_and_builtin_errors(self, exc, verdict):
        assert failover.verdict_of(exc) == verdict


class CountingBreaker(CircuitBreaker):
    """Logs every admission and every outcome it is given."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admitted = 0
        self.outcomes: list[str] = []

    def allow(self):
        ok = super().allow()
        self.admitted += ok
        return ok

    def release(self):
        self.outcomes.append("release")
        super().release()

    def record_success(self):
        self.outcomes.append("success")
        super().record_success()

    def record_failure(self):
        self.outcomes.append("failure")
        super().record_failure()


def scripted(actions):
    """``attempt(i)`` raising or returning ``actions[i]``."""
    def attempt(i):
        if isinstance(actions[i], Exception):
            raise actions[i]
        return actions[i]
    return attempt


def breakers_for(n, clock=None):
    clock = clock or FakeClock()
    return [CountingBreaker(f"r{i}", failure_threshold=1, cooldown_s=5.0,
                            clock=clock) for i in range(n)]


class TestWalk:
    def walk(self, actions, breakers=None, faults_end_walk=False, **hooks):
        return failover.walk(
            range(len(actions)), scripted(actions),
            faults_end_walk=faults_end_walk,
            breaker_of=(breakers.__getitem__ if breakers
                        else lambda candidate: None), **hooks)

    def test_first_answer_wins_and_later_replicas_are_untouched(self):
        breakers = breakers_for(3)
        assert self.walk([TransportError("x"), "B", "C"], breakers) == "B"
        assert [b.outcomes for b in breakers] == \
            [["failure"], ["success"], []]

    def test_every_circuit_open_raises_circuit_open(self):
        breakers = breakers_for(2)
        for breaker in breakers:
            breaker.record_failure()
        skipped = []
        with pytest.raises(CircuitOpenError):
            self.walk(["A", "B"], breakers,
                      moved=lambda c, error: skipped.append((c, error)))
        assert skipped == [(0, None), (1, None)]

    def test_every_replica_shed_raises_the_smallest_hint(self):
        with pytest.raises(OverloadedError) as exc_info:
            self.walk([OverloadedError("busy", 0.5),
                       OverloadedError("busy"),
                       OverloadedError("busy", 0.1)])
        assert exc_info.value.retry_after_s == pytest.approx(0.1)

    def test_exhaustion_prefers_the_hard_failure_to_the_shed(self):
        with pytest.raises(TransportError, match="gone"):
            self.walk([TransportError("gone"), OverloadedError("busy")])

    def test_exhausted_hook_wraps_what_is_raised(self):
        with pytest.raises(RuntimeError, match="wrapped: .*gone"):
            self.walk([TransportError("gone")],
                      exhausted=lambda e: RuntimeError(f"wrapped: {e!r}"))

    def test_spent_stops_at_once_and_holds_no_probe(self):
        clock = FakeClock()
        breakers = breakers_for(2, clock)
        breakers[0].record_failure()
        clock.advance(6.0)            # replica 0 is half-open
        with pytest.raises(DeadlineExceeded):
            self.walk([DeadlineExceeded("spent"), "never"], breakers)
        assert breakers[1].admitted == 0
        assert breakers[0].state == HALF_OPEN
        assert breakers[0].allow()    # the probe slot came back

    @pytest.mark.parametrize("ends", [True, False])
    def test_fault_policy_and_bugs(self, ends):
        fault = SoapFault("soapenv:Server", "app error")
        if ends:
            with pytest.raises(SoapFault):
                self.walk([fault, "B"], faults_end_walk=True)
        else:
            assert self.walk([fault, "B"], faults_end_walk=False) == "B"
        with pytest.raises(KeyError):   # a bug migrates under neither
            self.walk([KeyError("bug"), "B"], faults_end_walk=ends)

    def test_settled_sees_every_attempt_with_its_verdict(self):
        seen = []
        self.walk([TransportError("x"), OverloadedError("busy"), "C"],
                  settled=lambda c, verdict, error, seconds:
                  seen.append((c, verdict, seconds >= 0)))
        assert seen == [(0, UNREACHABLE, True), (1, SHED, True),
                        (2, ANSWERED, True)]

    @pytest.mark.parametrize("actions", [
        ["A"], [TransportError("x"), "B"],
        [OverloadedError("b"), OSError("x"), ServiceError("f"), "D"],
        [ServiceError("f"), DeadlineExceeded("s"), "never"],
        [OSError("x")] * 3, [ValueError("bug"), "never"],
    ])
    def test_one_breaker_outcome_per_admitted_attempt(self, actions):
        breakers = breakers_for(len(actions))
        try:
            self.walk(actions, breakers)
        except Exception:
            pass
        for breaker in breakers:
            assert len(breaker.outcomes) == breaker.admitted <= 1


# -- differential: three consumers, one reading ------------------------------

#: replica 0's scripted behaviour → (what its breaker must be told,
#: the state that leaves it in).  Replica 0 starts half-open — one probe
#: slot to lose — except for ``open``, whose cooldown has not elapsed.
BEHAVIOURS = {
    "dead": (TransportError("down"), ["failure"], OPEN),
    "shed": (OverloadedError("busy", 0.01), ["success"], CLOSED),
    "fault": (SoapFault("soapenv:Server", "app error"), ["success"],
              CLOSED),
    "spent": (DeadlineExceeded("spent"), ["release"], HALF_OPEN),
    "open": ("unused", [], OPEN),
}


def tripped_pair(behaviour):
    clock = FakeClock()
    breakers = breakers_for(2, clock)
    breakers[0].record_failure()
    breakers[0].outcomes.clear()
    if behaviour != "open":
        clock.advance(6.0)
    return breakers, clock


def replica_scripts(behaviour):
    """Replica 0 misbehaves once, then (like replica 1) answers."""
    scripts = [[BEHAVIOURS[behaviour][0]], []]

    def act(replica):
        action = scripts[replica].pop(0) if scripts[replica] else "ok"
        if isinstance(action, Exception):
            raise action
        return action
    return act


def outcome_of(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return "ok"


def through_tool(behaviour):
    breakers, _ = tripped_pair(behaviour)
    act = replica_scripts(behaviour)

    class Proxy:
        def __init__(self, replica):
            self.replica = replica

        def call(self, operation, **params):
            return act(self.replica)

    tool = ReplicatedServiceTool("T", [Proxy(0), Proxy(1)], "op", [],
                                 breakers=breakers)
    return outcome_of(lambda: tool.run([], {})), breakers[0]


def through_router(behaviour):
    breakers, clock = tripped_pair(behaviour)
    router, discovery, _ = make_router(
        {"r0": [BEHAVIOURS[behaviour][0]], "r1": []},
        policy=FixedPolicy(), clock=clock)
    for endpoint, breaker in zip(discovery.endpoints("Svc"), breakers):
        router._breakers[endpoint.url] = breaker
    return outcome_of(lambda: router.send(SoapRequest("Svc", "op"))), \
        breakers[0]


def through_scatter(behaviour):
    breakers, clock = tripped_pair(behaviour)
    act = replica_scripts(behaviour)
    zero_tried = threading.Event()

    def dispatch(endpoint, chunk_items, indices):
        if endpoint == 1:
            zero_tried.wait(5)   # replica 0 gets the first word
        try:
            return [run_chain(
                [BreakerGate(breakers[endpoint])], SoapRequest("Svc", "op"),
                CallContext("test", service="Svc", operation="op"),
                lambda request: SoapResponse("Svc", "op", act(endpoint))
            ).result for _ in chunk_items]
        finally:
            zero_tried.set()

    sg = ScatterGather(2, chunk=1, clock=clock)
    return outcome_of(lambda: sg.run([0, 1], dispatch)), breakers[0]


@pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
def test_three_consumers_read_one_failure_one_way(behaviour):
    _, told, state = BEHAVIOURS[behaviour]
    outcomes = {}
    for name, consumer in (("tool", through_tool),
                           ("router", through_router),
                           ("scatter", through_scatter)):
        outcomes[name], breaker = consumer(behaviour)
        # scatter may offer a recovered replica 0 more work afterwards:
        # what its breaker heard *first* is the reading under test
        assert breaker.outcomes[:1] == told, (name, breaker.outcomes)
        assert breaker.state == state, name
        assert breaker.allow() == (state != OPEN), name
    spent = "DeadlineExceeded" if behaviour == "spent" else "ok"
    # the one policy difference: a fault is the router caller's own
    assert outcomes == {
        "tool": spent, "scatter": spent,
        "router": "SoapFault" if behaviour == "fault" else spent}
