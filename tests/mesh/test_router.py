"""Routing policies, failover, substitution and profile mining."""

import pytest

from repro.clock import FakeClock
from repro.errors import (DeadlineExceeded, OverloadedError,
                          TransportError)
from repro.ws.mesh.endpoints import MeshEndpoint
from repro.ws.mesh.profile import ERROR_PENALTY_S, ProfileBook
from repro.ws.mesh import router as routing
from repro.ws.mesh.gateway import MeshIngress
from repro.ws.mesh.router import (AdaptivePolicy, HashPolicy, MeshRouter,
                                  RoundRobinPolicy, make_policy)
from repro.ws.registry import HEALTH_DOWN, HEALTH_UP
from repro.ws.soap import SoapFault, SoapRequest, SoapResponse


def endpoint(name, url=None):
    url = url or f"http://{name}/services/Svc"
    return MeshEndpoint(name=name, service="Svc", url=url,
                        wsdl_url=f"{url}?wsdl")


class FakeDiscovery:
    """Scripted replica source recording health feedback."""

    def __init__(self, endpoints):
        self._endpoints = list(endpoints)
        self.health: dict[str, str] = {}

    def endpoints(self, service):
        return list(self._endpoints)

    def note_health(self, name, health):
        self.health[name] = health


class FixedPolicy(RoundRobinPolicy):
    """Always rank in discovery order (no rotation between sends)."""

    name = "fixed"

    def rank(self, service, endpoints, request, book):
        return list(endpoints)


class FakeTransport:
    """Scripted replica: a queue of responses/exceptions per send."""

    def __init__(self, script):
        self.script = list(script)
        self.sends = 0

    def send(self, request):
        self.sends += 1
        action = self.script.pop(0) if self.script else "ok"
        if isinstance(action, Exception):
            raise action
        return SoapResponse(request.service, request.operation,
                            result=action)

    def close(self):
        pass


def make_router(scripts, *, policy=None, clock=None, **kwargs):
    """A router over FakeTransports, one per scripted endpoint."""
    clock = clock or FakeClock()
    eps = [endpoint(name) for name in scripts]
    discovery = FakeDiscovery(eps)
    router = MeshRouter(discovery, policy or RoundRobinPolicy(),
                        clock=clock, **kwargs)
    transports = {}
    for ep, (name, script) in zip(eps, scripts.items()):
        transports[name] = FakeTransport(script)
        router._transports[ep.url] = transports[name]
    return router, discovery, transports


REQ = SoapRequest("Svc", "op")


class TestPolicies:
    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy()
        eps = [endpoint("a"), endpoint("b"), endpoint("c")]
        book = ProfileBook()
        first = policy.rank("Svc", eps, REQ, book)
        second = policy.rank("Svc", eps, REQ, book)
        assert [e.name for e in first] == ["a", "b", "c"]
        assert [e.name for e in second] == ["b", "c", "a"]

    def test_hash_policy_is_sticky_per_operation(self):
        policy = HashPolicy()
        eps = [endpoint("a"), endpoint("b"), endpoint("c")]
        book = ProfileBook()
        ranked = policy.rank("Svc", eps, REQ, book)
        again = policy.rank("Svc", eps, REQ, book)
        assert [e.name for e in ranked] == [e.name for e in again]
        assert sorted(e.name for e in ranked) == ["a", "b", "c"]

    def test_adaptive_prefers_cheap_probes_unknown_first(self,
                                                         monkeypatch):
        monkeypatch.setattr(routing, "DEFAULT_REPROBE_AFTER_S", 100.0)
        clock = FakeClock()
        book = ProfileBook(clock=clock)
        policy = AdaptivePolicy()
        fast, slow, cold = (endpoint("fast"), endpoint("slow"),
                            endpoint("cold"))
        book.observe(fast.url, 0.01)
        book.observe(slow.url, 2.0)
        ranked = policy.rank("Svc", [slow, fast, cold], REQ, book)
        assert [e.name for e in ranked] == ["cold", "fast", "slow"]

    def test_adaptive_reprobes_stale_profiles(self):
        clock = FakeClock()
        book = ProfileBook(clock=clock)
        policy = AdaptivePolicy()
        a, b = endpoint("a"), endpoint("b")
        book.observe(a.url, 2.0)   # expensive but about to go stale
        book.observe(b.url, 0.01)
        clock.advance(11.0)
        book.observe(b.url, 0.01)  # b stays fresh
        ranked = policy.rank("Svc", [a, b], REQ, book)
        assert [e.name for e in ranked] == ["a", "b"]

    def test_make_policy_rejects_unknown(self):
        assert make_policy("adaptive").name == "adaptive"
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_policy("wishful")


class TestRouterWalk:
    def test_routes_to_first_ranked_replica(self):
        router, _, transports = make_router({"a": ["A"], "b": ["B"]})
        assert router.send(REQ).result == "A"
        assert transports["b"].sends == 0

    def test_failover_moves_to_next_replica(self):
        router, _, transports = make_router(
            {"a": [TransportError("boom")], "b": ["B"]})
        assert router.send(REQ).result == "B"
        assert transports["a"].sends == 1

    def test_open_breaker_is_skipped_without_a_send(self):
        router, discovery, transports = make_router(
            {"a": [TransportError("x"), TransportError("x"), "never"],
             "b": ["B1", "B2", "B3"]},
            policy=FixedPolicy())
        router.send(REQ)  # a fails, opens strike 1, b answers
        router.send(REQ)  # a fails again -> breaker opens
        sends_before = transports["a"].sends
        assert router.send(REQ).result == "B3"
        assert transports["a"].sends == sends_before  # substituted
        assert discovery.health["a"] == HEALTH_DOWN

    def test_breaker_recovery_notes_health_up(self, monkeypatch):
        monkeypatch.setattr(routing, "BREAKER_FAILURE_THRESHOLD", 1)
        clock = FakeClock()
        router, discovery, _ = make_router(
            {"a": [TransportError("x"), "recovered"]}, clock=clock)
        with pytest.raises(TransportError):
            router.send(REQ)
        assert discovery.health["a"] == HEALTH_DOWN
        clock.advance(6.0)  # cooldown over: half-open probe allowed
        assert router.send(REQ).result == "recovered"
        assert discovery.health["a"] == HEALTH_UP

    def test_soap_fault_stops_the_walk(self):
        router, _, transports = make_router(
            {"a": [SoapFault("soapenv:Server", "app error")],
             "b": ["never"]})
        with pytest.raises(SoapFault):
            router.send(REQ)
        assert transports["b"].sends == 0

    def test_overload_tries_next_without_breaker_penalty(self,
                                                         monkeypatch):
        monkeypatch.setattr(routing, "BREAKER_FAILURE_THRESHOLD", 1)
        router, _, transports = make_router(
            {"a": [OverloadedError("shed"), "A2"], "b": ["B"]},
            policy=FixedPolicy())
        assert router.send(REQ).result == "B"
        # no penalty: a is still routable on the next rotation
        assert router.send(REQ).result == "A2"

    def test_shed_probe_does_not_wedge_the_breaker(self, monkeypatch):
        """A half-open probe that is shed proved the replica alive: it
        must be dialled again and fed back to the registry as ``up``."""
        monkeypatch.setattr(routing, "BREAKER_FAILURE_THRESHOLD", 1)
        clock = FakeClock()
        router, discovery, transports = make_router(
            {"w0": [TransportError("down"), OverloadedError("busy")],
             "w1": []},
            policy=FixedPolicy(), clock=clock)
        router.send(REQ)            # w0 dies: breaker opens, w1 answers
        assert discovery.health["w0"] == HEALTH_DOWN
        clock.advance(6.0)
        router.send(REQ)            # the half-open probe is shed
        assert discovery.health["w0"] == HEALTH_UP
        dialled = transports["w0"].sends
        router.send(REQ)
        assert transports["w0"].sends == dialled + 1
        assert transports["w1"].sends == 2

    def test_spent_probe_does_not_wedge_the_breaker(self, monkeypatch):
        monkeypatch.setattr(routing, "BREAKER_FAILURE_THRESHOLD", 1)
        clock = FakeClock()
        router, _, transports = make_router(
            {"w0": [TransportError("down"), DeadlineExceeded("spent"),
                    "back"]},
            clock=clock)
        with pytest.raises(TransportError):
            router.send(REQ)
        clock.advance(6.0)
        with pytest.raises(DeadlineExceeded):
            router.send(REQ)        # the probe ran out of budget
        assert router.send(REQ).result == "back"

    def test_deadline_exceeded_propagates_immediately(self):
        router, _, transports = make_router(
            {"a": [DeadlineExceeded("spent")], "b": ["never"]})
        with pytest.raises(DeadlineExceeded):
            router.send(REQ)
        assert transports["b"].sends == 0

    def test_no_replicas_raises_transport_error(self):
        router, _, _ = make_router({})
        with pytest.raises(TransportError, match="no live replica"):
            router.send(REQ)

    def test_all_replicas_dead_raises_last_error(self):
        router, _, _ = make_router(
            {"a": [TransportError("first")],
             "b": [TransportError("second")]})
        with pytest.raises(TransportError, match="second"):
            router.send(REQ)

    def test_router_send_is_the_ingress_chain_terminal(self):
        router, discovery, _ = make_router({"a": ["A"]})
        ingress = MeshIngress(router, discovery)
        assert [step.name for step in ingress.chain] == \
            ["deadline", "trace", "metrics"]
        assert ingress.invoke(REQ).result == "A"


class TestProfiles:
    def test_errors_dominate_cost(self):
        book = ProfileBook()
        book.observe("fast", 0.01)
        book.observe_error("flaky")
        assert book.profile("flaky").cost() > \
            book.profile("fast").cost()
        assert book.profile("flaky").cost() == pytest.approx(
            0.3 * ERROR_PENALTY_S)

    def test_mine_spans_warms_from_send_spans(self):
        book = ProfileBook()
        spans = [
            {"name": "send:http", "status": "ok", "started_at": 1.0,
             "ended_at": 1.5, "attributes": {"endpoint": "http://a"}},
            {"name": "send:http", "status": "error", "started_at": 2.0,
             "ended_at": 2.1, "attributes": {"endpoint": "http://b"}},
            {"name": "soap:Svc.op", "status": "ok", "started_at": 0.0,
             "ended_at": 9.0, "attributes": {"endpoint": "http://c"}},
            {"name": "send:http", "status": "ok", "started_at": 0.0,
             "ended_at": 1.0, "attributes": {}},
        ]
        assert book.mine_spans(spans) == 2
        assert book.profile("http://a").latency_s == pytest.approx(0.5)
        assert book.profile("http://b").error_rate > 0
        assert book.endpoints() == ["http://a", "http://b"]

    def test_router_warms_from_live_collector(self):
        from repro import obs
        obs.enable_tracing()
        with obs.get_tracer().span("send:http",
                                   {"endpoint": "http://warm"}):
            pass
        router, _, _ = make_router({"a": ["A"]})
        assert router.warm_from_trace() == 1
        assert "http://warm" in router.book.endpoints()
