"""Stale keep-alive recovery in :class:`HttpTransport`.

A server may close a pooled keep-alive connection between exchanges
(idle timeout, restart).  The next POST on the stale socket fails
before a single response byte arrives even though the endpoint is
healthy — :class:`repro.ws.http11.StaleConnection`, which deserves one
silent retry on a fresh connection, not a :class:`TransportError` fed to
the breaker.  A fresh connection that fails the same way keeps failing
loudly: that *is* endpoint health.

Connections live in a checkout/checkin pool so concurrent callers each
own their socket for the duration of one logical call: no interleaved
request/response pairs, at most one stale retry per call, and no
spuriously double-counted breaker verdicts under a racing client pool.
"""

import threading

import pytest

from repro import obs
from repro.errors import TransportError
from repro.ws import http11, wsdl
from repro.ws.breaker import CircuitBreaker
from repro.ws.client import HttpTransport, ServiceProxy
from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer
from repro.ws.service import operation
from repro.ws.soap import SoapRequest


class Greeter:
    """Greets people."""

    @operation
    def greet(self, name: str) -> str:
        """Compose a greeting."""
        return f"hello {name}"


@pytest.fixture
def server():
    container = ServiceContainer()
    container.deploy(Greeter, "Greeter")
    with SoapHttpServer(container) as srv:
        yield srv


def _flaky_exchange(monkeypatch, fail_times: int):
    """Wrap ``http11.exchange`` — the one seam every POST goes through —
    to raise StaleConnection *fail_times* times before delegating to the
    real steps."""
    real_exchange = http11.exchange
    state = {"calls": 0}
    lock = threading.Lock()

    def exchange(conn, head, chunks, deadline):
        with lock:
            state["calls"] += 1
            fail = state["calls"] <= fail_times
        if fail:
            conn.close()
            raise http11.StaleConnection(
                "peer closed the connection without a response")
        return (yield from real_exchange(conn, head, chunks, deadline))

    monkeypatch.setattr(http11, "exchange", exchange)
    return state


class TestStaleKeepAlive:
    def test_pooled_connection_gone_stale_retries_once(self, server,
                                                       monkeypatch):
        transport = HttpTransport(server.endpoint("Greeter"))
        request = SoapRequest("Greeter", "greet", {"name": "ada"})
        assert transport.send(request).result == "hello ada"  # pools conn
        assert len(transport._pool) == 1

        state = _flaky_exchange(monkeypatch, fail_times=1)
        response = transport.send(
            SoapRequest("Greeter", "greet", {"name": "bob"}))
        assert response.result == "hello bob"
        assert state["calls"] == 2  # stale attempt + fresh retry
        assert obs.get_metrics().counter(
            "ws.transport.stale_retries").value == 1
        # the endpoint was never marked unhealthy
        assert obs.get_metrics().counter(
            "ws.transport.errors", transport="http").value == 0
        transport.close()

    def test_fresh_connection_disconnect_is_a_real_failure(self, server,
                                                           monkeypatch):
        transport = HttpTransport(server.endpoint("Greeter"))
        state = _flaky_exchange(monkeypatch, fail_times=1)
        with pytest.raises(TransportError):
            transport.send(SoapRequest("Greeter", "greet",
                                       {"name": "ada"}))
        assert state["calls"] == 1  # nothing was pooled: no retry
        assert obs.get_metrics().counter(
            "ws.transport.stale_retries").value == 0
        transport.close()

    def test_retry_failing_too_surfaces_transport_error(self, server,
                                                        monkeypatch):
        transport = HttpTransport(server.endpoint("Greeter"))
        request = SoapRequest("Greeter", "greet", {"name": "ada"})
        transport.send(request)  # pool a healthy connection

        state = _flaky_exchange(monkeypatch, fail_times=2)
        with pytest.raises(TransportError):
            transport.send(SoapRequest("Greeter", "greet",
                                       {"name": "bob"}))
        assert state["calls"] == 2  # one retry, not a loop
        assert transport._pool == []  # nothing broken was pooled
        transport.close()

    def test_server_restart_between_exchanges(self, server):
        """End to end: the server restarting under a pooled connection
        looks like a stale keep-alive and is healed by the retry."""
        container = ServiceContainer()
        container.deploy(Greeter, "Greeter")
        srv = SoapHttpServer(container)
        srv.start()
        try:
            transport = HttpTransport(srv.endpoint("Greeter"))
            first = transport.send(
                SoapRequest("Greeter", "greet", {"name": "ada"}))
            assert first.result == "hello ada"
            port = srv.port
            srv.stop()
            srv = SoapHttpServer(container, port=port)
            srv.start()
            second = transport.send(
                SoapRequest("Greeter", "greet", {"name": "bob"}))
            assert second.result == "hello bob"
            transport.close()
        finally:
            srv.stop()


class TestConcurrentClients:
    """The regression the pool exists for: racing callers sharing one
    transport must not interleave exchanges, mistake each other's fresh
    connections for pooled ones, or feed phantom verdicts to a breaker."""

    N_THREADS = 8
    CALLS_PER_THREAD = 10

    def test_racing_client_pool_no_spurious_breaker_counts(self, server):
        transport = HttpTransport(server.endpoint("Greeter"))
        breaker = CircuitBreaker(endpoint=server.endpoint("Greeter"),
                                 failure_threshold=2)
        document = wsdl.generate(server.container.definition("Greeter"),
                                 server.endpoint("Greeter"))
        proxy = ServiceProxy.from_wsdl_text(document, transport,
                                            breaker=breaker)
        errors: list[BaseException] = []

        def caller(tag: int) -> None:
            try:
                for i in range(self.CALLS_PER_THREAD):
                    result = proxy.call("greet", name=f"t{tag}-{i}")
                    assert result == f"hello t{tag}-{i}"
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(tag,))
                   for tag in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        total = self.N_THREADS * self.CALLS_PER_THREAD
        metrics = obs.get_metrics()
        # every logical call produced exactly one breaker verdict —
        # successes only, no delivery failures, and the breaker stayed
        # closed throughout
        assert breaker.state == "closed"
        endpoint = server.endpoint("Greeter")
        assert metrics.counter("ws.breaker.successes",
                               endpoint=endpoint).value == total
        assert metrics.counter("ws.breaker.failures",
                               endpoint=endpoint).value == 0
        assert metrics.counter(
            "ws.transport.errors", transport="http").value == 0
        # the pool never grew beyond the number of concurrent callers
        assert len(transport._pool) <= self.N_THREADS
        transport.close()

    def test_stale_retry_under_race_is_per_call(self, server, monkeypatch):
        """Two callers racing over a pool of stale connections each get
        their own single retry; neither observes the other's."""
        transport = HttpTransport(server.endpoint("Greeter"))
        # pool two healthy keep-alive connections
        first = transport.send(
            SoapRequest("Greeter", "greet", {"name": "a"}))
        conn_extra = transport._pool.pop()  # checked out: b dials its own
        second = transport.send(
            SoapRequest("Greeter", "greet", {"name": "b"}))
        transport._pool.append(conn_extra)
        assert first.result == "hello a" and second.result == "hello b"
        assert len(transport._pool) == 2

        # fail each caller's *first* exchange (their pooled, "stale"
        # connection) — a global fail-counter would race: one caller
        # could absorb both failures and exhaust its single retry
        real_exchange = http11.exchange
        local = threading.local()
        state = {"calls": 0}
        lock = threading.Lock()

        def exchange(conn, head, chunks, deadline):
            with lock:
                state["calls"] += 1
            if not getattr(local, "failed", False):
                local.failed = True
                conn.close()
                raise http11.StaleConnection(
                    "peer closed the connection without a response")
            return (yield from real_exchange(conn, head, chunks, deadline))

        monkeypatch.setattr(http11, "exchange", exchange)
        results: list[str] = []
        errors: list[BaseException] = []

        def caller(name: str) -> None:
            try:
                results.append(transport.send(
                    SoapRequest("Greeter", "greet",
                                {"name": name})).result)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(n,))
                   for n in ("x", "y")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert sorted(results) == ["hello x", "hello y"]
        # four exchanges: each call burned one stale attempt + one retry
        assert state["calls"] == 4
        assert obs.get_metrics().counter(
            "ws.transport.stale_retries").value == 2
        assert obs.get_metrics().counter(
            "ws.transport.errors", transport="http").value == 0
        transport.close()
