"""What every HTTP front owes its callers beyond an answer: ``stop()``
stops, a restart is healed by one stale retry, bad heads and slow peers
are refused from one place, and shutting down leaves nothing for the
``asyncio`` logger to complain about.  Each test runs against the three
fronts of ``TestOneHandlerThreeFronts`` (``httpd``, ``aserve``, ``mesh``).
"""

import contextlib
import logging
import socket
import time
from http import HTTPStatus

import pytest

from repro import obs
from repro.errors import TransportError
from repro.ws import (AdmissionController, AsyncSoapHttpServer,
                      ServiceContainer, ServiceProxy, SoapHttpServer,
                      UDDIRegistry, http11)
from repro.ws.mesh import (MeshGateway, MeshRouter, RegistryEndpoints,
                           make_policy)
from repro.ws.service import operation

FRONTS = ["httpd", "aserve", "mesh"]


class Echo:
    """Answers with what it was given."""

    @operation
    def ping(self, word: str) -> str:
        """*word*, back."""
        return word


@contextlib.contextmanager
def running(kind: str, port: int = 0):
    """An Echo container behind the *kind* front, started; yields the
    front (``admission`` set on the asyncio one).  Stopping it in the
    test body is fine — leaving the block stops only what still runs."""
    container = ServiceContainer()
    container.deploy(Echo, "Echo")
    with contextlib.ExitStack() as stack:
        if kind == "httpd":
            front = SoapHttpServer(container, port=port)
        elif kind == "aserve":
            front = AsyncSoapHttpServer(
                container, port=port,
                admission=AdmissionController(max_concurrent=1, max_queue=0))
        else:
            backing = stack.enter_context(SoapHttpServer(container))
            registry = UDDIRegistry()
            registry.publish("Echo", backing.wsdl_url("Echo"))
            discovery = RegistryEndpoints(registry)
            front = MeshGateway(
                MeshRouter(discovery, make_policy("static")), discovery,
                port=port)
        front.start()
        stopped = []
        real_stop = front.stop

        def stop_once():
            if not stopped:
                stopped.append(True)
                real_stop()

        front.stop = stop_once
        stack.callback(stop_once)
        yield front


@pytest.fixture(params=FRONTS)
def front(request):
    with running(request.param) as srv:
        yield srv


def counter(name, **labels):
    return obs.get_metrics().counter(name, **labels).value


class TestStopStops:
    def test_a_pooled_connection_gets_no_answer_after_stop(self, front):
        proxy = ServiceProxy.from_wsdl_url(front.wsdl_url("Echo"))
        try:
            assert proxy.call("ping", word="a") == "a"
            assert len(proxy.transport._pool) == 1
            front.stop()
            with pytest.raises(TransportError):
                proxy.call("ping", word="b")
        finally:
            proxy.close()

    def test_stop_returns_promptly(self, front):
        proxy = ServiceProxy.from_wsdl_url(front.wsdl_url("Echo"))
        try:
            proxy.call("ping", word="a")
            began = time.monotonic()
            front.stop()
            # no poll interval to wait out (it was 0.5 s per listener)
            assert time.monotonic() - began < 0.4
        finally:
            proxy.close()

    @pytest.mark.parametrize("kind", FRONTS)
    def test_a_restart_on_the_same_port_costs_one_stale_retry(self, kind):
        with running(kind) as first:
            proxy = ServiceProxy.from_wsdl_url(first.wsdl_url("Echo"))
            assert proxy.call("ping", word="a") == "a"
            first.stop()
            try:
                with running(kind, port=first.port):
                    assert proxy.call("ping", word="b") == "b"
            finally:
                proxy.close()
        assert counter("ws.transport.stale_retries") == 1
        assert counter("ws.transport.errors", transport="http") == 0

    def test_a_request_in_flight_is_answered_before_the_close(self, front):
        """stop() hangs up the read side only: a response being written
        still goes out, then the connection closes."""
        with socket.create_connection(("127.0.0.1", front.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /services HTTP/1.1\r\nHost: x\r\n\r\n")
            answer = sock.recv(65536)
            assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
            front.stop()
            assert sock.recv(65536) == b""  # idle: closed at once


def test_async_stop_with_idle_connections_logs_nothing(caplog):
    """3.11 logged ``Exception in callback … CancelledError`` through the
    ``asyncio`` logger once per keep-alive connection still open."""
    with running("aserve") as front:
        proxy = ServiceProxy.from_wsdl_url(front.wsdl_url("Echo"))
        transport = proxy.transport
        proxy.call("ping", word="a")
        held = transport._pool.pop()  # checked out: the next call dials
        proxy.call("ping", word="b")
        transport._pool.append(held)
        assert len(transport._pool) == 2
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            front.stop()
        proxy.close()
    assert [record for record in caplog.records
            if record.name == "asyncio"
            and record.levelno >= logging.ERROR] == []


# -- one place refuses -------------------------------------------------------

def raw_exchange(front, sent: bytes) -> tuple[str, bytes]:
    """Send hand-written bytes; returns (status line, everything after)
    once the server has hung up."""
    with socket.create_connection(("127.0.0.1", front.port),
                                  timeout=5) as sock:
        sock.sendall(sent)
        received = b""
        # a server closing on unread bytes resets; the answer came first
        with contextlib.suppress(ConnectionResetError):
            while chunk := sock.recv(65536):
                received += chunk
    status_line, _, rest = received.partition(b"\r\n")
    return status_line.decode("latin-1"), rest


POST = b"POST /services/Echo HTTP/1.1\r\nHost: x\r\n"


class TestOnePlaceRefuses:
    @pytest.mark.parametrize("head, status", [
        (POST + b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
         501),
        (POST + b"Content-Length: 4\r\nContent-Length: 4\r\n\r\n<x/>", 400),
        (POST + b"Content-Length: 4\r\nContent-Length: 0\r\n\r\n<x/>", 400),
        (POST + b"no colon here\r\nContent-Length: 4\r\n\r\n<x/>", 400),
        (POST + b"X-Folded: a\r\n  b\r\nContent-Length: 4\r\n\r\n<x/>", 400),
        (POST + b"X-Pad: " + b"x" * 40000 + b"\r\n\r\n", 431),
        (POST + b"X-Line: " + b"y" * 64 * 1024, 431),  # and no end in sight
    ], ids=["chunked", "two lengths", "two lengths that differ", "no colon",
            "obs-fold", "head too large", "head without end"])
    def test_a_bad_head_is_answered_metered_and_hung_up_on(self, front,
                                                           head, status):
        # with the front door's only slot taken, anything but a 503 was
        # answered before admission — and the body was never parsed
        admission = getattr(front, "admission", None)
        with admission.admit() if admission else contextlib.nullcontext():
            status_line, rest = raw_exchange(front, head)
        assert status_line == \
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"
        assert b"connection: close" in rest.lower()
        assert counter("ws.http.requests", service="", status=status) == 1
        assert counter("ws.http.requests", service="Echo", status=200) == 0
        assert counter("ws.http.requests", service="Echo", status=500) == 0

    @pytest.mark.parametrize("sent", [
        b"POST /services/Echo HTT",
        POST + b"Content-Length: 100\r\n\r\n<x>"],
        ids=["mid-head", "mid-body"])
    def test_a_peer_that_stalls_gets_a_408(self, front, sent, monkeypatch):
        monkeypatch.setattr(http11, "READ_DEADLINE_S", 0.05)
        status_line, rest = raw_exchange(front, sent)
        assert status_line == "HTTP/1.1 408 Request Timeout"
        assert b"connection: close" in rest.lower()
        assert counter("ws.http.requests", service="", status=408) == 1

    def test_an_idle_connection_is_closed_and_the_client_heals(
            self, front, monkeypatch):
        monkeypatch.setattr(http11, "IDLE_TIMEOUT_S", 0.05)
        proxy = ServiceProxy.from_wsdl_url(front.wsdl_url("Echo"))
        try:
            assert proxy.call("ping", word="a") == "a"
            pooled = proxy.transport._pool[0]
            # EOF on the pooled socket is the server's idle timeout
            assert pooled.read(time.monotonic() + 5) == b""
            assert proxy.call("ping", word="b") == "b"
        finally:
            proxy.close()
        # (behind the mesh front the router's connection idled out too)
        assert counter("ws.transport.stale_retries") == \
            (2 if isinstance(front, MeshGateway) else 1)
        assert counter("ws.transport.errors", transport="http") == 0
