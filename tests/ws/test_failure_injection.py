"""Failure injection: hostile/malformed traffic against the HTTP host and
concurrent access to shared containers."""

import contextlib
import http.client
import socket
import threading
from http import HTTPStatus

import pytest

from repro import obs
from repro.ws import payload, soap
from repro.ws import (AdmissionController, AsyncSoapHttpServer,
                      ServiceContainer, SoapHttpServer, SoapRequest,
                      UDDIRegistry)
from repro.ws.mesh import (MeshGateway, MeshRouter, RegistryEndpoints,
                           make_policy)
from repro.ws.pipeline import MAX_BODY_BYTES
from repro.ws.service import operation


class Slowish:
    """Service with shared mutable state to stress thread safety."""

    def __init__(self) -> None:
        self.total = 0
        self._lock = threading.Lock()

    @operation
    def accumulate(self, amount: int) -> int:
        with self._lock:
            self.total += amount
            return self.total

    @operation
    def mirror(self, blob: bytes) -> bytes:
        return bytes(blob)[::-1]


@pytest.fixture(scope="module")
def server():
    container = ServiceContainer()
    container.deploy(Slowish, "Slowish")
    with SoapHttpServer(container) as srv:
        yield srv


def raw_post(server, path, body: bytes, content_type="text/xml"):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    conn.request("POST", path, body=body,
                 headers={"Content-Type": content_type})
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, data


class TestHostileTraffic:
    def test_garbage_body_returns_soap_fault(self, server):
        status, body = raw_post(server, "/services/Slowish",
                                b"\x00\xff not xml")
        assert status == 500
        assert b"Fault" in body

    def test_empty_body(self, server):
        status, body = raw_post(server, "/services/Slowish", b"")
        assert status == 500
        assert b"Fault" in body

    def test_valid_xml_wrong_root(self, server):
        status, body = raw_post(server, "/services/Slowish",
                                b"<html><body/></html>")
        assert status == 500

    def test_post_to_unknown_path(self, server):
        status, _ = raw_post(server, "/other/thing", b"<x/>")
        assert status == 404

    def test_get_unknown_service_wsdl(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=5)
        conn.request("GET", "/services/Ghost?wsdl")
        assert conn.getresponse().status == 404
        conn.close()

    def test_envelope_with_multiple_body_children(self, server):
        doc = (b'<?xml version="1.0"?>'
               b'<soapenv:Envelope xmlns:soapenv='
               b'"http://schemas.xmlsoap.org/soap/envelope/">'
               b'<soapenv:Body><a/><b/></soapenv:Body>'
               b'</soapenv:Envelope>')
        status, body = raw_post(server, "/services/Slowish", doc)
        assert status == 500
        assert b"exactly one element" in body

    def test_server_survives_hostile_burst(self, server):
        for payload in (b"<", b"{}", b"\xff" * 100, b"<x>" * 50):
            raw_post(server, "/services/Slowish", payload)
        # still serves good requests afterwards
        from repro.ws import ServiceProxy
        proxy = ServiceProxy.from_wsdl_url(server.wsdl_url("Slowish"))
        assert isinstance(proxy.accumulate(amount=0), int)
        proxy.close()


@pytest.fixture(params=["httpd", "aserve", "mesh"])
def front(request):
    """The same container behind each of the three HTTP fronts (the
    asyncio one with one-slot front-door admission)."""
    container = ServiceContainer()
    container.deploy(Slowish, "Slowish")
    if request.param == "httpd":
        with SoapHttpServer(container) as srv:
            yield srv
    elif request.param == "aserve":
        admission = AdmissionController(max_concurrent=1, max_queue=0)
        with AsyncSoapHttpServer(container, admission=admission) as srv:
            yield srv
    else:
        with SoapHttpServer(container) as backing:
            registry = UDDIRegistry()
            registry.publish("Slowish", backing.wsdl_url("Slowish"))
            discovery = RegistryEndpoints(registry)
            router = MeshRouter(discovery, make_policy("static"))
            with MeshGateway(router, discovery) as gateway:
                yield gateway


def raw_exchange(front, head: str, body: bytes = b"") -> tuple[str, bytes]:
    """Send hand-written bytes; returns (status line, rest) once the
    server has hung up or answered in full."""
    with socket.create_connection(("127.0.0.1", front.port),
                                  timeout=5) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n\r\n" + body)
        received = b""
        while b"\r\n\r\n" not in received:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    status_line, _, rest = received.partition(b"\r\n")
    return status_line.decode("latin-1"), rest


class TestOneHandlerThreeFronts:
    """Every front answers a bad head the same way, from one handler."""

    @pytest.mark.parametrize("value, status", [
        ("banana", 400), ("-5", 400), ("", 400),
        (str(MAX_BODY_BYTES + 1), 413)])
    def test_bad_content_length_is_answered_not_dropped(self, front,
                                                        value, status):
        # with the front door's only slot taken, anything but a 503
        # was answered before admission
        admission = getattr(front, "admission", None)
        with admission.admit() if admission else contextlib.nullcontext():
            status_line, rest = raw_exchange(
                front, "POST /services/Slowish HTTP/1.1\r\nHost: x\r\n"
                       f"Content-Length: {value}", b"<x/>")
        assert status_line == \
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"
        assert b"connection: close" in rest.lower()
        assert obs.get_metrics().counter(
            "ws.http.requests", service="Slowish",
            status=status).value == 1

    def test_reason_phrase_matches_the_status(self, front):
        """A bad-gzip body is a 400 — and says so on the status line."""
        status_line, _ = raw_exchange(
            front, "POST /services/Slowish HTTP/1.1\r\nHost: x\r\n"
                   "Content-Encoding: gzip\r\nConnection: close\r\n"
                   "Content-Length: 8", b"not gzip")
        assert status_line == "HTTP/1.1 400 Bad Request"

    def test_attachment_post_is_answered_with_an_attachment(self, front):
        """Binary beside the envelope in, binary beside the envelope
        out — decoded and re-framed by the one handler, so also across
        the mesh front's second hop (base64 until its transport has
        seen the worker advertise ``swa``, attached after)."""
        payload.set_shm_enabled(False)  # or the mesh hop sends segment refs
        for round_ in range(2):
            blob = bytes([round_]) * 3000 + b"tail"
            parts: dict = {}
            framed = soap.frame(soap.encode_request(
                SoapRequest("Slowish", "mirror", {"blob": blob}), parts),
                parts, gzip=False)
            assert list(parts.values()) == [blob]
            conn = http.client.HTTPConnection("127.0.0.1", front.port,
                                              timeout=5)
            conn.request("POST", "/services/Slowish", body=framed.body,
                         headers={"Content-Type": framed.content_type,
                                  "Accept": soap.MULTIPART})
            response = conn.getresponse()
            body = response.read()
            conn.close()
            assert response.status == 200
            content_type = response.getheader("Content-Type")
            assert content_type.startswith(soap.MULTIPART)
            assert blob[::-1] in body  # stored, not base64
            assert soap.decode_response(*soap.unframe(
                body, content_type, None)).result == blob[::-1]
        # per round: this test's frame, the front's unframe, the
        # front's frame, this test's unframe.  The mesh's inner hop
        # adds the answer's frame + unframe in both rounds and the
        # request's once its transport was probed
        inner = 2 + 4 if isinstance(front, MeshGateway) else 0
        assert obs.get_metrics().counter(
            "ws.soap.attachments").value == 2 * 4 + inner

    def test_a_body_cut_short_is_dropped_and_the_front_serves_on(self,
                                                                 front):
        """The client hangs up a third of the way into a large body
        (several reads' worth): nothing is dispatched, no admission
        slot stays held, and the next caller is served."""
        with socket.create_connection(("127.0.0.1", front.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /services/Slowish HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 900000\r\n\r\n" + b"x" * 300_000)
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(65536):
                pass  # a fault for the fragment, or just the hang-up
        from repro.ws import ServiceProxy
        proxy = ServiceProxy.from_wsdl_url(front.wsdl_url("Slowish"))
        try:
            assert proxy.accumulate(amount=0) == 0  # nothing was added
        finally:
            proxy.close()

    def test_unsupported_method_is_405(self, front):
        status_line, _ = raw_exchange(
            front, "PUT /services/Slowish HTTP/1.1\r\nHost: x\r\n"
                   "Connection: close\r\nContent-Length: 0")
        assert status_line == "HTTP/1.1 405 Method Not Allowed"


class TestConcurrency:
    def test_concurrent_invocations_are_serialised_per_service(self,
                                                               server):
        """The container locks per deployment: concurrent accumulates must
        not lose updates."""
        from repro.ws import HttpTransport
        n_threads, n_calls = 8, 20
        errors: list[Exception] = []

        def hammer():
            transport = HttpTransport(server.endpoint("Slowish"))
            try:
                for _ in range(n_calls):
                    transport.send(SoapRequest("Slowish", "accumulate",
                                               {"amount": 1}))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                transport.close()

        before = server.container.call("Slowish", "accumulate", amount=0)
        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        after = server.container.call("Slowish", "accumulate", amount=0)
        assert after - before == n_threads * n_calls

    def test_concurrent_wsdl_fetches(self, server):
        from repro.ws.client import fetch_url
        results = []

        def fetch():
            results.append(fetch_url(server.wsdl_url("Slowish")))

        threads = [threading.Thread(target=fetch) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 10
        assert all("Slowish" in r for r in results)
