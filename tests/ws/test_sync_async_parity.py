"""Sync ≡ async, shown by differential test rather than by twin code.

Every chain step is written once and run by two drivers; this suite is
the safety net for that: the same call sequence — a success, a SOAP
fault, a payload miss healed by an inline resend, a megabyte of binary
sent twice (attached beside the envelope, then by reference), a breaker
tripped and then failing fast, a spent deadline — goes through
``ServiceProxy.call`` and ``ServiceProxy.call_async`` over tcp and over
a unix socket, and must produce equal results and exception types,
equal span trees (names, parentage, attribute keys) and equal counter
values.
"""

import asyncio
import random
import socket
import string
import struct
import threading

import pytest

from repro import obs
from repro.errors import (CircuitOpenError, DeadlineExceeded,
                          TransportError)
from repro.ws import payload, soap
from repro.ws.aserve import AsyncSoapHttpServer
from repro.ws.breaker import CircuitBreaker
from repro.ws.client import ServiceProxy, fetch_url
from repro.ws.container import ServiceContainer
from repro.ws.deadline import deadline_scope
from repro.ws.pipeline import ClientInterceptor
from repro.ws.service import operation
from repro.ws.soap import SoapFault
from repro.ws.transport import transport_for, unix_url

# well above payload.MIN_REF_BYTES, so a repeat send goes by reference
BIG = "".join(random.Random(0).choices(
    string.ascii_letters + string.digits, k=8000))
# leaves the envelope as an attachment part once the peer is probed
FRAME = random.Random(1).randbytes(1024 * 1024 + 17)


class Desk:
    """Answers, measures, or refuses."""

    @operation
    def greet(self, name: str) -> str:
        """Compose a greeting."""
        return f"hello {name}"

    @operation
    def measure(self, document: str) -> int:
        """Length of *document*."""
        return len(document)

    @operation
    def weigh(self, frame: bytes) -> int:
        """Byte sum of *frame*."""
        return sum(bytes(frame))

    @operation
    def refuse(self) -> str:
        """Always fails."""
        raise ValueError("no")


class _DropStoreOnce(ClientInterceptor):
    """Empties the payload store (shared with the in-process server)
    under the first by-reference send, so the server misses for real
    and answers the ``repro:PayloadMiss`` fault over the wire."""

    name = "drop-store"

    def __init__(self):
        self.armed = True

    def around(self, request, ctx):
        if self.armed and payload.refs_in(request):
            self.armed = False
            payload.reset_payload_store()
        return (yield request)


def _proxy(document: str, endpoint: str) -> ServiceProxy:
    transport = transport_for(endpoint, compress=False, timeout=5.0)
    return ServiceProxy.from_wsdl_text(
        document, transport,
        breaker=CircuitBreaker(endpoint, failure_threshold=1))


def _outcome(call):
    """``call()``'s result, or the type of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


async def _outcome_async(call):
    try:
        return await call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _sequence_sync(live: ServiceProxy, dead: ServiceProxy) -> list:
    def spent():
        with deadline_scope(0.0):
            return live.call("greet", name="late")
    return [
        _outcome(lambda: live.call("greet", name="ada")),
        _outcome(lambda: live.call("refuse")),
        _outcome(lambda: live.call("measure", document=BIG)),
        _outcome(lambda: live.call("measure", document=BIG)),
        _outcome(lambda: live.call("weigh", frame=FRAME)),
        _outcome(lambda: live.call("weigh", frame=FRAME)),
        _outcome(lambda: dead.call("greet", name="x")),
        _outcome(lambda: dead.call("greet", name="x")),
        _outcome(spent),
    ]


def _sequence_async(live: ServiceProxy, dead: ServiceProxy) -> list:
    async def spent():
        with deadline_scope(0.0):
            return await live.call_async("greet", name="late")

    async def drive():
        return [
            await _outcome_async(
                lambda: live.call_async("greet", name="ada")),
            await _outcome_async(lambda: live.call_async("refuse")),
            await _outcome_async(
                lambda: live.call_async("measure", document=BIG)),
            await _outcome_async(
                lambda: live.call_async("measure", document=BIG)),
            await _outcome_async(
                lambda: live.call_async("weigh", frame=FRAME)),
            await _outcome_async(
                lambda: live.call_async("weigh", frame=FRAME)),
            await _outcome_async(
                lambda: dead.call_async("greet", name="x")),
            await _outcome_async(
                lambda: dead.call_async("greet", name="x")),
            await _outcome_async(spent),
        ]
    return asyncio.run(drive())


def _span_tree() -> list:
    """Every recorded span as (path of names from its root, attribute
    keys), sorted — ids and timings canonicalised away."""
    spans = obs.get_tracer().collector.spans()
    by_id = {span.span_id: span for span in spans}

    def path(span):
        names = [span.name]
        while span.parent_id in by_id:
            span = by_id[span.parent_id]
            names.append(span.name)
        return tuple(reversed(names))

    return sorted((path(span), tuple(sorted(span.attributes)))
                  for span in spans)


def _counters() -> dict:
    return {(name, labels): counter.value
            for name, labels, counter in obs.get_metrics().counters()}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    container = ServiceContainer()
    container.deploy(Desk, "Desk")
    path = str(tmp_path_factory.mktemp("parity") / "desk.sock")
    with AsyncSoapHttpServer(container, uds_path=path) as srv:
        yield srv


@pytest.mark.parametrize("scheme", ["tcp", "uds"])
def test_call_and_call_async_are_indistinguishable(server, scheme,
                                                   tmp_path):
    document = fetch_url(server.wsdl_url("Desk"))
    if scheme == "tcp":
        endpoint = server.endpoint("Desk")
        dead_endpoint = "http://127.0.0.1:9/services/Desk"  # discard port
    else:
        endpoint = server.uds_endpoint("Desk")
        dead_endpoint = unix_url(str(tmp_path / "nobody.sock"),
                                 "/services/Desk")
    observed = {}
    for mode, sequence in (("sync", _sequence_sync),
                           ("async", _sequence_async)):
        obs.reset_metrics()
        obs.reset_tracing()
        payload.reset_payload_store()
        # pin the classic store-ref plane: with the shm tier on, a
        # same-host peer gets segment refs and nothing can miss
        payload.set_shm_enabled(False)
        obs.enable_tracing()
        live, dead = _proxy(document, endpoint), \
            _proxy(document, dead_endpoint)
        live.transport.interceptors.append(_DropStoreOnce())
        try:
            outcomes = sequence(live, dead)
        finally:
            live.close()
            dead.close()
        observed[mode] = (outcomes, _span_tree(), _counters())

    outcomes, spans, counters = observed["sync"]
    assert outcomes == ["hello ada", SoapFault, len(BIG), len(BIG),
                        sum(FRAME), sum(FRAME),
                        TransportError, CircuitOpenError, DeadlineExceeded]
    assert counters[("ws.payload.fallbacks", ())] == 1
    # the frame went out once, beside the envelope (counted at the
    # client's encode and the server's decode), then by reference
    assert counters[("ws.soap.attachments", ())] == 2
    assert counters[("ws.soap.attachment_bytes", ())] == 2 * len(FRAME)
    assert (("soap:Desk.weigh", "send:" + ("http" if scheme == "tcp"
                                           else "uds")),
            ("attachment_bytes", "attachments", "bytes_received",
             "bytes_sent", "endpoint", "http_status",
             "payload_refs")) in spans
    assert observed["async"][0] == outcomes
    assert observed["async"][1] == spans
    assert observed["async"][2] == counters


# -- one stale rule, one no-length rule --------------------------------------

class _ScriptedPeer:
    """A tcp peer that answers each request on each connection with the
    next entry of *script*: ``("answer", body)`` keeps the connection
    open, ``("answer+reset", body)`` answers and then resets it (what a
    restarted server's kernel does to a pooled connection),
    ``("no-length", body)`` answers without ``Content-Length`` and
    closes."""

    def __init__(self, script):
        self.script = list(script)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.endpoint = "http://127.0.0.1:%d/services/Desk" % \
            self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        sock = None
        while self.script:
            if sock is None:
                sock, _ = self.listener.accept()
            received = b""
            while b"\r\n\r\n" not in received:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
            if not received:
                sock.close()
                sock = None
                continue
            head, _, body = received.partition(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length:")[1]
                         .split(b"\r\n")[0])
            while len(body) < length:
                body += sock.recv(65536)
            kind, answer = self.script.pop(0)
            if kind == "no-length":
                sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: text/xml"
                             b"\r\n\r\n" + answer)
                sock.close()
                sock = None
                continue
            sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(answer) + answer)
            if kind == "answer+reset":
                # SO_LINGER 0: close() sends RST, so the client's next
                # write or read on it fails with reset / broken pipe
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
                sock = None
        self.listener.close()


def _greeting(name: str) -> bytes:
    return soap.encode_response(
        soap.SoapResponse("Desk", "greet", f"hello {name}"))


def test_reset_on_reuse_and_a_response_without_length_are_one_rule(server):
    """A reused connection the peer reset is stale — one retry, no
    transport error — and a response without ``Content-Length`` is a
    ``TransportError``: on ``call`` and on ``call_async`` alike."""
    document = fetch_url(server.wsdl_url("Desk"))
    observed = {}
    for mode in ("sync", "async"):
        obs.reset_metrics()
        peer = _ScriptedPeer([("answer+reset", _greeting("ada")),
                              ("answer", _greeting("bob")),
                              ("no-length", _greeting("cy"))])
        proxy = _proxy(document, peer.endpoint)
        try:
            if mode == "sync":
                outcomes = [
                    _outcome(lambda n=n: proxy.call("greet", name=n))
                    for n in ("ada", "bob", "cy")]
            else:
                async def drive():
                    return [await _outcome_async(
                        lambda n=n: proxy.call_async("greet", name=n))
                        for n in ("ada", "bob", "cy")]
                outcomes = asyncio.run(drive())
        finally:
            proxy.close()
            peer.thread.join(5)
        # each mode's peer has its own port: compare by label names
        observed[mode] = (outcomes, {
            (name, tuple(key if key == "endpoint" else (key, value)
                         for key, value in labels)): count
            for (name, labels), count in _counters().items()})
    outcomes, counters = observed["sync"]
    assert outcomes == ["hello ada", "hello bob", TransportError]
    assert counters[("ws.transport.stale_retries", ())] == 1
    assert counters[("ws.transport.errors", (("transport", "http"),))] == 1
    assert observed["async"] == observed["sync"]
