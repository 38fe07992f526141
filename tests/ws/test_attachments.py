"""Attachments beside the envelope (SOAP with Attachments).

Large binary values leave the base64 document and travel as raw
``multipart/related`` parts, but only between peers that negotiated it.
This suite pins the format's three promises: a value decodes the same
whichever way it travelled (hypothesis), a peer that never advertised
``swa`` / never accepted ``multipart/related`` exchanges exactly the
envelopes of the commit before attachments existed (golden digests),
and a body that does not frame is a 400 — from any mutation, without an
uncaught exception and without holding an admission slot.
"""

import hashlib
import http.client

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.data.cache import digest_scope
from repro.errors import TransportError
from repro.ws import payload, soap
from repro.ws.admission import AdmissionController
from repro.ws.aserve import AsyncSoapHttpServer
from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer, ThreadedListener
from repro.ws.pipeline import HttpGateway
from repro.ws.service import operation
from repro.ws.soap import (CallOutcome, SoapFault, SoapRequest, SoapResponse,
                           SubCall)
from repro.ws.transport import HttpTransport

from tests.ws.test_sync_async_parity import _DropStoreOnce

PROP = settings(max_examples=60, deadline=None, derandomize=True)

#: The fixed exchange whose base64 envelopes were hashed at the parent
#: commit (2016f44, before attachments): a peer that negotiates nothing
#: must still see exactly these bytes.
BLOB = bytes(range(256)) * 16
PARENT_REQUEST_SHA = \
    "7ece5b850172f2b34b34bcdd76d918d7bb9549b6a31dac81c06c23855207fde5"
PARENT_RESPONSE_SHA = \
    "a12e343d25a80962df2b6a0b06f3df3a19c99df1a9383246fb783e6297317b0f"


class Desk:
    """Binary in, binary out."""

    @operation
    def mirror(self, blob: bytes, tag: str = "",
               more: bytes = b"") -> bytes:
        """*blob* (and then *more*) reversed."""
        return bytes(more)[::-1] + bytes(blob)[::-1]

    @operation
    def measure(self, blob: bytes) -> int:
        """Length of *blob*."""
        return len(blob)


def counter(name: str) -> float:
    return obs.get_metrics().counter(name).value


@pytest.fixture(autouse=True)
def cross_host_plane():
    """Every peer here shares this host, and a same-host peer is sent
    shared-memory refs: switch that tier off, as between two hosts
    (conftest switches it back on)."""
    payload.set_shm_enabled(False)


@pytest.fixture
def container():
    container = ServiceContainer()
    container.deploy(Desk, "Desk")
    return container


@pytest.fixture
def server(container):
    with SoapHttpServer(container) as srv:
        yield srv


# -- one value, two ways to travel ------------------------------------------

# sizes straddle payload.MIN_REF_BYTES, so one tree mixes inline base64
# and attached values
_blobs = st.binary(min_size=0, max_size=3 * payload.MIN_REF_BYTES)
_values = st.one_of(_blobs, st.integers(-5, 5), st.text(max_size=8),
                    st.none(), st.lists(st.integers(0, 9), max_size=3))
_params = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), _values, max_size=4)


def both_ways(encode, decode, message):
    """*message* decoded after travelling as one base64 document and as
    envelope + parts through :func:`soap.frame`."""
    plain = decode(encode(message))
    parts: dict = {}
    framed = soap.frame(encode(message, parts), parts, gzip=True)
    envelope, attachments = soap.unframe(*framed)
    assert (attachments is None) == (not parts)
    return plain, decode(envelope, attachments), parts


class TestSameValueEitherWay:
    @PROP
    @given(_params)
    def test_request_params(self, params):
        request = SoapRequest("Desk", "mirror", params)
        plain, attached, parts = both_ways(
            soap.encode_request, soap.decode_request, request)
        assert plain.params == attached.params == params
        large = [v for v in params.values() if isinstance(v, bytes)
                 and len(v) >= payload.MIN_REF_BYTES]
        assert sorted(parts.values()) == sorted(large)
        for value in attached.params.values():
            # attached values are views of the body, not copies
            assert isinstance(value, memoryview) == \
                (isinstance(value, (bytes, memoryview))
                 and len(value) >= payload.MIN_REF_BYTES)

    @PROP
    @given(st.lists(_params, min_size=1, max_size=3))
    def test_multicall_params(self, batches):
        request = soap.multicall_request(
            "Desk", [SubCall("mirror", params) for params in batches])
        plain, attached, _ = both_ways(
            soap.encode_request, soap.decode_request, request)
        assert [sub.params for sub in soap.calls_of(plain)] == \
            [sub.params for sub in soap.calls_of(attached)] == batches

    @PROP
    @given(_values)
    def test_response_result(self, result):
        response = SoapResponse("Desk", "mirror", result)
        plain, attached, _ = both_ways(
            soap.encode_response, soap.decode_response, response)
        assert plain.result == attached.result == result
        # a client gets bytes whichever way the result travelled
        assert type(plain.result) is type(attached.result)

    @PROP
    @given(st.lists(_blobs, min_size=1, max_size=3))
    def test_multicall_results(self, results):
        response = SoapResponse(
            "Desk", soap.MULTICALL_OP,
            [CallOutcome(result=r) for r in results]
            + [CallOutcome(error=SoapFault("soapenv:Server", "no"))])
        plain, attached, _ = both_ways(
            soap.encode_response, soap.decode_response, response)
        assert [o.result for o in plain.result] == \
            [o.result for o in attached.result] == results + [None]

    def test_gzip_covers_the_envelope_part_only(self):
        text = "compressible " * 400
        request = SoapRequest("Desk", "mirror",
                              {"blob": BLOB, "tag": text})
        parts: dict = {}
        framed = soap.frame(soap.encode_request(request, parts), parts,
                            gzip=True)
        assert framed.content_encoding is None  # not the body as a whole
        assert b"Content-Encoding: gzip" in framed.body
        assert BLOB in framed.body              # stored, not deflated
        assert text.encode() not in framed.body
        decoded = soap.decode_request(*soap.unframe(*framed))
        assert decoded.params == request.params


# -- negotiated, not configured ---------------------------------------------

class _OldFront(HttpGateway):
    """A front from before attachments: it advertises only ``columnar``
    and does not know what ``Accept: multipart/related`` asks for.
    Records what clients send it."""

    def __init__(self, container):
        super().__init__(container)
        self.received: list[tuple[str, bytes]] = []

    def handle(self, method, target, headers, body):
        self.received.append((headers.get("content-type", ""), body))
        headers = {name: value for name, value in headers.items()
                   if name != "accept"}
        response = super().handle(method, target, headers, body)
        return response._replace(headers={**response.headers,
                                          "X-Repro-Codecs": "columnar"})


def post(server, body: bytes, content_type: str, accept: str | None):
    """One hand-written POST to Desk; returns (content type, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    headers = {"Content-Type": content_type}
    if accept:
        headers["Accept"] = accept
    try:
        conn.request("POST", "/services/Desk", body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), \
            response.read()
    finally:
        conn.close()


class TestInterop:
    def test_a_front_that_never_advertised_swa_gets_base64(self, container):
        front = _OldFront(container)
        listener = ThreadedListener(front, ("127.0.0.1", 0), "old-front")
        listener.start()
        transport = HttpTransport(
            f"http://127.0.0.1:{listener.address[1]}/services/Desk",
            compress=False)
        try:
            for _ in range(3):  # stays base64 however long they talk
                payload.reset_payload_store()
                transport.interceptors[-1].peer.clear()
                request = SoapRequest("Desk", "mirror",
                                      {"blob": BLOB, "tag": "x"})
                assert transport.send(request).result == BLOB[::-1]
        finally:
            transport.close()
            listener.stop()
        assert not transport.speaks("swa")
        assert counter("ws.soap.attachments") == 0
        for content_type, body in front.received:
            assert content_type.startswith("text/xml")
            assert hashlib.sha256(body).hexdigest() == PARENT_REQUEST_SHA

    def test_a_client_that_never_accepted_parts_gets_base64(self, server):
        request = soap.encode_request(
            SoapRequest("Desk", "mirror", {"blob": BLOB, "tag": "x"}))
        for accept in (None, "text/xml, application/x-repro-columnar"):
            status, content_type, body = post(server, request,
                                              "text/xml", accept)
            assert status == 200
            assert content_type.startswith("text/xml")
            assert hashlib.sha256(body).hexdigest() == PARENT_RESPONSE_SHA
        assert counter("ws.soap.attachments") == 0

    def test_an_accepting_client_gets_the_result_as_a_part(self, server):
        parts: dict = {}
        framed = soap.frame(soap.encode_request(
            SoapRequest("Desk", "mirror", {"blob": BLOB}), parts),
            parts, gzip=False)
        status, content_type, body = post(
            server, framed.body, framed.content_type,
            f"text/xml, {soap.MULTIPART}")
        assert status == 200
        assert content_type.startswith(soap.MULTIPART)
        assert BLOB[::-1] in body
        envelope, attachments = soap.unframe(body, content_type, None)
        assert soap.decode_response(envelope, attachments).result == \
            BLOB[::-1]

    def test_first_send_probes_then_attaches(self, server):
        transport = HttpTransport(server.endpoint("Desk"))
        try:
            assert not transport.speaks("swa")
            transport.send(SoapRequest("Desk", "measure", {"blob": BLOB}))
            assert counter("ws.soap.attachments") == 0  # unprobed: base64
            assert transport.speaks("swa")
            other = BLOB[::-1]
            assert transport.send(SoapRequest(
                "Desk", "measure", {"blob": other})).result == len(other)
            # one at the client's encode, one at the server's decode
            assert counter("ws.soap.attachments") == 2
            assert counter("ws.soap.attachment_bytes") == 2 * len(other)
        finally:
            transport.close()


# -- by reference still works ------------------------------------------------

class TestByReference:
    @pytest.fixture
    def probed(self, server):
        transport = HttpTransport(server.endpoint("Desk"))
        transport.send(SoapRequest("Desk", "measure", {"blob": b"probe"}))
        assert transport.speaks("swa")
        yield transport
        transport.close()

    def test_first_send_attached_repeat_by_ref(self, probed):
        obs.enable_tracing()
        for absorbed in (1, 1):
            assert probed.send(SoapRequest(
                "Desk", "measure", {"blob": BLOB})).result == len(BLOB)
            # the attached value is absorbed on receipt like an inline
            # one; the repeat's ref resolves from the store and what it
            # resolves to is not stored again
            assert counter("ws.payload.absorbed") == absorbed
        first, repeat = [
            span.attributes for span in
            obs.get_tracer().collector.spans() if span.name == "send:http"]
        assert (first["attachments"], first["attachment_bytes"]) == \
            (1, len(BLOB))
        assert first["payload_refs"] == 0
        assert "attachments" not in repeat
        assert repeat["payload_refs"] == 1
        assert repeat["bytes_sent"] < payload.MIN_REF_BYTES
        assert counter("ws.payload.ref_hits") == 1
        assert counter("ws.soap.attachments") == 2  # encode + decode, once

    def test_a_miss_resend_re_attaches(self, probed):
        probed.send(SoapRequest("Desk", "measure", {"blob": BLOB}))
        before = counter("ws.soap.attachments")
        probed.interceptors.append(_DropStoreOnce())
        assert probed.send(SoapRequest(
            "Desk", "measure", {"blob": BLOB})).result == len(BLOB)
        assert counter("ws.payload.fallbacks") == 1
        assert counter("ws.soap.attachments") == before + 2

    def test_a_shm_mapped_view_is_never_absorbed(self):
        """Only what arrived in full is stored: a mapped segment already
        is the transfer."""
        view = memoryview(BLOB)
        assert payload.absorb_params({"blob": view}) == 0
        assert payload.absorb(view) is True


# -- one buffer per hop ------------------------------------------------------

class TestNoSecondCopyOfAPart:
    """A part's bytes are written from, and kept in, the buffer they
    already live in: body-sized scratch allocations per call are what
    made the allocator trim and re-fault its heaps under two clients."""

    def test_chunks_join_to_the_body_and_a_part_is_its_own_chunk(self):
        request = SoapRequest("Desk", "mirror",
                              {"blob": BLOB, "tag": "t", "more": BLOB[::-1]})
        for gzip in (False, True):
            parts: dict = {}
            envelope = soap.encode_request(request, parts)
            chunks, content_type, encoding = soap.frame_chunks(
                envelope, parts, gzip)
            framed = soap.frame(envelope, dict(parts), gzip)
            assert (b"".join(chunks), content_type, encoding) == framed
            assert sum(chunk is request.params["blob"]
                       for chunk in chunks) == 1
        chunks, content_type, _ = soap.frame_chunks(envelope, None, False)
        assert (chunks, content_type) == ([envelope], soap.XML)

    def test_a_transport_writes_the_callers_own_buffer(self, server):
        transport = HttpTransport(server.endpoint("Desk"))
        try:
            transport.send(SoapRequest("Desk", "measure",
                                       {"blob": b"probe"}))
            view = memoryview(BLOB)  # what a relay hop forwards
            request = SoapRequest("Desk", "measure", {"blob": view})
            wire, size, headers = transport._prepare(
                request, transport._context(request))
            assert sum(chunk is view for chunk in wire) == 1
            assert headers["Content-Length"] == str(size) == \
                str(sum(map(len, wire)))
            sent = transport.bytes_sent
            assert transport.send(request).result == len(BLOB)
            assert transport.bytes_sent - sent == size
        finally:
            transport.close()

    def test_a_body_read_into_place_frames_the_same(self):
        """The asyncio front hands over the bytearray it filled; a
        service still gets views it cannot write through."""
        framed = valid_message()
        envelope, attachments = soap.unframe(
            bytearray(framed.body), framed.content_type, None)
        assert all(view.readonly for view in attachments.values())
        decoded = soap.decode_request(envelope, attachments)
        assert decoded.params == {"blob": BLOB, "tag": "t",
                                  "more": BLOB[::-1]}

    def test_a_relayed_part_is_stored_once(self, monkeypatch):
        """The hop that absorbed a part and forwards it keeps the copy
        it has, and inside one request hashes each part once: absorb,
        verified read and externalize share the digest (1, 1)."""
        hashed = []
        real = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data=b"": (
            hashed.append(len(data)), real(data))[1])
        framed = valid_message()
        digest = real(BLOB).hexdigest()
        store = payload.get_payload_store()
        with digest_scope():
            request = soap.decode_request(*soap.unframe(*framed))
            absorbed = store.get(digest)
            assert absorbed == BLOB and isinstance(request.params["blob"],
                                                   memoryview)
            payload.externalize(request, payload.PeerState())
            assert store.get(digest) is absorbed
        assert hashed == [len(BLOB), len(BLOB)]  # blob and more, once each
        assert len(store) == 2  # blob and more, nothing twice


# -- hostile framing ---------------------------------------------------------

def valid_message() -> soap.Framed:
    parts: dict = {}
    request = SoapRequest("Desk", "mirror",
                          {"blob": BLOB, "tag": "t", "more": BLOB[::-1]})
    return soap.frame(soap.encode_request(request, parts), parts,
                      gzip=False)


def _swap(old: bytes, new: bytes, count: int = 1):
    return lambda body: body.replace(old, new, count)


_EMPTY_PART = (b"--repro-swa\r\nContent-ID: <x%d>\r\n"
               b"Content-Length: 0\r\n\r\n\r\n")
_SECOND_PART = (b"\r\n--repro-swa\r\nContent-ID: <part1>\r\n"
                b"Content-Type: application/octet-stream\r\n"
                b"Content-Length: 4096\r\n\r\n" + BLOB[::-1])

MUTATIONS = {
    "empty": lambda body: b"",
    "truncated in the envelope": lambda body: body[:200],
    "truncated in a frame": lambda body: body[:len(body) // 2],
    "closing delimiter cut": lambda body: body[:-6],
    "trailing bytes": lambda body: body + b"tail",
    "length one short": _swap(b"Content-Length: 4096",
                              b"Content-Length: 4095"),
    "length one long": _swap(b"Content-Length: 4096",
                             b"Content-Length: 4097"),
    "length past the body": _swap(b"Content-Length: 4096",
                                  b"Content-Length: 999999999"),
    "length not a number": _swap(b"Content-Length: 4096",
                                 b"Content-Length: lots"),
    "length negative": _swap(b"Content-Length: 4096",
                             b"Content-Length: -1"),
    "length with 5000 digits": _swap(b"Content-Length: 4096",
                                     b"Content-Length: " + b"9" * 5000),
    "length missing": _swap(b"Content-Length: 4096\r\n", b""),
    "envelope length wrong": lambda body: body.replace(
        b"Content-Length: ", b"Content-Length: 1", 1),
    "wrong delimiter": _swap(b"--repro-swa\r\nContent-ID",
                             b"--other-one\r\nContent-ID"),
    "no envelope part": lambda body: body[body.index(b"\r\n--repro-swa")
                                          + 2:],
    "cid dropped": _swap(b"Content-ID: <part1>\r\n", b""),
    "cid duplicated": _swap(b"<part1>", b"<part0>"),
    "cid unknown": _swap(b"<part1>", b"<part7>"),
    "part unreferenced": _swap(b' href="cid:part1"', b""),
    "part referenced twice": _swap(b"cid:part1", b"cid:part0"),
    "part dropped": _swap(_SECOND_PART, b""),
    "thousands of empty parts": lambda body: body.replace(
        b"--repro-swa--",
        b"".join(_EMPTY_PART % i for i in range(5000))
        + b"--repro-swa--"),
    "only empty parts": lambda body: b"".join(
        _EMPTY_PART % i for i in range(5000)) + b"--repro-swa--\r\n",
}


class TestHostileFraming:
    def test_the_valid_message_decodes(self):
        framed = valid_message()
        assert _SECOND_PART in framed.body  # the mutations hit something
        decoded = soap.decode_request(*soap.unframe(*framed))
        assert decoded.params["more"] == BLOB[::-1]

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_every_mutation_is_malformed(self, name):
        framed = valid_message()
        body = MUTATIONS[name](framed.body)
        assert body != framed.body
        with pytest.raises(payload.MalformedBody):
            soap.decode_request(
                *soap.unframe(body, framed.content_type, None))

    @pytest.mark.parametrize("content_type", [
        "multipart/related", "multipart/related; boundary=",
        'multipart/related; boundary="' + "b" * 71 + '"',
        'multipart/related; boundary="nope"'])
    def test_bad_boundary_parameter(self, content_type):
        with pytest.raises(payload.MalformedBody):
            soap.unframe(valid_message().body, content_type, None)

    def test_a_delimiter_inside_a_frame_is_harmless(self):
        poison = (b"\r\n--repro-swa--\r\n--repro-swa\r\n" * 40).ljust(
            2048, b"-")
        parts: dict = {}
        framed = soap.frame(soap.encode_request(
            SoapRequest("Desk", "measure", {"blob": poison}), parts),
            parts, gzip=False)
        decoded = soap.decode_request(*soap.unframe(*framed))
        assert decoded.params["blob"] == poison

    def test_every_mutation_is_a_400_and_frees_its_slot(self, container):
        """Over HTTP, behind a one-slot front door: each hostile body is
        answered 400 and metered, none is a 500 or a dropped connection,
        and the slot is free for the good request that follows."""
        admission = AdmissionController(max_concurrent=1, max_queue=0)
        framed = valid_message()
        with AsyncSoapHttpServer(container, admission=admission) as srv:
            for name, mutate in MUTATIONS.items():
                status, _, answer = post(srv, mutate(framed.body),
                                         framed.content_type, None)
                assert status == 400, (name, answer)
                assert admission.inflight == 0, name
            status, _, _ = post(srv, framed.body, framed.content_type,
                                None)
            assert status == 200
        assert obs.get_metrics().counter(
            "ws.http.requests", service="Desk",
            status=400).value == len(MUTATIONS)
        assert obs.get_metrics().counter(
            "ws.http.requests", service="Desk", status=500).value == 0

    def test_a_malformed_response_is_a_metered_transport_error(
            self, container):
        class Garbler(HttpGateway):
            def handle(self, method, target, headers, body):
                response = super().handle(method, target, headers, body)
                return response._replace(
                    body=response.body.replace(b"Content-Length: 4096",
                                               b"Content-Length: 4000"))

        listener = ThreadedListener(Garbler(container), ("127.0.0.1", 0),
                                    "garbler")
        listener.start()
        transport = HttpTransport(
            f"http://127.0.0.1:{listener.address[1]}/services/Desk")
        try:
            with pytest.raises(TransportError):
                transport.send(SoapRequest("Desk", "mirror",
                                           {"blob": BLOB}))
        finally:
            transport.close()
            listener.stop()
        assert obs.get_metrics().counter(
            "ws.transport.errors", transport="http").value == 1
