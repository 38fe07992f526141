"""Data-plane fast path: payload store, by-reference transfer, gzip.

Covers the tentpole contracts: digest stability, LRU bounds, ref
round-trips over the in-process and HTTP transports, the transparent
full-payload fallback after a peer miss, gzip negotiation against a
non-compressing peer, and corrupt-ref rejection under chaos.
"""

import gzip
import hashlib
import http.client
import random
import string
import tracemalloc
import zlib

import pytest

from repro import obs
from repro.chaos import ChaosController, ChaosTransport
from repro.errors import ReproError, TransportError
from repro.obs import get_metrics
from repro.ws import payload, soap
from repro.ws.client import HttpTransport
from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer, ThreadedListener
from repro.ws.payload import (PayloadMissError, PayloadRef, PayloadStore,
                              payload_digest_ok)
from repro.ws.service import operation
from repro.ws.soap import SoapRequest
from repro.ws.pipeline import (CallContext, HttpGateway, PayloadRefs,
                               http_response, run_chain)
from repro.ws.transport import InProcessTransport, SimulatedTransport

# a large, high-entropy document: well above MIN_REF_BYTES, and barely
# compressible, so ref-sized envelopes beat even gzipped inline sends
BIG = "".join(random.Random(0).choices(
    string.ascii_letters + string.digits + ",.\n", k=8000))


class Echo:
    """Length-reporting echo service."""

    @operation
    def measure(self, document: str) -> int:
        """Length of *document*."""
        return len(document)

    @operation
    def tail(self, document: str, n: int = 10) -> str:
        """Last *n* characters of *document*."""
        return document[-n:]


def make_transport():
    container = ServiceContainer()
    container.deploy(Echo, "Echo")
    return InProcessTransport(container)


def counter_value(name, **labels):
    return get_metrics().counter(name, **labels).value


class TestDigestAndStore:
    def test_digest_stability(self):
        data = BIG.encode()
        assert payload.digest_bytes(data) == \
            hashlib.sha256(data).hexdigest()
        assert payload.digest_bytes(data) == payload.digest_bytes(data)
        assert payload.digest_bytes(b"x") != payload.digest_bytes(b"y")

    def test_put_is_idempotent(self):
        store = PayloadStore()
        d1 = store.put(b"hello world")
        d2 = store.put(b"hello world")
        assert d1 == d2
        assert len(store) == 1
        assert store.get(d1) == b"hello world"

    def test_put_keeps_what_it_holds_and_copies_a_view_once(
            self, monkeypatch):
        monkeypatch.setattr(payload, "STORE_MAX_ENTRIES", 2)
        store = PayloadStore()
        body = b"head" + bytes(range(256)) * 8
        view = memoryview(body)[4:]
        digest = store.put(view)
        held = store.get(digest)
        assert type(held) is bytes and held == view
        store.put(b"other")
        assert store.put(view) == digest    # refreshed, not replaced ...
        assert store.get(digest) is held
        store.put(b"third")                 # ... so "other" is the LRU
        assert digest in store and len(store) == 2

    def test_entry_bound_evicts_lru(self, monkeypatch):
        monkeypatch.setattr(payload, "STORE_MAX_ENTRIES", 3)
        store = PayloadStore()
        digests = [store.put(f"blob-{i}".encode()) for i in range(5)]
        assert len(store) == 3
        assert digests[0] not in store
        assert digests[1] not in store
        assert digests[4] in store

    def test_byte_bound_evicts_lru(self, monkeypatch):
        monkeypatch.setattr(payload, "STORE_MAX_ENTRIES", 100)
        monkeypatch.setattr(payload, "STORE_MAX_BYTES", 250)
        store = PayloadStore()
        digests = [store.put(bytes([i]) * 100) for i in range(4)]
        assert store.total_bytes <= 250
        assert digests[3] in store
        assert digests[0] not in store

    def test_integrity_verified_on_get(self):
        store = PayloadStore()
        digest = store.put(b"pristine")
        # corrupt the stored blob behind the digest's back
        store._cache.put(digest, b"tampered", weight=8)
        with pytest.raises(TransportError, match="digest mismatch"):
            store.get(digest)
        assert counter_value("ws.payload.integrity_failures") == 1

    def test_missing_digest_is_none(self):
        assert PayloadStore().get("0" * 64) is None


class TestExternalize:
    def test_first_send_inline_then_by_reference(self):
        peer = payload.PeerState()
        request = SoapRequest("Echo", "measure", {"document": BIG})
        first = payload.externalize(request, peer)
        assert first.params["document"] == BIG  # peer must absorb first
        second = payload.externalize(request, peer)
        ref = second.params["document"]
        assert isinstance(ref, PayloadRef)
        assert ref.size == len(BIG.encode())
        assert counter_value("ws.payload.inline_sends") == 1
        assert counter_value("ws.payload.ref_sends") == 1
        assert counter_value("ws.payload.bytes_saved") == len(BIG)

    def test_small_params_stay_inline(self):
        peer = payload.PeerState()
        request = SoapRequest("Echo", "measure", {"document": "tiny"})
        for _ in range(3):
            assert payload.externalize(request, peer) is request

    def test_disabled_passthrough(self):
        payload.set_enabled(False)
        peer = payload.PeerState()
        request = SoapRequest("Echo", "measure", {"document": BIG})
        assert payload.externalize(request, peer) is request
        assert payload.externalize(request, peer) is request

    def test_internalize_restores_values(self):
        peer = payload.PeerState()
        request = SoapRequest("Echo", "measure", {"document": BIG})
        payload.externalize(request, peer)
        ref_request = payload.externalize(request, peer)
        restored = payload.internalize(ref_request)
        assert restored.params["document"] == BIG

    def test_fallback_resends_inline_and_resets_peer(self):
        step = PayloadRefs()
        peer = step.peer
        request = SoapRequest("Echo", "measure", {"document": BIG})
        payload.externalize(request, peer)  # peer "learns" the digest
        seen = []

        def send_once(outbound):
            seen.append(outbound)
            if isinstance(outbound.params["document"], PayloadRef):
                raise PayloadMissError("deadbeef" * 8)
            return "response"

        assert run_chain([step], request, CallContext(kind="test"),
                         send_once) == "response"
        assert isinstance(seen[0].params["document"], PayloadRef)
        assert seen[1].params["document"] == BIG
        assert len(peer) == 0
        assert counter_value("ws.payload.fallbacks") == 1


class TestRefRoundTrip:
    def test_inprocess_round_trip(self):
        transport = make_transport()
        request = SoapRequest("Echo", "measure", {"document": BIG})
        assert transport.send(request).result == len(BIG)
        sent_first = transport.bytes_sent
        assert transport.send(request).result == len(BIG)
        sent_second = transport.bytes_sent - sent_first
        assert sent_second < sent_first / 4  # ref, not document
        assert counter_value("ws.payload.ref_hits") == 1

    def test_http_round_trip(self):
        # pin the classic store-ref path: with the shm tier on, a
        # localhost HTTP peer negotiates same-host via X-Repro-Boot and
        # repeat sends ship via="shm" refs instead (tests/ws/test_shm_payload.py)
        payload.set_shm_enabled(False)
        container = ServiceContainer()
        container.deploy(Echo, "Echo")
        with SoapHttpServer(container) as server:
            transport = HttpTransport(server.endpoint("Echo"))
            request = SoapRequest("Echo", "tail", {"document": BIG,
                                                   "n": 5})
            assert transport.send(request).result == BIG[-5:]
            first = transport.bytes_sent
            assert transport.send(request).result == BIG[-5:]
            assert transport.bytes_sent - first < first
            assert counter_value("ws.payload.ref_hits") == 1
            transport.close()

    def test_simulated_bills_ref_sized_envelopes(self):
        transport = SimulatedTransport(make_transport())
        request = SoapRequest("Echo", "measure", {"document": BIG})
        transport.send(request)
        first_wire = transport.bytes_on_wire
        transport.send(request)
        transport.send(request)
        repeat_wire = (transport.bytes_on_wire - first_wire) / 2
        assert repeat_wire < first_wire / 2
        # and the first send itself was billed post-compression
        envelope = soap.encode_request(request)
        assert first_wire < len(envelope)

    def test_unknown_ref_raises_miss(self):
        transport = make_transport()
        request = SoapRequest(
            "Echo", "measure",
            {"document": PayloadRef("ab" * 32, 10, "str")})
        with pytest.raises(PayloadMissError):
            transport.send(request)

    def test_miss_error_is_transient_transport_error(self):
        err = PayloadMissError("ab" * 32)
        assert isinstance(err, TransportError)
        assert err.digest == "ab" * 32


class TestHttpMissFault:
    def test_server_answers_miss_fault_for_unknown_ref(self):
        container = ServiceContainer()
        container.deploy(Echo, "Echo")
        with SoapHttpServer(container) as server:
            # hand-craft a ref the server cannot hold, bypassing the
            # client-side externalization that would have shipped it
            request = SoapRequest(
                "Echo", "measure",
                {"document": PayloadRef(
                    payload.digest_bytes(b"never shipped"), 13, "str")})
            transport = HttpTransport(server.endpoint("Echo"))
            payload.reset_payload_store()
            with pytest.raises(PayloadMissError):
                transport._exchange(request, CallContext(kind="http"))
            transport.close()


class TestGzipNegotiation:
    def test_round_trip_against_non_compressing_server(self):
        container = ServiceContainer()
        container.deploy(Echo, "Echo")
        with SoapHttpServer(container, compress=False) as server:
            transport = HttpTransport(server.endpoint("Echo"))
            request = SoapRequest("Echo", "tail",
                                  {"document": BIG, "n": 4})
            assert transport.send(request).result == BIG[-4:]
            transport.close()

    def test_non_compressing_client_against_compressing_server(self):
        container = ServiceContainer()
        container.deploy(Echo, "Echo")
        with SoapHttpServer(container) as server:
            transport = HttpTransport(server.endpoint("Echo"),
                                      compress=False)
            request = SoapRequest("Echo", "measure", {"document": BIG})
            assert transport.send(request).result == len(BIG)
            transport.close()

    def test_large_request_travels_compressed(self):
        container = ServiceContainer()
        container.deploy(Echo, "Echo")
        with SoapHttpServer(container) as server:
            transport = HttpTransport(server.endpoint("Echo"))
            request = SoapRequest("Echo", "measure", {"document": BIG})
            assert transport.send(request).result == len(BIG)
            envelope_size = len(soap.encode_request(request))
            assert transport.bytes_sent < envelope_size
            assert counter_value("ws.compress.messages") >= 1
            transport.close()

    def test_small_bodies_stay_identity(self):
        body = b"<tiny/>"
        wire, encoding = payload.maybe_compress(body)
        assert wire == body and encoding is None

    def test_decompress_rejects_unknown_encoding(self):
        with pytest.raises(TransportError):
            payload.decompress(b"x", "br")

    def test_decompress_rejects_corrupt_gzip(self):
        with pytest.raises(TransportError):
            payload.decompress(b"not gzip at all", "gzip")

    def test_decompress_rejects_truncated_and_trailing(self):
        body = gzip.compress(BIG.encode())
        assert payload.decompress(body, "gzip") == BIG.encode()
        for broken in (body[:-9], body + b"again"):
            with pytest.raises(payload.MalformedBody):
                payload.decompress(broken, "gzip")


def gzip_bomb(inflated_bytes: int) -> bytes:
    """A gzip stream of zeros inflating past *inflated_bytes*, about a
    thousandth the size: one full-flushed 1 MiB block, repeated (such
    blocks are self-contained, so the copies decode one after another).
    The trailer is absent — a reader that got that far has lost."""
    deflater = zlib.compressobj(9, wbits=16 + zlib.MAX_WBITS)
    mib = bytes(1024 * 1024)
    header_and_block = deflater.compress(mib) + \
        deflater.flush(zlib.Z_FULL_FLUSH)
    block = deflater.compress(mib) + deflater.flush(zlib.Z_FULL_FLUSH)
    return header_and_block + block * (inflated_bytes // len(mib) + 1)


class TestGzipBomb:
    def test_inflation_stops_at_the_body_limit(self):
        """A quarter-megabyte body that would inflate past 256 MiB is
        refused having allocated the limit plus a step or two."""
        bomb = gzip_bomb(payload.MAX_BODY_BYTES)
        assert len(bomb) < payload.MAX_BODY_BYTES // 500
        tracemalloc.start()
        try:
            with pytest.raises(payload.BodyTooLarge):
                payload.decompress(bomb, "gzip")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= payload.MAX_BODY_BYTES + 4 * 1024 * 1024

    def test_a_bomb_under_the_limit_still_inflates(self, monkeypatch):
        monkeypatch.setattr(payload, "MAX_BODY_BYTES", 4 * 1024 * 1024)
        body = gzip.compress(bytes(4 * 1024 * 1024))
        assert len(payload.decompress(body, "gzip")) == 4 * 1024 * 1024
        with pytest.raises(payload.BodyTooLarge):
            payload.decompress(gzip.compress(bytes(4 * 1024 * 1024 + 1)),
                               "gzip")

    def test_a_front_answers_413(self, monkeypatch):
        monkeypatch.setattr(payload, "MAX_BODY_BYTES", 1024 * 1024)
        container = ServiceContainer()
        container.deploy(Echo, "Echo")
        with SoapHttpServer(container) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=5)
            conn.request("POST", "/services/Echo",
                         body=gzip_bomb(1024 * 1024),
                         headers={"Content-Encoding": "gzip"})
            response = conn.getresponse()
            assert (response.status, response.reason) == \
                (413, "Request Entity Too Large")
            assert b"inflates past" in response.read()
            conn.close()
        assert get_metrics().counter("ws.http.requests", service="Echo",
                                     status=413).value == 1

    def test_a_client_raises_a_metered_transport_error(self, monkeypatch):
        monkeypatch.setattr(payload, "MAX_BODY_BYTES", 1024 * 1024)

        class Bomber(HttpGateway):
            def handle(self, method, target, headers, body):
                return http_response(200, gzip_bomb(1024 * 1024),
                                     content_encoding="gzip")

        listener = ThreadedListener(Bomber(None), ("127.0.0.1", 0),
                                    "bomber")
        listener.start()
        transport = HttpTransport(
            f"http://127.0.0.1:{listener.address[1]}/services/Echo")
        try:
            with pytest.raises(payload.BodyTooLarge):
                transport.send(SoapRequest("Echo", "measure",
                                           {"document": "x"}))
        finally:
            transport.close()
            listener.stop()
        assert issubclass(payload.BodyTooLarge, TransportError)
        assert get_metrics().counter("ws.transport.errors",
                                     transport="http").value == 1


class TestChaosCorruptRef:
    def test_corrupt_ref_is_rejected(self):
        controller = ChaosController("corrupt=1", seed=3)
        transport = SimulatedTransport(
            ChaosTransport(make_transport(), controller, "Echo"))
        request = SoapRequest("Echo", "measure", {"document": BIG})
        # first send is inline, so corruption hits the response (the
        # pre-existing behaviour); the payload still gets absorbed
        with pytest.raises(ReproError):
            transport.send(request)
        # second send goes by reference and the ref digest is mangled in
        # flight: the receiver must refuse to substitute other bytes
        with pytest.raises(PayloadMissError):
            transport.send(request)
        assert counter_value("ws.payload.miss") >= 1
        assert ("Echo", "corrupt") in controller.injections()

    def test_corruption_deterministic_for_fixed_seed(self):
        outcomes = []
        for _ in range(2):
            payload.reset_payload_store()
            obs.reset_metrics()
            controller = ChaosController("corrupt=0.5", seed=42)
            transport = SimulatedTransport(
                ChaosTransport(make_transport(), controller, "Echo"))
            request = SoapRequest("Echo", "measure", {"document": BIG})
            run = []
            for _ in range(6):
                try:
                    transport.send(request)
                    run.append("ok")
                except ReproError as exc:
                    run.append(type(exc).__name__)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] != ["ok"] * 6  # the plan did fire

    def test_refless_traffic_never_rolls_the_extra_die(self):
        # a corrupt plan over small-payload traffic behaves exactly as
        # it did before payload refs existed: responses get truncated,
        # and the fault sequence for a fixed seed is unchanged
        controller = ChaosController("corrupt=1", seed=3)
        transport = ChaosTransport(make_transport(), controller, "Echo")
        request = SoapRequest("Echo", "measure", {"document": "small"})
        with pytest.raises(ReproError):
            transport.send(request)
        assert [k for _, k in controller.injections()] == ["corrupt"]


class TestResolveValidation:
    def test_malformed_digest_is_a_miss(self):
        with pytest.raises(PayloadMissError):
            payload.resolve("not-a-digest", "str")
        assert counter_value("ws.payload.miss") == 1

    def test_bytes_kind_round_trip(self):
        blob = bytes(range(256)) * 8
        digest = payload.get_payload_store().put(blob)
        assert payload.resolve(digest, "bytes") == blob

    def test_digest_helper(self):
        good = payload.digest_bytes(b"x")
        assert payload_digest_ok(good)
        assert not payload_digest_ok("xyz")
        assert not payload_digest_ok(good[:-1] + "G")
