"""A hash budget that cannot drift: SHA-256 passes per hop, counted.

Every content-addressed mechanism on the data plane — the payload
store's ``put`` and verified ``get``, ``absorb``, ``externalize``, the
parse memo, the shm attach check — names a buffer by the same digest.
Inside one request a process computes it once per buffer
(:func:`repro.data.cache.content_digest`), and a relay forwards a ref
without opening it.  This suite pins that as a count, never a time:
``hashlib.sha256`` is wrapped to record every pass over a buffer of at
least ``MIN_REF_BYTES``, attributed to the hop whose thread made it,
while one process plays client → ``MeshIngress`` relay (the threaded
front) → container (the asyncio front) over real sockets, tcp and uds.

Per path (client / relay / container):

==========================  =========  =========
                            store      shm
==========================  =========  =========
first send                  1 / 1 / 1  1 / 0 / 1
by-ref repeat               1 / 0 / 1  1 / 0 / 0
==========================  =========  =========
"""

import contextlib
import hashlib
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.data import cache, codec, dataio, synthetic
from repro.ws import payload, shm, soap
from repro.ws.aserve import AsyncSoapHttpServer
from repro.ws.container import ServiceContainer
from repro.ws.mesh.endpoints import RegistryEndpoints
from repro.ws.mesh.gateway import MeshGateway
from repro.ws.mesh.router import MeshRouter, make_policy
from repro.ws.pipeline import HttpGateway
from repro.ws.registry import UDDIRegistry
from repro.ws.service import operation
from repro.ws.soap import SoapRequest, SubCall
from repro.ws.transport import HttpTransport

FRAME = codec.encode(synthetic.numeric_two_class(n=300, seed=3))
OTHER = codec.encode(synthetic.numeric_two_class(n=300, seed=4))
assert len(FRAME) >= 4 * payload.MIN_REF_BYTES
FRAME_DIGEST = hashlib.sha256(FRAME).hexdigest()

CLIENT, RELAY, CONTAINER = "client", "relay", "container"


class Desk:
    """Parses what it is given, and remembers exactly what that was."""

    seen: list[dict] = []

    @operation
    def rows(self, frame: bytes) -> int:
        """Row count of a columnar *frame* (through the parse memo)."""
        return dataio.parse_dataset(frame).num_instances

    @operation
    def take(self, a: bytes = b"", b: str = "", c: bytes = b"",
             d: str = "") -> list:
        """Record the parameters as received; answer their lengths."""
        Desk.seen.append({"a": bytes(a), "b": b, "c": bytes(c), "d": d})
        return [len(a), len(b), len(c), len(d)]


def _hop() -> str:
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return CLIENT
    return CONTAINER if thread.name.startswith("aserve-dispatch") else RELAY


@pytest.fixture
def passes(monkeypatch):
    """Every SHA-256 pass over a large buffer, as the hop that made it."""
    made: list[str] = []
    real = hashlib.sha256

    def counting(data=b"", **kwargs):
        if len(data) >= payload.MIN_REF_BYTES:
            made.append(_hop())
        return real(data, **kwargs)
    monkeypatch.setattr(hashlib, "sha256", counting)
    return made


class _StorePerHop:
    """Stands in for the process-global payload store: each hop's
    thread reads and writes a store of its own."""

    def __init__(self):
        self.of = {hop: payload.PayloadStore()
                   for hop in (CLIENT, RELAY, CONTAINER)}

    def __getattr__(self, name):
        return getattr(self.of[_hop()], name)

    def __contains__(self, digest):
        return digest in self.of[_hop()]


@pytest.fixture
def processes(monkeypatch):
    """Give each hop the state a process of its own would have: its own
    payload store, and for the container its own segment store — a
    segment the client published is then somebody else's to it, mapped
    and re-hashed on first attach.  Yields the per-hop payload stores."""
    stores = _StorePerHop()
    monkeypatch.setattr(payload, "_store", stores)
    theirs, ours = shm.SegmentStore(), shm.get_segment_store
    monkeypatch.setattr(shm, "get_segment_store", lambda: (
        theirs if _hop() == CONTAINER else ours()))
    yield stores.of
    theirs.close()


def budget(made: list[str]) -> tuple[int, int, int]:
    """(client, relay, container) passes since the last call."""
    counts = tuple(made.count(hop) for hop in (CLIENT, RELAY, CONTAINER))
    made.clear()
    return counts


@contextlib.contextmanager
def hops(scheme: str, tmp_path):
    """client transport → mesh front → asyncio-hosted container, the
    relay dialling the worker over *scheme*; both hops probed, so swa
    and the boot id are negotiated before anything is counted."""
    container = ServiceContainer()
    container.deploy(Desk, "Desk")
    uds_path = str(tmp_path / "worker.sock") if scheme == "uds" else None
    with AsyncSoapHttpServer(container, uds_path=uds_path) as worker:
        registry = UDDIRegistry()
        registry.publish(
            "Desk", worker.wsdl_url("Desk"),
            uds_url=worker.uds_endpoint("Desk") if uds_path else "")
        discovery = RegistryEndpoints(registry)
        router = MeshRouter(discovery, make_policy("static"))
        with MeshGateway(router, discovery) as gateway:
            client = HttpTransport(gateway.endpoint("Desk"))
            try:
                client.send(SoapRequest("Desk", "take", {"b": "probe"}))
                assert set(router.transport_schemes().values()) == \
                    {"uds" if uds_path else "http"}
                yield client
            finally:
                client.close()


def rows(client, frame) -> int:
    return client.send(SoapRequest("Desk", "rows", {"frame": frame})).result


@pytest.mark.parametrize("scheme", ["tcp", "uds"])
class TestBudgetPerHop:
    def test_store_path_first_1_1_1_repeat_1_0_1(self, scheme, tmp_path,
                                                 passes, processes):
        payload.set_shm_enabled(False)
        with hops(scheme, tmp_path) as client:
            budget(passes)
            assert rows(client, FRAME) == 300
            assert budget(passes) == (1, 1, 1)
            assert rows(client, FRAME) == 300
            assert budget(passes) == (1, 0, 1)

    @pytest.mark.skipif(not shm.supported(), reason="no POSIX shm here")
    def test_shm_path_first_1_0_1_repeat_1_0_0(self, scheme, tmp_path,
                                               passes, processes):
        with hops(scheme, tmp_path) as client:
            budget(passes)
            assert rows(client, FRAME) == 300
            assert budget(passes) == (1, 0, 1)
            assert rows(client, FRAME) == 300
            assert budget(passes) == (1, 0, 0)

    @pytest.mark.parametrize("shm_on", [False, True])
    def test_a_multicall_repeating_one_blob_hashes_it_once_per_hop(
            self, scheme, shm_on, tmp_path, passes, processes):
        if shm_on and not shm.supported():
            pytest.skip("no POSIX shm here")
        payload.set_shm_enabled(shm_on)
        batch = soap.multicall_request(
            "Desk", [SubCall("rows", {"frame": FRAME})] * 5)
        with hops(scheme, tmp_path) as client:
            budget(passes)
            outcomes = client.send(batch).result
            assert [o.unwrap() for o in outcomes] == [300] * 5
            assert budget(passes) == ((1, 0, 1) if shm_on else (1, 1, 1))

    @pytest.mark.skipif(not shm.supported(), reason="no POSIX shm here")
    def test_a_relayed_shm_ref_stays_a_shm_ref(self, scheme, tmp_path):
        """Only the container maps the segment: one hit for the whole
        path, and nothing put back inline at the relay."""
        def counter(name):
            return obs.get_metrics().counter(name).value
        with hops(scheme, tmp_path) as client:
            hits, inline = counter("ws.shm.hits"), \
                counter("ws.payload.inline_sends")
            refs = counter("ws.payload.ref_sends")
            assert rows(client, FRAME) == 300
            assert counter("ws.shm.hits") == hits + 1
            assert counter("ws.payload.inline_sends") == inline
            assert counter("ws.payload.ref_sends") == refs + 2  # both hops


class TestRelayLedger:
    def test_a_relayed_ref_counts_as_a_ref_send(self, tmp_path):
        """Per first/repeat pair each hop sends one inline and one ref,
        so the ledger's ref_hit_ratio stays 0.5 on the store path."""
        payload.set_shm_enabled(False)
        metrics = obs.get_metrics()
        with hops("tcp", tmp_path) as client:
            rows(client, FRAME), rows(client, FRAME)
        assert metrics.counter("ws.payload.inline_sends").value == 2
        assert metrics.counter("ws.payload.ref_sends").value == 2
        assert metrics.counter("ws.payload.bytes_saved").value == \
            2 * len(FRAME)
        assert metrics.counter("ws.payload.absorbed").value == 2
        assert metrics.counter("ws.payload.ref_hits").value == 1

    def test_a_replica_that_lost_the_blob_gets_it_from_the_relay(
            self, tmp_path, processes):
        payload.set_shm_enabled(False)
        metrics = obs.get_metrics()
        with hops("tcp", tmp_path) as client:
            assert rows(client, FRAME) == 300
            processes[CONTAINER].clear()
            assert rows(client, FRAME) == 300
        # the relay's resend, from its own store; the client never knew
        assert metrics.counter("ws.payload.fallbacks").value == 1
        assert FRAME_DIGEST in processes[CONTAINER]

    def test_a_relay_that_lost_the_blob_too_answers_payload_miss(
            self, tmp_path, processes):
        """With the blob gone at the replica and at the relay the
        client is told, its inline resend heals every hop — and the
        replica, which answered, is not marked unreachable."""
        payload.set_shm_enabled(False)
        metrics = obs.get_metrics()
        with hops("tcp", tmp_path) as client:
            assert rows(client, FRAME) == 300
            processes[RELAY].clear(), processes[CONTAINER].clear()
            assert rows(client, FRAME) == 300
        assert metrics.counter("ws.payload.fallbacks").value == 2
        assert FRAME_DIGEST in processes[RELAY]
        assert FRAME_DIGEST in processes[CONTAINER]
        assert not [labels for name, labels, _ in metrics.counters()
                    if name in ("ws.mesh.failovers", "ws.mesh.unroutable")]

    def test_a_malformed_digest_is_a_miss_at_the_first_hop(self, tmp_path):
        payload.set_shm_enabled(False)
        with hops("tcp", tmp_path) as client:
            routed = obs.get_metrics().counter("ws.http.requests",
                                               service="Desk", status=200)
            before = routed.value
            bad = SoapRequest("Desk", "rows", {
                "frame": payload.PayloadRef("zz" * 32, 9, "bytes")})
            with pytest.raises(payload.PayloadMissError):
                client._exchange(bad, client._context(bad))
            assert routed.value == before  # the relay never forwarded it


# -- the same values reach the service ---------------------------------------

_POOL = [FRAME, OTHER, FRAME[:2000], b"tiny", b""]
_TEXTS = ["", "short", "x" * 3000, "é中" * 900]
_binary = st.sampled_from(_POOL).flatmap(
    lambda blob: st.sampled_from([blob, memoryview(blob)]))
_call = st.fixed_dictionaries({}, optional={
    "a": _binary, "b": st.sampled_from(_TEXTS),
    "c": _binary, "d": st.sampled_from(_TEXTS)})


def _plain(params: dict) -> dict:
    filled = {"a": b"", "b": "", "c": b"", "d": ""}
    filled.update({name: bytes(value) if isinstance(value, memoryview)
                   else value for name, value in params.items()})
    return filled


@pytest.mark.parametrize("shm_on", [False, True])
def test_the_service_sees_the_values_sent_refs_or_not(shm_on, tmp_path):
    """Differential against eager resolution at decode (the parent): for
    any mix of str / bytes / memoryview parameters — fresh ones inline,
    repeated ones by ref, singly or in a multicall — the service
    receives exactly the values the caller passed, and answers alike."""
    if shm_on and not shm.supported():
        pytest.skip("no POSIX shm here")

    with hops("tcp", tmp_path) as client:
        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(st.lists(_call, min_size=1, max_size=4), st.booleans())
        def check(calls, batched):
            payload.set_shm_enabled(shm_on)
            Desk.seen.clear()
            if batched:
                outcomes = client.send(soap.multicall_request(
                    "Desk", [SubCall("take", p) for p in calls])).result
                results = [o.unwrap() for o in outcomes]
            else:
                results = [client.send(
                    SoapRequest("Desk", "take", p)).result for p in calls]
            expected = [_plain(p) for p in calls]
            assert Desk.seen == expected
            assert results == [[len(p[k]) for k in "abcd"]
                               for p in expected]
        check()


# -- nothing outlives its request --------------------------------------------

class TestScopeEnds:
    def test_no_table_outside_a_request(self):
        assert cache._digests.get() is None
        with cache.digest_scope():
            with cache.digest_scope():  # joins, does not replace
                cache.content_digest(FRAME)
            assert id(FRAME) in cache._digests.get()
        assert cache._digests.get() is None

    def test_a_view_is_rehashed_once_its_request_has_ended(self, passes):
        body = bytearray(FRAME)
        view = memoryview(body).toreadonly()
        with cache.digest_scope():
            first = cache.content_digest(view)
            assert cache.content_digest(view) == first
            assert budget(passes)[0] == 1
        body[-1] ^= 0xFF
        changed = hashlib.sha256(bytes(body)).hexdigest()
        assert cache.content_digest(view) == changed != first
        with cache.digest_scope():
            assert cache.content_digest(view) == changed

    def test_what_can_be_written_through_is_never_remembered(self, passes):
        body = bytearray(FRAME)
        with cache.digest_scope():
            for writable in (body, memoryview(body)):
                before = cache.content_digest(writable)
                body[0] ^= 0xFF
                assert cache.content_digest(writable) != before
            assert cache.content_digest("x" * 5000) == \
                cache.text_digest("x" * 5000)
            assert not cache._digests.get()

    def test_a_body_mutated_between_requests_yields_the_new_digest(self):
        """The asyncio front hands the gateway a bytearray and part
        values are views of it: the next request over the same buffer
        must see, store and answer for the new bytes."""
        container = ServiceContainer()
        container.deploy(Desk, "Desk")
        gateway = HttpGateway(container)
        parts: dict = {}
        envelope = soap.encode_request(
            SoapRequest("Desk", "take", {"a": FRAME}), parts)
        framed = soap.frame(envelope, parts, gzip=False)
        body = bytearray(framed.body)
        headers = {"content-type": framed.content_type}
        store = payload.get_payload_store()
        at = body.index(FRAME)
        for flip in (0x00, 0xFF):
            body[at + len(FRAME) - 1] ^= flip
            sent = bytes(body[at:at + len(FRAME)])
            Desk.seen.clear()
            response = gateway.handle("POST", "/services/Desk", headers,
                                      body)
            assert response.status == 200
            assert Desk.seen[0]["a"] == sent
            assert hashlib.sha256(sent).hexdigest() in store
            assert cache._digests.get() is None
        assert len(store) == 2
