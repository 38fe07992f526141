"""The shared-memory payload tier: publish/map/verify/sweep.

Covers the :mod:`repro.ws.shm` segment store primitives and their
:mod:`repro.ws.payload` wrapping — ``via="shm"`` refs, zero-copy
resolution, miss fallbacks — plus the crash-hygiene regression: a
SIGKILLed producer's segments are reclaimed by :func:`sweep_orphans`,
never leaked.
"""

import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro import obs
from repro.ws import payload, shm
from repro.ws.payload import PayloadMissError, PayloadRef
from repro.ws.soap import SoapRequest

pytestmark = pytest.mark.skipif(not shm.supported(),
                                reason="no POSIX shared memory here")

BLOB = os.urandom(64 * 1024)
DIGEST = payload.digest_bytes(BLOB)


def shm_path(digest: str) -> str:
    return "/dev/shm/" + shm.segment_name(digest)


class TestSegmentStore:
    def test_publish_then_attach_round_trips_zero_copy(self):
        store = shm.SegmentStore()
        try:
            assert store.publish(DIGEST, BLOB)
            assert store.holds(DIGEST)
            view = store.attach(DIGEST)
            assert isinstance(view, memoryview) and view.readonly
            assert bytes(view) == BLOB
            view.release()
        finally:
            store.close()
        assert not os.path.exists(shm_path(DIGEST))

    def test_publish_is_idempotent(self):
        store = shm.SegmentStore()
        try:
            assert store.publish(DIGEST, BLOB)
            assert store.publish(DIGEST, BLOB)
            assert len(store) == 1
        finally:
            store.close()

    def test_attach_unknown_digest_is_a_miss(self):
        store = shm.SegmentStore()
        try:
            assert store.attach("f" * 64) is None
        finally:
            store.close()

    def test_attach_refuses_a_segment_that_hashes_wrong(self):
        producer, consumer = shm.SegmentStore(), shm.SegmentStore()
        try:
            # published under a lying digest: the payload does not
            # hash to the name the consumer asks for
            liar = "0" * 64
            assert producer.publish(liar, BLOB)
            assert consumer.attach(liar) is None
        finally:
            consumer.close()
            producer.close()

    def test_eviction_unlinks_the_oldest_segment(self):
        store = shm.SegmentStore(max_segments=2)
        digests = []
        try:
            for i in range(3):
                blob = bytes([i]) * 2048
                digest = payload.digest_bytes(blob)
                digests.append(digest)
                assert store.publish(digest, blob)
            assert len(store) == 2
            assert not store.holds(digests[0])
            assert not os.path.exists(shm_path(digests[0]))
            assert os.path.exists(shm_path(digests[2]))
        finally:
            store.close()

    def test_byte_budget_evicts_too(self):
        store = shm.SegmentStore(max_bytes=8 * 1024)
        try:
            a = os.urandom(6 * 1024)
            b = os.urandom(6 * 1024)
            store.publish(payload.digest_bytes(a), a)
            store.publish(payload.digest_bytes(b), b)
            assert len(store) == 1
            assert store.owned_bytes <= 8 * 1024
        finally:
            store.close()

    def test_close_with_live_view_disarms_the_mapping(self):
        # regression: closing an attached segment while a consumer still
        # holds its zero-copy view must not leave SharedMemory.__del__ a
        # BufferError to spray at interpreter shutdown — the mapping is
        # disarmed and the surviving view stays readable.
        producer = shm.SegmentStore()
        consumer = shm.SegmentStore()
        try:
            assert producer.publish(DIGEST, BLOB)
            view = consumer.attach(DIGEST)
            assert bytes(view[:8]) == BLOB[:8]
            segment = consumer._attached[DIGEST][0]
            consumer.close()  # view still alive: BufferError path
            assert segment._mmap is None
            assert getattr(segment, "_fd", -1) < 0
            assert bytes(view[:8]) == BLOB[:8]  # mapping survives
            view.release()
            del segment  # __del__ now a no-op; nothing raises
        finally:
            consumer.close()
            producer.close()


class TestAttachedMappingsAreBounded:
    """A consumer keeps a mapping per segment it attached; like owned
    segments they are LRU-bounded by count and bytes."""

    @staticmethod
    def blob(i: int) -> bytes:
        return bytes([i]) * 4096

    @pytest.fixture
    def stores(self):
        producer = shm.SegmentStore()
        consumer = shm.SegmentStore(max_segments=3)
        yield producer, consumer
        consumer.close()
        producer.close()

    def test_three_times_the_bound_keeps_the_bound(self, stores):
        producer, consumer = stores
        views = []
        for i in range(9):
            digest = payload.digest_bytes(self.blob(i))
            assert producer.publish(digest, self.blob(i))
            views.append(consumer.attach(digest))
            assert len(consumer._attached) <= 3
        assert list(consumer._attached) == [
            payload.digest_bytes(self.blob(i)) for i in (6, 7, 8)]
        assert consumer._attached_bytes == 3 * 4096
        # an evicted mapping is disarmed, not torn from under its view
        assert bytes(views[0]) == self.blob(0)

    def test_the_byte_bound_holds_too(self, stores):
        producer, _ = stores
        consumer = shm.SegmentStore(max_bytes=10_000)
        try:
            for i in range(4):
                digest = payload.digest_bytes(self.blob(i))
                producer.publish(digest, self.blob(i))
                assert consumer.attach(digest) is not None
            assert len(consumer._attached) == 2
            assert consumer._attached_bytes == 2 * 4096
        finally:
            consumer.close()

    def test_an_attach_refreshes_recency(self, stores):
        producer, consumer = stores
        digests = [payload.digest_bytes(self.blob(i)) for i in range(4)]
        for i, digest in enumerate(digests):
            producer.publish(digest, self.blob(i))
        for digest in digests[:3]:
            consumer.attach(digest)
        consumer.attach(digests[0])  # oldest becomes newest
        consumer.attach(digests[3])
        assert list(consumer._attached) == [digests[2], digests[0],
                                            digests[3]]

    def test_a_re_attach_of_an_evicted_digest_re_hashes(self, stores,
                                                        monkeypatch):
        import hashlib
        producer, consumer = stores
        hashed = []
        real = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data=b"": (
            hashed.append(len(data)), real(data))[1])
        digests = [real(self.blob(i)).hexdigest() for i in range(4)]
        for i, digest in enumerate(digests):
            producer.publish(digest, self.blob(i))
            consumer.attach(digest)
        assert len(hashed) == 4 and digests[0] not in consumer._attached
        consumer.attach(digests[3])  # still mapped: no second pass
        assert len(hashed) == 4
        assert bytes(consumer.attach(digests[0])) == self.blob(0)
        assert len(hashed) == 5

    def test_a_forged_segment_is_refused_after_eviction_too(self, stores):
        """Eviction forgets the verification with the mapping: a segment
        re-created under the same name with other bytes is refused."""
        producer, consumer = stores
        digest = payload.digest_bytes(self.blob(0))
        producer.publish(digest, self.blob(0))
        assert consumer.attach(digest) is not None
        for i in range(1, 4):
            other = payload.digest_bytes(self.blob(i))
            producer.publish(other, self.blob(i))
            consumer.attach(other)
        assert digest not in consumer._attached
        producer.release_owned()
        assert producer.publish(digest, self.blob(9))  # the forgery
        assert consumer.attach(digest) is None
        assert digest not in consumer._attached


class TestPayloadWiring:
    def test_same_host_send_goes_by_shm_ref_immediately(self):
        peer = payload.PeerState()
        request = SoapRequest("Data", "validate", {"dataset": BLOB})
        out = payload.externalize(request, peer, same_host=True)
        ref = out.params["dataset"]
        assert isinstance(ref, PayloadRef)
        assert ref.via == "shm" and ref.kind == "bytes"
        assert ref.digest == DIGEST and ref.size == len(BLOB)
        assert peer.knows(DIGEST)
        counters = payload.shm_counters()
        assert counters["ws.shm.publishes"] == 1

    def test_cross_host_send_keeps_the_classic_inline_first_pass(self):
        peer = payload.PeerState()
        request = SoapRequest("Data", "validate", {"dataset": BLOB})
        out = payload.externalize(request, peer, same_host=False)
        assert out.params["dataset"] is BLOB  # inline once
        again = payload.externalize(request, peer, same_host=False)
        ref = again.params["dataset"]
        assert isinstance(ref, PayloadRef) and ref.via == ""

    def test_resolve_maps_the_segment_as_a_readonly_view(self):
        peer = payload.PeerState()
        request = SoapRequest("Data", "validate", {"dataset": BLOB})
        payload.externalize(request, peer, same_host=True)
        # a fresh receiving store proves resolution is via the
        # segment, not the sender's blob cache
        payload.reset_payload_store()
        value = payload.resolve(DIGEST, "bytes", via="shm")
        assert isinstance(value, memoryview) and value.readonly
        assert bytes(value) == BLOB
        counters = payload.shm_counters()
        assert counters["ws.shm.hits"] == 1
        assert counters["ws.shm.bytes_mapped"] == len(BLOB)

    def test_resolve_str_kind_decodes(self):
        text = "x" * 4096
        data = text.encode()
        peer = payload.PeerState()
        request = SoapRequest("Data", "validate", {"doc": text})
        out = payload.externalize(request, peer, same_host=True)
        assert out.params["doc"].kind == "str"
        assert payload.resolve(out.params["doc"].digest, "str",
                               via="shm") == text
        assert payload.digest_bytes(data) == out.params["doc"].digest

    def test_shm_miss_falls_back_to_the_store(self):
        digest = payload.get_payload_store().put(BLOB)
        # via="shm" but no such segment: counted as a miss, answered
        # from the classic store
        value = payload.resolve(digest, "bytes", via="shm")
        assert bytes(value) == BLOB
        assert payload.shm_counters()["ws.shm.misses"] == 1

    def test_total_miss_raises_payload_miss(self):
        with pytest.raises(PayloadMissError):
            payload.resolve("a" * 64, "bytes", via="shm")

    def test_disabled_shm_never_publishes(self):
        payload.set_shm_enabled(False)
        peer = payload.PeerState()
        request = SoapRequest("Data", "validate", {"dataset": BLOB})
        out = payload.externalize(request, peer, same_host=True)
        assert out.params["dataset"] is BLOB
        assert "ws.shm.publishes" not in payload.shm_counters()

    def test_a_relayed_shm_ref_stays_one_for_a_same_host_peer(self):
        """A relay forwards the ref it was sent: the segment is visible
        to every process of the host, so a same-host peer needs neither
        the bytes nor to have been told before."""
        sent = payload.externalize(
            SoapRequest("Data", "validate", {"dataset": BLOB}),
            payload.PeerState(), same_host=True)
        ref = sent.params["dataset"]
        peer = payload.PeerState()
        relayed = payload.externalize(sent, peer, same_host=True)
        assert relayed.params["dataset"] is ref and ref.via == "shm"
        assert peer.knows(DIGEST)
        counter = obs.get_metrics().counter
        assert counter("ws.payload.ref_sends").value == 2
        assert counter("ws.payload.bytes_saved").value == 2 * len(BLOB)
        assert counter("ws.payload.inline_sends").value == 0

    def test_a_relayed_shm_ref_goes_inline_to_a_cross_host_peer(self):
        sent = payload.externalize(
            SoapRequest("Data", "validate", {"dataset": BLOB}),
            payload.PeerState(), same_host=True)
        peer = payload.PeerState()
        relayed = payload.externalize(sent, peer, same_host=False)
        assert relayed.params["dataset"] == BLOB
        assert obs.get_metrics().counter(
            "ws.payload.inline_sends").value == 1
        # it absorbs what arrived, so the next one may go by ref again
        again = payload.externalize(sent, peer, same_host=False)
        assert again.params["dataset"] is sent.params["dataset"]

    def test_externalized_ref_reinlines_for_an_amnesiac_peer(self):
        peer = payload.PeerState()
        request = SoapRequest("Data", "validate", {"dataset": BLOB})
        out = payload.externalize(request, peer, same_host=True)
        ref = out.params["dataset"]
        # the fallback resend path: peer.clear() models a peer that
        # lost its mappings; the ref must round-trip back to bytes
        peer.clear()
        payload.reset_payload_store()  # store gone too: shm answers
        resent = payload.externalize(out, peer)
        assert resent.params["dataset"] == BLOB
        assert not isinstance(resent.params["dataset"], PayloadRef)
        assert isinstance(ref, PayloadRef)


class TestOrphanSweep:
    PRODUCER = textwrap.dedent("""
        import os, sys, time
        sys.path.insert(0, {src!r})
        from repro.ws import payload, shm
        blob = b"o" * 65536
        digest = payload.digest_bytes(blob)
        assert shm.get_segment_store().publish(digest, blob)
        print(digest, flush=True)
        time.sleep(120)  # murdered long before this returns
    """)

    def _spawn_producer(self):
        src = os.path.join(os.path.dirname(payload.__file__),
                           os.pardir, os.pardir)
        proc = subprocess.Popen(
            [sys.executable, "-c",
             self.PRODUCER.format(src=os.path.abspath(src))],
            stdout=subprocess.PIPE, text=True)
        digest = proc.stdout.readline().strip()
        assert len(digest) == 64
        return proc, digest

    def test_sigkilled_producer_segments_are_swept(self):
        proc, digest = self._spawn_producer()
        try:
            assert os.path.exists(shm_path(digest))
            # owner alive: the sweep must leave the segment alone
            shm.sweep_orphans()
            assert os.path.exists(shm_path(digest))
        finally:
            proc.kill()
            proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        swept = 0
        while time.monotonic() < deadline and not swept:
            swept = payload.sweep_shm_orphans()
            if not swept:
                time.sleep(0.05)
        assert swept >= 1
        assert not os.path.exists(shm_path(digest))
        assert payload.shm_counters()["ws.shm.swept"] >= 1

    def test_sweep_reclaims_malformed_debris(self):
        from multiprocessing import shared_memory
        name = shm.SEGMENT_PREFIX + "deadbeefdeadbeef"
        seg = shared_memory.SharedMemory(name=name, create=True,
                                         size=64)
        shm._untrack(seg)
        seg.buf[:4] = b"JUNK"
        seg.close()
        assert shm.sweep_orphans() >= 1
        assert not os.path.exists("/dev/shm/" + name)

    def test_live_local_segments_survive_the_sweep(self):
        store = shm.get_segment_store()
        assert store.publish(DIGEST, BLOB)
        assert shm.sweep_orphans() == 0
        assert os.path.exists(shm_path(DIGEST))
