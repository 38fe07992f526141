"""Content-addressed payload store and by-reference SOAP transfer.

The paper's §4.5 measurements put most remote-invocation overhead in
*data movement*: every call ships the full ARFF document, and a typical
workflow ships the same document many times (train here, cross-validate
there, summarise somewhere else).  The Grid-DDM literature's answer is
to move **references** instead of data; this module is that answer for
our SOAP data plane:

* :class:`PayloadStore` — a bounded, content-addressed blob store
  (SHA-256 digest → bytes) shared process-wide by clients and
  containers.
* ``externalize`` — before a send, large ``str``/``bytes`` parameters
  whose digest the peer is known to hold are replaced by a
  :class:`PayloadRef`; the SOAP layer encodes it as a tiny
  ``<param xsi:type="repro:payloadRef" digest=... size=... kind=.../>``
  element.  Unknown payloads travel inline once and are *absorbed* into
  the receiving store (see ``absorb_params``), so the next send can go
  by reference.
* ``resolve_refs`` — whoever *dispatches* a call (the container's first
  chain step) turns its refs back into values, verifying the content
  digest; decode only parses them, so a relay forwards a ref unopened.
  A digest the store does not hold raises :class:`PayloadMissError` (a
  transient :class:`~repro.errors.TransportError`): transports fall
  back to a transparent full-payload resend, and retry policies treat
  a corrupt ref exactly like any other delivery failure.
* one SHA-256 per buffer per request per process — store, absorb,
  externalize and the parse memo all name a buffer through
  :func:`repro.data.cache.content_digest`.  No check is skipped: ``put``
  computes, ``get`` re-verifies on every read, a first attach re-hashes.
* gzip helpers — SOAP envelopes above :data:`COMPRESS_MIN_BYTES` travel
  gzip-compressed when the peer negotiates ``Content-Encoding``
  (attachment parts beside the envelope travel stored — see
  :func:`repro.ws.soap.frame`; they are absorbed and sent by reference
  like inline values), inflation is bounded by :data:`MAX_BODY_BYTES`;
  :func:`simulated_wire_size` lets :class:`~repro.ws.transport
  .SimulatedTransport` bill post-compression bytes honestly.
* the shared-memory tier — for a peer the transport knows to share
  this host (see :meth:`~repro.ws.transport.Transport.same_host`),
  large parameters are published once into a :mod:`repro.ws.shm`
  segment and shipped as ``via="shm"`` refs on the *first* send; the
  consumer maps — does not copy — the payload.  Every miss (segment
  evicted, shm unsupported, cross-host peer) falls back to the classic
  store/inline path transparently.

Counters (``repro metrics``): ``ws.payload.ref_sends`` /
``inline_sends`` / ``bytes_saved`` / ``absorbed`` / ``miss`` /
``integrity_failures``, ``ws.compress.*`` and ``ws.shm.publishes`` /
``publish_failures`` / ``hits`` / ``misses`` / ``bytes_mapped`` /
``swept``.

Disable the whole fast path with ``repro run --no-payload-cache`` or
``FAEHIM_NO_FASTPATH=1``; disable only the shared-memory tier with
``FAEHIM_NO_SHM=1`` (or :func:`set_shm_enabled`).
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import os
import threading
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.data.cache import LruCache, content_digest
from repro.errors import TransportError
from repro.obs import get_metrics
from repro.ws import shm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ws.soap import SoapRequest

#: Parameters below this many bytes stay inline (refs would not pay).
MIN_REF_BYTES = 1024

#: SOAP bodies above this size are gzip-compressed on negotiating
#: transports (and billed compressed by the simulated network).
COMPRESS_MIN_BYTES = 2048

#: Largest message body either side will hold: a front refuses a longer
#: ``Content-Length`` unread, and :func:`decompress` stops inflating at
#: it.  Far above the biggest frame the stack ships (bulk dataset
#: envelopes are a few MB) and far below what an unvalidated length or
#: a gzip bomb could ask a process to buffer.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Bounds of the process-global payload store.
STORE_MAX_ENTRIES = 256
STORE_MAX_BYTES = 64 * 1024 * 1024

#: SOAP fault code signalling "peer does not hold that digest".
MISS_FAULTCODE = "repro:PayloadMiss"

_HEX = set("0123456789abcdef")


class PayloadMissError(TransportError):
    """A payload reference could not be resolved locally.

    Transient by design: the sender falls back to an inline resend, and
    the retry machinery treats it like any delivery failure (a corrupt
    ref injected by chaos lands here too).
    """

    def __init__(self, digest: str, message: str | None = None):
        self.digest = digest
        super().__init__(
            message or f"payload {digest[:12]}... not in local store")


class MalformedBody(TransportError):
    """A message body that cannot be read as sent: an unknown or
    corrupt content coding, or (raised by :mod:`repro.ws.soap`)
    attachment parts that do not frame or match the envelope.  A front
    answers :attr:`http_status`."""

    http_status = 400


class BodyTooLarge(MalformedBody):
    """A compressed body inflates past :data:`MAX_BODY_BYTES`."""

    http_status = 413


@dataclass(frozen=True)
class PayloadRef:
    """A by-reference stand-in for one large parameter value.

    ``via=""`` is the classic contract (resolve from the receiver's
    content-addressed store); ``via="shm"`` additionally offers the
    named shared-memory segment for *digest*, which a same-host
    receiver maps zero-copy before falling back to its store.
    """

    digest: str
    size: int
    kind: str = "str"  # "str" | "bytes"
    via: str = ""      # "" (store) | "shm" (same-host segment)

    def __post_init__(self) -> None:
        if self.kind not in ("str", "bytes"):
            raise TransportError(f"bad payload kind {self.kind!r}")
        if self.via not in ("", "shm"):
            raise TransportError(f"bad payload via {self.via!r}")


def digest_bytes(data: bytes) -> str:
    """SHA-256 hex digest of *data*."""
    return hashlib.sha256(data).hexdigest()


def payload_digest_ok(digest: str) -> bool:
    """True when *digest* is a well-formed SHA-256 hex string."""
    return len(digest) == 64 and set(digest) <= _HEX


def _miss(digest: str, message: str | None = None) -> PayloadMissError:
    """Count and build (not raise) one unresolvable-reference miss."""
    get_metrics().counter("ws.payload.miss").inc()
    return PayloadMissError(digest, message)


def well_formed(digest: str) -> str:
    """*digest*, or the miss a malformed one is at whichever hop reads
    it first — a relay's decode or a container's resolve."""
    if not payload_digest_ok(digest):
        raise _miss(digest or "(empty)",
                    f"malformed payload digest {digest!r}")
    return digest


class PayloadStore:
    """Thread-safe content-addressed blob store with LRU bounds."""

    def __init__(self, max_entries: int = STORE_MAX_ENTRIES,
                 max_bytes: int = STORE_MAX_BYTES):
        self._cache = LruCache(max_entries, max_bytes)

    def put(self, data: bytes | memoryview) -> str:
        """Store *data*; returns its digest (idempotent).

        Content already held is refreshed, not replaced, and a
        :class:`memoryview` is copied only when its content is new — so
        a relay hop that forwards a value it has just absorbed neither
        hashes it again (``content_digest``) nor allocates.
        """
        digest = content_digest(data)
        if self._cache.get(digest) is None:
            held = bytes(data)
            content_digest(held, digest)  # our copy of what we hashed
            self._cache.put(digest, held, weight=len(data))
        return digest

    def get(self, digest: str) -> bytes | None:
        """The bytes stored under *digest*, verified, or ``None``.

        Verification guards the by-reference contract: a blob that no
        longer hashes to its key (memory corruption, a tampered store)
        must never be silently substituted for the caller's data.
        Every read re-hashes, bar a re-read inside one request.
        """
        data = self._cache.get(digest)
        if data is None:
            return None
        if content_digest(data) != digest:
            get_metrics().counter("ws.payload.integrity_failures").inc()
            raise TransportError(
                f"payload digest mismatch for {digest[:12]}... "
                f"(stored content does not hash to its key)")
        return data

    def __contains__(self, digest: str) -> bool:
        return digest in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def total_bytes(self) -> int:
        """Bytes currently held."""
        return self._cache.total_bytes

    def clear(self) -> None:
        """Drop every blob."""
        self._cache.clear()


_enabled = os.environ.get("FAEHIM_NO_FASTPATH", "") not in ("1", "true")
_shm_enabled = os.environ.get("FAEHIM_NO_SHM", "") not in ("1", "true")
_store = PayloadStore()


def set_enabled(on: bool) -> None:
    """Globally enable/disable by-reference transfer + wire compression."""
    global _enabled
    _enabled = bool(on)


def enabled() -> bool:
    """True when the payload fast path is active."""
    return _enabled


def set_shm_enabled(on: bool) -> None:
    """Enable/disable the shared-memory segment tier only."""
    global _shm_enabled
    _shm_enabled = bool(on)


def shm_enabled() -> bool:
    """True when same-host sends may use shared-memory segments."""
    return _shm_enabled and shm.supported()


def get_payload_store() -> PayloadStore:
    """The process-global content-addressed store."""
    return _store


def reset_payload_store() -> None:
    """Empty the global store (test isolation)."""
    _store.clear()


def sweep_shm_orphans() -> int:
    """Reclaim dead-owner ``repro-shm-*`` segments; returns the count.

    The supervisor's crash hygiene: run at fleet startup and whenever a
    worker is unpublished, so a SIGKILLed producer's segments never
    outlive the drill that killed it.
    """
    swept = shm.sweep_orphans()
    if swept:
        get_metrics().counter("ws.shm.swept").inc(swept)
    return swept


def release_shm_segments() -> int:
    """Unlink every segment this process published; returns the count."""
    return shm.get_segment_store().release_owned()


def reset_shm_segments() -> None:
    """Unlink owned segments, drop attached mappings (test isolation)."""
    shm.reset_segment_store()


def shm_counters() -> dict[str, float]:
    """The current ``ws.shm.*`` counter values (label-aggregated) —
    the ``/mesh/status`` evidence that the fast path engaged."""
    values: dict[str, float] = {}
    for name, _labels, counter in get_metrics().counters():
        if name.startswith("ws.shm."):
            values[name] = values.get(name, 0) + counter.value
    return values


class PeerState:
    """Which payload digests one transport's peer is believed to hold."""

    def __init__(self) -> None:
        self._known: set[str] = set()
        self._lock = threading.Lock()

    def knows(self, digest: str) -> bool:
        """True when the peer is believed to hold *digest*."""
        with self._lock:
            return digest in self._known

    def learn(self, digest: str) -> None:
        """Record that the peer now holds *digest*."""
        with self._lock:
            self._known.add(digest)

    def clear(self) -> None:
        """Forget everything (after a miss: the peer lost its store)."""
        with self._lock:
            self._known.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._known)


def _as_buffer(value: str | bytes | memoryview) -> bytes | memoryview:
    if isinstance(value, str):
        return value.encode("utf-8", "surrogatepass")
    return value


def _inline_value(ref: PayloadRef) -> str | bytes:
    """Sender side: the value behind *ref*, from the store or (via="shm")
    a mapped segment, for a peer that needs it inline."""
    data = _store.get(ref.digest)
    if data is None and ref.via == "shm":
        view = shm.get_segment_store().attach(ref.digest)
        if view is not None:
            data = bytes(view)
    if data is None:
        raise _miss(ref.digest)
    return _from_bytes(data, ref.kind)


def _from_bytes(data: bytes, kind: str) -> str | bytes:
    if kind == "str":
        return data.decode("utf-8", "surrogatepass")
    return data


def _multicall_calls(request: "SoapRequest"):
    """The sub-call list when *request* is a multicall, else ``None``.

    Imported lazily: this module is imported by :mod:`repro.ws.soap`
    itself, so the soap names are only touched at call time (when the
    package is fully loaded), never at import time.
    """
    from repro.ws import soap
    if request.operation != soap.MULTICALL_OP:
        return None
    calls = request.params.get("calls")
    if isinstance(calls, list) and all(
            isinstance(item, soap.SubCall) for item in calls):
        return calls
    return None


def externalize(request: "SoapRequest", peer: PeerState,
                min_bytes: int = MIN_REF_BYTES, *,
                same_host: bool = False) -> "SoapRequest":
    """Return a copy of *request* with large params sent by reference.

    A large ``str``/``bytes`` parameter whose digest *peer* already
    holds becomes a :class:`PayloadRef`; an unknown one stays inline
    (so the receiving side can absorb it) and the digest is recorded as
    known for the next send.  With ``same_host=True`` (the transport
    proved the peer shares this kernel) the value is instead published
    into a shared-memory segment and sent as a ``via="shm"`` ref on the
    *first* send already — any same-host process can map the segment,
    so there is nothing to absorb.  Parameters that are already refs
    (a relay's) are kept when the peer knows them or can map their
    segment, and put back inline when it does not (raising
    :class:`PayloadMissError` if the blob is gone locally too).  With
    the fast path disabled the request passes through untouched (refs
    still get internalized, so a disabled receiver never sees one).  Multicall requests are handled
    per sub-call, so a batch repeating one large ARFF ships it inline
    once and by reference for every later item.
    """
    return _with_params(request, lambda params: _externalize_params(
        params, peer, min_bytes, same_host))


def _with_params(request: "SoapRequest", rewrite) -> "SoapRequest":
    """*request* with each parameter dict (every sub-call's, for a
    multicall) through *rewrite*; a dict returned as it came is
    unchanged, and so is *request* when all are."""
    calls = _multicall_calls(request)
    if calls is None:
        params = rewrite(request.params)
        return request if params is request.params \
            else dataclasses.replace(request, params=params)
    rewritten = [rewrite(sub.params) for sub in calls]
    if all(new is sub.params for new, sub in zip(rewritten, calls)):
        return request
    return dataclasses.replace(request, params={"calls": [
        dataclasses.replace(sub, params=new)
        for new, sub in zip(rewritten, calls)]})


def _externalize_params(params: dict, peer: PeerState, min_bytes: int,
                        same_host: bool = False) -> dict:
    metrics = get_metrics()
    use_shm = same_host and _enabled and _shm_enabled and shm.supported()
    new_params = {}
    changed = False
    for name, value in params.items():
        if isinstance(value, PayloadRef):
            # a ref being relayed stays one, unopened, for a peer that
            # holds the blob or (via="shm") can map the segment; for any
            # other it goes back inline, to be sent like any value
            if _enabled and (peer.knows(value.digest) or
                             (use_shm and value.via == "shm")):
                peer.learn(value.digest)
                new_params[name] = value
                metrics.counter("ws.payload.ref_sends").inc()
                metrics.counter("ws.payload.bytes_saved").inc(value.size)
                continue
            value, changed = _inline_value(value), True
        if not _enabled or \
                not isinstance(value, (str, bytes, memoryview)) or \
                len(value) < min_bytes:
            new_params[name] = value
            continue
        data = _as_buffer(value)
        digest = _store.put(data)
        kind = "str" if isinstance(value, str) else "bytes"
        if use_shm and shm.get_segment_store().publish(digest, data):
            # same-host: the segment itself is the transfer, so even a
            # first send goes by reference (a miss on the far side
            # falls back through the classic inline resend)
            peer.learn(digest)
            new_params[name] = PayloadRef(digest, len(data), kind,
                                          via="shm")
            changed = True
            metrics.counter("ws.shm.publishes").inc()
            metrics.counter("ws.payload.ref_sends").inc()
            metrics.counter("ws.payload.bytes_saved").inc(len(data))
            continue
        if use_shm:
            metrics.counter("ws.shm.publish_failures").inc()
        if peer.knows(digest):
            new_params[name] = PayloadRef(digest, len(data), kind)
            changed = True
            metrics.counter("ws.payload.ref_sends").inc()
            metrics.counter("ws.payload.bytes_saved").inc(len(data))
        else:
            peer.learn(digest)
            new_params[name] = value
            metrics.counter("ws.payload.inline_sends").inc()
    return new_params if changed else params


def _replace_refs(request: "SoapRequest", value_of) -> "SoapRequest":
    """*request* with ``value_of(ref)`` in place of every
    :class:`PayloadRef`, multicall sub-calls included."""
    def swap(params: dict) -> dict:
        if not any(isinstance(v, PayloadRef) for v in params.values()):
            return params
        return {name: value_of(value) if isinstance(value, PayloadRef)
                else value for name, value in params.items()}
    return _with_params(request, swap)


def internalize(request: "SoapRequest") -> "SoapRequest":
    """Sender side: every ref of *request* back inline (the transparent
    full-payload fallback after a peer miss)."""
    return _replace_refs(request, _inline_value)


def resolve_refs(request: "SoapRequest") -> "SoapRequest":
    """Receiving side: every ref of *request* :func:`resolve`-d — what
    the container does before dispatch, and a relay never does."""
    return _replace_refs(
        request, lambda ref: resolve(ref.digest, ref.kind, ref.via))


def resolve(digest: str, kind: str,
            via: str = "") -> str | bytes | memoryview:
    """Receiving side: a ref element back to its full value.

    A ``via="shm"`` ref is answered from the named shared-memory
    segment when it maps and verifies — ``kind="bytes"`` payloads come
    back as a read-only :class:`memoryview` **into the shared pages**
    (zero-copy; the columnar codec decodes straight from it) — falling
    back to the local store otherwise.  Unknown digests (including
    chaos-corrupted ones) raise :class:`PayloadMissError`; the
    transport layer converts that into the ``repro:PayloadMiss`` fault
    / an inline resend.
    """
    well_formed(digest)
    if via == "shm":
        metrics = get_metrics()
        view = shm.get_segment_store().attach(digest) \
            if _shm_enabled else None
        if view is not None:
            metrics.counter("ws.shm.hits").inc()
            metrics.counter("ws.shm.bytes_mapped").inc(len(view))
            if kind == "str":
                return bytes(view).decode("utf-8", "surrogatepass")
            content_digest(view, digest)  # attach verified the segment
            return view
        metrics.counter("ws.shm.misses").inc()
    data = _store.get(digest)
    if data is None:
        raise _miss(digest)
    get_metrics().counter("ws.payload.ref_hits").inc()
    return _from_bytes(data, kind)


def absorb(value: str | bytes | memoryview,
           min_bytes: int = MIN_REF_BYTES) -> bool:
    """Receiving side: store one large value that arrived in full —
    inline, or as an attachment part, whose :class:`memoryview` is
    copied once here — so future sends of the same content can travel
    by reference.  True when it was stored."""
    if not _enabled or len(value) < min_bytes:
        return False
    _store.put(_as_buffer(value))
    get_metrics().counter("ws.payload.absorbed").inc()
    return True


def absorb_params(params: dict, min_bytes: int = MIN_REF_BYTES) -> int:
    """:func:`absorb` every inline ``str``/``bytes`` value of *params*;
    returns the blob count.  A :class:`memoryview` value is a mapped
    shared-memory segment, which already is the transfer."""
    return sum(absorb(value, min_bytes) for value in params.values()
               if isinstance(value, (str, bytes)))


def refs_in(request: "SoapRequest") -> list[PayloadRef]:
    """Every :class:`PayloadRef` among the request's parameters
    (including those nested inside multicall sub-calls)."""
    calls = _multicall_calls(request)
    if calls is not None:
        return [v for sub in calls for v in sub.params.values()
                if isinstance(v, PayloadRef)]
    return [v for v in request.params.values()
            if isinstance(v, PayloadRef)]


# -- wire compression ---------------------------------------------------------

def maybe_compress(body: bytes,
                   min_bytes: int = COMPRESS_MIN_BYTES
                   ) -> tuple[bytes, str | None]:
    """gzip *body* when it is large enough to pay; returns
    ``(wire_bytes, content_encoding_or_None)``."""
    if not _enabled or len(body) < min_bytes:
        return body, None
    compressed = gzip.compress(body, compresslevel=1)
    if len(compressed) >= len(body):
        return body, None
    metrics = get_metrics()
    metrics.counter("ws.compress.messages").inc()
    metrics.counter("ws.compress.bytes_in").inc(len(body))
    metrics.counter("ws.compress.bytes_out").inc(len(compressed))
    return compressed, "gzip"


def decompress(body: bytes, content_encoding: str | None) -> bytes:
    """Undo :func:`maybe_compress` per the Content-Encoding header.

    Inflation stops at :data:`MAX_BODY_BYTES` (:class:`BodyTooLarge`),
    so a gzip bomb costs its sender's peer at most that much memory.
    """
    if not content_encoding or content_encoding.lower() == "identity":
        return body
    if content_encoding.lower() != "gzip":
        raise MalformedBody(
            f"unsupported Content-Encoding {content_encoding!r}")
    # a step at a time, so a bomb is dropped one step past the limit
    # instead of after a buffer has doubled its way there
    inflater = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
    chunks, total = [], 0
    try:
        while not inflater.eof:
            chunk = inflater.decompress(body, 1024 * 1024)
            body = inflater.unconsumed_tail
            if not chunk and not body:
                raise MalformedBody("corrupt gzip body: truncated")
            total += len(chunk)
            if total > MAX_BODY_BYTES:
                raise BodyTooLarge(f"gzip body inflates past the "
                                   f"{MAX_BODY_BYTES}-byte limit")
            chunks.append(chunk)
    except zlib.error as exc:
        raise MalformedBody(f"corrupt gzip body: {exc}") from exc
    if inflater.unused_data:
        raise MalformedBody("corrupt gzip body: trailing data")
    return b"".join(chunks)


def simulated_wire_size(body: bytes) -> int:
    """Bytes this SOAP body occupies on a compressing link.

    :class:`~repro.ws.transport.SimulatedTransport` bills this size so
    the network model reflects the real data plane (post-compression,
    ref-sized envelopes) instead of the uncompressed document.
    """
    wire, _ = maybe_compress(body)
    return len(wire)
