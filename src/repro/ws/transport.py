"""Transports: how SOAP bytes travel between client and service.

Three byte movers, all sharing one interface (:class:`Transport`):

* :class:`InProcessTransport` — straight into a local
  :class:`~repro.ws.container.ServiceContainer` (still paying the SOAP
  encode/decode, like a co-located Axis client).
* :class:`HttpTransport` — real sockets to an
  :class:`~repro.ws.httpd.SoapHttpServer` (localhost stands in for the
  paper's campus network).
* :class:`SimulatedTransport` — wraps another transport and charges a
  latency + bandwidth cost per message, either as real ``sleep`` time or as
  an accumulated *virtual clock*.  This is the substitution for the paper's
  1 Gb/s testbed network: distribution effects are functions of message
  count and payload size, which the model captures explicitly.

These classes are *pure* byte movers: each implements only
:meth:`ChainedTransport._exchange` (container dispatch, cost modelling,
or pooled :mod:`repro.ws.http11` connections with the one stale retry —
written once, as :meth:`HttpTransport._exchanging`, for ``send`` and
``send_async`` alike), while the cross-cutting concerns — trace spans,
metrics, deadline budgeting, payload-ref substitution, gzip negotiation
— run as a :mod:`repro.ws.pipeline` interceptor chain around it.
Movers report telemetry only through the per-call
:class:`~repro.ws.pipeline.CallContext`; this module must not import
:mod:`repro.obs`, :mod:`repro.ws.breaker` or :mod:`repro.chaos`
(enforced by ``tools/layering_lint.py``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from urllib.parse import quote, unquote, urlparse

from repro.data.cache import digest_scope
from repro.errors import DeadlineExceeded, OverloadedError, TransportError
from repro.ws import http11, payload, pipeline, shm, soap
from repro.ws.container import ServiceContainer
from repro.ws.pipeline import CallContext
from repro.ws.soap import SoapFault, SoapRequest, SoapResponse


def unix_url(socket_path: str, resource: str = "/") -> str:
    """The ``unix://`` endpoint URL for *socket_path* + *resource*.

    The socket path rides in the authority component, percent-encoded
    (``unix://%2Ftmp%2Fw.sock/services/Data``), so the resource path
    stays a plain HTTP request target and every URL-splitting consumer
    (proxies, registries, the WSDL re-pointer) works unchanged.
    """
    return "unix://" + quote(os.path.abspath(socket_path), safe="") + \
        (resource if resource.startswith("/") else "/" + resource)


def dial_coordinates(url: str) -> tuple:
    """``(address, host, target)`` of an ``http://`` or ``unix://`` URL:
    what :mod:`repro.ws.http11` dials (a ``(host, port)`` pair or a
    socket path), the ``Host`` header, and the request target."""
    parsed = urlparse(url)
    target = (parsed.path or "/") + \
        ("?" + parsed.query if parsed.query else "")
    # netloc, not .hostname: hostname lowercases, and socket paths are
    # case-sensitive filesystem paths
    if parsed.scheme == "unix" and parsed.netloc:
        # AF_UNIX has no authority; a fixed Host keeps HTTP/1.1 valid
        return unquote(parsed.netloc), "localhost", target
    if parsed.scheme == "http" and parsed.hostname:
        address = (parsed.hostname, parsed.port or 80)
        return address, "%s:%d" % address, target
    raise TransportError(f"unsupported endpoint {url!r}")


def parse_unix_url(endpoint: str) -> tuple[str, str]:
    """``(socket_path, request target)`` of a ``unix://`` endpoint URL."""
    address, _, target = dial_coordinates(endpoint)
    if not isinstance(address, str):
        raise TransportError(f"unsupported endpoint {endpoint!r}")
    return address, target


class Transport:
    """Send one SOAP request, receive one SOAP response."""

    def send(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request; returns the SOAP response."""
        raise NotImplementedError

    def speaks(self, codec: str) -> bool:
        """True when the peer behind this transport is known to accept
        the named wire codec (e.g. ``"columnar"``).

        The default is conservative (``False`` → callers fall back to
        ARFF text, which every peer speaks).  :class:`HttpTransport`
        learns capabilities from the ``X-Repro-Codecs`` response header,
        so the first call to an un-probed peer ships ARFF and later
        calls upgrade — un-upgraded peers never see a frame.
        """
        return False

    def same_host(self) -> bool:
        """True when the peer is known to share this host's kernel.

        Drives the shared-memory payload tier: only a same-host peer
        can map a published segment, so the payload chain step consults
        this before sending ``via="shm"`` references.  Learned, not
        configured — :class:`HttpTransport` compares the peer's
        ``X-Repro-Boot`` response header against the local boot id, so
        the first exchange with any peer ships inline and later ones
        upgrade (cross-host peers simply never do).
        """
        return False

    def dial_address(self):
        """What this transport dials, when it names one server: two
        transports with equal non-``None`` addresses reach the same
        front, so their calls may share a multicall.  ``None`` (the
        default) never matches."""
        return None

    def close(self) -> None:
        """Release any underlying resources (default: none)."""


class ChainedTransport(Transport):
    """A transport whose :meth:`send` runs an interceptor chain around a
    pure byte-moving :meth:`_exchange`.

    Pass ``interceptors`` to replace the default chain (see
    :func:`repro.ws.pipeline.default_transport_interceptors`); the list
    is consulted live, so tests may also mutate
    :attr:`interceptors` between calls.
    """

    kind = "chained"
    #: Tagged on the chain's ``send:*`` spans ("" = no endpoint to name).
    endpoint = ""

    def __init__(self, interceptors=None):
        self.interceptors = list(interceptors) if interceptors is not None \
            else self.default_interceptors()

    def default_interceptors(self):
        """The chain installed when no explicit one is passed."""
        return pipeline.default_transport_interceptors()

    def _context(self, request: SoapRequest) -> CallContext:
        """The per-call context one send's chain and mover share."""
        ctx = CallContext(kind=self.kind, endpoint=self.endpoint,
                          service=request.service,
                          operation=request.operation)
        ctx.properties["same_host"] = self.same_host()
        return ctx

    @digest_scope()  # joins the scope of a request being served
    def send(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request; returns the SOAP response."""
        ctx = self._context(request)
        return pipeline.run_chain(
            self.interceptors, request, ctx,
            lambda outbound: self._exchange(outbound, ctx))

    def _exchange(self, request: SoapRequest,
                  ctx: CallContext) -> SoapResponse:
        raise NotImplementedError


class InProcessTransport(ChainedTransport):
    """Serialise through SOAP but dispatch into a local container."""

    kind = "inprocess"

    def __init__(self, container: ServiceContainer, interceptors=None):
        super().__init__(interceptors)
        self.container = container
        self.bytes_sent = 0
        self.bytes_received = 0

    def speaks(self, codec: str) -> bool:
        """Both ends are this process, so every local codec works."""
        return codec == "columnar"

    def dial_address(self):
        """The container itself: it is the one front this reaches."""
        return self.container

    def _exchange(self, request: SoapRequest,
                  ctx: CallContext) -> SoapResponse:
        wire = soap.encode_request(request)
        self.bytes_sent += len(wire)
        decoded = soap.decode_request(wire)  # refs stay refs: invoke resolves
        try:
            response = self.container.invoke(decoded)
            wire_out = soap.encode_response(response)
        except SoapFault as fault:
            wire_out = soap.encode_fault(fault)
        except OverloadedError as exc:
            # same wire behaviour as the HTTP gateways: a shed becomes
            # the dedicated fault, decoded back into OverloadedError
            wire_out = soap.encode_fault(soap.fault_for(exc))
        self.bytes_received += len(wire_out)
        ctx.note("bytes_sent", len(wire))
        ctx.note("bytes_received", len(wire_out))
        ctx.note("payload_refs", len(payload.refs_in(request)))
        ctx.on_wire(len(wire), len(wire_out))
        return soap.decode_response(wire_out)


class HttpTransport(ChainedTransport):
    """SOAP POST over a persistent HTTP connection.

    Bodies above :data:`repro.ws.payload.COMPRESS_MIN_BYTES` go out
    gzip-compressed (``Content-Encoding: gzip``), and every request
    advertises ``Accept-Encoding: gzip`` so a compressing server can
    answer in kind; a peer that ignores both stays fully interoperable.
    To a peer that advertises ``swa``, large binary parameters leave
    the envelope and travel stored, as ``multipart/related`` parts (see
    :mod:`repro.ws.soap`); gzip then covers the envelope part only.
    Pass ``compress=False`` to negotiate identity encoding only (the
    flag feeds the chain's gzip step).
    """

    kind = "http"

    def __init__(self, endpoint: str, timeout: float = 30.0,
                 compress: bool = True, interceptors=None):
        self.endpoint = endpoint
        self._timeout = timeout
        self._address, self._netloc, self._path = dial_coordinates(endpoint)
        # keep-alive pools (blocking callers / the event loop's): each
        # logical call checks a connection out for exclusive use and
        # returns it after a clean exchange, so concurrent callers never
        # interleave request/response pairs on one socket (and never
        # misattribute another call's staleness)
        self._pool: list[http11.Connection] = []
        self._apool: list[http11.AsyncConnection] = []
        self._pool_lock = threading.Lock()
        self.compress = compress
        self.bytes_sent = 0
        self.bytes_received = 0
        # wire codecs the peer has advertised via X-Repro-Codecs; grows
        # monotonically as responses come back (capability discovery)
        self.peer_codecs: frozenset[str] = frozenset()
        # the peer's host boot id (X-Repro-Boot); learned the same way
        self.peer_boot = ""
        super().__init__(interceptors)

    def speaks(self, codec: str) -> bool:
        """True once the server has advertised *codec* in a response."""
        return codec in self.peer_codecs

    def same_host(self) -> bool:
        """True once the server has advertised this host's boot id."""
        return bool(self.peer_boot) and self.peer_boot == shm.boot_id()

    def dial_address(self):
        """The ``(host, port)`` pair or socket path this dials."""
        return self._address

    def default_interceptors(self):
        """The standard HTTP chain, with the gzip negotiation step."""
        return pipeline.default_transport_interceptors(
            compress=self.compress)

    def _deadline_timeout(self, request: SoapRequest) -> float:
        """Never wait on a socket longer than the remaining budget."""
        effective = self._timeout
        if request.deadline_s is not None:
            effective = min(effective, max(request.deadline_s, 1e-3))
        return effective

    def _raise_unreachable(self, exc: Exception, request: SoapRequest,
                           ctx: CallContext) -> None:
        ctx.on_transport_error()
        if isinstance(exc, TimeoutError) and \
                request.deadline_s is not None and \
                request.deadline_s < self._timeout:
            raise DeadlineExceeded(
                f"{self.endpoint} did not answer within the "
                f"remaining {request.deadline_s:.3f}s budget"
            ) from exc
        raise TransportError(
            f"cannot reach {self.endpoint}: {exc}") from exc

    def _prepare(self, request: SoapRequest,
                 ctx: CallContext) -> tuple[list, int, dict]:
        """Encode one request to ``(wire, size, headers)``: the body as
        the chunks to write in turn (an attachment is the caller's own
        buffer, never joined into a second copy of it), their total
        size, and the headers, ``Content-Length`` included."""
        # large binary parameters travel as parts beside the envelope
        # once the peer has advertised "swa"; until then (and to a peer
        # that never does) they stay base64 text inside it
        attachments = {} if self.speaks("swa") else None
        encoded = soap.encode_request(request, attachments)
        gzip = bool(ctx.get("accept_gzip"))
        wire, content_type, encoding = soap.frame_chunks(
            encoded, attachments, gzip)
        size = sum(map(len, wire))
        headers = {
            "Content-Type": content_type,
            "Content-Length": str(size),
            "SOAPAction": f'"{request.operation}"',
            # advertise the columnar dataset codec (servers answer with
            # X-Repro-Codecs and callers check Transport.speaks() before
            # shipping binary frames instead of ARFF text) and that a
            # response may carry attachment parts
            "Accept": f"text/xml, application/x-repro-columnar, "
                      f"{soap.MULTIPART}",
        }
        if request.principal:
            # mirrored out of the envelope so admission front doors can
            # identify the caller without an XML parse
            headers["X-Repro-Principal"] = request.principal
        if request.priority:
            headers["X-Repro-Priority"] = str(request.priority)
        if gzip:
            headers["Accept-Encoding"] = "gzip"
        if encoding:
            headers["Content-Encoding"] = encoding
        if attachments:
            ctx.note("attachments", len(attachments))
            ctx.note("attachment_bytes", soap.attachment_bytes(attachments))
        return wire, size, headers

    def _finish(self, request: SoapRequest, ctx: CallContext, sent: int,
                body: bytes, status: int,
                headers: dict[str, str]) -> SoapResponse:
        """Account for + decode one completed exchange of *sent* request
        bytes (*headers* keyed lowercase)."""
        advertised = {token.strip()
                      for token in headers.get("x-repro-codecs", "").split(",")
                      if token.strip()}
        if not advertised <= self.peer_codecs:
            self.peer_codecs = self.peer_codecs | frozenset(advertised)
        if headers.get("x-repro-boot"):
            self.peer_boot = headers["x-repro-boot"].strip()
        self.bytes_received += len(body)
        ctx.note("bytes_sent", sent)
        ctx.note("bytes_received", len(body))
        ctx.note("payload_refs", len(payload.refs_in(request)))
        ctx.note("http_status", status)
        ctx.on_wire(sent, len(body))
        try:
            envelope, attachments = soap.unframe(
                body, headers.get("content-type"),
                headers.get("content-encoding"))
        except payload.MalformedBody:
            ctx.on_transport_error()
            raise
        # raises SoapFault on faults
        return soap.decode_response(envelope, attachments)

    def _exchanging(self, request: SoapRequest, ctx: CallContext,
                    pool: list, connection):
        """One logical call as steps for :func:`http11.run` /
        :func:`http11.run_async`: POST on a pooled *connection* (a fresh
        one when *pool* is empty), heal a stale one, pool it again."""
        wire, sent, headers = self._prepare(request, ctx)
        self.bytes_sent += sent
        head = http11.format_request_head("POST", self._path, self._netloc,
                                          headers)
        # the budget bounds the whole exchange, not each read
        deadline = time.monotonic() + self._deadline_timeout(request)
        with self._pool_lock:
            conn = pool.pop() if pool else connection(self._address)
        try:
            try:
                answer = yield from http11.exchange(conn, head, wire, deadline)
            except http11.StaleConnection:
                if not conn.reused:
                    raise
                # closed under us while pooled: that says nothing about
                # endpoint health, so retry on a connection of this
                # call's own.  A fresh one is never stale — one retry per
                # logical call, at most one verdict for the breaker
                ctx.note("stale_retry", True)
                ctx.emit_counter("ws.transport.stale_retries")
                conn = connection(self._address)
                answer = yield from http11.exchange(conn, head, wire, deadline)
        except (OSError, http11.BadHead) as exc:
            self._raise_unreachable(exc, request, ctx)
        with self._pool_lock:
            pool.append(conn)
        status, response_headers, body = answer
        return self._finish(request, ctx, sent, body, status,
                            response_headers)

    def _exchange(self, request: SoapRequest,
                  ctx: CallContext) -> SoapResponse:
        return http11.run(self._exchanging(request, ctx, self._pool,
                                           http11.Connection))

    async def send_async(self, request: SoapRequest) -> SoapResponse:
        """:meth:`send` from an event loop: the same interceptor chain
        under the async driver, the same exchange on asyncio streams —
        no thread is held while the server works."""
        ctx = self._context(request)

        async def terminal(outbound: SoapRequest) -> SoapResponse:
            return await http11.run_async(self._exchanging(
                outbound, ctx, self._apool, http11.AsyncConnection))

        with digest_scope():
            return await pipeline.run_chain_async(
                self.interceptors, request, ctx, terminal)

    def close(self) -> None:
        """Release underlying resources."""
        with self._pool_lock:
            idle = self._pool + self._apool
            self._pool.clear()
            self._apool.clear()
        for conn in idle:
            conn.close()


class UnixSocketTransport(HttpTransport):
    """SOAP POST over a Unix domain socket (``unix://`` endpoints).

    The same HTTP/1.1 framing as :class:`HttpTransport` — and therefore
    the same keep-alive pooling, stale retry, gzip negotiation and
    interceptor chain — over an ``AF_UNIX`` stream instead of TCP
    loopback: no packetisation, no pseudo-congestion-control, roughly
    half the syscall cost per round trip.  Endpoint URLs look like
    ``unix://%2Ftmp%2Fworker.sock/services/Data`` (see
    :func:`unix_url`); the socket path is by construction same-machine,
    which is what makes the shared-memory payload tier safe to
    negotiate over it.
    """

    kind = "uds"


def transport_for(endpoint: str, *, timeout: float = 30.0,
                  compress: bool = True,
                  interceptors=None) -> HttpTransport:
    """The right socket transport for *endpoint*'s URL scheme
    (``http://`` → :class:`HttpTransport`, ``unix://`` →
    :class:`UnixSocketTransport`)."""
    cls = UnixSocketTransport \
        if urlparse(endpoint).scheme == "unix" else HttpTransport
    return cls(endpoint, timeout=timeout, compress=compress,
               interceptors=interceptors)


@dataclass
class NetworkModel:
    """A latency + bandwidth cost model for one network path.

    ``latency_s`` is charged once per message; payloads additionally take
    ``len(payload) / bandwidth_bps`` seconds.  The defaults model the
    paper's testbed: ~1 ms campus RTT and a 1 Gb/s link.
    """

    latency_s: float = 0.001
    bandwidth_bps: float = 1e9 / 8  # 1 Gb/s in bytes per second

    def transfer_time(self, n_bytes: int) -> float:
        """Seconds to move *n_bytes* over this network path.

        Callers must bill the bytes that actually cross the wire:
        :class:`SimulatedTransport` charges post-compression envelope
        sizes (see :func:`repro.ws.payload.simulated_wire_size`), so
        ref-sized and gzip-shrunk messages cost what they would on the
        paper's testbed, not their uncompressed document size.
        """
        return self.latency_s + n_bytes / self.bandwidth_bps

    def wire_cost(self, wire: bytes) -> tuple[int, float]:
        """(billed bytes, seconds) for one encoded SOAP message,
        honouring link-level compression of large bodies."""
        n_bytes = payload.simulated_wire_size(wire)
        return n_bytes, self.transfer_time(n_bytes)


#: A slow wide-area path (50 ms RTT, 10 Mb/s) for the streaming ablation.
WAN = NetworkModel(latency_s=0.050, bandwidth_bps=10e6 / 8)
#: The paper's testbed (§5.1): 1 Gb/s, sub-millisecond campus latency.
LAN = NetworkModel(latency_s=0.001, bandwidth_bps=1e9 / 8)


class SimulatedTransport(ChainedTransport):
    """Charge a :class:`NetworkModel` cost around an inner transport.

    With ``real_sleep=True`` the cost is spent in ``time.sleep`` (so
    wall-clock benchmarks see it); otherwise it accumulates in
    :attr:`virtual_seconds`, which deterministic tests read.
    """

    kind = "simulated"

    def __init__(self, inner: Transport,
                 model: NetworkModel | None = None,
                 real_sleep: bool = False, interceptors=None):
        self.inner = inner
        self.model = model if model is not None else NetworkModel()
        self.real_sleep = real_sleep
        self.virtual_seconds = 0.0
        self.messages = 0
        self.bytes_on_wire = 0
        super().__init__(interceptors)

    def speaks(self, codec: str) -> bool:
        """The modelled network is codec-transparent; ask the peer."""
        return self.inner.speaks(codec)

    def default_interceptors(self):
        """The standard chain with the externalize-only miss fallback."""
        # the modelled network bills what the data plane really ships:
        # payload refs are substituted *before* costing, and a miss
        # surfacing from the inner transport propagates (only a miss
        # during externalisation is healed locally)
        return pipeline.default_transport_interceptors(
            resend_on_miss=False)

    def _charge(self, wire: bytes) -> int:
        """Bill one message; returns the post-compression billed bytes."""
        n_bytes, cost = self.model.wire_cost(wire)
        self.virtual_seconds += cost
        self.bytes_on_wire += n_bytes
        self.messages += 1
        if self.real_sleep:
            time.sleep(cost)
        return n_bytes

    def _exchange(self, request: SoapRequest,
                  ctx: CallContext) -> SoapResponse:
        cost_before = self.virtual_seconds
        bytes_before = self.bytes_on_wire
        wire = soap.encode_request(request)
        sent_bytes = 0
        try:
            sent_bytes = self._charge(wire)
            try:
                response = self.inner.send(request)
                wire_out = soap.encode_response(response)
            except SoapFault as fault:
                wire_out = soap.encode_fault(fault)
                self._charge(wire_out)
                raise
            self._charge(wire_out)
            return response
        finally:
            # the paper-model network cost this message pair incurred
            charged = self.virtual_seconds - cost_before
            wire_bytes = self.bytes_on_wire - bytes_before
            ctx.note("charge_seconds", round(charged, 6))
            ctx.note("wire_bytes", wire_bytes)
            ctx.note("payload_refs", len(payload.refs_in(request)))
            ctx.note("latency_s", self.model.latency_s)
            ctx.on_wire(sent_bytes, max(0, wire_bytes - sent_bytes))
            ctx.emit_counter("ws.transport.simulated_cost_seconds",
                             charged)

    def close(self) -> None:
        self.inner.close()


class FailingTransport(Transport):
    """Test double: fail the first *failures* sends, then delegate.

    Used by the fault-tolerance benches to exercise job migration.
    """

    def __init__(self, inner: Transport, failures: int = 1):
        self.inner = inner
        self.remaining_failures = failures
        self.attempts = 0

    def speaks(self, codec: str) -> bool:
        """Failures don't change what the peer can decode."""
        return self.inner.speaks(codec)

    def send(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request; returns the SOAP response."""
        self.attempts += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise TransportError(
                f"simulated network failure (attempt {self.attempts})")
        return self.inner.send(request)

    def close(self) -> None:
        self.inner.close()
