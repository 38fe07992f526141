"""Client-side service access: dynamic proxies over any transport.

:class:`ServiceProxy` is the client half of the paper's WSDL import: given a
WSDL document (or a ``?wsdl`` URL) it exposes each operation as a Python
method, validating parameter names before anything goes on the wire — the
same early feedback the Triana tools give.

A call runs the proxy's :mod:`repro.ws.pipeline` interceptor chain
(deadline → breaker → trace → metrics by default, see
:func:`repro.ws.pipeline.default_proxy_interceptors`) into
``transport.send``; pass ``interceptors=`` to install a custom chain.
:func:`fetch_url` is one ``GET`` over :mod:`repro.ws.http11`.
:class:`~repro.ws.transport.HttpTransport` itself lives in
:mod:`repro.ws.transport` and is re-exported here for compatibility.
"""

from __future__ import annotations

import time
from typing import Any
from urllib.parse import urlparse

from repro.data import cache as datacache
from repro.errors import ServiceError, TransportError, WsdlError
from repro.obs import get_metrics
from repro.ws import http11, pipeline, soap, wsdl
from repro.ws import transport as transport_mod
from repro.ws.soap import CallOutcome, SoapRequest, SubCall
from repro.ws.transport import HttpTransport, Transport  # noqa: F401


def fetch_url(url: str, timeout: float = 30.0) -> str:
    """GET a small text document (WSDL, service index, data file).

    Speaks ``http://`` and ``unix://`` (percent-encoded socket path as
    the authority), so WSDL import works over the same-host fast path.
    """
    address, host, target = transport_mod.dial_coordinates(url)
    conn = http11.Connection(address)
    try:
        status, _, body = http11.run(http11.exchange(
            conn, http11.format_request_head("GET", target, host,
                                             {"Connection": "close"}),
            [], time.monotonic() + timeout))
    except (OSError, http11.BadHead) as exc:
        raise TransportError(f"cannot fetch {url!r}: {exc}") from exc
    conn.close()
    if status != 200:
        raise TransportError(f"GET {url} returned HTTP {status}")
    return body.decode("utf-8")


#: Parsed WSDL descriptions keyed by the URL they were fetched from.
#: Re-importing a toolbox touches every service's ``?wsdl`` repeatedly;
#: the documents are immutable per deployment, so one fetch+parse per
#: endpoint is enough.
_WSDL_CACHE = datacache.LruCache(64)


def reset_wsdl_cache() -> None:
    """Drop all cached WSDL descriptions (test isolation)."""
    _WSDL_CACHE.clear()


class ServiceProxy:
    """Dynamic operation proxy over any :class:`Transport`.

    An optional per-endpoint :class:`~repro.ws.breaker.CircuitBreaker`
    makes the proxy fail fast
    (:class:`~repro.errors.CircuitOpenError`) while its endpoint is
    presumed dead, instead of paying a full transport timeout per call.
    The breaker rides in the chain's ``breaker`` step
    (:class:`~repro.ws.pipeline.BreakerGate`).
    """

    def __init__(self, description: wsdl.WsdlDescription,
                 transport: Transport,
                 breaker=None, interceptors=None,
                 principal: str = "", priority: int = 0):
        self.description = description
        self.transport = transport
        self.breaker = breaker
        self.interceptors = list(interceptors) if interceptors is not None \
            else pipeline.default_proxy_interceptors(breaker)
        #: Caller identity/rank stamped onto every outgoing request,
        #: carried in the ``<repro:Caller>`` SOAP header (and mirrored
        #: as HTTP headers) for server-side admission control.  The
        #: defaults leave the wire format unchanged.
        self.principal = principal
        self.priority = priority

    @classmethod
    def from_wsdl_url(cls, url: str, breaker=None) -> "ServiceProxy":
        """Build a proxy by fetching and parsing a ``?wsdl`` URL.

        Descriptions are cached per URL (bounded LRU), so re-importing
        a toolbox costs one HTTP round-trip per service, not per call.
        """
        description = None
        if datacache.enabled():
            description = _WSDL_CACHE.get(url)
        if description is not None:
            get_metrics().counter("ws.wsdl.cache.hits").inc()
        else:
            get_metrics().counter("ws.wsdl.cache.misses").inc()
            description = wsdl.parse(fetch_url(url))
            if datacache.enabled():
                _WSDL_CACHE.put(url, description)
        if not description.address:
            raise WsdlError(f"WSDL at {url} carries no endpoint address")
        # a WSDL fetched over the Unix fast path advertises its TCP
        # soap:address; keep the whole conversation on the socket
        endpoint = url.split("?", 1)[0] \
            if urlparse(url).scheme == "unix" else description.address
        return cls(description, transport_mod.transport_for(endpoint),
                   breaker=breaker)

    @classmethod
    def from_wsdl_text(cls, document: str, transport: Transport,
                       breaker=None, interceptors=None) -> "ServiceProxy":
        """Build a proxy from WSDL text with an explicit transport."""
        return cls(wsdl.parse(document), transport, breaker=breaker,
                   interceptors=interceptors)

    def operations(self) -> list[str]:
        """Sorted operation names offered by the service."""
        return sorted(self.description.operations)

    def _validate(self, operation: str, params: dict[str, Any]) -> None:
        """WSDL early feedback: reject unknown ops/params before the wire."""
        info = self.description.operations.get(operation)
        if info is None:
            raise WsdlError(
                f"service {self.description.service!r} has no operation "
                f"{operation!r}; known: {self.operations()}")
        declared = {p for p, _ in info.params}
        unknown = sorted(set(params) - declared)
        if unknown:
            raise WsdlError(
                f"operation {operation!r} got unknown parameter(s) "
                f"{unknown}; declared: {sorted(declared)}")
        missing = sorted(set(info.required) - set(params))
        if missing:
            raise WsdlError(
                f"operation {operation!r} missing required parameter(s) "
                f"{missing}")

    def _request(self, operation: str,
                 params: dict[str, Any]) -> SoapRequest:
        return SoapRequest(self.description.service, operation, params,
                           principal=self.principal,
                           priority=self.priority)

    def speaks(self, codec: str) -> bool:
        """True when this proxy's peer accepts the named wire codec —
        callers use it to pick binary columnar frames over ARFF text
        for dataset-valued parameters (see ``repro.data.dataio``).
        Duck-typed transports without capability tracking simply keep
        the universally understood ARFF text path."""
        probe = getattr(self.transport, "speaks", None)
        return bool(probe(codec)) if probe is not None else False

    def call(self, operation: str, **params: Any) -> Any:
        """Invoke *operation*; parameter names are checked against WSDL."""
        self._validate(operation, params)
        request = self._request(operation, params)
        ctx = pipeline.CallContext(kind="client",
                                   service=request.service,
                                   operation=operation)
        response = pipeline.run_chain(self.interceptors, request, ctx,
                                      self.transport.send)
        return response.result

    async def call_async(self, operation: str, **params: Any) -> Any:
        """Invoke *operation* from an event loop.

        Runs the same proxy interceptor chain under the async driver
        into ``transport.send_async`` — which the socket transports
        (``http://``, ``unix://``) provide — so policy and telemetry
        match :meth:`call` exactly while thousands of in-flight calls
        share one thread.
        """
        self._validate(operation, params)
        request = self._request(operation, params)
        ctx = pipeline.CallContext(kind="client",
                                   service=request.service,
                                   operation=operation)
        response = await pipeline.run_chain_async(
            self.interceptors, request, ctx, self.transport.send_async)
        return response.result

    def shares_front(self, other: "ServiceProxy") -> bool:
        """True when *other*'s calls reach the same server as this
        proxy's (equal transport dial addresses), so one multicall
        sent here can carry them."""
        mine = self._dial_address()
        return mine is not None and mine == other._dial_address()

    def _dial_address(self):
        probe = getattr(self.transport, "dial_address", None)
        return probe() if probe is not None else None

    def call_many(self, calls, *,
                  raise_on_fault: bool = False) -> list[Any]:
        """Invoke many operations in one wire exchange (SOAP multicall).

        *calls* is an ordered iterable of ``(operation, params)`` pairs
        or :class:`~repro.ws.soap.SubCall` items against this service
        (mixed operations allowed), or ``(proxy, operation, params)``
        triples naming an operation of another service behind the same
        front (see :meth:`shares_front`); each is validated against its
        own proxy's WSDL exactly like :meth:`call`.  A parameter may be
        an :class:`~repro.ws.soap.ItemRef` to an earlier item, whose
        result the server substitutes.  The batch travels through this
        proxy's chain and transport as a single request, so deadlines,
        breaker state, tracing, gzip and payload-refs apply to it as a
        unit.

        Returns one :class:`~repro.ws.soap.CallOutcome` per sub-call, in
        input order — per-item faults are carried, not raised.  With
        ``raise_on_fault=True`` the outcomes are unwrapped into plain
        results and the first per-item fault raises instead.
        """
        service = self.description.service
        subcalls: list[SubCall] = []
        for item in calls:
            proxy = self
            if isinstance(item, SubCall):
                if item.service not in ("", service):
                    raise ServiceError(
                        f"item for service {item.service!r}: name it by "
                        f"its proxy, (proxy, operation, params)")
                operation, params = item.operation, item.params
            elif len(item) == 3:
                proxy, operation, params = item
                if proxy is not self and not self.shares_front(proxy):
                    raise ServiceError(
                        f"{proxy.description.service}.{operation} is not "
                        f"served by {service}'s endpoint")
            else:
                operation, params = item
            proxy._validate(operation, dict(params))
            subcalls.append(SubCall(operation, dict(params),
                                    proxy.description.service
                                    if proxy is not self else ""))
        if not subcalls:
            return []
        request = soap.multicall_request(service, subcalls,
                                         principal=self.principal,
                                         priority=self.priority)
        ctx = pipeline.CallContext(kind="client", service=service,
                                   operation=soap.MULTICALL_OP)
        response = pipeline.run_chain(self.interceptors, request, ctx,
                                      self.transport.send)
        outcomes = response.result
        if not isinstance(outcomes, list) or not all(
                isinstance(o, CallOutcome) for o in outcomes) or \
                len(outcomes) != len(subcalls):
            got = len(outcomes) if isinstance(outcomes, list) else "no"
            raise ServiceError(
                f"multicall answered {got} item(s) for "
                f"{len(subcalls)} sub-call(s)")
        if raise_on_fault:
            return [outcome.unwrap() for outcome in outcomes]
        return outcomes

    def __getattr__(self, name: str):
        if name.startswith("_") or name not in \
                self.description.operations:
            raise AttributeError(name)

        def bound(**params: Any) -> Any:
            return self.call(name, **params)

        bound.__name__ = name
        return bound

    def close(self) -> None:
        """Release underlying resources."""
        self.transport.close()
