"""The mesh front door: one stable HTTP endpoint over a churning fleet.

Clients talk to the gateway exactly as they would to a single
:class:`~repro.ws.httpd.SoapHttpServer` — same paths, same envelopes,
same faults, same gzip negotiation — because the gateway *is* that
front: the same threaded listener around the same
:class:`~repro.ws.pipeline.HttpGateway`, with only the thing behind it
swapped.  Instead of a local container, :class:`MeshIngress` runs each
decoded request through a client chain whose terminal is
:meth:`MeshRouter.send <repro.ws.mesh.router.MeshRouter.send>`, so
routed calls get the standard deadline / trace / metrics steps like any
other call.

WSDL requests are answered by fetching a live replica's document and
re-pointing its ``soap:address`` at the gateway, so
``ServiceProxy.from_wsdl_url(gateway.wsdl_url("Classifier"))`` binds a
proxy whose calls ride the mesh without knowing it exists.
"""

from __future__ import annotations

import json

from repro.errors import ServiceError
from repro.ws.client import fetch_url
from repro.ws.deadline import deadline_scope
from repro.ws.httpd import HttpFront, ThreadedListener
from repro.ws.mesh.endpoints import RegistryEndpoints
from repro.ws.mesh.router import MeshRouter
from repro.ws.pipeline import (CallContext, CallMetrics, CallTrace,
                               HttpGateway, ProxyDeadline, run_chain)
from repro.ws.soap import SoapRequest, SoapResponse


class MeshIngress:
    """What the mesh front serves in place of a container.

    :class:`~repro.ws.pipeline.HttpGateway` asks its backend for three
    things — ``invoke(request)``, ``services()`` and
    ``wsdl_document(name, address)`` — so answering them from the
    router and discovery buys the whole ingress policy surface
    (decompression, front-door deadline shedding, payload-miss /
    overload / deadline fault mapping, response compression,
    ``ws.http.*`` metrics) unchanged.  The default *chain* — deadline →
    trace → metrics — is what a direct client proxy runs minus its
    breaker (the router keeps one per replica), so routed calls get
    budget re-stamping, span parenting and per-call metrics for free.
    """

    def __init__(self, router: MeshRouter, discovery: RegistryEndpoints,
                 chain: list | None = None):
        self.router = router
        self.discovery = discovery
        self.chain = chain if chain is not None \
            else [ProxyDeadline(), CallTrace(), CallMetrics()]

    def invoke(self, request: SoapRequest) -> SoapResponse:
        """Route one decoded request through the gateway's client chain."""
        ctx = CallContext(kind="mesh", endpoint="mesh",
                          service=request.service,
                          operation=request.operation)
        # re-anchor the caller's remaining budget so the deadline step
        # re-stamps it net of gateway time, and the routed send inherits
        # it as an ambient scope (timeout shrinks hop by hop)
        with deadline_scope(request.deadline_s):
            return run_chain(self.chain, request, ctx, self.router.send)

    def services(self) -> list[str]:
        """Logical services with at least one live replica."""
        return self.discovery.service_names()

    def wsdl_document(self, name: str, address: str) -> str:
        """A live replica's WSDL, re-pointed at the gateway *address*."""
        endpoints = self.discovery.endpoints(name)
        if not endpoints:
            raise ServiceError(f"no live replica of {name!r}")
        replica = endpoints[0]
        # the generated WSDL carries the replica's endpoint URL exactly
        # once, in soap:address/@location
        return fetch_url(replica.wsdl_url).replace(replica.url, address)


class MeshGateway(HttpFront):
    """The mesh's stable HTTP front, bound to 127.0.0.1.

    Same surface as :class:`~repro.ws.httpd.SoapHttpServer` — ``POST
    /services/<name>``, ``GET /services/<name>?wsdl``, ``GET
    /services`` — plus ``GET /mesh/status`` (JSON fleet/profile
    snapshot via the injected *status_fn*).
    """

    def __init__(self, router: MeshRouter,
                 discovery: RegistryEndpoints, port: int = 0,
                 compress: bool = True, chain: list | None = None,
                 status_fn=None):
        self.router = router
        self.ingress = MeshIngress(router, discovery, chain=chain)
        front = HttpGateway(self.ingress, compress=compress)
        front.pages["/mesh/status"] = lambda: (
            json.dumps(status_fn() if status_fn else {},
                       indent=2).encode(), "application/json")
        self._listener = ThreadedListener(front, ("127.0.0.1", port),
                                          "mesh-gateway")
        self.port = self._listener.address[1]
        self.base_url = front.base_url = f"http://127.0.0.1:{self.port}"

    def start(self) -> "MeshGateway":
        """Start serving in a background thread; returns ``self``."""
        self._listener.start()
        return self

    def stop(self) -> None:
        """Shut down the front door and the router's pooled transports."""
        self._listener.stop()
        self.router.close()
