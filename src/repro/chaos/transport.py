"""Chaos fault injection as a chain-installable interceptor.

:class:`ChaosInterceptor` consults a
:class:`~repro.chaos.controller.ChaosController` on every send, so the
same seeded fault plan can hit an in-process container, the simulated
network, or a real HTTP connection — whatever the test or drill targets.
Response corruption mangles the *actual* encoded envelope and re-decodes
it, so the SOAP layer's malformed-document handling is exercised for
real rather than simulated with a synthetic exception.

Install it either by wrapping a transport in :class:`ChaosTransport`
(the pre-refactor shape, still the convenient one for composition like
``SimulatedTransport(ChaosTransport(inner, controller))``) or by
splicing the interceptor into any chain, e.g.::

    transport.interceptors = pipeline.chain_insert_after(
        transport.interceptors, "payload",
        ChaosInterceptor(controller, "Data"))

Both forms consume the seeded per-target RNG identically, so a fault
plan replays the same either way.
"""

from __future__ import annotations

import dataclasses

from repro.chaos.controller import ChaosController
from repro.ws import payload, soap
from repro.ws.payload import PayloadRef
from repro.ws.pipeline import CallContext, ClientInterceptor, run_chain
from repro.ws.soap import SoapRequest, SoapResponse
from repro.ws.transport import Transport


def _mangle_digest(digest: str) -> str:
    """Deterministically flip the digest's first hex character."""
    first = "0" if digest[:1] != "0" else "1"
    return first + digest[1:]


def _mangle_ref_params(params: dict) -> dict:
    return {name: dataclasses.replace(
        value, digest=_mangle_digest(value.digest))
        if isinstance(value, PayloadRef) else value
        for name, value in params.items()}


def _corrupt_refs(request: SoapRequest) -> SoapRequest:
    """Mangle every ref digest, including those in multicall items."""
    if soap.is_multicall(request):
        calls = [dataclasses.replace(sub,
                                     params=_mangle_ref_params(sub.params))
                 for sub in soap.calls_of(request)]
        return dataclasses.replace(request, params={"calls": calls})
    return dataclasses.replace(request,
                               params=_mangle_ref_params(request.params))


class ChaosInterceptor(ClientInterceptor):
    """Inject plan-driven faults ahead of (and behind) the send below.

    A multicall batch is one wire exchange, so it consumes exactly the
    dice a single send would (one perturbation, at most one corruption
    roll) — fixed-seed drills stay deterministic across batch-size
    changes, and a corrupted batch counts as one fault event, not one
    per sub-call.
    """

    name = "chaos"

    def __init__(self, controller: ChaosController,
                 endpoint: str = "endpoint"):
        self.controller = controller
        self.endpoint = endpoint

    def around(self, request, ctx):
        self.controller.perturb(self.endpoint)
        # corrupt a by-reference parameter in flight: the receiver sees
        # a digest its store cannot hold, raising PayloadMissError (a
        # transient TransportError handled by fallbacks/retries).  The
        # extra die is only rolled when refs are present — and consumes
        # the send's one corruption opportunity — so plans over ref-free
        # traffic keep their exact fault sequences.
        if payload.refs_in(request) and \
                self.controller.should_corrupt(self.endpoint):
            return (yield _corrupt_refs(request))
        response = yield request
        if self.controller.should_corrupt(self.endpoint):
            # truncate the real envelope so the decoder sees genuinely
            # malformed bytes (raises ServiceError, a transient fault)
            wire = soap.encode_response(response)
            return soap.decode_response(wire[:max(1, len(wire) - 16)])
        return response


class ChaosTransport(Transport):
    """The interceptor in transport clothing: wrap any inner transport."""

    def __init__(self, inner: Transport, controller: ChaosController,
                 endpoint: str = "endpoint"):
        self.inner = inner
        self.interceptor = ChaosInterceptor(controller, endpoint)

    @property
    def controller(self) -> ChaosController:
        return self.interceptor.controller

    @property
    def endpoint(self) -> str:
        return self.interceptor.endpoint

    def send(self, request: SoapRequest) -> SoapResponse:
        """Deliver one SOAP request; returns the SOAP response."""
        ctx = CallContext(kind="chaos", endpoint=self.interceptor.endpoint,
                          service=request.service,
                          operation=request.operation)
        return run_chain([self.interceptor], request, ctx, self.inner.send)

    def close(self) -> None:
        self.inner.close()
