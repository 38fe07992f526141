"""The service container (Tomcat/Axis analogue) with the two §4.5 lifecycles.

The paper's key performance observation:

    "repeated invocations of a particular Web Service often resulted in a
    significant performance penalty ... an instance of the service was
    created as an object for each invocation; if an object already existed
    this had to be re-built from its serialised state on disk.  On completion
    of the invocation the state of the object was recorded: it was serialised
    and stored to disk. ... To overcome this performance penalty a harness
    was implemented that maintained an algorithm instance object in memory."

:class:`ServiceContainer` therefore supports two lifecycles per deployment:

* ``"serialize"`` — the 2005 default Axis behaviour: before each call the
  instance is unpickled from disk (created fresh on the first call), and
  after each call it is pickled back.  Every invocation pays the round-trip.
* ``"harness"`` — the paper's fix: one instance lives in memory for the
  container's lifetime.

Both lifecycles are observable through per-service :class:`ServiceStats`
(invocation counts, serialisation time, bytes), which the PERF-4.5 bench
reports.

Dispatch itself is a :mod:`repro.ws.pipeline` handler chain (trace join,
deployment resolution, deadline re-anchoring, invocation stats, result
cache, lifecycle acquire/release, fault mapping — see
:func:`repro.ws.pipeline.default_server_handlers`); :meth:`invoke` just
runs the chain into the actual method dispatch.  Pass ``handlers=`` to
install a custom chain.
"""

from __future__ import annotations

import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import ServiceError
from repro.ws import pipeline, wsdl
from repro.ws.admission import AdmissionController, AdmissionHandler
from repro.ws.pipeline import (RESULT_CACHE_ENTRIES,  # noqa: F401
                               DispatchContext, _params_digest,
                               _result_cache, reset_result_cache)
from repro.ws.service import ServiceDefinition
from repro.ws.soap import SoapFault, SoapRequest, SoapResponse

LIFECYCLES = ("harness", "serialize")


@dataclass
class ServiceStats:
    """Observable per-deployment counters."""

    invocations: int = 0
    faults: int = 0
    cache_hits: int = 0
    serialize_seconds: float = 0.0
    serialized_bytes: int = 0
    dispatch_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form (SOAP/JSON-ready)."""
        return {
            "invocations": self.invocations,
            "faults": self.faults,
            "cache_hits": self.cache_hits,
            "serialize_seconds": self.serialize_seconds,
            "serialized_bytes": self.serialized_bytes,
            "dispatch_seconds": self.dispatch_seconds,
        }


@dataclass
class _Deployment:
    definition: ServiceDefinition
    factory: Callable[[], Any]
    lifecycle: str
    stats: ServiceStats = field(default_factory=ServiceStats)
    instance: Any = None
    state_path: Path | None = None
    # re-entrant: the serialize lifecycle holds it across the dispatch
    # while inner handlers (stats, faults) briefly take it again
    lock: threading.RLock = field(default_factory=threading.RLock)


class ServiceContainer:
    """Hosts service deployments and dispatches SOAP requests to them."""

    def __init__(self, name: str = "container",
                 state_dir: str | Path | None = None,
                 handlers=None,
                 admission: AdmissionController | None = None):
        self.name = name
        self._deployments: dict[str, _Deployment] = {}
        self._state_dir = Path(state_dir) if state_dir else \
            Path(tempfile.mkdtemp(prefix="repro-ws-"))
        self._state_dir.mkdir(parents=True, exist_ok=True)
        self.handlers = list(handlers) if handlers is not None \
            else pipeline.default_server_handlers()
        self.admission = admission
        if admission is not None:
            # right after the deadline anchor: a spent budget is
            # rejected before it costs an admission token, and a shed
            # happens before multicall expansion / stats / lifecycle
            # spend anything on the call
            self.handlers = pipeline.chain_insert_after(
                self.handlers, "deadline", AdmissionHandler(admission))

    # -- deployment ---------------------------------------------------------
    def deploy(self, service_cls: type, name: str | None = None,
               factory: Callable[[], Any] | None = None,
               lifecycle: str = "harness") -> ServiceDefinition:
        """Deploy *service_cls* under *name* with the given lifecycle."""
        if lifecycle not in LIFECYCLES:
            raise ServiceError(
                f"unknown lifecycle {lifecycle!r}; known: {LIFECYCLES}")
        definition = ServiceDefinition.from_class(service_cls, name)
        if definition.name in self._deployments:
            raise ServiceError(
                f"service {definition.name!r} already deployed")
        dep = _Deployment(definition=definition,
                          factory=factory or service_cls,
                          lifecycle=lifecycle)
        if lifecycle == "serialize":
            dep.state_path = self._state_dir / f"{definition.name}.pkl"
        self._deployments[definition.name] = dep
        return definition

    def undeploy(self, name: str) -> None:
        """Remove a deployment (and its serialised state)."""
        dep = self._deployments.pop(name, None)
        if dep is None:
            raise ServiceError(f"service {name!r} is not deployed")
        if dep.state_path and dep.state_path.exists():
            dep.state_path.unlink()

    def services(self) -> list[str]:
        """Sorted names of the deployed services."""
        return sorted(self._deployments)

    def definition(self, name: str) -> ServiceDefinition:
        """ServiceDefinition of a deployed service."""
        return self._deployment(name).definition

    def stats(self, name: str) -> ServiceStats:
        """Mutable stats record of a deployed service."""
        return self._deployment(name).stats

    def wsdl_document(self, name: str, address: str) -> str:
        """WSDL text of a deployed service, bound to endpoint *address*."""
        return wsdl.generate(self.definition(name), address)

    def lifecycle(self, name: str) -> str:
        """Lifecycle name of a deployed service."""
        return self._deployment(name).lifecycle

    def _deployment(self, name: str) -> _Deployment:
        dep = self._deployments.get(name)
        if dep is None:
            raise SoapFault("soapenv:Client",
                            f"no service named {name!r} "
                            f"(deployed: {self.services()})")
        return dep

    # -- invocation ----------------------------------------------------------
    def invoke(self, request: SoapRequest) -> SoapResponse:
        """Dispatch one request through the handler chain."""
        ctx = DispatchContext(container=self)
        return pipeline.run_chain(
            self.handlers, request, ctx,
            lambda req: self._dispatch(req, ctx))

    def _dispatch(self, request: SoapRequest,
                  ctx: DispatchContext) -> SoapResponse:
        """The chain terminal: the actual operation dispatch."""
        dep = ctx.deployment
        result = dep.definition.dispatch(
            ctx.properties["instance"], request.operation, request.params)
        return SoapResponse(service=request.service,
                            operation=request.operation, result=result)

    def call(self, service: str, operation: str, **params: Any) -> Any:
        """Convenience in-process invocation."""
        return self.invoke(SoapRequest(service, operation, params)).result

    # -- lifecycle plumbing ---------------------------------------------------
    def _acquire(self, dep: _Deployment) -> Any:
        if dep.lifecycle == "harness":
            if dep.instance is None:
                dep.instance = dep.factory()
            return dep.instance
        # serialize lifecycle: rebuild from disk (or create on first call)
        assert dep.state_path is not None
        start = time.perf_counter()
        if dep.state_path.exists():
            with dep.state_path.open("rb") as fp:
                instance = pickle.load(fp)
        else:
            instance = dep.factory()
        dep.stats.serialize_seconds += time.perf_counter() - start
        return instance

    def _release(self, dep: _Deployment, instance: Any) -> None:
        if dep.lifecycle == "harness":
            return
        assert dep.state_path is not None
        start = time.perf_counter()
        payload = pickle.dumps(instance)
        dep.state_path.write_bytes(payload)
        dep.stats.serialize_seconds += time.perf_counter() - start
        dep.stats.serialized_bytes = len(payload)

    def reset(self, name: str) -> None:
        """Discard any live/serialised instance state for *name*."""
        dep = self._deployment(name)
        with dep.lock:
            dep.instance = None
            if dep.state_path and dep.state_path.exists():
                dep.state_path.unlink()
            dep.stats = ServiceStats()
