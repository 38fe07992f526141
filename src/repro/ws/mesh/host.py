"""Mesh assembly: shard planning and the one-call ``start_mesh``.

This is the composition root the CLI (``repro mesh``) and the tests
use: plan which worker hosts which services, fork the fleet under a
:class:`~repro.ws.mesh.supervisor.WorkerSupervisor`, wire discovery
and the policy-driven :class:`~repro.ws.mesh.router.MeshRouter`, warm
the routing profiles from any already-collected trace, and open the
:class:`~repro.ws.mesh.gateway.MeshGateway` front door.  The returned
:class:`MeshHost` owns the lot and tears it down in reverse.
"""

from __future__ import annotations

from repro.clock import SYSTEM_CLOCK, Clock
from repro.ws import payload
from repro.ws.mesh.endpoints import RegistryEndpoints, ServiceEndpoints
from repro.ws.mesh.gateway import MeshGateway
from repro.ws.mesh.ring import ConsistentHashRing
from repro.ws.mesh.router import MeshRouter, make_policy
from repro.ws.mesh.supervisor import WorkerSpec, WorkerSupervisor
from repro.ws.registry import UDDIRegistry


def plan_shards(services: list[str] | None, worker_ids: list[str],
                spec: str = "all") -> dict[str, tuple[str, ...] | None]:
    """Assign services to workers according to a shard *spec*.

    ``"all"`` replicates the whole catalogue on every worker (``None``
    per worker = the worker is catalogue-authoritative, so the gateway
    process never imports the service classes).  ``"ring:R"`` places
    each service on R workers chosen by the consistent-hash ring over
    the worker ids — the same ring the routing layer uses, so adding a
    worker re-homes ~1/N of the services instead of reshuffling all.
    """
    if spec == "all":
        hosted = None if services is None else tuple(services)
        return {wid: hosted for wid in worker_ids}
    if spec.startswith("ring:"):
        try:
            replicas = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad shard spec {spec!r}: expected "
                             f"'ring:<replicas>'") from None
        if replicas < 1:
            raise ValueError(f"bad shard spec {spec!r}: replica count "
                             f"must be >= 1")
        if services is None:
            from repro.services.deploy import TOOLBOX
            services = sorted(TOOLBOX)
        ring = ConsistentHashRing(worker_ids)
        plan: dict[str, list[str]] = {wid: [] for wid in worker_ids}
        for service in services:
            for wid in ring.replicas(service,
                                     min(replicas, len(worker_ids))):
                plan[wid].append(service)
        return {wid: tuple(hosted) for wid, hosted in plan.items()}
    raise ValueError(f"unknown shard spec {spec!r}; "
                     f"expected 'all' or 'ring:<replicas>'")


class MeshHost:
    """One running mesh: registry + fleet + router + gateway.

    Built by :func:`start_mesh`; usable as a context manager.  The
    gateway speaks plain SOAP-over-HTTP, so any existing client — a
    :class:`~repro.ws.client.ServiceProxy`, the scatter plane, the
    experiment runner — targets :meth:`wsdl_url` and rides the mesh
    unchanged; :meth:`source_for` is the discovery-backed endpoint
    source for callers that want per-replica fan-out instead.
    """

    def __init__(self, registry: UDDIRegistry,
                 supervisor: WorkerSupervisor,
                 discovery: RegistryEndpoints, router: MeshRouter,
                 gateway: MeshGateway):
        self.registry = registry
        self.supervisor = supervisor
        self.discovery = discovery
        self.router = router
        self.gateway = gateway

    @property
    def base_url(self) -> str:
        return self.gateway.base_url

    @property
    def port(self) -> int:
        return self.gateway.port

    def endpoint(self, service: str) -> str:
        """The mesh-fronted SOAP endpoint URL of *service*."""
        return self.gateway.endpoint(service)

    def wsdl_url(self, service: str) -> str:
        """The mesh-fronted WSDL URL of *service*."""
        return self.gateway.wsdl_url(service)

    def source_for(self, service: str) -> ServiceEndpoints:
        """A live endpoint source for scatter/grid/runner callers."""
        return self.discovery.source_for(service)

    def status(self) -> dict:
        """JSON-ready snapshot: fleet, registry, routing profiles."""
        now = self.registry.now()
        return {"gateway": self.base_url,
                "policy": self.router.policy.name,
                "supervisor": self.supervisor.status(),
                "registry": [entry.as_dict(now=now) for entry
                             in self.registry.inquire("*")],
                "profiles": self.router.book.snapshot(),
                "transports": self.router.transport_schemes(),
                "shm": payload.shm_counters()}

    def stop(self) -> None:
        """Tear down front-to-back: gateway, then fleet and leases."""
        self.gateway.stop()
        self.supervisor.stop()

    def __enter__(self) -> "MeshHost":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_mesh(workers: int = 4, services: list[str] | None = None,
               shards: str = "all", policy: str = "adaptive",
               port: int = 0, *, lease_ttl_s: float = 15.0,
               max_concurrent: int = 8,
               slow_ms: dict[str, float] | None = None,
               registry: UDDIRegistry | None = None,
               transport: str = "tcp",
               clock: Clock = SYSTEM_CLOCK) -> MeshHost:
    """Fork a worker fleet and return its running :class:`MeshHost`.

    *slow_ms* maps worker ids (``w1``..``wN``) to a fixed per-dispatch
    delay — the skewed-replica knob the PERF-MESH benchmark turns.
    ``transport="uds"`` adds a Unix-socket listener per worker and
    routes same-host calls over it (with shm payload hand-off).
    """
    if workers < 1:
        raise ValueError("a mesh needs at least one worker")
    worker_ids = [f"w{i + 1}" for i in range(workers)]
    plan = plan_shards(services, worker_ids, shards)
    delays = slow_ms or {}
    specs = [WorkerSpec(worker_id=wid, services=plan[wid],
                        slow_ms=delays.get(wid, 0.0),
                        max_concurrent=max_concurrent)
             for wid in worker_ids]
    registry = registry if registry is not None \
        else UDDIRegistry(clock=clock)
    supervisor = WorkerSupervisor(specs, registry, lease_ttl_s=lease_ttl_s,
                                  transport=transport, clock=clock)
    supervisor.start()
    try:
        discovery = RegistryEndpoints(registry)
        router = MeshRouter(discovery, make_policy(policy), clock=clock)
        router.warm_from_trace()
        # the status closure reads `host`, which is assigned below —
        # the gateway only calls it once requests arrive, well after
        gateway = MeshGateway(router, discovery, port=port,
                              status_fn=lambda: host.status())
        gateway.start()
    except Exception:
        supervisor.stop()
        raise
    host = MeshHost(registry=registry, supervisor=supervisor,
                    discovery=discovery, router=router, gateway=gateway)
    return host
