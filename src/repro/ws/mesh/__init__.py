"""The service mesh: sharded worker fleet + trace-mined adaptive routing.

The mesh turns the single-process toolbox host into a supervised
multi-process deployment while keeping every client-facing contract —
SOAP envelopes, WSDL binding, deadlines, payload refs, gzip — exactly
as it was:

* :mod:`~repro.ws.mesh.ring` — a consistent-hash ring, stable under
  membership churn (shard planning and hash-affinity routing).
* :mod:`~repro.ws.mesh.profile` — per-endpoint EWMA latency/error
  profiles, minable from the tracing plane's ``send:*`` spans.
* :mod:`~repro.ws.mesh.endpoints` — the UDDI registry as live replica
  discovery, plus the caller-facing endpoint source.
* :mod:`~repro.ws.mesh.router` — routing policies (static / hash /
  adaptive), per-replica breakers, equivalent-service substitution.
* :mod:`~repro.ws.mesh.worker` — the child-process main: one catalogue
  shard on the async serving plane, announce-file handshake.
* :mod:`~repro.ws.mesh.supervisor` — fork/watch/restart/drain of the
  worker fleet; lease heartbeats keep the registry truthful.
* :mod:`~repro.ws.mesh.gateway` — the stable HTTP front door; the
  router is the terminal of a client chain behind the shared gateway.
* :mod:`~repro.ws.mesh.host` — :func:`start_mesh`, the one-call
  composition root.

By layering decree (``tools/layering_lint.py``) this package never
imports :mod:`repro.chaos` or :mod:`repro.ml`, and the transport/httpd
layers never import it back.
"""

from repro.ws.mesh.endpoints import (MeshEndpoint, RegistryEndpoints,
                                     ServiceEndpoints)
from repro.ws.mesh.gateway import MeshGateway, MeshIngress
from repro.ws.mesh.host import MeshHost, plan_shards, start_mesh
from repro.ws.mesh.profile import EndpointProfile, ProfileBook
from repro.ws.mesh.ring import ConsistentHashRing, stable_hash
from repro.ws.mesh.router import (AdaptivePolicy, HashPolicy, MeshRouter,
                                  RoundRobinPolicy, RoutingPolicy,
                                  make_policy)
from repro.ws.mesh.supervisor import (WorkerHandle, WorkerSpec,
                                      WorkerSupervisor)

__all__ = [
    "AdaptivePolicy", "ConsistentHashRing", "EndpointProfile",
    "HashPolicy", "MeshEndpoint", "MeshGateway", "MeshHost",
    "MeshIngress", "MeshRouter", "ProfileBook",
    "RegistryEndpoints", "RoundRobinPolicy", "RoutingPolicy",
    "ServiceEndpoints", "WorkerHandle", "WorkerSpec",
    "WorkerSupervisor", "make_policy", "plan_shards", "stable_hash",
    "start_mesh",
]
