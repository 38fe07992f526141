"""Replica routing: policies, substitution and the gateway chain's terminal.

:class:`MeshRouter` is the gateway's forwarding engine.  For each call
it asks discovery for the live replicas of the target service, ranks
them with a pluggable :class:`RoutingPolicy`, and hands the ranking to
the one failover walk (:func:`repro.ws.failover.walk`) — the paper-era
"complete the task by moving the job to another resource", automated.

Three policies ship:

* :class:`RoundRobinPolicy` — the static baseline the benchmark
  compares against: ignore everything, rotate.
* :class:`HashPolicy` — consistent-hash affinity on the call's
  service+operation key; stable under membership churn
  (:mod:`repro.ws.mesh.ring`), so repeat calls keep landing where the
  warm caches are.
* :class:`AdaptivePolicy` — the trace-mined default: rank replicas by
  EWMA cost (:mod:`repro.ws.mesh.profile`), probing unobserved or
  stale endpoints first so a restarted worker earns its way back in
  with one call instead of being guessed at forever.

Per-replica :class:`~repro.ws.breaker.CircuitBreaker`\\ s guard every
endpoint; breaker transitions feed the registry's health states via the
discovery source, so a dead replica vanishes from *everyone's* view,
not just this router's.  :meth:`MeshRouter.send` has the shape of a
transport's ``send``, so the gateway uses it as the terminal of its
deadline/trace/metrics client chain.
"""

from __future__ import annotations

import os
import threading

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import TransportError
from repro.obs import get_metrics, get_tracer
from repro.ws import failover
from repro.ws.breaker import OPEN, CircuitBreaker
from repro.ws.mesh.endpoints import MeshEndpoint, RegistryEndpoints
from repro.ws.mesh.profile import ProfileBook
from repro.ws.mesh.ring import ConsistentHashRing
from repro.ws.payload import MISS_FAULTCODE, PayloadMissError
from repro.ws.registry import HEALTH_DOWN, HEALTH_UP
from repro.ws.soap import SoapFault, SoapRequest, SoapResponse
from repro.ws.transport import (HttpTransport, parse_unix_url,
                                transport_for)

#: Waiting this long since an endpoint's last observation makes its
#: profile *stale*: the adaptive policy re-probes it ahead of ranked
#: traffic, so a healed or warmed-up replica is rediscovered.
DEFAULT_REPROBE_AFTER_S = 10.0

#: Each replica's breaker opens after this many consecutive failed
#: sends and re-probes the replica after ``BREAKER_COOLDOWN_S``.
BREAKER_FAILURE_THRESHOLD = 2
BREAKER_COOLDOWN_S = 5.0


class RoutingPolicy:
    """Ranks a service's live replicas, most preferred first."""

    name = "policy"

    def rank(self, service: str, endpoints: list[MeshEndpoint],
             request: SoapRequest,
             book: ProfileBook) -> list[MeshEndpoint]:
        """Order *endpoints* by preference for *request*.

        The router sends to the first candidate and walks down the
        ranking on failover, so position 0 is the policy's actual
        choice and the tail is its contingency plan.
        """
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Static rotation — the profile-blind baseline."""

    name = "static"

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()

    def rank(self, service, endpoints, request, book):
        if not endpoints:
            return []
        with self._lock:
            turn = self._counters.get(service, 0)
            self._counters[service] = turn + 1
        offset = turn % len(endpoints)
        return endpoints[offset:] + endpoints[:offset]


class HashPolicy(RoutingPolicy):
    """Consistent-hash affinity on the call key (service + operation).

    Repeat calls of the same operation stick to the same replica while
    membership holds — and move minimally when it changes — so
    replica-local warm state (result caches, absorbed payloads, trained
    instances) keeps paying off.
    """

    name = "hash"

    def __init__(self) -> None:
        self._ring: ConsistentHashRing | None = None
        self._ring_members: frozenset[str] = frozenset()
        self._lock = threading.Lock()

    def rank(self, service, endpoints, request, book):
        by_name = {e.name: e for e in endpoints}
        members = frozenset(by_name)
        with self._lock:
            if members != self._ring_members:
                self._ring = ConsistentHashRing(members)
                self._ring_members = members
            ring = self._ring
        if ring is None or not members:
            return []
        key = f"{service}.{request.operation}"
        return [by_name[name]
                for name in ring.replicas(key, len(members))]


class AdaptivePolicy(RoutingPolicy):
    """Mined EWMA ranking: cheapest replica first, probe the unknown.

    Endpoints never observed (or not observed for
    ``DEFAULT_REPROBE_AFTER_S``) outrank everything — one real call refreshes
    their profile, after which they compete on cost like the rest.
    That single-probe discipline is what keeps a chaos-delayed replica
    out of the p99: it gets one observation, then traffic routes
    around it until the profile goes stale again.
    """

    name = "adaptive"

    def rank(self, service, endpoints, request, book):
        def preference(endpoint: MeshEndpoint):
            age = book.age_s(endpoint.url)
            if age is None or age >= DEFAULT_REPROBE_AFTER_S:
                return (0, 0.0, endpoint.name)
            return (1, book.profile(endpoint.url).cost(), endpoint.name)
        return sorted(endpoints, key=preference)


POLICIES = {"static": RoundRobinPolicy, "hash": HashPolicy,
            "adaptive": AdaptivePolicy}


def make_policy(name: str) -> RoutingPolicy:
    """Instantiate a routing policy by CLI name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown routing policy {name!r}; "
                         f"known: {sorted(POLICIES)}") from None


class MeshRouter:
    """Routes one SOAP request to a live replica, substituting on failure.

    The walk over the ranked candidates implements both *failover* (a
    send that dies mid-flight moves on) and *substitution* (an endpoint
    whose breaker is open is skipped without paying a timeout).  An
    answered fault stops the walk: service-level errors are the
    caller's.  This class only adds its own bookkeeping per verdict —
    cost profiles, registry health and the ``ws.mesh.*`` counters.
    """

    def __init__(self, discovery: RegistryEndpoints,
                 policy: RoutingPolicy | None = None, *,
                 book: ProfileBook | None = None,
                 clock: Clock = SYSTEM_CLOCK):
        self.discovery = discovery
        self.policy = policy or AdaptivePolicy()
        self.book = book or ProfileBook(clock=clock)
        self._clock = clock
        self._transports: dict[str, HttpTransport] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        #: last dial scheme per stable endpoint URL (``/mesh/status``)
        self._schemes: dict[str, str] = {}
        self._lock = threading.Lock()

    # -- plumbing --------------------------------------------------------

    def _dial_url(self, endpoint: MeshEndpoint) -> str:
        """The URL to actually dial: the Unix socket when it is real.

        An advertised ``uds_url`` is only trusted if its socket path
        exists on this host — a stale registry entry (or one mirrored
        from another machine) degrades to TCP instead of failing.
        """
        if endpoint.uds_url:
            try:
                path, _ = parse_unix_url(endpoint.uds_url)
            except TransportError:
                return endpoint.url
            if os.path.exists(path):
                return endpoint.uds_url
        return endpoint.url

    def _transport(self, endpoint: MeshEndpoint) -> HttpTransport:
        dial = self._dial_url(endpoint)
        with self._lock:
            transport = self._transports.get(dial)
            if transport is None:
                transport = transport_for(dial)
                self._transports[dial] = transport
            self._schemes[endpoint.url] = getattr(transport, "kind",
                                                  "http")
            return transport

    def transport_schemes(self) -> dict[str, str]:
        """Last-used dial scheme per endpoint URL (``http``/``uds``)."""
        with self._lock:
            return dict(self._schemes)

    def _breaker(self, url: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(url)
            if breaker is None:
                breaker = CircuitBreaker(
                    endpoint=url,
                    failure_threshold=BREAKER_FAILURE_THRESHOLD,
                    cooldown_s=BREAKER_COOLDOWN_S,
                    clock=self._clock)
                self._breakers[url] = breaker
            return breaker

    def warm_from_trace(self) -> int:
        """Seed the profiles from the collector's ``send:*`` spans."""
        collector = getattr(get_tracer(), "collector", None)
        if collector is None:
            return 0
        return self.book.mine_spans(collector.spans())

    # -- the route -------------------------------------------------------

    def send(self, request: SoapRequest) -> SoapResponse:
        """Deliver *request* to some live replica of its service."""
        metrics = get_metrics()

        def unroutable(error: Exception) -> Exception:
            metrics.counter("ws.mesh.unroutable",
                            service=request.service).inc()
            return error

        endpoints = self.discovery.endpoints(request.service)
        if not endpoints:
            raise unroutable(TransportError(
                f"no live replica of {request.service!r} in the mesh "
                f"registry"))
        ranked = self.policy.rank(request.service, endpoints, request,
                                  self.book)

        def settled(endpoint, verdict, error, seconds) -> None:
            if verdict == failover.SPENT:
                return  # says nothing about the endpoint
            if verdict == failover.UNREACHABLE:
                self.book.observe_error(endpoint.url)
                metrics.counter("ws.mesh.failovers",
                                endpoint=endpoint.name).inc()
            elif verdict == failover.SHED:
                metrics.counter("ws.mesh.overloads",
                                endpoint=endpoint.name).inc()
            else:
                self.book.observe(endpoint.url, seconds)
            down = self._breaker(endpoint.url).state == OPEN
            self.discovery.note_health(
                endpoint.name, HEALTH_DOWN if down else HEALTH_UP)
            if error is None:
                metrics.counter("ws.mesh.routed",
                                endpoint=endpoint.name).inc()
                if endpoint is not ranked[0]:
                    metrics.counter("ws.mesh.substitutions",
                                    service=request.service).inc()

        def attempt(endpoint) -> SoapResponse:
            try:
                return self._transport(endpoint).send(request)
            except PayloadMissError as miss:
                # a relayed ref neither the replica nor this relay can
                # open: the caller resends inline, the replica answered
                raise SoapFault(MISS_FAULTCODE, str(miss),
                                detail=miss.digest) from miss

        return failover.walk(
            ranked, attempt, faults_end_walk=True,
            breaker_of=lambda endpoint: self._breaker(endpoint.url),
            settled=settled, exhausted=unroutable)

    def close(self) -> None:
        """Release pooled transport connections."""
        with self._lock:
            transports = list(self._transports.values())
        for transport in transports:
            transport.close()

