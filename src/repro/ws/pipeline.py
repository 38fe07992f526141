"""Composable handler chains — the Axis handler-chain analogue.

The paper's services run under Tomcat/Axis, where every message passes
through configurable *handler chains* and one
``Handler.invoke(MessageContext)`` serves the request flow, the
response flow and the fault flow.  This module is our equivalent: each
cross-cutting concern of ``ServiceProxy.call``, ``Transport.send`` and
``ServiceContainer.invoke`` is one named step with one method,
:meth:`ChainStep.around`, composed into ordered chains around a
*terminal* (the pure byte mover, or the actual method dispatch).

``around(request, ctx)`` is a generator, and the ``yield`` is the rest
of the chain:

* code before ``yield request`` is the **request flow** (observe or
  rewrite the outgoing message);
* the value of the ``yield`` is the response from the rest of the
  chain — the **response flow**; the step's ``return`` value is what
  the steps above it see;
* an exception raised below is thrown in at the ``yield`` — the
  **fault flow** — so ``try``/``except``/``finally`` and ``with``
  blocks around the ``yield`` behave as they would around a call;
* returning without yielding short-circuits (a cache hit); yielding
  again re-enters the rest of the chain (the payload-miss resend,
  multicall's per-item dispatch).

Writing a step::

    class Stopwatch(ClientInterceptor):
        name = "stopwatch"

        def around(self, request, ctx):
            start = time.perf_counter()         # request flow
            try:
                response = yield request        # the rest of the chain
            except TransportError:              # fault flow
                ctx.note("failed_after", time.perf_counter() - start)
                raise
            ctx.note("took", time.perf_counter() - start)
            return response                     # response flow

Two drivers run the same steps: :func:`run_chain` for blocking callers
and :func:`run_chain_async` for an event loop.  They differ only by
``await`` and are the only sync/async twin in this module.

Default orders (outermost first; names are stable API):

* client proxy   (``ServiceProxy.call``):
  ``deadline → breaker → trace → metrics → transport.send``
* client transport (any :class:`~repro.ws.transport.ChainedTransport`):
  ``trace → metrics → deadline → [gzip] → payload → _exchange``
* server container (``ServiceContainer.invoke``):
  ``refs → trace → resolve → deadline → multicall → stats → cache
  → lifecycle → faults → dispatch`` (``ServiceContainer(admission=...)``
  splices the ``admission`` load-shedding step in after ``deadline``)

Byte movers stay free of policy imports (no :mod:`repro.obs`, no
breaker, no chaos — enforced by ``tools/layering_lint.py``): they report
wire telemetry through :meth:`CallContext.note` (picked up by the trace
step) and the :attr:`CallContext.on_wire` /
:attr:`CallContext.on_transport_error` / :attr:`CallContext.emit_counter`
callbacks (installed by the metrics step), so a chain without those
steps simply records nothing.

On the serving side :class:`HttpGateway` is the one request handler
behind all three HTTP fronts.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, NamedTuple
from urllib.parse import urlparse

from repro.data import cache as datacache
from repro.errors import (DeadlineExceeded, OverloadedError, ServiceError,
                          TransportError)
from repro.obs import SpanContext, get_metrics, get_tracer
from repro.ws import failover, payload, shm, soap
from repro.ws.deadline import current_deadline, deadline_scope
from repro.ws.payload import PayloadMissError
from repro.ws.soap import (DEADLINE_FAULTCODE, SoapFault, SoapRequest,
                           SoapResponse)

Terminal = Callable[[SoapRequest], SoapResponse]
AsyncTerminal = Callable[[SoapRequest], Awaitable[SoapResponse]]


def _noop_on_wire(bytes_sent: int, bytes_received: int) -> None:
    pass


def _noop_on_transport_error() -> None:
    pass


def _noop_emit_counter(name: str, amount: float = 1.0) -> None:
    pass


@dataclass
class CallContext:
    """Per-call state shared along one client chain.

    ``notes`` is the telemetry side channel from the byte mover to the
    trace step (copied onto the ``send:*`` span when the chain has one);
    the three callbacks are installed by :class:`TransportMetrics` and
    default to no-ops, so movers can report without importing any
    metrics machinery.
    """

    kind: str                      # "http" | "inprocess" | "simulated" | …
    endpoint: str = ""
    service: str = ""
    operation: str = ""
    properties: dict[str, Any] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    on_wire: Callable[[int, int], None] = _noop_on_wire
    on_transport_error: Callable[[], None] = _noop_on_transport_error
    emit_counter: Callable[..., None] = _noop_emit_counter

    def note(self, key: str, value: Any) -> None:
        """Record one span attribute for the chain's trace step."""
        self.notes[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        """Read one chain property (e.g. the gzip step's flag)."""
        return self.properties.get(key, default)


@dataclass
class DispatchContext:
    """Per-call state shared along one server (container) chain."""

    container: Any                 # the owning ServiceContainer
    deployment: Any = None         # set by ResolveDeployment
    span: Any = None               # set by DispatchTrace
    properties: dict[str, Any] = field(default_factory=dict)


class ChainStep:
    """One chain step; subclass and override :meth:`around`.

    ``name`` identifies the step for :func:`chain_names` /
    :func:`chain_without` / :func:`chain_insert_before` composition.
    The client chains take a :class:`CallContext`, the container chain
    a :class:`DispatchContext`; :class:`ClientInterceptor` and
    :class:`ServerHandler` name this one class for each side.
    """

    name = "step"

    def around(self, request: SoapRequest, ctx: Any):
        """Handle one message: a generator whose ``yield request`` is
        the rest of the chain (see the module docstring for the request,
        response and fault flows).  It must be a generator function —
        keep a ``yield`` in it even on paths that answer without one."""
        return (yield request)


ClientInterceptor = ChainStep
ServerHandler = ChainStep


def run_chain(steps, request: SoapRequest, ctx: Any,
              terminal: Terminal) -> SoapResponse:
    """Thread *request* through *steps* (outermost first) into *terminal*.

    Each step's generator is advanced to its ``yield``, the yielded
    request goes to the steps after it, and their response — or the
    exception they raised — is sent (thrown) back in at the ``yield``.
    A step that returns without yielding short-circuits the rest of the
    chain; one that yields again re-enters it.
    """
    def at(index: int, req: SoapRequest) -> SoapResponse:
        if index == len(steps):
            return terminal(req)
        flow = steps[index].around(req, ctx)
        try:
            outbound = next(flow)
            while True:
                try:
                    response = at(index + 1, outbound)
                except BaseException as exc:
                    outbound = flow.throw(exc)
                else:
                    outbound = flow.send(response)
        except StopIteration as done:
            return done.value
        finally:
            flow.close()
    return at(0, request)


async def run_chain_async(steps, request: SoapRequest, ctx: Any,
                          terminal: AsyncTerminal) -> SoapResponse:
    """:func:`run_chain` for an event loop: the same steps, the same
    semantics, an awaited *terminal*.

    Steps are plain generators and run on the loop, so a step that
    blocks (a chaos delay's ``sleep``) blocks the loop for that long.
    Nothing composes the two drivers: a chain runs under one or the
    other from its outermost step down to its terminal.
    """
    async def at(index: int, req: SoapRequest) -> SoapResponse:
        if index == len(steps):
            return await terminal(req)
        flow = steps[index].around(req, ctx)
        try:
            outbound = next(flow)
            while True:
                try:
                    response = await at(index + 1, outbound)
                except BaseException as exc:
                    outbound = flow.throw(exc)
                else:
                    outbound = flow.send(response)
        except StopIteration as done:
            return done.value
        finally:
            flow.close()
    return await at(0, request)


# -- chain composition helpers ---------------------------------------------

def chain_names(steps) -> list[str]:
    """The stable step names of a chain, outermost first."""
    return [step.name for step in steps]


def _position(steps, name: str) -> int:
    for index, step in enumerate(steps):
        if step.name == name:
            return index
    raise ValueError(f"chain has no step named {name!r}; "
                     f"present: {chain_names(steps)}")


def chain_without(steps, name: str) -> list:
    """A copy of *steps* with every step named *name* removed."""
    return [step for step in steps if step.name != name]


def chain_insert_before(steps, name: str, step) -> list:
    """A copy of *steps* with *step* inserted before the step *name*."""
    out = list(steps)
    out.insert(_position(out, name), step)
    return out


def chain_insert_after(steps, name: str, step) -> list:
    """A copy of *steps* with *step* inserted after the step *name*."""
    out = list(steps)
    out.insert(_position(out, name) + 1, step)
    return out


# -- shared helpers ----------------------------------------------------------

def stamp_trace_context(request: SoapRequest, span) -> None:
    """Inject *span*'s trace context into an unstamped request.

    A request already carrying a trace id keeps it (the outermost hop —
    usually the client proxy — wins), so wrapped transports don't
    overwrite the caller's context.
    """
    if span.recording and not request.trace_id:
        request.trace_id = span.trace_id
        request.parent_span_id = span.span_id


def apply_deadline(request: SoapRequest) -> None:
    """Enforce + propagate the ambient deadline on an outgoing request.

    Fails fast (:class:`~repro.errors.DeadlineExceeded`) when the budget
    is already spent, and stamps the remaining seconds onto an unstamped
    request so every hop below this one inherits the (shrinking) budget.
    An explicit ``deadline_s`` set by the caller wins.
    """
    deadline = current_deadline()
    if deadline is None:
        return
    deadline.check(f"send {request.service}.{request.operation}")
    if request.deadline_s is None:
        request.deadline_s = deadline.remaining()


# -- client transport interceptors ------------------------------------------

class TransportTrace(ClientInterceptor):
    """Open the ``send:<kind>`` span and stamp the trace context.

    The byte mover's :meth:`CallContext.note` entries become span
    attributes when the send finishes (successfully or not), mirroring
    the attribute sets the pre-chain transports recorded inline.
    """

    name = "trace"

    def around(self, request, ctx):
        # spans live in contextvars, which are task-local: safe to open
        # under either driver
        attrs = {"endpoint": ctx.endpoint} if ctx.endpoint else None
        with get_tracer().span(f"send:{ctx.kind}", attrs) as span:
            stamp_trace_context(request, span)
            try:
                return (yield request)
            finally:
                for key, value in ctx.notes.items():
                    span.set_attribute(key, value)


class TransportMetrics(ClientInterceptor):
    """Install the metric callbacks the byte mover reports through.

    The mover decides *when* a message pair counts (e.g. the simulated
    transport files its cost even for fault responses, HTTP only once
    the body was read) by invoking ``ctx.on_wire`` at exactly that
    point — this step only decides *where* the numbers go.
    """

    name = "metrics"

    def around(self, request, ctx):
        start = time.perf_counter()
        metrics = get_metrics()

        def on_wire(bytes_sent: int, bytes_received: int) -> None:
            kind = ctx.kind
            metrics.histogram("ws.transport.seconds", transport=kind
                              ).observe(time.perf_counter() - start)
            metrics.counter("ws.transport.messages", transport=kind).inc()
            metrics.counter("ws.transport.bytes_sent",
                            transport=kind).inc(bytes_sent)
            metrics.counter("ws.transport.bytes_received",
                            transport=kind).inc(bytes_received)

        def on_transport_error() -> None:
            metrics.counter("ws.transport.errors",
                            transport=ctx.kind).inc()

        def emit_counter(name: str, amount: float = 1.0) -> None:
            metrics.counter(name).inc(amount)

        ctx.on_wire = on_wire
        ctx.on_transport_error = on_transport_error
        ctx.emit_counter = emit_counter
        return (yield request)


class DeadlineBudget(ClientInterceptor):
    """Fail fast on a spent budget; stamp the remainder on the request."""

    name = "deadline"

    def around(self, request, ctx):
        apply_deadline(request)
        return (yield request)


class GzipNegotiation(ClientInterceptor):
    """Advertise/request gzip content coding (HTTP transports only).

    The mover honours ``ctx.properties["accept_gzip"]``; without this
    step in the chain it defaults to identity encoding.
    """

    name = "gzip"

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def around(self, request, ctx):
        ctx.properties["accept_gzip"] = self.enabled
        return (yield request)


class PayloadRefs(ClientInterceptor):
    """Substitute by-reference params for payloads the peer already holds.

    Owns the per-connection :class:`~repro.ws.payload.PeerState`.  The
    first attempt goes out with by-reference params for everything the
    peer is believed to hold (same-host peers are additionally offered
    shared-memory segment refs for first-time payloads).  With
    ``resend_on_miss=True`` (HTTP / in-process) a miss raised anywhere
    below — including from the far side of the wire — clears the peer
    record and transparently resends fully inline.  With ``False`` (the
    simulated transport) only a miss during externalisation is healed;
    a miss surfacing from the inner transport propagates, matching the
    modelled network's pre-chain semantics.
    """

    name = "payload"

    def __init__(self, resend_on_miss: bool = True):
        self.peer = payload.PeerState()
        self.resend_on_miss = resend_on_miss

    def around(self, request, ctx):
        try:
            outbound = payload.externalize(
                request, self.peer, same_host=bool(ctx.get("same_host")))
            if self.resend_on_miss:
                return (yield outbound)
        except PayloadMissError:
            get_metrics().counter("ws.payload.fallbacks").inc()
            self.peer.clear()
            outbound = payload.internalize(request)
        return (yield outbound)


def default_transport_interceptors(*, compress: bool | None = None,
                                   resend_on_miss: bool = True
                                   ) -> list[ClientInterceptor]:
    """The standard transport chain: trace → metrics → deadline
    → [gzip] → payload.  ``compress`` adds the gzip step (HTTP);
    ``resend_on_miss=False`` selects the simulated transport's
    externalize-only miss fallback."""
    steps: list[ClientInterceptor] = [TransportTrace(), TransportMetrics(),
                                      DeadlineBudget()]
    if compress is not None:
        steps.append(GzipNegotiation(compress))
    steps.append(PayloadRefs(resend_on_miss=resend_on_miss))
    return steps


# -- client proxy interceptors ----------------------------------------------

class ProxyDeadline(ClientInterceptor):
    """Fail fast before building any wire bytes; stamp the budget."""

    name = "deadline"

    def around(self, request, ctx):
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(f"{ctx.service}.{ctx.operation}")
            request.deadline_s = deadline.remaining()
        return (yield request)


class BreakerGate(ClientInterceptor):
    """Per-endpoint circuit breaking around the rest of the chain.

    Every admitted call settles the breaker exactly once, by the
    verdict :mod:`repro.ws.failover` reads from its outcome.  With no
    breaker configured the gate is a no-op.
    """

    name = "breaker"

    def __init__(self, breaker=None):
        self.breaker = breaker

    def around(self, request, ctx):
        if self.breaker is None:
            return (yield request)
        self.breaker.ensure_closed(f"{ctx.service}.{ctx.operation}")
        try:
            response = yield request
        except Exception as exc:
            failover.settle(self.breaker, failover.verdict_of(exc))
            raise
        failover.settle(self.breaker, failover.ANSWERED)
        return response


class CallTrace(ClientInterceptor):
    """Open the client-side ``soap:<service>.<op>`` span.

    Client-side injection: this span becomes the parent of every
    server-side span for the invocation.
    """

    name = "trace"

    def around(self, request, ctx):
        with get_tracer().span(
                f"soap:{ctx.service}.{ctx.operation}") as span:
            batch = soap.batch_size_of(request)
            if batch is not None:
                span.set_attribute("batch_size", batch)
            stamp_trace_context(request, span)
            return (yield request)


class CallMetrics(ClientInterceptor):
    """Per-call count + latency, filed whether the call succeeds or not."""

    name = "metrics"

    def around(self, request, ctx):
        start = time.perf_counter()
        try:
            return (yield request)
        finally:
            elapsed = time.perf_counter() - start
            metrics = get_metrics()
            metrics.counter("ws.client.calls", service=ctx.service,
                            operation=ctx.operation).inc()
            metrics.histogram("ws.client.seconds", service=ctx.service,
                              operation=ctx.operation).observe(elapsed)


def default_proxy_interceptors(breaker=None) -> list[ClientInterceptor]:
    """The standard proxy chain: deadline → breaker → trace → metrics.

    Order is behavioural API: a spent deadline or an open breaker fails
    the call before any span or metric is recorded.
    """
    return [ProxyDeadline(), BreakerGate(breaker), CallTrace(),
            CallMetrics()]


# -- server (container) handlers --------------------------------------------

#: Idempotent results kept process-wide (LRU beyond this).
RESULT_CACHE_ENTRIES = 256

#: Process-global idempotent-result cache.  ``cacheable=True`` declares
#: an operation *pure* — its result is a function of its arguments — so
#: results are shareable across every container hosting the same
#: implementation class (the class is part of the key).
_result_cache = datacache.LruCache(RESULT_CACHE_ENTRIES)


def reset_result_cache() -> None:
    """Drop all cached operation results (test isolation)."""
    _result_cache.clear()


def _params_digest(params: dict[str, Any]) -> str:
    """Order-independent content digest of one call's arguments."""
    canonical = json.dumps(params, sort_keys=True, default=_by_content)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _by_content(value: Any) -> Any:
    """Stand-in for an argument JSON cannot carry.  Binary arguments are
    keyed by what they hold: a ``memoryview``'s ``repr`` is its address,
    which the next mapped or attached frame may reuse."""
    if isinstance(value, (bytes, memoryview)):
        return {"sha256": datacache.content_digest(value)}
    return repr(value)


def _count_server_fault(request: SoapRequest) -> None:
    get_metrics().counter("ws.server.faults", service=request.service,
                          operation=request.operation).inc()


class ResolveRefs(ServerHandler):
    """Turn by-reference parameters back into values (zero-copy views
    for ``via="shm"``, multicall sub-calls included); a digest nobody
    here holds leaves the container as :class:`PayloadMissError`."""

    name = "refs"

    def around(self, request, ctx):
        return (yield payload.resolve_refs(request))


class DispatchTrace(ServerHandler):
    """Open the ``dispatch:`` span, joining the client's trace.

    The request's ``<repro:TraceContext>`` header parents this span when
    no local span (an HTTP handler or in-process transport span) is
    already active.
    """

    name = "trace"

    def around(self, request, ctx):
        tracer = get_tracer()
        parent = tracer.current_span()
        if parent is None and request.trace_id:
            parent = SpanContext(request.trace_id, request.parent_span_id)
        name = f"dispatch:{request.service}.{request.operation}"
        with tracer.span(name, {"container": ctx.container.name},
                         parent=parent) as span:
            ctx.span = span
            return (yield request)


class ResolveDeployment(ServerHandler):
    """Bind the request's service name to a live deployment (or fault)."""

    name = "resolve"

    def around(self, request, ctx):
        ctx.deployment = ctx.container._deployment(request.service)
        if ctx.span is not None:
            ctx.span.set_attribute("lifecycle", ctx.deployment.lifecycle)
        return (yield request)


class DeadlineAnchor(ServerHandler):
    """Re-anchor the caller's remaining budget on this host's clock.

    Every call the service itself makes inherits the scope; a budget
    already spent is rejected before any lifecycle work happens.
    """

    name = "deadline"

    def around(self, request, ctx):
        with deadline_scope(request.deadline_s) as deadline:
            if deadline is not None and deadline.expired:
                _count_server_fault(request)
                get_metrics().counter(
                    "ws.server.deadline_rejections",
                    service=request.service).inc()
                raise SoapFault(
                    DEADLINE_FAULTCODE,
                    f"time budget exhausted before dispatching "
                    f"{request.service}.{request.operation}")
            return (yield request)


class MulticallExpand(ServerHandler):
    """Expand a ``<repro:Multicall>`` batch into per-item dispatches.

    Each sub-call re-enters the rest of the chain (stats → cache →
    lifecycle → faults → dispatch) as its own single-operation request,
    so invocation counts, result-cache hits and ``op:`` spans stay
    item-wise while parse/serialize and the wire exchange happened once
    for the whole batch.  Per-item faults are captured as
    :class:`~repro.ws.soap.CallOutcome` items — one bad row cannot fail
    its siblings — and a budget that expires mid-batch turns the
    remaining items into deadline faults without touching dispatch.
    """

    name = "multicall"

    def around(self, request, ctx):
        if not soap.is_multicall(request):
            return (yield request)
        calls = soap.calls_of(request)
        metrics = get_metrics()
        metrics.histogram("ws.batch.size",
                          service=request.service).observe(len(calls))
        if len(calls) > 1:
            metrics.counter("ws.batch.calls_saved",
                            service=request.service).inc(len(calls) - 1)
        if ctx.span is not None:
            ctx.span.set_attribute("batch_size", len(calls))
        deadline = current_deadline()
        outcomes: list[soap.CallOutcome] = []
        for index, sub in enumerate(calls):
            item = SoapRequest(service=request.service,
                               operation=sub.operation,
                               params=dict(sub.params),
                               trace_id=request.trace_id,
                               parent_span_id=request.parent_span_id)
            if deadline is not None and deadline.expired:
                _count_server_fault(item)
                metrics.counter("ws.server.deadline_rejections",
                                service=request.service).inc()
                outcomes.append(soap.CallOutcome(error=SoapFault(
                    DEADLINE_FAULTCODE,
                    f"time budget exhausted before multicall item "
                    f"{index} ({request.service}.{sub.operation})")))
                continue
            try:
                outcomes.append(
                    soap.CallOutcome(result=(yield item).result))
            except SoapFault as fault:
                outcomes.append(soap.CallOutcome(error=fault))
        return SoapResponse(service=request.service,
                            operation=soap.MULTICALL_OP, result=outcomes)


class InvocationStats(ServerHandler):
    """Count the invocation (cache hits and faults included)."""

    name = "stats"

    def around(self, request, ctx):
        dep = ctx.deployment
        with dep.lock:
            dep.stats.invocations += 1
        return (yield request)


class ResultCache(ServerHandler):
    """Answer repeat invocations of ``cacheable`` operations from cache.

    A hit short-circuits the rest of the chain (no lifecycle work, no
    dispatch); results are deep-copied both ways so callers own their
    objects.
    """

    name = "cache"

    def around(self, request, ctx):
        dep = ctx.deployment
        info = dep.definition.operations.get(request.operation)
        cache_key = None
        if info is not None and info.cacheable and datacache.enabled():
            metrics = get_metrics()
            cache_key = (dep.definition.cls, request.operation,
                         _params_digest(request.params))
            hit = _result_cache.get(cache_key)
            if hit is not None:
                result, approx_bytes = hit
                with dep.lock:
                    dep.stats.cache_hits += 1
                metrics.counter("ws.cache.result.hits",
                                service=request.service).inc()
                metrics.counter("ws.cache.result.bytes_saved",
                                service=request.service).inc(approx_bytes)
                return SoapResponse(service=request.service,
                                    operation=request.operation,
                                    result=copy.deepcopy(result))
            metrics.counter("ws.cache.result.misses",
                            service=request.service).inc()
        response = yield request
        if cache_key is not None:
            # estimate the dispatch cost a future hit avoids by the
            # canonical size of the answer
            approx_bytes = len(json.dumps(response.result, default=repr))
            _result_cache.put(
                cache_key, (copy.deepcopy(response.result), approx_bytes))
        return response


class Lifecycle(ServerHandler):
    """Acquire/release the instance per the deployment's §4.5 lifecycle.

    * ``harness`` — the deployment lock guards only instance creation
      and stats mutation; dispatches run concurrently (one in-memory
      instance serves parallel callers).
    * ``serialize`` — the lock is held across the whole
      unpickle → dispatch → pickle round-trip: the state file *is* the
      serialisation point this 2005-era lifecycle models, so calls stay
      one-at-a-time by design.
    """

    name = "lifecycle"

    def around(self, request, ctx):
        dep = ctx.deployment
        container = ctx.container
        whole_call = dep.lock if dep.lifecycle == "serialize" \
            else contextlib.nullcontext()
        with whole_call:
            with dep.lock:  # re-entrant: already held when serializing
                instance = container._acquire(dep)
            ctx.properties["instance"] = instance
            start = time.perf_counter()
            try:
                return (yield request)
            finally:
                elapsed = time.perf_counter() - start
                with dep.lock:
                    dep.stats.dispatch_seconds += elapsed
                get_metrics().histogram(
                    "ws.server.dispatch.seconds",
                    service=request.service,
                    operation=request.operation).observe(elapsed)
                container._release(dep, instance)


class FaultMapper(ServerHandler):
    """Map dispatch exceptions onto SOAP faults and count them.

    A nested call that ran out of budget mid-dispatch surfaces under
    the dedicated deadline fault code so the caller's client resurfaces
    :class:`DeadlineExceeded`, not a retriable server fault.
    """

    name = "faults"

    def around(self, request, ctx):
        try:
            return (yield request)
        except SoapFault:
            self._record(request, ctx)
            raise
        except DeadlineExceeded as exc:
            self._record(request, ctx)
            raise SoapFault(DEADLINE_FAULTCODE, str(exc)) from exc
        except Exception as exc:
            self._record(request, ctx)
            raise SoapFault("soapenv:Server", str(exc),
                            detail=type(exc).__name__) from exc

    @staticmethod
    def _record(request, ctx) -> None:
        dep = ctx.deployment
        with dep.lock:
            dep.stats.faults += 1
        _count_server_fault(request)


def default_server_handlers() -> list[ServerHandler]:
    """The standard container chain: refs → trace → resolve → deadline
    → multicall → stats → cache → lifecycle → faults.

    Order is behavioural API: every later step sees values, never
    refs, a deadline rejection counts no
    invocation, multicall expansion happens before stats and the result
    cache so each sub-call is counted and cached item-wise, a cache hit
    does no lifecycle work, and instance acquisition failures propagate
    unmapped (they are host errors, not operation faults)."""
    return [ResolveRefs(), DispatchTrace(), ResolveDeployment(),
            DeadlineAnchor(), MulticallExpand(), InvocationStats(),
            ResultCache(), Lifecycle(), FaultMapper()]


# -- server HTTP gateway -----------------------------------------------------

#: Largest request body a front will read (and the most a gzip body
#: may inflate to): the data plane's one body bound.
MAX_BODY_BYTES = payload.MAX_BODY_BYTES

_TEXT = "text/plain; charset=utf-8"
_XML = soap.XML


class HttpResponse(NamedTuple):
    """One answer for a byte loop to frame: it adds only
    ``Content-Length`` and ``Connection``."""

    status: int
    headers: dict[str, str]
    body: bytes


def http_response(status: int, body: bytes, content_type: str = _XML,
                  **extra: str | None) -> HttpResponse:
    """An :class:`HttpResponse` carrying the standard header set.

    *extra* headers are keyed by Python name (``content_encoding`` →
    ``Content-Encoding``); ``None`` values are dropped.
    """
    headers = {"Content-Type": content_type,
               # capability advertisement: clients upgrade dataset
               # arguments from ARFF text to binary columnar frames
               # ("columnar") and move large binary values out of the
               # envelope into attachment parts ("swa")
               "X-Repro-Codecs": "columnar, swa",
               # same-host advertisement: a client seeing its own boot
               # id may send shared-memory payload refs
               "X-Repro-Boot": shm.boot_id()}
    headers.update((name.replace("_", "-").title(), value)
                   for name, value in extra.items() if value is not None)
    return HttpResponse(status, headers, body)


class HttpReject(Exception):
    """A request refused on its head alone; the body was not read, so
    the byte loop answers :attr:`response` and closes the connection."""

    def __init__(self, response: HttpResponse):
        super().__init__(response.status)
        self.response = response


def service_of(target: str) -> str | None:
    """The ``<name>`` of a ``/services/<name>`` request target."""
    parts = [p for p in urlparse(target).path.split("/") if p]
    if len(parts) == 2 and parts[0] == "services":
        return parts[1]
    return None


class HttpGateway:
    """The one request handler behind every HTTP front.

    Everything between "a request head and body arrived" and "status,
    headers and bytes to answer with" lives here — routing, the service
    index, ``?wsdl``, 404/405, ``Content-Length`` validation, and for a
    SOAP POST: unframing (attachment parts, decompression), envelope
    decode, front-door deadline shedding, the ``http:POST`` span, fault
    mapping, response framing (attachment parts, compression) and the
    ``ws.http.*`` metrics — leaving
    :mod:`repro.ws.httpd`, :mod:`repro.ws.aserve` and the mesh front as
    byte loops around :meth:`body_length` and :meth:`handle`.

    *container* is whatever answers behind the front: a
    :class:`~repro.ws.container.ServiceContainer` or the mesh's
    ``MeshIngress``.  The gateway calls ``invoke(request)``,
    ``services()`` and ``wsdl_document(name, address)`` on it.
    :attr:`base_url` is set by the hosting server once it is bound;
    :attr:`pages` maps extra ``GET`` paths to callables returning
    ``(body, content_type)``.
    """

    def __init__(self, container, compress: bool = True):
        self.container = container
        self.compress = compress
        self.base_url = ""
        self.pages: dict[str, Callable[[], tuple[bytes, str]]] = {}

    def body_length(self, target: str, headers: dict[str, str]) -> int:
        """The validated ``Content-Length`` of a request (*headers* keyed
        lowercase), checked before any body byte is read or admitted.

        Raises :class:`HttpReject` — 400 for a non-numeric or negative
        value, 413 above :data:`MAX_BODY_BYTES`.
        """
        raw = headers.get("content-length", "0").strip()
        if raw.isdigit() and int(raw) <= MAX_BODY_BYTES:
            return int(raw)
        status, problem = (413, "exceeds the body limit") if raw.isdigit() \
            else (400, "is not a byte count")
        get_metrics().counter("ws.http.requests",
                              service=service_of(target) or "",
                              status=status).inc()
        raise HttpReject(http_response(
            status, f"Content-Length {raw!r} {problem}".encode(), _TEXT,
            connection="close"))

    def handle(self, method: str, target: str, headers: dict[str, str],
               body: bytes | bytearray) -> HttpResponse:
        """Answer one request (*headers* keyed lowercase).  *body* is
        the caller's to give: attachment values are views of it."""
        name = service_of(target)
        if method == "GET":
            return self._get(urlparse(target), name)
        if method != "POST":
            return http_response(405, b"method not allowed", _TEXT)
        if name is None:
            return http_response(404, b"not found", _TEXT)
        return self._post(name, body, headers)

    def _get(self, parsed, name: str | None) -> HttpResponse:
        path = parsed.path.rstrip("/")
        if path == "/services":
            return http_response(
                200, "\n".join(self.container.services()).encode(), _TEXT)
        if path in self.pages:
            body, content_type = self.pages[path]()
            return http_response(200, body, content_type)
        if name is None or "wsdl" not in parsed.query.lower():
            return http_response(404, b"not found", _TEXT)
        try:
            document = self.container.wsdl_document(
                name, f"{self.base_url}/services/{name}")
        except (ServiceError, SoapFault) as exc:
            return http_response(404, str(exc).encode(), _TEXT)
        except TransportError as exc:
            return http_response(502, str(exc).encode(), _TEXT)
        return http_response(200, document.encode())

    @datacache.digest_scope()  # one request: each buffer hashed once
    def _post(self, name: str, raw: bytes | bytearray,
              headers: dict[str, str]) -> HttpResponse:
        """Serve one ``POST /services/<name>`` body."""
        start = time.perf_counter()
        status = 500
        try:
            try:
                envelope, attachments = soap.unframe(
                    raw, headers.get("content-type"),
                    headers.get("content-encoding"))
                request = soap.decode_request(envelope, attachments)
            except payload.MalformedBody as exc:
                status = exc.http_status
                return http_response(status, str(exc).encode(), _TEXT)
            request.service = name  # the URL wins over the envelope
            request_bytes = len(envelope) + \
                soap.attachment_bytes(attachments)
            if request.deadline_s is not None and request.deadline_s <= 0:
                # budget already spent: reject before dispatch so a
                # hammered server sheds doomed work at the front door
                get_metrics().counter("ws.http.deadline_rejections",
                                      service=name).inc()
                raise DeadlineExceeded(
                    f"time budget exhausted before dispatching "
                    f"POST /services/{name}")
            # tag the handler span with the trace context the SOAP
            # header carried, so server-side spans join the client trace
            parent = SpanContext(request.trace_id,
                                 request.parent_span_id) \
                if request.trace_id else None
            with get_tracer().span(f"http:POST /services/{name}",
                                   {"request_bytes": request_bytes},
                                   parent=parent) as span:
                response = self.container.invoke(request)
                # a client that accepts parts gets large results beside
                # the envelope; any other gets the base64 document
                parts = {} if soap.MULTIPART in \
                    headers.get("accept", "").lower() else None
                body = soap.encode_response(response, parts)
                span.set_attribute("response_bytes", len(body) +
                                   soap.attachment_bytes(parts))
                span.set_attribute("http_status", 200)
            framed = soap.frame(
                body, parts, self.compress and
                "gzip" in headers.get("accept-encoding", "").lower())
            status = 200
            return http_response(200, framed.body, framed.content_type,
                                 content_encoding=framed.content_encoding)
        except PayloadMissError as exc:
            # the client referenced a blob this process does not hold:
            # answer with the dedicated fault so it resends inline
            fault = SoapFault(payload.MISS_FAULTCODE, str(exc),
                              detail=exc.digest)
        except SoapFault as exc:
            fault = exc
        except OverloadedError as exc:
            # admission control shed the call: answer 503 with the
            # dedicated fault so clients back off instead of retrying
            status = 503
            fault = soap.fault_for(exc)
        except DeadlineExceeded as exc:
            fault = SoapFault(DEADLINE_FAULTCODE, str(exc))
        except ServiceError as exc:
            fault = SoapFault("soapenv:Server", str(exc))
        finally:
            metrics = get_metrics()
            metrics.counter("ws.http.requests", service=name,
                            status=status).inc()
            metrics.histogram("ws.http.seconds", service=name).observe(
                time.perf_counter() - start)
        return http_response(status, soap.encode_fault(fault))
