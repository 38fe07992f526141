"""The traced pass: every layer measured from outside, by peeling.

One request is driven at successively deeper public entry points
(``ServiceProxy.call`` -> ``transport.send`` -> the same transport
without its cross-cutting chain steps -> an empty-chain round trip to
each server and scheme -> ``InProcessTransport.send`` ->
``ServiceContainer.invoke`` -> the same with ``[resolve, lifecycle,
faults]`` only -> the service method), the levels interleaved
round-robin so drift hits all of them equally; a layer's self time is
its level minus the next one down.  The peeled request is the no-op:
on a request that does real work the 24 ms kernel's own variation
swamps a 20 us chain step, so the stack's per-call rows are taken where
they are the whole figure and multiplied by how often a workload
crosses them.  What depends on the workload's bytes — ``soap``,
``payload``, ``shm``, ``codec``, ``arff``, the service methods, the
``repro.ml`` kernels, the mesh gateway hop — is called directly on the
workload's own inputs.

A workload crosses some layers and not others.  A probe of a crossed
layer runs on the workload's own input; a probe of an uncrossed layer
runs on the ledger's reference input (a resample of the breast-cancer
data), so every row is a real measurement and the *budget* — which
rows count, and how many times — is what differs between workloads
(``BUDGETS``).  What no row explains is ``ledger.residual_ms``, never
folded into a layer.

Spans are the ledger's own (``measure.Spans``), recorded around the
calls into each layer; tracing inside the program is a later issue.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import time
from pathlib import Path

from ledger.measure import (UNSTEADY, LoopStats, Spans, closed_loop,
                            interleave, median, peak_rss_mb, timed)
from ledger.workloads import SCORED_ROWS, Echo, Workload, run_steps
from repro.data import arff, codec
from repro.ml import evaluation
from repro.ml.classifiers import J48, ZeroR
from repro.obs import enable_tracing, get_metrics, reset_tracing
from repro.services.classifier_service import ClassifierService
from repro.services.j48_service import J48Service
from repro.viz import treeviz
from repro.workflow import TaskGraph, WorkflowEngine, import_wsdl_url
from repro.workflow.model import FunctionTool
from repro.ws import payload, pipeline, shm, soap
from repro.ws.admission import AdmissionController
from repro.ws.aserve import AsyncSoapHttpServer
from repro.ws.client import ServiceProxy
from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer
from repro.ws.mesh import (MeshGateway, MeshRouter, RegistryEndpoints,
                           make_policy)
from repro.ws.registry import UDDIRegistry
from repro.ws.soap import SoapRequest
from repro.ws.transport import InProcessTransport, transport_for

#: Shares of ``--seconds``: the operation three ways (plain / ledger
#: spans / program tracing), the no-op peel, the gateway-hop peel on the
#: workload's own request (mesh workloads), direct probes.
ARMS_SHARE, PEEL_SHARE, HOP_SHARE, PROBE_SHARE = 0.30, 0.15, 0.20, 0.35
TRACED_WARMUP_S = 2.5

#: Which rows explain one first-path operation of each workload, and
#: how many times the operation crosses each (both mesh hops, the three
#: service calls of the case study).  Rows nested inside another row
#: (a kernel inside its service method, shm publish inside externalize,
#: admission inside the server round trip) are reported but not listed
#: here, so nothing is counted twice.
_CALL = ("ws.client.proxy_chain_us", "ws.pipeline.transport_chain_us",
         "ws.pipeline.server_chain_us", "ws.container.invoke_us")
_CODECS = ("ws.soap.encode_request_us", "ws.soap.decode_request_us",
           "ws.soap.encode_response_us", "ws.soap.decode_response_us")
_PLANE = ("ws.payload.externalize_ms", "ws.payload.compress_ms",
          "ws.payload.decompress_ms")
_BULK = {**dict.fromkeys(_CALL, 1), "ws.pipeline.transport_chain_us": 2,
         **dict.fromkeys(_CODECS + _PLANE, 2), "ws.httpd.roundtrip_us": 1,
         "services.classifier.classifyBatch_ms": 1}
BUDGETS: dict[str, dict[str, int]] = {
    "noop_call": {**dict.fromkeys(_CALL + _CODECS, 1),
                  "ws.aserve.roundtrip_us": 1},
    "case_study": {"workflow.engine.overhead_ms": 1,
                   **dict.fromkeys(_CALL, 3), "ws.httpd.roundtrip_us": 3,
                   **dict.fromkeys(_CODECS + _PLANE, 1),
                   "services.j48.classifyGraph_first_ms": 1,
                   "viz.treeviz.plot_ms": 1},
    "bulk_inline": {**_BULK, "ws.aserve.roundtrip_us": 1},
    "bulk_shm": {**_BULK, "ws.aserve.roundtrip_uds_us": 1,
                 "ws.shm.attach_ms": 1},
}


def _counter(name: str) -> float:
    """Current value of a program counter, summed over its labels."""
    return sum(counter.value for series, _labels, counter
               in get_metrics().counters() if series == name)


class _Deltas:
    """Program counters read before and after a window."""

    NAMES = ("ws.payload.ref_sends", "ws.payload.inline_sends",
             "ws.shm.hits", "ws.shm.misses",
             "ws.cache.parse.hits", "ws.cache.parse.misses")

    def __init__(self) -> None:
        self.before = {name: _counter(name) for name in self.NAMES}

    def ratio(self, hits: str, misses: str) -> float:
        hit = _counter(hits) - self.before[hits]
        miss = _counter(misses) - self.before[misses]
        return hit / (hit + miss) if hit + miss else 0.0


def _plane_only(endpoint: str):
    """A transport keeping only the chain steps that shape the bytes
    (gzip negotiation, payload refs): no trace, metrics or deadline."""
    transport = transport_for(endpoint)
    for step in ("trace", "metrics", "deadline"):
        transport.interceptors = pipeline.chain_without(
            transport.interceptors, step)
    return transport


class EchoLab:
    """Reference no-op servers, and the no-op peeled level by level.

    The asyncio server is configured like ``noop_call``'s own (front-
    door admission that never sheds) and also listens on a unix socket;
    the threaded server and a mesh gateway in front of the asyncio one
    give the other serving shapes their rows.
    """

    def __init__(self) -> None:
        self.container = ServiceContainer("ledger-echo")
        self.container.deploy(Echo, "Echo")
        self.bare = ServiceContainer(
            "ledger-echo-bare", handlers=[pipeline.ResolveDeployment(),
                                          pipeline.Lifecycle(),
                                          pipeline.FaultMapper()])
        self.bare.deploy(Echo, "Echo")
        uds_path = os.path.join(tempfile.gettempdir(),
                                f"ledger-echo-{os.getpid()}.sock")
        self.aserve = AsyncSoapHttpServer(
            self.container, admission=AdmissionController(8, 64),
            uds_path=uds_path).start()
        self.httpd = SoapHttpServer(self.container).start()
        registry = UDDIRegistry()
        registry.publish("Echo", self.aserve.wsdl_url("Echo"))
        discovery = RegistryEndpoints(registry)
        self.gateway = MeshGateway(
            MeshRouter(discovery, make_policy("adaptive")),
            discovery).start()
        self.proxy = ServiceProxy.from_wsdl_url(self.aserve.wsdl_url("Echo"))
        tcp = self.aserve.endpoint("Echo")
        self.transports = {
            "plane": _plane_only(tcp),
            "tcp": transport_for(tcp, interceptors=[]),
            "uds": transport_for(self.aserve.uds_endpoint("Echo"),
                                 interceptors=[]),
            "httpd": transport_for(self.httpd.endpoint("Echo"),
                                   interceptors=[]),
            "gated": transport_for(self.gateway.endpoint("Echo")),
            "inprocess": InProcessTransport(self.container,
                                            interceptors=[]),
        }

    def close(self) -> None:
        self.proxy.close()
        for transport in self.transports.values():
            transport.close()
        self.gateway.stop()
        self.aserve.stop()
        self.httpd.stop()

    def peel(self, seconds: float, spans: Spans) -> dict[str, float]:
        """Per-call self times of the stack's own layers, in us."""
        echo = Echo()
        levels = {
            "proxy": lambda req: self.proxy.call("ping", **req.params),
            "transport": self.proxy.transport.send,
            **{name: transport.send
               for name, transport in self.transports.items()},
            "container": self.container.invoke,
            "dispatch": self.bare.invoke,
            "method": lambda req: echo.ping(**req.params),
        }
        tokens = itertools.count()
        at = {name: median(samples) * 1e6 for name, samples in interleave(
            levels, lambda: SoapRequest(
                "Echo", "ping", {"token": f"peel-{next(tokens)}"}),
            seconds, spans, span_prefix="peel:").items()}
        return {
            "ws.client.proxy_chain_us": at["proxy"] - at["transport"],
            "ws.pipeline.transport_chain_us": at["transport"] - at["plane"],
            # socket + HTTP head + server loop + thread hand-off
            "ws.aserve.roundtrip_us": at["tcp"] - at["inprocess"],
            "ws.aserve.roundtrip_uds_us": at["uds"] - at["inprocess"],
            "ws.httpd.roundtrip_us": at["httpd"] - at["inprocess"],
            "ws.pipeline.server_chain_us": at["container"] - at["dispatch"],
            "ws.container.invoke_us": at["dispatch"] - at["method"],
            "ws.mesh.gateway_hop_ms": (at["gated"] - at["transport"]) / 1e3,
        }


def _own_gateway_hop(workload, client, indices, seconds: float,
                     spans: Spans) -> float:
    """The workload's own operation through its gateway, minus the same
    operation sent straight to the worker's announced endpoint (ms)."""
    direct = {service: transport_for(workload.worker_endpoint(service))
              for service in client.proxies}

    def via(transports):
        return lambda item: run_steps(
            workload.steps, item, lambda step, params:
            transports[step.service].send(SoapRequest(
                step.service, step.operation, params)).result)
    front = {s: proxy.transport for s, proxy in client.proxies.items()}
    samples = interleave(
        {"gateway": via(front), "worker": via(direct)},
        lambda: workload.make_input(next(indices)), seconds, spans,
        span_prefix="hop:")
    for transport in direct.values():
        transport.close()
    return (median(samples["gateway"]) - median(samples["worker"])) * 1e3


def _arms(workload, client, indices, seconds: float, spans: Spans):
    """The operation three ways, round-robin: plain, wrapped in ledger
    spans, and with the program's own tracing switched on."""
    stats = {"plain": LoopStats(), "spans": LoopStats(),
             "obs": LoopStats()}
    deltas = _Deltas()
    start = time.perf_counter()
    end = start + seconds
    while time.perf_counter() < end:
        for arm, arm_stats in stats.items():
            enable_tracing(arm == "obs")
            try:
                closed_loop(client, workload.make_input, workload.check,
                            indices, seconds=60.0, stats=arm_stats,
                            spans=spans if arm == "spans" else None,
                            max_ops=1)
            finally:
                enable_tracing(False)
    reset_tracing()
    return stats, deltas, start, time.perf_counter() - start


def _capture(workload, item) -> list[tuple]:
    """One first-contact operation's ``(request, request as sent,
    response)`` triples, answered by an in-process replica."""
    replica = ServiceContainer("ledger-replica")
    for service, cls in workload.services.items():
        replica.deploy(cls, service)
    workload.prepare_replica(replica.call)
    triples = []

    def call(step, params):
        request = SoapRequest(step.service, step.operation, params)
        response = replica.invoke(request)
        sent = payload.externalize(request, payload.PeerState(),
                                   same_host=workload.same_host)
        triples.append((request, sent, response))
        return response.result
    run_steps(workload.steps, item, call)
    return triples


def _noop_graph() -> TaskGraph:
    """The case study's 4-node shape with local no-op tools."""
    graph = TaskGraph("ledger-noop")
    tasks = [graph.add(FunctionTool(f"Noop{i}", lambda value=None: value,
                                    ["value"], ["value"]))
             for i in range(4)]
    for source, target in zip(tasks, tasks[1:]):
        graph.connect(source, target)
    return graph


def _probes(workload: Workload, indices,
            seconds: float) -> dict[str, float]:
    """Direct calls into each layer's public functions; values in the
    unit the metric name ends with."""
    out: dict[str, float] = {}
    fresh = lambda: next(indices)  # noqa: E731

    # the workload's own envelopes (first contact: nothing cached)
    calls = _capture(workload, workload.make_input(fresh()))
    sent = [s for _, s, _ in calls]
    responses = [r for _, _, r in calls]
    wire_req = [soap.encode_request(s) for s in sent]
    wire_resp = [soap.encode_response(r) for r in responses]
    envelopes = wire_req + wire_resp
    packed = [payload.maybe_compress(e) for e in envelopes]
    params = [v for request, _, _ in calls
              for v in request.params.values()
              if isinstance(v, (str, bytes))
              and len(v) >= payload.MIN_REF_BYTES]
    blob = max(params, key=len) if params else wire_req[0]
    blob = blob.encode() if isinstance(blob, str) else bytes(blob)
    # the segment probes use bytes no other code path publishes, so
    # publish always creates and attach always maps and re-hashes
    segment = b"ledger" + blob
    digest = payload.digest_bytes(segment)

    def externalize(_):
        for request, _sent, _resp in calls:
            payload.externalize(request, payload.PeerState(),
                                same_host=workload.same_host)

    def classed(dataset):
        dataset.set_class("Class")
        return dataset

    producer, consumers = shm.SegmentStore(), []

    def unpublished():
        producer.release_owned()
        return producer

    def consumer():
        consumers.append(shm.SegmentStore())
        return consumers[-1]

    models = [J48().fit(classed(workload.tabular(fresh())))
              for _ in range(8)]
    graphs = [model.to_graph() for model in models]
    cycle = itertools.count()
    pick = lambda seq: seq[next(cycle) % len(seq)]  # noqa: E731
    j48_service = J48Service()
    batch_service = ClassifierService()
    rows = SCORED_ROWS

    def batch_frame():
        dataset = workload.batch_dataset(fresh())
        return codec.encode(dataset), dataset.class_attribute.name

    def warm_text():
        text = arff.dumps(workload.tabular(fresh()))
        j48_service.classifyGraph(text, "Class")
        return text

    def zeror(dataset):
        evaluation.bulk_score(ZeroR().fit(dataset), dataset, rows)

    admission = AdmissionController(8, 64)
    engine, noop_graph = WorkflowEngine(), _noop_graph()

    def wsimport(_):
        for service in workload.services:
            import_wsdl_url(workload.wsdl_url(service))

    probes = {
        "ws.soap.encode_request_us":
            (lambda _: [soap.encode_request(s) for s in sent], None),
        "ws.soap.decode_request_us":
            (lambda _: [soap.decode_request(w) for w in wire_req], None),
        "ws.soap.encode_response_us":
            (lambda _: [soap.encode_response(r) for r in responses], None),
        "ws.soap.decode_response_us":
            (lambda _: [soap.decode_response(w) for w in wire_resp], None),
        "ws.payload.digest_ms": (lambda _: payload.digest_bytes(blob), None),
        # with its segments released, the shm tier publishes afresh
        "ws.payload.externalize_ms":
            (externalize, payload.release_shm_segments),
        "ws.payload.compress_ms":
            (lambda _: [payload.maybe_compress(e) for e in envelopes], None),
        "ws.payload.decompress_ms":
            (lambda _: [payload.decompress(body, coding)
                        for body, coding in packed], None),
        "ws.shm.publish_ms":
            (lambda store: store.publish(digest, segment), unpublished),
        "ws.shm.attach_ms": (lambda store: store.attach(digest), consumer),
        "ws.admission.admit_release_us":
            (lambda _: admission.admit().release(), None),
        "data.codec.encode_ms":
            (codec.encode, lambda: workload.batch_dataset(fresh())),
        "data.codec.decode_ms":
            (codec.decode,
             lambda: codec.encode(workload.batch_dataset(fresh()))),
        "data.arff.dumps_ms":
            (arff.dumps, lambda: workload.tabular(fresh())),
        "data.arff.loads_ms":
            (arff.loads, lambda: arff.dumps(workload.tabular(fresh()))),
        "services.j48.classifyGraph_first_ms":
            (lambda text: j48_service.classifyGraph(text, "Class"),
             lambda: arff.dumps(workload.tabular(fresh()))),
        "services.j48.classifyGraph_repeat_ms":
            (lambda text: j48_service.classifyGraph(text, "Class"),
             warm_text),
        "services.classifier.classifyBatch_ms":
            (lambda arg: batch_service.classifyBatch(
                "ZeroR", arg[0], arg[1], rows=rows), batch_frame),
        "ml.j48.fit_ms":
            (lambda dataset: J48().fit(dataset),
             lambda: classed(workload.tabular(fresh()))),
        "ml.j48.to_graph_ms":
            (lambda model: model.to_graph(), lambda: pick(models)),
        "ml.zeror.fit_score_ms":
            (zeror, lambda: workload.batch_dataset(fresh())),
        "viz.treeviz.plot_ms":
            (lambda graph: treeviz.tree_svg(graph, "Figure 4"),
             lambda: pick(graphs)),
        "workflow.engine.overhead_ms":
            (lambda _: engine.run(noop_graph), None),
        "workflow.wsimport.import_ms": (wsimport, None),
    }
    slot = seconds / len(probes)
    for name, (fn, make_arg) in probes.items():
        scale = 1e6 if name.endswith("_us") else 1e3
        out[name] = median(timed(fn, slot, make_arg)) * scale
    for store in (*consumers, producer):
        store.close()
    out["ws.payload.compress_ratio"] = \
        sum(len(body) for body, _ in packed) / sum(map(len, envelopes))
    return out


def run_traced(workload: Workload, seconds: float, smoke: bool,
               out_dir: Path) -> dict:
    """The per-layer pass; returns the result object's pieces."""
    spans = Spans()
    workload.start()
    client = workload.client()
    lab = EchoLab()
    try:
        indices = itertools.count()
        warm = closed_loop(client, workload.make_input, workload.check,
                           indices,
                           seconds=0.3 if smoke else TRACED_WARMUP_S)
        share = ARMS_SHARE + (0 if workload.meshed else HOP_SHARE)
        arms, deltas, start, arms_seconds = _arms(
            workload, client, indices, seconds * share, spans)
        metrics = {
            "ws.payload.ref_hit_ratio": deltas.ratio(
                "ws.payload.ref_sends", "ws.payload.inline_sends"),
            "ws.shm.hit_ratio": deltas.ratio(
                "ws.shm.hits", "ws.shm.misses"),
            "data.parse_memo.hit_ratio": deltas.ratio(
                "ws.cache.parse.hits", "ws.cache.parse.misses"),
        }
        metrics.update(lab.peel(seconds * PEEL_SHARE, spans))
        if workload.meshed:
            metrics["ws.mesh.gateway_hop_ms"] = _own_gateway_hop(
                workload, client, indices, seconds * HOP_SHARE, spans)
        metrics.update(_probes(workload, indices, seconds * PROBE_SHARE))
        metrics["ledger.peak_rss_mb"] = peak_rss_mb(workload.worker_pids())
        problems = workload.verify()
    finally:
        lab.close()
        client.close()
        workload.stop()

    plain_ms = median(arms["plain"].first_s) * 1e3
    # round by round, not median over median: a 160 ms operation yields
    # a dozen rounds, and its own latency modes would drown the ratio
    for name, arm in (("obs.tracing_on_ratio", "obs"),
                      ("ledger.trace_overhead_ratio", "spans")):
        metrics[name] = median([
            other / plain for other, plain
            in zip(arms[arm].first_s, arms["plain"].first_s)])
    rows = {}
    for name, crossings in BUDGETS[workload.name].items():
        each_ms = metrics[name] / (1e3 if name.endswith("_us") else 1.0)
        rows[name] = {"crossings": crossings, "each_ms": each_ms,
                      "total_ms": each_ms * crossings}
    explained = sum(row["total_ms"] for row in rows.values())
    metrics["ledger.coverage"] = explained / plain_ms
    metrics["ledger.residual_ms"] = plain_ms - explained
    spread = arms["plain"].window_spread(start, arms_seconds)
    metrics["ledger.window_spread"] = spread

    spans.dump(out_dir / f"trace_{workload.name}.json", workload.name)
    phases = [warm, *arms.values()]
    failed = sum(s.failed for s in phases)
    return {"correct": failed == 0 and not problems,
            "attempted": sum(s.attempted for s in phases),
            "failed": failed, "metrics": metrics,
            "extra": {"first_path_p50_ms": plain_ms, "rows": rows,
                      "unsteady": spread > UNSTEADY,
                      "problems": problems}}
