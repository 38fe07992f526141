"""Chain fusion: a linear run of imported service tools behind one front
travels as one multicall exchange.

What is pinned: the served §5 case study makes three POSTs on a fresh
client (its peer has not yet advertised ``chain``) and two on every
later enactment, with identical outputs; every case the engine must not
fuse keeps one POST per node; and over random linear chains of served
operations, failing items included, a fused run is indistinguishable
from an unfused one in outputs, ``failed``/``skipped``, per-node events
and per-item server spans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import chaos, obs
from repro.chaos.plan import ChaosPlan
from repro.data import arff
from repro.errors import EnactmentError, ServiceError
from repro.workflow import (RetryPolicy, TaskGraph, TaskMiddleware,
                            WorkflowEngine, import_wsdl_url)
from repro.workflow.model import FunctionTool
from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer
from repro.ws.mesh import MeshGateway, MeshRouter, RegistryEndpoints
from repro.ws.mesh.router import make_policy
from repro.ws.registry import UDDIRegistry
from repro.ws.service import operation


class Source:
    @operation
    def emit(self, n: int) -> int:
        """Return *n*."""
        return n


class Arith:
    @operation
    def add(self, x: int, k: int) -> int:
        """*x* + *k*."""
        return x + k

    @operation
    def mul(self, x: int, k: int) -> int:
        """*x* times *k*."""
        return x * k

    @operation
    def neg(self, x: int) -> int:
        """Minus *x*."""
        return -x

    @operation
    def fail(self, x: int) -> int:
        """Always fault."""
        raise ServiceError(f"refused {x}")

    @operation
    def nothing(self, x: int) -> int:
        """Return no value."""
        return None

    @operation
    def fallback(self, x: int = 7) -> int:
        """*x*, 7 when absent."""
        return x


def _container() -> ServiceContainer:
    container = ServiceContainer("fusion")
    container.deploy(Source, "Source")
    container.deploy(Arith, "Arith")
    return container


@pytest.fixture(scope="module")
def server():
    with SoapHttpServer(_container()) as front:
        yield front


def posts() -> int:
    """POSTs answered so far by every front in this process."""
    return int(sum(counter.value for series, _labels, counter
                   in obs.get_metrics().counters()
                   if series == "ws.http.requests"))


def tools_at(source_url: str, arith_url: str) -> dict:
    tools = {}
    for url in (source_url, arith_url):
        tools.update((tool.name, tool) for tool in import_wsdl_url(url))
    return tools


def linear(tools: dict, ops: list[tuple[str, int]], n: int):
    """Source.emit(n) → each ``(operation, k)`` in turn."""
    graph = TaskGraph("linear")
    tasks = [graph.add(tools["Source.emit"], name="t0", n=n)]
    for position, (op, k) in enumerate(ops, start=1):
        params = {"k": k} if op in ("add", "mul") else {}
        tasks.append(graph.add(tools[f"Arith.{op}"], name=f"t{position}",
                               **params))
        graph.connect(tasks[-2], tasks[-1], target_index=0)
    return graph, tasks


def warm(tools: dict) -> None:
    """One call per proxy, so each transport learns its peer's codecs."""
    for proxy in {id(t.proxy): t.proxy for t in tools.values()}.values():
        if "emit" in proxy.operations():
            proxy.call("emit", n=0)
        else:
            proxy.call("neg", x=0)


def posts_per_run(engine: WorkflowEngine, graph: TaskGraph) -> int:
    before = posts()
    engine.run(graph)
    return posts() - before


# -- the served case study ---------------------------------------------------

class TestCaseStudy:
    def _graph(self, hosted_toolbox):
        tools = {}
        for service in ("Data", "J48", "TreeVisualizer"):
            tools.update((t.name, t) for t in import_wsdl_url(
                hosted_toolbox.server.wsdl_url(service)))
        graph = TaskGraph("case-study")
        read = graph.add(tools["Data.readURL"], url="")
        classify = graph.add(tools["J48.classifyGraph"], attribute="Class")
        extract = graph.add(FunctionTool(
            "ExtractGraph", lambda result: result["graph"],
            ["result"], ["graph"]))
        plot = graph.add(tools["TreeVisualizer.plotTree"], format="svg",
                         title="Figure 4")
        graph.connect(read, classify, target_index=0)
        graph.connect(classify, extract)
        graph.connect(extract, plot, target_index=0)
        return graph, read, classify, plot

    def test_three_posts_on_a_fresh_client_then_two(self, hosted_toolbox,
                                                   breast_cancer):
        url = hosted_toolbox.container.call(
            "Data", "publishDataset", name="fusion-case",
            dataset=arff.dumps(breast_cancer))
        graph, read, classify, plot = self._graph(hosted_toolbox)
        read.parameters["url"] = url
        engine = WorkflowEngine()
        counts, runs = [], []
        for _ in range(3):
            before = posts()
            runs.append(engine.run(graph))
            counts.append(posts() - before)
        assert counts == [3, 2, 2]
        first = runs[0]
        for later in runs[1:]:
            assert later.outputs == first.outputs
            assert set(later.durations) == set(first.durations)
        assert first.output(plot).startswith("<svg")
        assert "node-caps" in first.output(plot)

    def test_a_traced_repeat_makes_one_post_and_send_fewer(
            self, hosted_toolbox, breast_cancer):
        url = hosted_toolbox.container.call(
            "Data", "publishDataset", name="fusion-traced",
            dataset=arff.dumps(breast_cancer))
        graph, read, classify, plot = self._graph(hosted_toolbox)
        read.parameters["url"] = url
        engine = WorkflowEngine()
        engine.run(graph)  # the fresh client learns "chain"
        obs.enable_tracing()
        engine.run(graph)
        spans = obs.get_tracer().collector.spans()
        names = [s.name for s in spans]
        assert sum(n.startswith("http:POST") for n in names) == 2
        assert names.count("send:http") == 2
        # still one task span per node, and one op span per item
        assert sorted(n for n in names if n.startswith("task:")) == \
            sorted(f"task:{t}" for t in
                   ("Data.readURL", "J48.classifyGraph", "ExtractGraph",
                    "TreeVisualizer.plotTree"))
        assert [n for n in names if n.startswith("op:")] == [
            "op:Data.readURL", "op:J48.classifyGraph",
            "op:TreeVisualizer.plotTree"]


# -- what fusion must leave alone -------------------------------------------

class TestFusesOnlyWhenSafe:
    def test_a_linear_chain_on_one_front_is_one_post(self, server):
        tools = tools_at(server.wsdl_url("Source"), server.wsdl_url("Arith"))
        graph, tasks = linear(tools, [("add", 2), ("mul", 3)], 1)
        assert posts_per_run(WorkflowEngine(), graph) == 3  # not learned
        assert posts_per_run(WorkflowEngine(), graph) == 1
        assert WorkflowEngine().run(graph).output(tasks[-1]) == 9

    def test_through_the_mesh_gateway(self, server):
        registry = UDDIRegistry()
        for service in ("Source", "Arith"):
            registry.publish(service, server.wsdl_url(service))
        discovery = RegistryEndpoints(registry)
        router = MeshRouter(discovery, make_policy("static"))
        with MeshGateway(router, discovery) as gateway:
            tools = tools_at(gateway.wsdl_url("Source"),
                             gateway.wsdl_url("Arith"))
            warm(tools)
            graph, _ = linear(tools, [("add", 2), ("neg", 0)], 1)
            # gateway and worker each answer every node's POST
            assert posts_per_run(WorkflowEngine(), graph) == 2 * 3
            assert not tools["Source.emit"].proxy.speaks("chain")
        assert not [name for name in obs.get_metrics().snapshot()[
            "histograms"] if name.startswith("ws.batch.size")]

    def test_across_two_servers(self):
        with SoapHttpServer(_container()) as one, \
                SoapHttpServer(_container()) as two:
            tools = tools_at(one.wsdl_url("Source"), two.wsdl_url("Arith"))
            warm(tools)
            graph, tasks = linear(tools, [("add", 2)], 1)
            assert posts_per_run(WorkflowEngine(), graph) == 2
            assert WorkflowEngine().run(graph).output(tasks[-1]) == 3

    @pytest.mark.parametrize("engine", [
        lambda: WorkflowEngine(retry_policy=RetryPolicy()),
        lambda: WorkflowEngine(middleware=[TaskMiddleware()]),
    ], ids=["retry_policy", "task_middleware"])
    def test_when_something_wraps_task_attempts(self, server, engine):
        tools = tools_at(server.wsdl_url("Source"), server.wsdl_url("Arith"))
        warm(tools)
        graph, _ = linear(tools, [("add", 2), ("neg", 0)], 1)
        assert posts_per_run(engine(), graph) == 3

    def test_under_armed_chaos(self, server):
        tools = tools_at(server.wsdl_url("Source"), server.wsdl_url("Arith"))
        warm(tools)
        graph, _ = linear(tools, [("add", 2), ("neg", 0)], 1)
        chaos.install(ChaosPlan([]))
        assert posts_per_run(WorkflowEngine(), graph) == 3

    def test_across_a_fan_out_and_a_fan_in(self, server):
        tools = tools_at(server.wsdl_url("Source"), server.wsdl_url("Arith"))
        warm(tools)
        out = TaskGraph("fan-out")
        src = out.add(tools["Source.emit"], n=2)
        for op in ("neg", "fallback"):
            out.connect(src, out.add(tools[f"Arith.{op}"]), target_index=0)
        assert posts_per_run(WorkflowEngine(max_workers=1), out) == 3
        into = TaskGraph("fan-in")
        left = into.add(tools["Source.emit"], name="left", n=2)
        right = into.add(tools["Source.emit"], name="right", n=5)
        add = into.add(tools["Arith.add"])
        into.connect(left, add, target_index=0)
        into.connect(right, add, target_index=1)
        result = WorkflowEngine(max_workers=1).run(into)
        assert result.output(add) == 7
        assert posts_per_run(WorkflowEngine(max_workers=1), into) == 3

    def test_across_differing_principals(self, server):
        tools = tools_at(server.wsdl_url("Source"), server.wsdl_url("Arith"))
        warm(tools)
        tools["Arith.add"].proxy.principal = "someone-else"
        graph, _ = linear(tools, [("add", 2), ("neg", 0)], 1)
        assert posts_per_run(WorkflowEngine(), graph) == 2  # emit | add+neg

    def test_when_the_fed_input_is_also_a_task_parameter(self, server):
        tools = tools_at(server.wsdl_url("Source"), server.wsdl_url("Arith"))
        warm(tools)
        graph = TaskGraph("fallback")
        src = graph.add(tools["Arith.nothing"], x=1)
        sink = graph.add(tools["Arith.fallback"], x=3)
        graph.connect(src, sink, target_index=0)
        assert posts_per_run(WorkflowEngine(), graph) == 2
        # unfused: the None result falls back to the task parameter
        assert WorkflowEngine().run(graph).output(sink) == 3

    def test_a_none_result_falls_back_to_the_default(self, server):
        tools = tools_at(server.wsdl_url("Source"), server.wsdl_url("Arith"))
        warm(tools)
        graph = TaskGraph("none")
        src = graph.add(tools["Arith.nothing"], x=1)
        sink = graph.add(tools["Arith.fallback"])
        graph.connect(src, sink, target_index=0)
        assert posts_per_run(WorkflowEngine(), graph) == 1
        assert WorkflowEngine().run(graph).output(sink) == 7


# -- fused ≡ unfused -------------------------------------------------------

def _enact(server, ops, n, allow_partial, middleware):
    """One run from fresh, warmed tools; everything observable about it."""
    tools = tools_at(server.wsdl_url("Source"), server.wsdl_url("Arith"))
    warm(tools)
    graph, tasks = linear(tools, ops, n)
    engine = WorkflowEngine(allow_partial=allow_partial,
                            middleware=middleware)
    events = []
    engine.events.subscribe(lambda e: events.append(
        (e.kind, e.name, e.status,
         e.detail if e.status in ("failed", "skipped") else "")))
    obs.reset_tracing()
    obs.enable_tracing()
    before = posts()
    try:
        result = engine.run(graph)
        seen = {"outputs": result.outputs, "failed": result.failed,
                "skipped": result.skipped,
                "durations": set(result.durations)}
    except EnactmentError as exc:
        seen = {"error": (exc.task_name, repr(exc.cause))}
    seen["events"] = events
    seen["op_spans"] = [s.name for s in obs.get_tracer().collector.spans()
                        if s.name.startswith("op:")]
    for proxy in {id(t.proxy): t.proxy for t in tools.values()}.values():
        proxy.close()
    return seen, posts() - before


@given(ops=st.lists(st.tuples(st.sampled_from(["add", "mul", "neg", "fail"]),
                              st.integers(-4, 4)), min_size=1, max_size=5),
       n=st.integers(-9, 9), allow_partial=st.booleans())
@settings(max_examples=25, deadline=None)
def test_fused_runs_are_indistinguishable_from_unfused(server, ops, n,
                                                       allow_partial):
    unfused, unfused_posts = _enact(server, ops, n, allow_partial,
                                    [TaskMiddleware()])
    fused, fused_posts = _enact(server, ops, n, allow_partial, None)
    assert fused == unfused
    assert unfused_posts == len(unfused["op_spans"])  # one per node run
    assert fused_posts == 1
