"""The four workloads: what runs, on which inputs, and what is right.

Every workload is a *call chain* — an ordered list of service calls,
each fed by the one before — plus a seeded input generator and an
answer check.  The chain form is what lets the traced pass replay the
same request at successively deeper entry points (see ``layers.py``).

Inputs come only from ``(seed, index)``; the program under test sees
nothing but the generated requests.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.data import arff, codec, synthetic
from repro.data.attribute import Attribute
from repro.data.dataset import Dataset
from repro.errors import DataError
from repro.ml.classifiers import J48, ZeroR
from repro.services.classifier_service import ClassifierService
from repro.services.data_service import DataService
from repro.services.deploy import serve_toolbox
from repro.services.j48_service import J48Service
from repro.services.plot_service import TreeVisualizerService
from repro.workflow import TaskGraph, WorkflowEngine, import_wsdl_url
from repro.workflow.model import FunctionTool
from repro.ws import payload, shm
from repro.ws.admission import AdmissionController
from repro.ws.aserve import AsyncSoapHttpServer
from repro.ws.client import ServiceProxy
from repro.ws.container import ServiceContainer
from repro.ws.mesh import start_mesh
from repro.ws.service import operation
from repro.ws.transport import unix_url

#: Bulk frame shape: 20 000 rows x (8 numeric + class) is ~1.3 MB RCF1.
FRAME_ROWS = 20_000
FRAME_FEATURES = 8
#: Rows scored per bulk call: keeps the response small, so the timed
#: quantity is the request data plane.
SCORED_ROWS = list(range(256))
#: Case-study dataset pool; must exceed the 64-entry parse memo so the
#: first enactment of a dataset is always cold.
POOL = 96

_FRAME_ATTRS = [Attribute.numeric(f"f{j}") for j in range(FRAME_FEATURES)]
_FRAME_ATTRS.append(Attribute.nominal("class", ("neg", "pos")))


class Echo:
    """The no-op service: kernel and data layers do nothing."""

    @operation
    def ping(self, token: str) -> str:
        """Return *token* unchanged."""
        return token


@dataclass
class Step:
    """One service call of an operation.

    ``params(item, previous)`` builds the call's parameters from the
    operation's input and the previous step's (post-processed) result.
    """

    service: str
    operation: str
    params: Callable[[Any, Any], dict]
    post: Callable[[Any], Any] | None = None


def resample(base: Dataset, seed: int, slot: int) -> Dataset:
    """A bootstrap resample of *base* determined by ``(seed, slot)``."""
    rng = np.random.default_rng([seed, slot])
    size = base.num_instances
    return base.subset(rng.integers(0, size, size=size))


def run_steps(steps: list[Step], item: Any,
              call: Callable[[Step, dict], Any]) -> Any:
    """Run a call chain, sending each step through ``call``."""
    previous = None
    for step in steps:
        previous = call(step, step.params(item, previous))
        if step.post is not None:
            previous = step.post(previous)
    return previous


class Client:
    """One closed-loop client: its own proxies, its own connections."""

    def __init__(self, workload: "Workload"):
        self.workload = workload
        self.proxies = {
            service: ServiceProxy.from_wsdl_url(workload.wsdl_url(service))
            for service in workload.services}

    def first(self, item: Any) -> Any:
        """The operation as a user sends it."""
        return run_steps(
            self.workload.steps, item,
            lambda step, params: self.proxies[step.service].call(
                step.operation, **params))

    #: The immediate re-send of the same input: the cache-served path.
    repeat = first

    def wire(self) -> int:
        """Request + response bytes this client has moved so far."""
        return sum(proxy.transport.bytes_sent +
                   proxy.transport.bytes_received
                   for proxy in self.proxies.values())

    def close(self) -> None:
        for proxy in self.proxies.values():
            proxy.close()


class Workload:
    """Base: a served call chain, seeded inputs and an answer check."""

    name = ""
    why = ""
    #: service name -> implementation class (for in-process replicas)
    services: dict[str, type] = {}
    steps: list[Step] = []
    #: requests to the client-facing endpoint pass through a mesh gateway
    meshed = False
    #: the client's peer shares its host, so large params go by segment
    same_host = False
    #: allocates megabytes per call (see ``run._settle_memory``)
    bulk = False
    #: first-contact operations whose wire bytes are reported
    wire_ops = 64

    def __init__(self, seed: int):
        self.seed = seed
        self._base: Dataset | None = None

    # -- serving ---------------------------------------------------------
    def start(self) -> None:
        """Set up, remembering which shm segments were already there."""
        self._segments_before = set(_segments())
        self.setup()

    def stop(self) -> None:
        """Tear down; the hosting process owns the segments it published
        (any same-host peer gets them, tcp loopback included), so it
        releases them, and nothing of this run's may be left behind."""
        try:
            self.teardown()
        finally:
            payload.release_shm_segments()
        left = set(_segments()) - self._segments_before
        if left:
            raise RuntimeError(f"shm segments left behind: {sorted(left)}")

    def setup(self) -> None:
        raise NotImplementedError

    def wsdl_url(self, service: str) -> str:
        """WSDL URL of the endpoint a user of this workload talks to."""
        raise NotImplementedError

    def client(self) -> Client:
        return Client(self)

    def worker_pids(self) -> list[int]:
        return []

    def verify(self) -> list[str]:
        """Workload-level assertions after the run; returns problems."""
        return []

    def teardown(self) -> None:
        raise NotImplementedError

    # -- inputs and answers ----------------------------------------------
    def make_input(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, item: Any, answer: Any) -> bool:
        raise NotImplementedError

    def prepare_replica(self, call: Callable[..., Any]) -> None:
        """Give an in-process replica whatever state the served one was
        given in set-up, through ``call(service, operation, **params)``
        (default: nothing)."""

    # -- reference inputs for probes of layers this workload skips -------
    def base_dataset(self) -> Dataset:
        """The paper's dataset (Figure 4), made once."""
        if self._base is None:
            self._base = synthetic.breast_cancer()
        return self._base

    def tabular(self, index: int) -> Dataset:
        """A never-seen-before nominal dataset for the arff / J48 / viz
        probes: a resample of the breast-cancer data from a stream no
        case-study pool slot shares, so no cache has met it."""
        return resample(self.base_dataset(), self.seed, POOL + index)

    def batch_dataset(self, index: int) -> Dataset:
        """A never-seen-before dataset for the codec / batch-scoring
        probes, class attribute set."""
        dataset = self.tabular(index)
        dataset.set_class("Class")
        return dataset


class NoopCall(Workload):
    name = "noop_call"
    why = ("Echo.ping over tcp loopback into the asyncio server with "
           "front-door admission: kernel and data layers do ~0 work, so "
           "the stack's own per-call cost is the whole figure")
    services = {"Echo": Echo}
    steps = [Step("Echo", "ping", lambda item, _: {"token": item})]

    def setup(self) -> None:
        container = ServiceContainer("ledger-noop")
        container.deploy(Echo, "Echo")
        # never sheds: two closed-loop clients can hold two slots at most
        admission = AdmissionController(max_concurrent=8, max_queue=64)
        self.server = AsyncSoapHttpServer(
            container, admission=admission).start()

    def wsdl_url(self, service: str) -> str:
        return self.server.wsdl_url(service)

    def teardown(self) -> None:
        self.server.stop()

    def make_input(self, index: int) -> str:
        return f"token-{self.seed}-{index}"

    def check(self, item: str, answer: Any) -> bool:
        return answer == item


@dataclass
class Enactment:
    """One case-study input: which pool dataset to enact."""

    slot: int
    url: str


class _CaseStudyClient(Client):
    """Enacts the composition with the workflow engine."""

    def __init__(self, workload: "CaseStudy"):
        self.workload = workload
        tools = {}
        for service in workload.services:
            for tool in import_wsdl_url(workload.wsdl_url(service)):
                tools[tool.name] = tool
        self.proxies = {name.split(".")[0]: tool.proxy
                        for name, tool in tools.items()}
        graph = TaskGraph("case-study")
        self.read = graph.add(tools["Data.readURL"], url="")
        classify = graph.add(tools["J48.classifyGraph"], attribute="Class")
        extract = graph.add(FunctionTool(
            "ExtractGraph", lambda result: result["graph"],
            ["result"], ["graph"]))
        self.plot = graph.add(tools["TreeVisualizer.plotTree"],
                              format="svg", title="Figure 4")
        graph.connect(self.read, classify, target_index=0)
        graph.connect(classify, extract)
        graph.connect(extract, self.plot, target_index=0)
        self.graph = graph
        self.engine = WorkflowEngine()

    def first(self, item: Enactment) -> str:
        self.read.parameters["url"] = item.url
        return self.engine.run(self.graph).output(self.plot)

    repeat = first


class CaseStudy(Workload):
    name = "case_study"
    why = ("the paper's section-5 composition (readURL -> J48 -> extract "
           "-> plotTree) enacted by the workflow engine on the threaded "
           "server: ml and data layers do most of the work, the wire "
           "little")
    services = {"Data": DataService, "J48": J48Service,
                "TreeVisualizer": TreeVisualizerService}
    steps = [
        Step("Data", "readURL", lambda item, _: {"url": item.url}),
        Step("J48", "classifyGraph",
             lambda _, text: {"dataset": text, "attribute": "Class"},
             post=lambda result: result["graph"]),
        Step("TreeVisualizer", "plotTree",
             lambda _, graph: {"graph": graph, "format": "svg",
                               "title": "Figure 4"}),
    ]

    def __init__(self, seed: int):
        super().__init__(seed)
        self._roots: dict[int, str | None] = {}

    def pool_dataset(self, slot: int) -> Dataset:
        """Slot 0 is the paper's dataset, ``synthetic.breast_cancer()``
        (Figure 4); the others are bootstrap resamples of it drawn from
        ``(seed, slot)`` — distinct content, distinct trees.  A fresh
        synthetic draw per slot would cost 100x as much (set-up is
        timed three times a run) and would make the tree-building work
        itself vary by seed, which is input noise, not a measurement."""
        return self.base_dataset() if slot == 0 else \
            resample(self.base_dataset(), self.seed, slot)

    def setup(self) -> None:
        self.pool_text = [arff.dumps(self.pool_dataset(slot))
                          for slot in range(POOL)]
        self.host = serve_toolbox()
        data = ServiceProxy.from_wsdl_url(self.host.wsdl_url("Data"))
        try:
            self.urls = [data.publishDataset(name=f"ledger-{slot}",
                                             dataset=text)
                         for slot, text in enumerate(self.pool_text)]
        finally:
            data.close()

    def prepare_replica(self, call: Callable[..., Any]) -> None:
        for slot, text in enumerate(self.pool_text):
            call("Data", "publishDataset", name=f"ledger-{slot}",
                 dataset=text)

    def wsdl_url(self, service: str) -> str:
        return self.host.wsdl_url(service)

    def client(self) -> Client:
        return _CaseStudyClient(self)

    def teardown(self) -> None:
        self.host.stop()

    def make_input(self, index: int) -> Enactment:
        slot = index % POOL
        return Enactment(slot, self.urls[slot])

    def expected_root(self, slot: int) -> str | None:
        """The root an in-process J48 picks for this pool dataset."""
        if slot not in self._roots:
            dataset = self.pool_dataset(slot)
            dataset.set_class("Class")
            model = J48()
            model.fit(dataset)
            try:
                self._roots[slot] = model.root_attribute
            except DataError:  # single-leaf tree: no attribute to name
                self._roots[slot] = None
        return self._roots[slot]

    def check(self, item: Enactment, answer: Any) -> bool:
        if not isinstance(answer, str) or not answer.startswith("<svg"):
            return False
        root = self.expected_root(item.slot)
        if item.slot == 0 and root != "node-caps":
            return False  # the paper's Figure 4
        return root is None or root in answer


@dataclass
class Frame:
    """One bulk input: an encoded dataset and its majority class."""

    data: bytes
    majority: str


def frame_dataset(seed: int, index: int) -> Dataset:
    """A fresh 20 000 x 9 dataset from ``(seed, index)`` alone."""
    rng = np.random.default_rng([seed, index])
    dataset = Dataset(f"ledger-{seed}-{index}", _FRAME_ATTRS)
    dataset._bulk_extend(np.column_stack([
        rng.normal(size=(FRAME_ROWS, FRAME_FEATURES)),
        rng.integers(0, 2, size=FRAME_ROWS).astype(float)]))
    dataset.set_class("class")
    return dataset


class _Bulk(Workload):
    """classifyBatch(ZeroR) on a fresh ~1.3 MB frame through a 1-worker
    mesh.  Fresh, because a cycled pool would travel by reference."""

    services = {"Classifier": ClassifierService}
    steps = [Step("Classifier", "classifyBatch",
                  lambda item, _: {"classifier": "ZeroR",
                                   "dataset": item.data,
                                   "attribute": "class",
                                   "rows": SCORED_ROWS})]
    meshed = True
    bulk = True
    transport = ""
    scheme = ""

    def setup(self) -> None:
        self._shm_before = payload.shm_counters()
        self.host = start_mesh(workers=1, services=["Classifier"],
                               transport=self.transport)

    def wsdl_url(self, service: str) -> str:
        return self.host.wsdl_url(service)

    def worker_endpoint(self, service: str) -> str:
        """The worker's own announced endpoint, same scheme as the
        gateway dials — the 'one hop fewer' target of the peel."""
        handle = self.host.supervisor.handles[0]
        if self.transport == "uds":
            return unix_url(handle.uds_path, f"/services/{service}")
        return f"{handle.base_url}/services/{service}"

    def worker_pids(self) -> list[int]:
        return [h.pid for h in self.host.supervisor.handles if h.alive]

    def shm_delta(self, name: str) -> float:
        return payload.shm_counters().get(name, 0) - \
            self._shm_before.get(name, 0)

    def verify(self) -> list[str]:
        problems = []
        schemes = set(self.host.router.transport_schemes().values())
        if schemes != {self.scheme}:
            problems.append(f"gateway dialled {sorted(schemes)}, "
                            f"expected only {self.scheme!r}")
        return problems

    def teardown(self) -> None:
        processes = [h.process for h in self.host.supervisor.handles]
        self.host.stop()
        alive = [p.pid for p in processes
                 if p is not None and p.poll() is None]
        if alive:
            raise RuntimeError(f"mesh workers still running: {alive}")

    def batch_dataset(self, index: int) -> Dataset:
        return frame_dataset(self.seed, index)

    def make_input(self, index: int) -> Frame:
        dataset = frame_dataset(self.seed, index)
        majority = ZeroR().fit(dataset).predict_label(dataset[0])
        return Frame(codec.encode(dataset), majority)

    def check(self, item: Frame, answer: Any) -> bool:
        return isinstance(answer, dict) and answer.get("errors") == [] \
            and answer.get("labels") == [item.majority] * len(SCORED_ROWS)


class BulkInline(_Bulk):
    name = "bulk_inline"
    why = ("the cross-host-shaped plane: base64 RCF1 in the envelope, "
           "gzip negotiation and the by-ref store over tcp on both mesh "
           "hops, shm off; ws.soap and ws.payload do nearly all the work")
    transport = "tcp"
    scheme = "http"
    wire_ops = 16  # 180 ms each, and they differ by 0.01 %

    def setup(self) -> None:
        payload.set_shm_enabled(False)
        super().setup()

    def verify(self) -> list[str]:
        problems = super().verify()
        if self.shm_delta("ws.shm.publishes"):
            problems.append("shm tier published segments while disabled")
        return problems

    def teardown(self) -> None:
        try:
            super().teardown()
        finally:
            payload.set_shm_enabled(True)


class BulkShm(_Bulk):
    name = "bulk_shm"
    why = ("the same frames through a uds mesh with the shm tier on: "
           "segments publish/attach/re-hash and codec decode dominate "
           "while base64, gzip and XML do almost nothing")
    transport = "uds"
    scheme = "uds"
    same_host = True

    def verify(self) -> list[str]:
        problems = super().verify()
        if self.shm_delta("ws.shm.publish_failures"):
            problems.append("shm publish failed; frames fell back inline")
        if not self.shm_delta("ws.shm.publishes"):
            problems.append("shm tier never published a segment")
        return problems


def _segments() -> list[str]:
    return glob.glob(os.path.join("/dev/shm", shm.SEGMENT_PREFIX + "*"))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (NoopCall, CaseStudy, BulkInline, BulkShm)}
