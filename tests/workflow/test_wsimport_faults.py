"""WSDL import into the toolbox, fault tolerance and monitoring."""

import pytest

from repro.clock import FakeClock
from repro.data import arff
from repro.errors import (DeadlineExceeded, EnactmentError,
                          TransportError)
from repro.ws.deadline import deadline_scope
from repro.ws import (InProcessTransport, ServiceContainer, ServiceProxy,
                      operation, wsdl)
from repro.ws.service import ServiceDefinition
from repro.workflow import (EventBus, ProgressMonitor,
                            ReplicatedServiceTool, RetryPolicy, TaskGraph,
                            ToolBox, WorkflowEngine, import_wsdl_text,
                            import_wsdl_url)
from repro.workflow.model import FunctionTool, Task


class Flaky:
    """Fails a configurable number of times, then answers."""

    def __init__(self) -> None:
        self.failures_left = 0

    @operation
    def answer(self, question: str) -> str:
        if self.failures_left > 0:
            self.failures_left -= 1
            raise RuntimeError("transient")
        return f"42 ({question})"


class TestWsImport:
    def test_import_creates_tool_per_operation(self, hosted_toolbox):
        box = ToolBox()
        tools = import_wsdl_url(hosted_toolbox.wsdl_url("J48"), box)
        names = {t.name for t in tools}
        assert names == {"J48.classify", "J48.classifyGraph",
                         "J48.classifyDot", "J48.classifyBatch",
                         "J48.distributionBatch"}
        assert all(t.is_web_service for t in tools)
        assert all(t.name in box for t in tools)

    def test_tooltip_shows_wsdl_and_types(self, hosted_toolbox):
        tools = import_wsdl_url(hosted_toolbox.wsdl_url("J48"))
        classify = next(t for t in tools if t.name.endswith(".classify"))
        tip = classify.tooltip()
        assert "?wsdl" in tip and "dataset: xsd:string" in tip

    def test_imported_tool_runs_in_graph(self, hosted_toolbox,
                                         breast_cancer):
        tools = import_wsdl_url(hosted_toolbox.wsdl_url("J48"))
        classify = next(t for t in tools if t.name.endswith(".classify"))
        g = TaskGraph()
        t = g.add(classify, dataset=arff.dumps(breast_cancer),
                  attribute="Class")
        result = WorkflowEngine().run(g)
        assert "node-caps" in result.output(t)

    def test_import_from_text_with_transport(self, breast_cancer):
        container = ServiceContainer()
        from repro.services import J48Service
        definition = container.deploy(J48Service, "J48")
        document = wsdl.generate(definition, "inproc://J48")
        tools = import_wsdl_text(document,
                                 InProcessTransport(container))
        classify = next(t for t in tools if t.name.endswith(".classify"))
        [out] = classify.run([arff.dumps(breast_cancer), "Class", None],
                             {})
        assert "node-caps" in out


class TestRetryPolicy:
    def make_task(self, failures, exc_type=TransportError):
        state = {"left": failures}

        def work(**kw):
            if state["left"] > 0:
                state["left"] -= 1
                raise exc_type("flaky")
            return "ok"

        tool = FunctionTool("Work", work, [], ["out"])
        return Task("work", tool)

    def test_retries_then_succeeds(self):
        policy = RetryPolicy(max_retries=2, clock=FakeClock())
        assert policy.run_task(self.make_task(2), [], {}) == ["ok"]

    def test_exhausted_retries_raise(self):
        policy = RetryPolicy(max_retries=1, clock=FakeClock())
        with pytest.raises(TransportError):
            policy.run_task(self.make_task(5), [], {})

    def test_backoff_schedule_is_linear_on_the_injected_clock(self):
        clock = FakeClock()
        policy = RetryPolicy(max_retries=3, backoff_s=0.5, clock=clock)
        assert policy.run_task(self.make_task(3), [], {}) == ["ok"]
        # attempt n backs off n * backoff_s; no wall-clock sleeping
        assert clock.sleeps == [pytest.approx(0.5), pytest.approx(1.0),
                                pytest.approx(1.5)]

    def test_no_backoff_never_touches_the_clock(self):
        clock = FakeClock()
        policy = RetryPolicy(max_retries=2, clock=clock)
        policy.run_task(self.make_task(2), [], {})
        assert clock.sleeps == []

    def test_backoff_never_sleeps_past_the_deadline(self):
        clock = FakeClock()
        policy = RetryPolicy(max_retries=5, backoff_s=2.0, clock=clock)
        with deadline_scope(3.0, clock):
            with pytest.raises(DeadlineExceeded):
                # first backoff (2s) fits the 3s budget; the second (4s)
                # cannot, so the policy surfaces the expiry instead of
                # sleeping into it
                policy.run_task(self.make_task(5), [], {})
        assert clock.sleeps == [pytest.approx(2.0)]

    def test_expired_budget_stops_retries_immediately(self):
        clock = FakeClock()
        policy = RetryPolicy(max_retries=5, clock=clock)
        attempts = {"n": 0}

        def work(**kw):
            attempts["n"] += 1
            clock.advance(10.0)  # the attempt itself burns the budget
            raise TransportError("slow failure")

        from repro.workflow.model import FunctionTool, Task
        task = Task("slow", FunctionTool("Slow", work, [], ["out"]))
        with deadline_scope(5.0, clock):
            with pytest.raises(DeadlineExceeded):
                policy.run_task(task, [], {})
        assert attempts["n"] == 1  # no doomed retry attempts

    def test_programming_errors_fail_fast(self):
        # the default retry_on covers transient transport/service errors
        # only: a bug in a tool must not be retried with backoff
        attempts = {"n": 0}

        def buggy(**kw):
            attempts["n"] += 1
            raise TypeError("programming error")

        task = Task("buggy", FunctionTool("Buggy", buggy, [], ["out"]))
        policy = RetryPolicy(max_retries=5, clock=FakeClock())
        with pytest.raises(TypeError):
            policy.run_task(task, [], {})
        assert attempts["n"] == 1

    def test_retry_on_opt_in_still_supported(self):
        policy = RetryPolicy(max_retries=3, retry_on=(RuntimeError,),
                             clock=FakeClock())
        task = self.make_task(2, exc_type=RuntimeError)
        assert policy.run_task(task, [], {}) == ["ok"]

    def test_retry_events_emitted(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        policy = RetryPolicy(max_retries=3, events=bus,
                             clock=FakeClock())
        policy.run_task(self.make_task(2), [], {})
        assert sum(1 for e in events if e.status == "retried") == 2

    def test_engine_with_retry_policy(self):
        state = {"left": 1}

        def work(**kw):
            if state["left"] > 0:
                state["left"] -= 1
                raise TransportError("flaky")
            return "done"

        g = TaskGraph()
        t = g.add(FunctionTool("W", work, [], ["out"]))
        engine = WorkflowEngine(retry_policy=RetryPolicy(
            max_retries=2, clock=FakeClock()))
        assert engine.run(g).output(t) == "done"


class TestJobMigration:
    """§3: 'complete the task if a fault occurs by moving the job to
    another resource'."""

    def make_replicas(self, n_dead: int, n_total: int = 3):
        proxies = []
        definition = ServiceDefinition.from_class(Flaky, "Flaky")
        for i in range(n_total):
            container = ServiceContainer()
            instance = Flaky()
            if i < n_dead:
                instance.failures_left = 10 ** 6  # permanently broken
            container.deploy(Flaky, "Flaky", factory=lambda s=instance: s)
            document = wsdl.generate(definition, f"inproc://r{i}")
            proxies.append(ServiceProxy.from_wsdl_text(
                document, InProcessTransport(container)))
        return proxies

    def test_migrates_past_dead_replicas(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        tool = ReplicatedServiceTool(
            "FlakyAnswer", self.make_replicas(2), "answer",
            ["question"], events=bus)
        [out] = tool.run(["why"], {})
        assert out.startswith("42")
        assert len(tool.migrations) == 2
        assert sum(1 for e in events if e.status == "migrated") == 2

    def test_all_replicas_dead(self):
        tool = ReplicatedServiceTool(
            "FlakyAnswer", self.make_replicas(3), "answer", ["question"])
        with pytest.raises(EnactmentError):
            tool.run(["why"], {})

    def test_first_replica_healthy_no_migration(self):
        tool = ReplicatedServiceTool(
            "FlakyAnswer", self.make_replicas(0), "answer", ["question"])
        [out] = tool.run(["why"], {})
        assert out.startswith("42")
        assert tool.migrations == []

    @staticmethod
    def scripted_tool(*scripts):
        """A tool over fake proxies, each raising/returning its script
        entry, with one threshold-1 breaker per replica."""
        from repro.ws.breaker import CircuitBreaker

        class Scripted:
            def __init__(self, action):
                self.action = action

            def call(self, operation, **params):
                if isinstance(self.action, Exception):
                    raise self.action
                return self.action

        breakers = [CircuitBreaker(f"inproc://r{i}", failure_threshold=1,
                                   clock=FakeClock())
                    for i in range(len(scripts))]
        tool = ReplicatedServiceTool(
            "Scripted", [Scripted(s) for s in scripts], "answer",
            ["question"], breakers=breakers)
        return tool, breakers

    def test_shed_tries_the_next_replica(self):
        from repro.errors import OverloadedError
        from repro.obs import get_metrics
        tool, breakers = self.scripted_tool(
            OverloadedError("busy", retry_after_s=0.5), "42")
        assert tool.run(["why"], {}) == ["42"]
        assert [replica for replica, _ in tool.migrations] == [0]
        assert breakers[0].state == "closed"
        assert get_metrics().counter(
            "ws.breaker.successes", endpoint="inproc://r0").value == 1

    def test_every_replica_shed_backs_off_not_fails(self):
        from repro.errors import OverloadedError
        tool, _ = self.scripted_tool(
            OverloadedError("busy", retry_after_s=0.5),
            OverloadedError("busy", retry_after_s=0.2),
            OverloadedError("busy"))
        with pytest.raises(OverloadedError) as exc_info:
            tool.run(["why"], {})
        assert exc_info.value.retry_after_s == pytest.approx(0.2)

    def test_a_shed_beside_a_dead_replica_is_still_a_failure(self):
        from repro.errors import OverloadedError
        tool, _ = self.scripted_tool(OverloadedError("busy"),
                                     TransportError("gone"))
        with pytest.raises(EnactmentError, match="gone"):
            tool.run(["why"], {})

    def test_needs_at_least_one_replica(self):
        from repro.errors import WorkflowError
        with pytest.raises(WorkflowError):
            ReplicatedServiceTool("X", [], "answer", ["question"])


class TestMonitoring:
    def test_monitor_tracks_lifecycle(self):
        bus = EventBus()
        monitor = ProgressMonitor(bus)
        g = TaskGraph()
        t1 = g.add(FunctionTool("A", lambda **kw: 1, [], ["out"]),
                   name="a")
        t2 = g.add(FunctionTool("B", lambda x: x, ["x"], ["out"]),
                   name="b")
        g.connect(t1, t2)
        WorkflowEngine(events=bus).run(g)
        assert monitor.finished() == ["a", "b"]
        timeline = monitor.timeline()
        assert "started" in timeline and "finished" in timeline

    def test_monitor_records_failure(self):
        bus = EventBus()
        monitor = ProgressMonitor(bus)
        g = TaskGraph()
        g.add(FunctionTool("Bad", lambda **kw: 1 / 0, [], ["out"]),
              name="bad")
        with pytest.raises(EnactmentError):
            WorkflowEngine(events=bus).run(g)
        assert monitor.failed() == ["bad"]

    def test_unsubscribe(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        bus.unsubscribe(events.append)
        from repro.workflow.monitor import TaskEvent
        bus.emit(TaskEvent("task", "x", "started"))
        assert events == []
