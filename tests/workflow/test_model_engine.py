"""Workflow model + enactor tests."""

import threading

import pytest

from repro.errors import CableError, EnactmentError, WorkflowError
from repro.workflow import (EventBus, FunctionTool, GroupTool,
                            ProgressMonitor, TaskGraph, WorkflowEngine)


def const(value, name="Const"):
    return FunctionTool(name, lambda **kw: value, [], ["out"])


ADD = FunctionTool("Add", lambda a, b: a + b, ["a", "b"], ["sum"])
DOUBLE = FunctionTool("Double", lambda x: 2 * x, ["x"], ["out"])
SPLIT = FunctionTool("Split", lambda x: (x, -x), ["x"], ["pos", "neg"])


class TestGraphConstruction:
    def test_add_auto_names(self):
        g = TaskGraph()
        t1 = g.add(DOUBLE)
        t2 = g.add(DOUBLE)
        assert t1.name == "Double" and t2.name == "Double-2"

    def test_connect_validates_indices(self):
        g = TaskGraph()
        a = g.add(const(1))
        b = g.add(ADD)
        g.connect(a, b, target_index=0)
        with pytest.raises(CableError):
            g.connect(a, b, source_index=5)
        with pytest.raises(CableError):
            g.connect(a, b, target_index=9)

    def test_double_connection_rejected(self):
        g = TaskGraph()
        a = g.add(const(1))
        b = g.add(DOUBLE)
        g.connect(a, b)
        with pytest.raises(CableError):
            g.connect(a, b)

    def test_self_cable_rejected(self):
        g = TaskGraph()
        t = g.add(DOUBLE)
        with pytest.raises(CableError):
            g.connect(t, t)

    def test_cycle_rejected(self):
        g = TaskGraph()
        a = g.add(DOUBLE, name="a")
        b = g.add(DOUBLE, name="b")
        g.connect(a, b)
        with pytest.raises(CableError):
            g.connect(b, a)

    def test_remove_task_drops_cables(self):
        g = TaskGraph()
        a = g.add(const(1))
        b = g.add(DOUBLE)
        g.connect(a, b)
        g.remove_task(b.name)
        assert g.cables == []

    def test_topological_order(self):
        g = TaskGraph()
        a = g.add(const(1), name="src")
        b = g.add(DOUBLE, name="mid")
        c = g.add(DOUBLE, name="dst")
        g.connect(a, b)
        g.connect(b, c)
        assert g.topological_order() == ["src", "mid", "dst"]

    def test_sources_and_sinks(self):
        g = TaskGraph()
        a = g.add(const(1))
        b = g.add(DOUBLE)
        g.connect(a, b)
        assert g.sources() == [a] and g.sinks() == [b]

    def test_unconnected_inputs(self):
        g = TaskGraph()
        a = g.add(const(1))
        b = g.add(ADD)
        g.connect(a, b, target_index=0)
        assert g.unconnected_inputs(b.name) == [1]

    def test_unknown_task(self):
        with pytest.raises(WorkflowError):
            TaskGraph().task("ghost")


class TestEnactment:
    def test_linear_pipeline(self):
        g = TaskGraph()
        src = g.add(const(5))
        mid = g.add(DOUBLE)
        g.connect(src, mid)
        result = WorkflowEngine().run(g)
        assert result.output(mid) == 10

    def test_fan_out_and_in(self):
        g = TaskGraph()
        src = g.add(const(3))
        split = g.add(SPLIT)
        add = g.add(ADD)
        g.connect(src, split)
        g.connect(split, add, source_index=0, target_index=0)
        g.connect(split, add, source_index=1, target_index=1)
        result = WorkflowEngine().run(g)
        assert result.output(add) == 0

    def test_parameters_feed_unconnected_inputs(self):
        g = TaskGraph()
        t = g.add(FunctionTool("Greet",
                               lambda greeting="hi": f"{greeting} world",
                               [], ["text"]), greeting="hello")
        result = WorkflowEngine().run(g)
        assert result.output(t) == "hello world"

    def test_parallel_execution(self):
        """Independent tasks overlap: the barrier trips only once all
        four are in flight at the same moment; run serially, the first
        task would wait out the timeout and the run would fail."""
        together = threading.Barrier(4, timeout=30)

        def meet(**kw):
            together.wait()
            return 1

        g = TaskGraph()
        tasks = [g.add(FunctionTool(f"S{i}", meet, [], ["out"]))
                 for i in range(4)]
        result = WorkflowEngine(max_workers=4).run(g)
        assert all(result.output(t) == 1 for t in tasks)

    def test_failure_raises_enactment_error(self):
        def boom(**kw):
            raise ValueError("nope")

        g = TaskGraph()
        g.add(FunctionTool("Boom", boom, [], ["out"]), name="boom")
        with pytest.raises(EnactmentError) as err:
            WorkflowEngine().run(g)
        assert err.value.task_name == "boom"

    def test_events_emitted(self):
        bus = EventBus()
        monitor = ProgressMonitor(bus)
        g = TaskGraph()
        src = g.add(const(1), name="src")
        dst = g.add(DOUBLE, name="dst")
        g.connect(src, dst)
        WorkflowEngine(events=bus).run(g)
        assert monitor.finished() == ["dst", "src"]
        assert monitor.failed() == []
        assert "workflow" in monitor.timeline()

    def test_durations_recorded(self):
        g = TaskGraph()
        t = g.add(const(1))
        result = WorkflowEngine().run(g)
        assert t.name in result.durations
        assert result.wall_seconds >= 0

    def test_missing_output_lookup(self):
        g = TaskGraph()
        t = g.add(const(1))
        result = WorkflowEngine().run(g)
        with pytest.raises(WorkflowError):
            result.output(t, 5)

    def test_seeded_inputs(self):
        g = TaskGraph()
        add = g.add(ADD, name="add")
        result = WorkflowEngine().run(
            g, inputs={("add", 0): 4, ("add", 1): 6})
        assert result.output(add) == 10


class TestGroupTool:
    def test_group_runs_subgraph(self):
        inner = TaskGraph("inner")
        d1 = inner.add(DOUBLE, name="d1")
        d2 = inner.add(DOUBLE, name="d2")
        inner.connect(d1, d2)
        group = GroupTool("Quadruple", inner,
                          input_map=[("d1", 0)], output_map=[("d2", 0)])
        outer = TaskGraph("outer")
        src = outer.add(const(3))
        quad = outer.add(group)
        outer.connect(src, quad)
        result = WorkflowEngine().run(outer)
        assert result.output(quad) == 12

    def test_group_validates_ports(self):
        inner = TaskGraph("inner")
        inner.add(DOUBLE, name="d1")
        with pytest.raises(CableError):
            GroupTool("G", inner, input_map=[("d1", 7)],
                      output_map=[("d1", 0)])

    def test_nested_groups(self):
        inner = TaskGraph("inner")
        d = inner.add(DOUBLE, name="d")
        level1 = GroupTool("x2", inner, [("d", 0)], [("d", 0)])
        mid = TaskGraph("mid")
        t = mid.add(level1, name="g")
        level2 = GroupTool("x2-again", mid, [("g", 0)], [("g", 0)])
        outer = TaskGraph("outer")
        src = outer.add(const(5))
        g = outer.add(level2)
        outer.connect(src, g)
        assert WorkflowEngine().run(outer).output(g) == 10
