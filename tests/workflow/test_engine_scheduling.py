"""The enactor's scheduling rule.

The enacting thread runs tasks from a FIFO ready queue; a pool is made
only when two tasks are ready at once, and ``max_workers`` bounds the
tasks in flight counting the enacting thread.  Every task runs in its own
copy of the run's entry context.
"""

import contextvars
import threading

import pytest

from repro.workflow import FunctionTool, TaskGraph, WorkflowEngine
from repro.workflow import engine as engine_module

MARK = contextvars.ContextVar("scheduling_test_mark", default="unset")


@pytest.fixture()
def pools(monkeypatch):
    """Every ThreadPoolExecutor the engine constructs."""
    made = []
    real = engine_module.ThreadPoolExecutor

    def counted(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(engine_module, "ThreadPoolExecutor", counted)
    return made


def chain(*fns):
    """A linear graph: each tool feeds the next."""
    g = TaskGraph("chain")
    tasks = [g.add(FunctionTool(f"T{i}", fn, [] if i == 0 else ["x"],
                                ["out"]), name=f"t{i}")
             for i, fn in enumerate(fns)]
    for source, target in zip(tasks, tasks[1:]):
        g.connect(source, target)
    return g, tasks


def test_linear_chain_runs_on_the_callers_thread_without_a_pool(pools):
    caller = threading.get_ident()
    seen = []

    def step(x=0):
        seen.append(threading.get_ident())
        return x + 1

    g, tasks = chain(step, step, step, step)
    result = WorkflowEngine().run(g)
    assert result.output(tasks[-1]) == 4
    assert seen == [caller] * 4
    assert pools == []


def test_one_worker_runs_in_fifo_order_on_the_callers_thread(pools):
    ran = []

    def mark(name):
        def fn(x=0):
            ran.append((name, threading.get_ident()))
            return x
        return fn

    g = TaskGraph("fifo")
    src = g.add(FunctionTool("Src", mark("src"), [], ["out"]), name="src")
    mids = [g.add(FunctionTool(f"M{k}", mark(f"m{k}"), ["x"], ["out"]),
                  name=f"m{k}") for k in range(3)]
    for mid in mids:
        g.connect(src, mid)
    down = g.add(FunctionTool("Down", mark("down"), ["x"], ["out"]),
                 name="down")
    g.connect(mids[0], down)
    WorkflowEngine(max_workers=1).run(g)
    assert [name for name, _ in ran] == ["src", "m0", "m1", "m2", "down"]
    assert {ident for _, ident in ran} == {threading.get_ident()}
    assert pools == []


@pytest.mark.parametrize("max_workers", [1, 2, 7])
def test_fan_out_never_exceeds_max_workers_in_flight(max_workers, pools):
    """2N tasks meet in rounds of ``max_workers`` at a barrier: each round
    trips only with that many in flight at once; the counter shows no
    round held more, and only the caller and a pool one thread smaller
    ever ran a task."""
    width = 2 * max_workers
    together = threading.Barrier(max_workers, timeout=30)
    lock = threading.Lock()
    flight = {"now": 0, "peak": 0}
    threads = set()

    def meet(xs, _k):
        with lock:
            threads.add(threading.get_ident())
            flight["now"] += 1
            flight["peak"] = max(flight["peak"], flight["now"])
        together.wait()
        with lock:
            flight["now"] -= 1
        return xs[_k]

    g = TaskGraph("fan-out")
    source = g.add(FunctionTool("Source", lambda: list(range(width)), [],
                                ["out"]), name="source")
    sink = g.add(FunctionTool("Sink", lambda *xs: sum(xs),
                              [f"i{k}" for k in range(width)], ["out"]),
                 name="sink")
    for k in range(width):
        mid = g.add(FunctionTool(f"Meet{k}",
                                 lambda xs, _k=k: meet(xs, _k), ["xs"],
                                 ["out"]), name=f"mid{k}")
        g.connect(source, mid)
        g.connect(mid, sink, target_index=k)
    result = WorkflowEngine(max_workers=max_workers).run(g)
    assert result.output(sink) == sum(range(width))
    assert flight["peak"] == max_workers
    assert threading.get_ident() in threads
    assert len(threads) <= max_workers
    assert len(pools) == (0 if max_workers == 1 else 1)
    assert all(pool._max_workers == max_workers - 1 for pool in pools)


def test_context_vars_do_not_leak_between_tasks():
    """Each task sees the caller's value, whatever the task before it
    set, and the caller's own value is untouched by the run."""
    seen = []

    def setter(x=0):
        seen.append(MARK.get())
        MARK.set("leaked")
        return x

    g, _ = chain(setter, setter, setter)
    token = MARK.set("entry")
    try:
        WorkflowEngine().run(g)
        assert MARK.get() == "entry"
    finally:
        MARK.reset(token)
    assert seen == ["entry", "entry", "entry"]
