"""The workflow enactor.

Executes a :class:`~repro.workflow.model.TaskGraph` as a dataflow: a task
fires once every connected input has a value (the paper's "once a network
has been created it can be executed").  Execution emits
:mod:`~repro.workflow.monitor` events so the §3 "service monitoring"
requirement — watching jobs progress on remote resources — holds for local
and service-backed tasks alike.

Scheduling: ready tasks join one FIFO queue, and the thread that called
:meth:`WorkflowEngine.run` runs its head.  Independent tasks run
concurrently: the first time two tasks are ready at once, a pool of
``max_workers - 1`` threads is made, so ``max_workers`` bounds the tasks
in flight counting the enacting thread.  A linear chain — the §5 case
study's readURL → J48 → extract → plot — therefore starts no thread, and
``max_workers=1`` runs every task on the caller's thread in queue order.
Each task runs in its own copy of the run's entry context: it sees the
run's span and deadline, and a ContextVar one task sets never reaches
the next.  After a fatal failure the tasks already queued still run;
nothing new is queued.

Fault tolerance (§3 category 2) hooks in per task: a
:class:`~repro.workflow.faults.RetryPolicy` retries transient failures and
*migrates* the task to alternate endpoints when its tool publishes
replicas (see :mod:`repro.workflow.faults`).  Three resilience layers
complete the picture:

* **deadline propagation** — ``run(..., deadline_s=...)`` bounds the whole
  enactment; every task (and, through the ambient deadline scope, every
  SOAP call a task makes) inherits the shrinking budget, and an expired
  budget fails the run fast with :class:`~repro.errors.DeadlineExceeded`
  instead of hanging.
* **graceful degradation** — with ``allow_partial=True`` a permanently
  failed task no longer aborts the run: its downstream tasks are marked
  *skipped* and the run completes with ``RunResult.degraded`` set, so a
  mostly-healthy workflow still delivers the outputs it could compute.
* **chaos interception** — when a process-wide
  :class:`~repro.chaos.ChaosController` is armed, every task *attempt*
  is perturbed through it (inside the retry loop), turning any workflow
  into a seeded chaos drill.

Per-task concerns compose as :class:`TaskMiddleware` — the engine-level
sibling of the SOAP stack's :mod:`repro.ws.pipeline` chains.  Each
middleware wraps the task's attempt runner; the default stack is derived
from the armed chaos controller (:class:`ChaosMiddleware`), and an
explicit ``middleware=[...]`` (as :mod:`repro.cli` wires) replaces it.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro import chaos
from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import DeadlineExceeded, EnactmentError, WorkflowError
from repro.obs import get_metrics, get_tracer
from repro.ws.deadline import Deadline, deadline_scope
from repro.workflow.model import Task, TaskGraph
from repro.workflow.monitor import EventBus, TaskEvent


@dataclass
class RunResult:
    """Outputs and timings of one workflow run."""

    graph_name: str
    outputs: dict[tuple[str, int], Any] = field(default_factory=dict)
    durations: dict[str, float] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0
    trace_id: str = ""  # set when tracing is enabled
    failed: dict[str, str] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)

    def output(self, task: str | Task, index: int = 0) -> Any:
        """Value produced at (task, output index)."""
        name = task if isinstance(task, str) else task.name
        key = (name, index)
        if key not in self.outputs:
            raise WorkflowError(
                f"run produced no output {index} for task {name!r}")
        return self.outputs[key]

    @property
    def degraded(self) -> bool:
        """True when the run completed without some of its tasks."""
        return bool(self.failed or self.skipped)

    @property
    def wall_seconds(self) -> float:
        return self.finished_at - self.started_at


class TaskMiddleware:
    """One engine-level chain step wrapping a task's attempt runner.

    :meth:`wrap` receives the task and the runner below it (ultimately
    ``task.tool.run``) and returns a runner with the same
    ``(inputs, parameters) -> outputs`` signature.  The composed runner
    is handed to the retry policy, so every *attempt* passes through
    the whole middleware stack independently.
    """

    name = "middleware"

    def wrap(self, task: Task, runner):
        """Return a (possibly wrapped) attempt runner for *task*."""
        return runner


class ChaosMiddleware(TaskMiddleware):
    """Perturb every task attempt through a chaos controller."""

    name = "chaos"

    def __init__(self, controller):
        self.controller = controller

    def wrap(self, task: Task, runner):
        def perturbed(ins, params):
            self.controller.perturb(f"task:{task.name}")
            return runner(ins, params)
        return perturbed


class WorkflowEngine:
    """Dataflow enactor: the caller's thread, plus a pool for fan-outs."""

    def __init__(self, max_workers: int = 8,
                 events: EventBus | None = None,
                 retry_policy=None, allow_partial: bool = False,
                 clock: Clock = SYSTEM_CLOCK,
                 middleware: list[TaskMiddleware] | None = None):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.events = events or EventBus()
        self.retry_policy = retry_policy
        self.allow_partial = allow_partial
        self.clock = clock
        # None = derive per run from the armed chaos controller;
        # an explicit list (even []) replaces that default
        self.middleware = middleware

    def run(self, graph: TaskGraph,
            inputs: dict[tuple[str, int], Any] | None = None,
            deadline_s: float | None = None) -> RunResult:
        """Execute *graph*; *inputs* optionally seeds (task, input-index)
        values for group execution; *deadline_s* bounds the whole run
        (tightened by any ambient deadline already in scope)."""
        # one root span per run; every task span (and, transitively, every
        # SOAP client/transport/server span a service-backed task incurs)
        # shares its trace id, giving the §3 monitor one coherent tree
        with get_tracer().span(f"workflow:{graph.name}") as wf_span:
            wf_span.set_attribute("tasks", len(graph.tasks))
            # how many document bytes the data-plane fast path kept off
            # the wire during this run (by-reference re-sends)
            saved_counter = get_metrics().counter("ws.payload.bytes_saved")
            saved_before = saved_counter.value
            try:
                with deadline_scope(deadline_s, self.clock) as deadline:
                    return self._run(graph, inputs, wf_span, deadline)
            finally:
                saved = saved_counter.value - saved_before
                wf_span.set_attribute("payload_bytes_saved", int(saved))
                if saved > 0:
                    get_metrics().counter(
                        "workflow.run.bytes_saved",
                        graph=graph.name).inc(saved)

    def _run(self, graph: TaskGraph,
             inputs: dict[tuple[str, int], Any] | None,
             wf_span: Any, deadline: Deadline | None) -> RunResult:
        graph.validate()
        if deadline is not None:
            deadline.check(f"workflow {graph.name!r}")
        order = graph.topological_order()
        assert order is not None
        result = RunResult(graph_name=graph.name,
                           trace_id=wf_span.trace_id)
        result.started_at = time.time()
        self.events.emit(TaskEvent("workflow", graph.name, "started"))

        # dependency bookkeeping
        pending: dict[str, set[int]] = {}
        values: dict[tuple[str, int], Any] = {}
        seeded = dict(inputs or {})
        for task in graph.tasks:
            connected = {c.target_index for c in graph.incoming(task.name)}
            needed = set(connected)
            for idx in range(task.num_inputs):
                if (task.name, idx) in seeded:
                    needed.discard(idx)
            pending[task.name] = needed

        lock = threading.Lock()
        wake = threading.Condition(lock)  # the enacting thread idles on it
        errors: list[Exception] = []
        ready: deque[Task] = deque()  # FIFO: submission order
        pool: ThreadPoolExecutor | None = None
        pooled = 0  # pool threads holding a task
        drains: list[Future] = []
        # every task runs in its own copy of this: it sees the run's span
        # and deadline, and no task's ContextVar writes reach another
        entry = contextvars.copy_context()
        middleware = self.middleware
        if middleware is None:
            controller = chaos.active()
            middleware = [ChaosMiddleware(controller)] \
                if controller is not None else []

        def gather_inputs(task: Task) -> list[Any]:
            row: list[Any] = [None] * task.num_inputs
            for idx in range(task.num_inputs):
                key = (task.name, idx)
                if key in seeded:
                    row[idx] = seeded[key]
                elif key in values:
                    row[idx] = values[key]
            return row

        def skip_downstream(name: str) -> list[str]:
            """Mark every task depending (transitively) on *name* as
            skipped; such tasks are waiting on an input that will never
            arrive, so none of them can have been scheduled.  Caller
            holds the lock; returns the newly skipped names."""
            newly: list[str] = []
            frontier = [name]
            dead = set(result.failed) | set(result.skipped)
            while frontier:
                for cable in graph.outgoing(frontier.pop()):
                    target = cable.target
                    if target in dead or target in result.durations:
                        continue
                    dead.add(target)
                    result.skipped.append(target)
                    newly.append(target)
                    frontier.append(target)
            return newly

        def fail_task(task: Task, exc: Exception) -> None:
            self.events.emit(TaskEvent("task", task.name, "failed",
                                       detail=repr(exc)))
            get_metrics().counter("workflow.task.failures",
                                  graph=graph.name).inc()
            # an expired budget is never degradable: the user asked for
            # an answer in bounded time and must learn — fast — that
            # there isn't one
            fatal = not self.allow_partial or \
                isinstance(exc, DeadlineExceeded)
            with lock:
                if fatal:
                    if isinstance(exc, DeadlineExceeded):
                        errors.append(exc)
                    else:
                        errors.append(EnactmentError(task.name, exc))
                    return
                result.failed[task.name] = repr(exc)
                skipped_now = skip_downstream(task.name)
            for name in skipped_now:
                self.events.emit(TaskEvent(
                    "task", name, "skipped",
                    detail=f"upstream task {task.name!r} failed"))
                get_metrics().counter("workflow.task.skipped",
                                      graph=graph.name).inc()

        def execute(task: Task) -> None:
            self.events.emit(TaskEvent("task", task.name, "started"))
            start = time.perf_counter()
            try:
                with get_tracer().span(f"task:{task.name}") as task_span:
                    task_span.set_attribute("tool", task.tool.name)
                    if deadline is not None:
                        deadline.check(f"task {task.name!r}")
                    ins = gather_inputs(task)
                    params = task.effective_parameters()
                    runner = None
                    if middleware:
                        def base(i, p, _t=task):
                            return _t.tool.run(i, p)
                        runner = base
                        for step in reversed(middleware):
                            runner = step.wrap(task, runner)
                    if self.retry_policy is not None:
                        outs = self.retry_policy.run_task(
                            task, ins, params, runner=runner)
                    elif runner is not None:
                        outs = runner(ins, params)
                    else:
                        outs = task.tool.run(ins, params)
            except Exception as exc:
                fail_task(task, exc)
                return
            duration = time.perf_counter() - start
            get_metrics().histogram("workflow.task.seconds",
                                    task=task.name).observe(duration)
            self.events.emit(TaskEvent("task", task.name, "finished",
                                       detail=f"{duration:.4f}s"))
            with lock:
                result.durations[task.name] = duration
                for idx, value in enumerate(outs):
                    result.outputs[(task.name, idx)] = value
                for cable in graph.outgoing(task.name):
                    values[(cable.target, cable.target_index)] = \
                        outs[cable.source_index]
                    waiting = pending[cable.target]
                    waiting.discard(cable.target_index)
                    # a fatal failure has settled the run: what is
                    # queued still runs, nothing new is scheduled
                    if not waiting and not errors:
                        waiting.add(-1)  # mark scheduled
                        ready.append(graph.task(cable.target))
                if ready:
                    wake.notify()

        def next_task() -> Task | None:
            """Pop the queue's head for the calling thread and hand the
            tasks behind it to pool threads while the pool has room; the
            pool is made here, the first time two tasks are ready at
            once.  Caller holds the lock."""
            nonlocal pool, pooled
            if not ready:
                return None
            task = ready.popleft()
            while ready and pooled < self.max_workers - 1:
                if pool is None:
                    pool = ThreadPoolExecutor(self.max_workers - 1)
                pooled += 1
                drains.append(pool.submit(drain, ready.popleft()))
            return task

        def drain(task: Task | None) -> None:
            """A pool thread's loop: run, then keep taking the head."""
            nonlocal pooled
            try:
                while task is not None:
                    entry.copy().run(execute, task)
                    with lock:
                        task = next_task()
            finally:
                with lock:
                    pooled -= 1
                    wake.notify()

        # kick off every task whose inputs are already satisfied
        initial = [graph.task(name) for name in order
                   if not pending[name]]
        for task in initial:
            pending[task.name].add(-1)
        if not initial and graph.tasks:
            raise WorkflowError(
                f"graph {graph.name!r} has no runnable source task")
        if not graph.tasks:
            result.finished_at = time.time()
            return result
        # the enacting thread is a worker too: it runs the head of the
        # queue, idles while only pool threads hold tasks, and returns
        # once the queue is empty and no task is in flight
        try:
            with lock:
                ready.extend(initial)
                task = next_task()
            while task is not None:
                entry.copy().run(execute, task)
                with lock:
                    task = next_task()
                    while task is None and pooled:
                        wake.wait()
                        task = next_task()
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        for drained in drains:
            drained.result()  # an engine defect on a pool thread surfaces
        result.finished_at = time.time()
        metrics = get_metrics()
        metrics.counter("workflow.runs", graph=graph.name).inc()
        metrics.histogram("workflow.run.seconds",
                          graph=graph.name).observe(result.wall_seconds)
        if errors:
            self.events.emit(TaskEvent("workflow", graph.name, "failed",
                                       detail=str(errors[0])))
            raise errors[0]
        if result.degraded:
            wf_span.set_attribute("degraded", True)
            metrics.counter("workflow.degraded_runs",
                            graph=graph.name).inc()
            self.events.emit(TaskEvent(
                "workflow", graph.name, "degraded",
                detail=f"{len(result.failed)} failed, "
                       f"{len(result.skipped)} skipped"))
        self.events.emit(TaskEvent("workflow", graph.name, "finished"))
        return result
