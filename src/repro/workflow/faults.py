"""Fault tolerance: retries and job migration (§3 category 2).

    "The framework must therefore include the ability to complete the task
    if a fault occurs by moving the job to another resource."

Two pieces implement that:

* :class:`RetryPolicy` — plugged into the engine; retries a failed task up
  to ``max_retries`` times with optional backoff, emitting ``retried``
  monitoring events.  Backoff sleeps go through an injectable
  :class:`~repro.clock.Clock`, so retry tests run on a fake clock instead
  of wall-sleeping, and a retry never outlives the ambient deadline (see
  :mod:`repro.ws.deadline`).
* :class:`ReplicatedServiceTool` — a workflow tool bound to a *pool* of
  equivalent service endpoints (replicas of the same algorithm on different
  resources).  It runs the one failover walk (:mod:`repro.ws.failover`)
  over them — the paper's "moving the job to another resource" — and
  records the migration trail for the monitor.  With per-replica circuit
  breakers attached, replicas whose circuit is open are skipped outright.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import (DeadlineExceeded, EnactmentError, ServiceError,
                          TransportError, WorkflowError)
from repro.obs import get_metrics
from repro.ws import failover
from repro.ws.breaker import CircuitBreaker
from repro.ws.deadline import current_deadline
from repro.workflow.model import Task, Tool
from repro.workflow.monitor import EventBus, TaskEvent

#: Failures worth re-running: delivery problems and service-side errors.
#: Programming errors in tools (TypeError, KeyError, ...) are *not* here —
#: retrying those only repeats the bug with backoff.  Neither is
#: :class:`DeadlineExceeded`: a spent budget cannot be retried back.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (TransportError,
                                                     ServiceError)


class RetryPolicy:
    """Re-run failing tasks before surfacing the failure."""

    def __init__(self, max_retries: int = 2, backoff_s: float = 0.0,
                 events: EventBus | None = None,
                 retry_on: tuple[type[BaseException], ...]
                 = TRANSIENT_ERRORS,
                 clock: Clock = SYSTEM_CLOCK):
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.events = events
        self.retry_on = retry_on
        self.clock = clock

    def run_task(self, task: Task, inputs: list[Any],
                 parameters: dict[str, Any],
                 runner: Callable[[list[Any], dict[str, Any]], list[Any]]
                 | None = None) -> list[Any]:
        """Run one task with retry semantics.

        *runner* overrides how an attempt executes (the engine uses it to
        route attempts through the chaos harness); each retry re-invokes
        it, so injected faults hit every attempt independently.
        """
        run = runner if runner is not None else task.tool.run
        attempt = 0
        while True:
            try:
                return run(inputs, parameters)
            except self.retry_on as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise
                deadline = current_deadline()
                if deadline is not None and deadline.expired:
                    # no budget left to retry in: surface the expiry
                    # instead of spinning through doomed attempts
                    raise DeadlineExceeded(
                        f"task {task.name!r} failed with the budget "
                        f"spent (attempt {attempt}: {exc!r})") from exc
                get_metrics().counter("workflow.retries",
                                      task=task.name).inc()
                if self.events:
                    self.events.emit(TaskEvent(
                        "task", task.name, "retried",
                        detail=f"attempt {attempt}: {exc!r}"))
                if self.backoff_s:
                    pause = self.backoff_s * attempt
                    deadline = current_deadline()
                    if deadline is not None and \
                            deadline.remaining() <= pause:
                        # backing off past the budget guarantees failure;
                        # surface it now instead of sleeping into it
                        raise DeadlineExceeded(
                            f"task {task.name!r}: {pause:.3f}s backoff "
                            f"exceeds the remaining "
                            f"{max(deadline.remaining(), 0.0):.3f}s "
                            f"budget") from exc
                    self.clock.sleep(pause)


class ReplicatedServiceTool(Tool):
    """A service-operation tool with failover across endpoint replicas.

    *proxies* are service proxies (:class:`~repro.ws.client.ServiceProxy`)
    for equivalent deployments of the same service.  Inputs map
    positionally onto the operation's WSDL parameters.  *breakers*
    (optional, one per replica) let the tool skip replicas whose circuit
    is open — the §3 migration happens immediately, without paying a
    send against a presumed-dead resource.
    """

    def __init__(self, name: str, proxies: Sequence[Any], operation: str,
                 param_names: Sequence[str], folder: str = "WebServices",
                 doc: str = "", events: EventBus | None = None,
                 breakers: Sequence[CircuitBreaker] | None = None):
        super().__init__(name, list(param_names), ["result"], folder, doc)
        if not proxies:
            raise WorkflowError(
                f"tool {name!r} needs at least one service replica")
        self.proxies = list(proxies)
        self.operation = operation
        self.param_names = list(param_names)
        self.events = events
        if breakers is not None and len(breakers) != len(self.proxies):
            raise WorkflowError(
                f"tool {name!r}: {len(breakers)} breaker(s) for "
                f"{len(self.proxies)} replica(s)")
        self.breakers = list(breakers) if breakers is not None else None
        self.migrations: list[tuple[int, str]] = []

    def _migrate(self, replica: int, why: str) -> None:
        self.migrations.append((replica, why))
        get_metrics().counter("workflow.migrations",
                              tool=self.name).inc()
        if self.events:
            self.events.emit(TaskEvent("task", self.name, "migrated",
                                       detail=f"replica {replica}: "
                                              f"{why}"))

    def run(self, inputs: list[Any], parameters: dict[str, Any]
            ) -> list[Any]:
        params = {}
        for pname, value in zip(self.param_names, inputs):
            if value is not None:
                params[pname] = value
        for pname, value in parameters.items():
            params.setdefault(pname, value)
        breakers = self.breakers or [None] * len(self.proxies)

        def moved(replica: int, error: Exception | None) -> None:
            self._migrate(replica, "circuit open, skipped"
                          if error is None else f"failed: {error!r}")

        def exhausted(error: Exception) -> Exception:
            if failover.verdict_of(error) == failover.SHED:
                return error  # every replica is alive and busy: back off
            return EnactmentError(self.name, error)

        return [failover.walk(
            range(len(self.proxies)),
            lambda replica: self.proxies[replica].call(self.operation,
                                                       **params),
            faults_end_walk=False, breaker_of=breakers.__getitem__,
            moved=moved, exhausted=exhausted)]
