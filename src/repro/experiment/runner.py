"""The grid runner: execute cells over scatter-gather, checkpoint each.

Ties the subsystem together: expand the spec, replay the checkpoint
store, skip every cell already completed, and scatter the remainder
across replica Classifier endpoints with the PR-5
:class:`~repro.ws.scatter.ScatterGather` engine — EWMA-sized chunks,
migration off dead replicas, and PR-6 admission backpressure
(:class:`~repro.errors.OverloadedError` sheds re-queue the chunk and
back off rather than losing or duplicating work).

Crash safety is the per-chunk completion callback: every finished
chunk's cells are fsync'd into the :class:`~repro.experiment.store
.ResultStore` *before* the scatter plane hands out more work, so a
SIGKILL at any instant loses at most the chunks in flight — never a
completed cell — and the next run resumes exactly where this one died.

Fault taxonomy (what resumes vs what records):

* :class:`~repro.errors.TransportError` (dead replica, chaos
  drop/error/blackhole) — the chunk migrates to survivors; nothing is
  recorded until a replica genuinely finishes it.
* :class:`~repro.errors.OverloadedError` — backpressure, handled by
  the scatter plane.
* any other :class:`~repro.errors.ServiceError` (bad option, dataset
  the algorithm cannot learn) — deterministic application failure:
  checkpointed as a ``status: "error"`` record so the grid keeps
  going and the resume never re-runs a cell that can only fail again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.data import arff, synthetic
from repro.data.dataset import Dataset
from repro.errors import ServiceError, TransportError, WorkflowError
from repro.experiment.expand import Cell, expand
from repro.experiment.spec import ExperimentSpec, SpecError
from repro.experiment.store import ResultStore
from repro.obs import get_metrics, get_tracer
from repro.services import grid
from repro.services.classifier_service import ClassifierService
from repro.ws import wsdl
from repro.ws.client import ServiceProxy
from repro.ws.container import ServiceContainer
from repro.ws.scatter import ScatterGather, resolve_endpoints
from repro.ws.service import ServiceDefinition
from repro.ws.transport import InProcessTransport

#: Result-payload keys checkpointed per cell.  Deliberately excludes
#: anything timing- or host-dependent so an interrupted-then-resumed
#: grid is byte-identical to an uninterrupted one.
RESULT_KEYS = ("accuracy", "kappa")


@dataclass
class RunReport:
    """What one runner invocation did (and what the store now holds)."""

    spec_name: str
    total: int
    skipped: list[str] = field(default_factory=list)
    executed: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    results: dict[str, dict] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def summary_line(self) -> str:
        """The deterministic one-line progress summary the CLI prints
        (and the resume drill parses)."""
        return (f"cells: {self.total} total, {len(self.skipped)} "
                f"resumed, {len(self.executed)} executed, "
                f"{len(self.failed)} failed")


def load_dataset(source: str,
                 class_attribute: str | None = None) -> Dataset:
    """Materialise a dataset from a spec ``source``.

    ``synthetic:<generator>[?k=v[&k=v]...]`` calls the named
    :mod:`repro.data.synthetic` generator (int/float args coerced);
    anything else is an ARFF/CSV path.
    """
    if source.startswith("synthetic:"):
        name, _, query = source[len("synthetic:"):].partition("?")
        generator = getattr(synthetic, name, None)
        if generator is None or not callable(generator):
            raise SpecError(f"unknown synthetic generator {name!r}")
        kwargs = {}
        if query:
            for pair in query.split("&"):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise SpecError(
                        f"bad synthetic argument {pair!r} in {source!r}")
                from repro.experiment.spec import coerce_value
                kwargs[key] = coerce_value(value)
        ds = generator(**kwargs)
    else:
        from repro.data import converters
        text = Path(source).read_text()
        fmt = "csv" if source.lower().endswith(".csv") else "arff"
        ds = converters.parse(text, fmt, class_attribute)
    if class_attribute is not None:
        ds.set_class(class_attribute)
    return ds


def make_replicas(n: int, *, chaos_controller=None,
                  admission=None) -> list[ServiceProxy]:
    """Build *n* in-process Classifier replicas, one container each.

    With *chaos_controller* armed, each replica's transport is wrapped
    in a :class:`~repro.chaos.ChaosTransport` targeting
    ``replica-<i>`` so seeded fault plans can scope per replica
    (``replica-0:error=1;*:delay=5ms``).  *admission* (an
    :class:`~repro.ws.admission.AdmissionController`) attaches PR-6
    admission control to every replica container.
    """
    if n < 1:
        raise WorkflowError("need at least one replica")
    definition = ServiceDefinition.from_class(ClassifierService,
                                              "Classifier")
    document = wsdl.generate(definition, "inproc://Classifier")
    proxies = []
    for i in range(n):
        container = ServiceContainer(f"replica-{i}", admission=admission)
        container.deploy(ClassifierService, "Classifier")
        transport = InProcessTransport(container)
        if chaos_controller is not None:
            from repro.chaos import ChaosTransport
            transport = ChaosTransport(transport, chaos_controller,
                                       endpoint=f"replica-{i}")
        proxies.append(ServiceProxy.from_wsdl_text(document, transport))
    return proxies


def _execute_cell(proxy: ServiceProxy, cell: Cell,
                  dataset_doc: str, attribute: str) -> dict:
    """Run one cell on one replica; returns its result payload."""
    try:
        out = proxy.call(
            "crossValidate", classifier=cell.classifier,
            dataset=dataset_doc, attribute=attribute,
            folds=cell.folds, options=dict(cell.options),
            seed=cell.seed)
    except TransportError:
        raise  # replica death / chaos: migrate, do not record
    except ServiceError as exc:
        # deterministic application failure: completing it as an error
        # record beats poisoning every replica with a doomed retry
        return {"status": "error",
                "error": f"{type(exc).__name__}: {exc}"}
    payload = {key: out.get(key) for key in RESULT_KEYS}
    payload["status"] = "ok"
    return payload


def run_grid(spec: ExperimentSpec, store: ResultStore | str | Path, *,
             proxies: Sequence[ServiceProxy] | None = None,
             replicas: int = 2, chaos_controller=None, admission=None,
             cells_per_dispatch: int = 1) -> RunReport:
    """Run (or resume) *spec*'s grid, checkpointing into *store*.

    Completed cells found in the store are skipped; the rest execute
    over *proxies* (or *replicas* fresh in-process endpoints).
    *proxies* also accepts a mesh endpoint source — an object with a
    ``proxies()`` method, e.g. ``MeshHost.source_for("Classifier")`` —
    resolved to the live replica set when the run starts.  Every
    finished chunk is fsync'd into the store via the scatter plane's
    per-chunk completion callback before more work is taken, so the
    run is resumable after SIGKILL at any point.

    *cells_per_dispatch* is both the initial and the maximum scatter
    chunk size (the EWMA sizing is not allowed to grow chunks).  At
    the default of 1 a chunk *is* a cell, which is what makes
    execution effectively exactly-once: a replica that dies mid-chunk
    can only lose (and migrate) work that was never checkpointed.
    Larger values trade that for fewer dispatches — a chunk that
    fails after completing some of its cells re-executes them on a
    survivor (at-least-once; the store's last-write-wins replay keeps
    results consistent).
    """
    started = time.perf_counter()
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    cells = expand(spec)
    metrics = get_metrics()
    metrics.counter("repro.experiment.cells.total").inc(len(cells))

    checkpointed = store.replay()
    todo = [c for c in cells if c.cell_id not in checkpointed]
    skipped = [c.cell_id for c in cells if c.cell_id in checkpointed]
    metrics.counter("repro.experiment.cells.resumed").inc(len(skipped))

    report = RunReport(spec_name=spec.name, total=len(cells),
                       skipped=skipped)
    for cell_id, record in checkpointed.items():
        report.results[cell_id] = record
        if record.get("result", {}).get("status") == "error":
            report.failed[cell_id] = \
                record["result"].get("error", "error")

    tracer = get_tracer()
    with tracer.span("experiment:run",
                     {"spec": spec.name, "cells": len(cells),
                      "resumed": len(skipped)}) as root_span:
        if todo:
            own_proxies = proxies is None
            if own_proxies:
                proxies = make_replicas(
                    replicas, chaos_controller=chaos_controller,
                    admission=admission)
            else:
                # a static proxy list passes through; a mesh endpoint
                # source resolves to the currently-live replica set
                proxies = resolve_endpoints(proxies)
            try:
                _run_cells(spec, todo, list(proxies), store, report,
                           root_span,
                           cells_per_dispatch=cells_per_dispatch)
            finally:
                store.close()
                if own_proxies:
                    for proxy in proxies:
                        proxy.close()
        else:
            store.close()
        root_span.set_attribute("executed", len(report.executed))
        root_span.set_attribute("failed", len(report.failed))
    report.wall_seconds = time.perf_counter() - started
    return report


def _run_cells(spec: ExperimentSpec, todo: list[Cell],
               proxies: list[ServiceProxy], store: ResultStore,
               report: RunReport, root_span, *,
               cells_per_dispatch: int) -> None:
    # materialise each dataset exactly once; serialisation is deferred
    # to dispatch time so each replica gets the richest codec it speaks
    # (binary columnar frame vs ARFF text), memoised per format
    datasets: dict[str, tuple[Dataset, str]] = {}
    for ds_spec in spec.datasets:
        ds = load_dataset(ds_spec.source, ds_spec.class_attribute)
        attribute = ds_spec.class_attribute or ds.class_attribute.name
        datasets[ds_spec.name] = (ds, attribute)
    doc_memo: dict = {}

    metrics = get_metrics()
    tracer = get_tracer()
    grid_span = root_span if root_span.recording else None

    def dispatch(endpoint: int, chunk_cells: list[Cell],
                 indices: list[int]) -> list[dict]:
        out = []
        for cell in chunk_cells:
            ds, attribute = datasets[cell.dataset]
            dataset_doc = grid._negotiated_doc(ds, proxies[endpoint],
                                               doc_memo)
            # worker threads don't inherit contextvars: parent the
            # per-cell span on the run's root span explicitly
            with tracer.span("experiment:cell",
                             {"cell": cell.cell_id,
                              "dataset": cell.dataset,
                              "config": cell.config,
                              "replica": endpoint},
                             parent=grid_span):
                out.append(_execute_cell(proxies[endpoint], cell,
                                         dataset_doc, attribute))
        return out

    def on_chunk(endpoint: int, indices: list[int],
                 results: list[dict]) -> None:
        # the checkpoint: runs as soon as this chunk completes, while
        # other replicas keep executing — a crash after this point
        # never re-runs these cells
        for position, payload in zip(indices, results):
            cell = todo[position]
            store.append({"cell": cell.cell_id,
                          "params": cell.params(),
                          "result": payload})
            report.executed.append(cell.cell_id)
            report.results[cell.cell_id] = {
                "cell": cell.cell_id, "params": cell.params(),
                "result": payload}
            metrics.counter("repro.experiment.cells.executed").inc()
            if payload.get("status") == "error":
                report.failed[cell.cell_id] = payload.get("error", "")
                metrics.counter("repro.experiment.cells.failed").inc()

    # pin max_chunk == chunk: the EWMA sizing must never grow a chunk
    # past what the caller asked for, or a mid-chunk death would lose
    # (and re-execute) cells that had already completed inside it
    sg = ScatterGather(len(proxies), chunk=cells_per_dispatch,
                       max_chunk=cells_per_dispatch,
                       name="experiment")
    sg.run(todo, dispatch, on_chunk=on_chunk)
