"""Asyncio SOAP-over-HTTP serving plane with front-door admission.

:class:`AsyncSoapHttpServer` hosts the same
:class:`~repro.ws.container.ServiceContainer` endpoints as the threaded
:class:`~repro.ws.httpd.SoapHttpServer` — ``POST /services/<name>``,
``GET /services/<name>?wsdl``, ``GET /services`` — but accepts on one
event loop and offloads dispatch to a *bounded* worker pool, so
thousands of mostly-idle keep-alive connections cost coroutines, not
threads.

The load-shedding story is the point.  When an
:class:`~repro.ws.admission.AdmissionController` is attached, every
POST is admitted **at the front door, before the body is parsed**: the
caller's identity and rank ride in the ``X-Repro-Principal`` /
``X-Repro-Priority`` HTTP headers (mirrors of the ``<repro:Caller>``
SOAP header, stamped by :class:`~repro.ws.client.ServiceProxy`), so a
shed costs one header scan and a tiny canned 503 — no XML decode, no
worker thread, no lifecycle work.  Admitted calls hold their admission
ticket across the worker-pool dispatch, so ``max_concurrent`` bounds
real work, not just queue entries.  The 503 answer carries the
``repro:Overloaded`` fault envelope plus a ``Retry-After`` header, and
clients resurface it as :class:`~repro.errors.OverloadedError`.

Attach admission *either* here (front door — recommended for this
server) or on the container (the ``admission`` chain step, which also
guards sync servers); attaching both would double-charge every call.

Everything but that admission decision is shared with the threaded
server: the bytes are :mod:`repro.ws.http11`'s (here through its asyncio
driver), one connection's request loop is :func:`repro.ws.httpd.serve`,
and routing, ``Content-Length`` validation, the index, ``?wsdl`` and the
POST itself are :class:`~repro.ws.pipeline.HttpGateway` — so both
serving planes answer byte-identical envelopes and refuse the same bad
heads.  This module is the *policy* plane: it may import admission and
obs, but never circuit breakers or chaos (``tools/layering_lint.py``).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.errors import OverloadedError
from repro.obs import get_metrics
from repro.ws import http11, soap
from repro.ws.admission import DEFAULT_RETRY_HINT_S, AdmissionController
from repro.ws.container import ServiceContainer
from repro.ws.httpd import HttpFront, serve
from repro.ws.pipeline import (HttpGateway, HttpResponse, http_response,
                               service_of)


class AsyncSoapHttpServer(HttpFront):
    """An event-loop SOAP host bound to 127.0.0.1.

    Runs its own loop on a background thread so sync callers use it
    exactly like :class:`~repro.ws.httpd.SoapHttpServer`::

        with AsyncSoapHttpServer(container, admission=ctl) as srv:
            proxy = ServiceProxy.from_wsdl_url(srv.wsdl_url("Cls"))

    Async callers inside the loop can instead await
    :meth:`serve_forever` directly.

    ``max_workers`` bounds the dispatch pool (default: the admission
    controller's ``max_concurrent``, else 8) — the knob that keeps
    CPU-bound ML operations from starving the accept loop.
    """

    def __init__(self, container: ServiceContainer, port: int = 0,
                 compress: bool = True,
                 admission: AdmissionController | None = None,
                 max_workers: int | None = None,
                 uds_path: str | None = None):
        self.container = container
        self.gateway = HttpGateway(container, compress=compress)
        self.admission = admission
        if max_workers is None:
            max_workers = admission.max_concurrent if admission else 8
        self.max_workers = max_workers
        self.port = port
        self.base_url = ""
        self.uds_path = uds_path or None
        self._requested_port = port
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._open: dict[asyncio.Task, http11.AsyncConnection] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AsyncSoapHttpServer":
        """Serve on a fresh event loop in a background thread."""
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"soap-aserve-{self._requested_port}")
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self.serve_forever())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()

    async def serve_forever(self) -> None:
        """Accept until :meth:`stop` (or task cancellation)."""
        if self.uds_path:
            self._remove_uds_socket()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="aserve-dispatch")
        server = await asyncio.start_server(
            self._serve_connection, "127.0.0.1", self._requested_port)
        self.port = server.sockets[0].getsockname()[1]
        self.base_url = self.gateway.base_url = \
            f"http://127.0.0.1:{self.port}"
        uds_server = None
        if self.uds_path:
            uds_server = await asyncio.start_unix_server(
                self._serve_connection, path=self.uds_path)
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            for listener in filter(None, (server, uds_server)):
                listener.close()
            # hang up before the loop exits (an idle connection closes at
            # once, one mid-request answers first) and wait the handlers
            # out: a task left for asyncio.run() to cancel is logged
            for conn in self._open.values():
                conn.hang_up()
            if self._open:
                await asyncio.wait(list(self._open),
                                   timeout=http11.DRAIN_TIMEOUT_S)
            self._executor.shutdown(wait=False)
            if self.uds_path:
                self._remove_uds_socket()

    def stop(self) -> None:
        """Shut down the loop thread and release resources."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

    # -- connection handling -------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        get_metrics().counter("ws.aserve.connections").inc()
        conn = http11.AsyncConnection(stream=(reader, writer))
        task = asyncio.current_task()
        self._open[task] = conn
        try:
            await http11.run_async(serve(conn, self.gateway, self._handle))
        finally:
            del self._open[task]

    # -- request handling ----------------------------------------------------

    async def _handle(self, method: str, target: str, headers: dict,
                      body: bytearray) -> HttpResponse:
        """Answer one request: admit a SOAP POST at the front door, then
        hand it to the gateway on the dispatch pool."""
        name = service_of(target)
        if method != "POST" or name is None:
            return self.gateway.handle(method, target, headers, body)
        ticket = None
        if self.admission is not None:
            try:
                priority = int(headers.get("x-repro-priority", "0"))
            except ValueError:
                priority = 0
            try:
                ticket = await self.admission.admit_async(
                    principal=headers.get("x-repro-principal", ""),
                    priority=priority)
            except OverloadedError as exc:
                return self._shed_response(name, exc)
        try:
            return await self._loop.run_in_executor(
                self._executor, self.gateway.handle, method, target,
                headers, body)
        finally:
            if ticket is not None:
                ticket.release()

    def _shed_response(self, name: str,
                       exc: OverloadedError) -> HttpResponse:
        """The cheap 503: a canned fault envelope, no XML was parsed."""
        retry_after = exc.retry_after_s or DEFAULT_RETRY_HINT_S
        get_metrics().counter("ws.http.requests", service=name,
                              status=503).inc()
        return http_response(
            503, soap.encode_fault(soap.fault_for(exc)),
            retry_after=f"{retry_after:.3f}")
