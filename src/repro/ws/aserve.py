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

Everything but the byte loop and that admission decision — routing,
``Content-Length`` validation, the index, ``?wsdl``, the POST itself —
is :class:`~repro.ws.pipeline.HttpGateway`, exactly like the threaded
server, so both serving planes answer byte-identical envelopes.  This
module is the *policy* plane: it may import admission and obs, but
never circuit breakers or chaos (``tools/layering_lint.py``).
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus

from repro.errors import OverloadedError
from repro.obs import get_metrics
from repro.ws import soap
from repro.ws.admission import DEFAULT_RETRY_HINT_S, AdmissionController
from repro.ws.container import ServiceContainer
from repro.ws.httpd import HttpFront
from repro.ws.pipeline import (HttpGateway, HttpReject, HttpResponse,
                               http_response, service_of)

#: Reading a request head (request line + headers) is bounded so a
#: misbehaving client cannot balloon the loop's memory.
_MAX_HEADER_BYTES = 32 * 1024


async def _read_body(reader: asyncio.StreamReader, length: int) -> bytearray:
    """The *length* bytes of a request body, copied into place as they
    arrive.  ``readexactly`` would let the reader's own buffer grow to
    the whole body and then copy it out — two body-sized allocations
    per request, freed together, where one will do."""
    body = bytearray(length)
    at = 0
    while at < length:
        chunk = await reader.read(length - at)
        if not chunk:
            raise asyncio.IncompleteReadError(b"", length)
        body[at:at + len(chunk)] = chunk
        at += len(chunk)
    return body


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
            if os.path.exists(self.uds_path):
                os.unlink(self.uds_path)  # stale socket from a crash
            uds_server = await asyncio.start_unix_server(
                self._serve_connection, path=self.uds_path)
        self._started.set()
        try:
            async with server:
                if uds_server is not None:
                    async with uds_server:
                        await self._stop.wait()
                else:
                    await self._stop.wait()
        finally:
            self._executor.shutdown(wait=False)
            if self.uds_path and os.path.exists(self.uds_path):
                os.unlink(self.uds_path)

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
        try:
            while True:
                head = await self._read_head(reader)
                if head is None:
                    return
                method, target, headers = head
                try:
                    length = self.gateway.body_length(target, headers)
                except HttpReject as reject:
                    # the unread body is still queued: answer and hang up
                    await self._write_response(writer, reject.response,
                                               keep_alive=False)
                    return
                body = await _read_body(reader, length)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(
                    writer, await self._handle(method, target, headers, body),
                    keep_alive)
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.LimitOverrunError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()

    async def _read_head(self, reader: asyncio.StreamReader):
        """``(method, target, lowercased headers)``, or ``None`` on EOF."""
        try:
            request_line = await reader.readline()
        except ValueError:
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0], parts[1]
        headers: dict[str, str] = {}
        total = len(request_line)
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: HttpResponse,
                              keep_alive: bool) -> None:
        status, headers, body = response
        lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        lines.append(f"Content-Length: {len(body)}")
        if not keep_alive and "Connection" not in headers:
            lines.append("Connection: close")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

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
