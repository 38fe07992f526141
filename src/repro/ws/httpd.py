"""HTTP hosting of SOAP services (the Tomcat/Axis substitution).

:class:`SoapHttpServer` hosts one :class:`~repro.ws.container
.ServiceContainer` on a localhost port, one thread per connection:

* ``POST /services/<name>``            — SOAP invocation
* ``GET  /services/<name>?wsdl``       — the service's WSDL document
* ``GET  /services``                   — plain-text service index

Addresses follow the paper's convention of one endpoint per service, so the
workflow engine can show "a URL specifying the location of the WSDL document"
for each imported tool.

Pass ``uds_path=...`` to additionally serve the same container over a
Unix domain socket (``unix://`` endpoints, see
:class:`~repro.ws.transport.UnixSocketTransport`) — the same-host fast
path that skips the TCP loopback stack entirely.

The bytes are :mod:`repro.ws.http11`'s; what a request means is
:class:`repro.ws.pipeline.HttpGateway`'s.  Between them sits
:func:`serve`, one connection's request loop — idle wait, bounded read,
refusals (400/408/431/501 and the gateway's 400/413, all before the
body is read or admitted), answer, keep-alive — written once and driven
by :class:`ThreadedListener` here and by :mod:`repro.ws.aserve` on its
event loop.  The listener is the one threaded front: this server binds
it to a container's gateway, the mesh gateway to its ingress.  No policy
imports (``tools/layering_lint.py``).
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.errors import ServiceError
from repro.obs import get_metrics
from repro.ws import http11
from repro.ws.container import ServiceContainer
from repro.ws.pipeline import HttpGateway, HttpReject, http_response


def serve(conn, gateway: HttpGateway, handle):
    """Answer requests on *conn* until it goes idle, asks to close or
    sends something refused; steps for :func:`http11.run` /
    :func:`http11.run_async`.  ``handle(method, target, headers, body)``
    produces each response."""
    def length_of(start, headers):
        return gateway.body_length(start[1], headers)

    try:
        while (yield from http11.idle(conn, http11.IDLE_TIMEOUT_S)):
            deadline = time.monotonic() + http11.READ_DEADLINE_S
            keep = False
            try:
                (method, target, version), headers, body = \
                    yield from http11.receive(conn, length_of, deadline)
            except HttpReject as reject:
                response = reject.response  # metered by the gateway
            except (http11.BadHead, TimeoutError) as exc:
                status = getattr(exc, "status", 408)
                get_metrics().counter("ws.http.requests", service="",
                                      status=status).inc()
                response = http_response(
                    status, str(exc).encode(), "text/plain; charset=utf-8",
                    connection="close")
            else:
                keep = http11.keep_alive(version, headers)
                response = yield handle(method, target, headers, body)
            # a refused request's body is still queued: answer and hang up
            yield from http11.send(
                conn, http11.format_response_head(
                    response.status, response.headers, len(response.body),
                    keep),
                [response.body], time.monotonic() + http11.READ_DEADLINE_S)
            if not keep:
                return
    except OSError:
        pass  # the peer went away mid-exchange; nothing to answer
    finally:
        conn.close()


class ThreadedListener:
    """One threaded HTTP listener serving *gateway* on *address*: a
    ``(host, port)`` pair, or a filesystem path for a Unix socket."""

    def __init__(self, gateway: HttpGateway, address, name: str):
        self._gateway = gateway
        if isinstance(address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(address)
            self._sock.listen(128)
        else:
            self._sock = socket.create_server(address, backlog=128)
        self.address = self._sock.getsockname()
        self._open: dict[http11.Connection, threading.Thread] = {}
        self._lock = threading.Lock()
        self._stopping = False
        self._thread = threading.Thread(target=self._accept, daemon=True,
                                        name=name)

    def start(self) -> None:
        """Serve in a background thread."""
        self._thread.start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._sock.accept()
            except OSError:
                if self._stopping:
                    return  # stop() shut the listening socket
                continue  # one aborted handshake is not the listener's end
            if sock.family != socket.AF_UNIX:  # no Nagle to disable there
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = http11.Connection(stream=sock)
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True,
                                      name=f"{self._thread.name}-conn")
            with self._lock:
                self._open[conn] = thread
            thread.start()

    def _serve(self, conn: http11.Connection) -> None:
        try:
            http11.run(serve(conn, self._gateway, self._gateway.handle))
        finally:
            with self._lock:
                del self._open[conn]

    def stop(self) -> None:
        """Stop accepting, hang up every connection — an idle one closes
        at once, one mid-request answers first — and release the socket."""
        self._stopping = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass  # never listened, or already stopped
        self._sock.close()
        if self._thread.is_alive():
            self._thread.join(http11.DRAIN_TIMEOUT_S)
        with self._lock:
            draining = list(self._open.items())
        deadline = time.monotonic() + http11.DRAIN_TIMEOUT_S
        for conn, _ in draining:
            conn.hang_up()
        for _, thread in draining:
            thread.join(max(0.0, deadline - time.monotonic()))


class HttpFront:
    """The URL surface every HTTP front shares; a subclass sets
    :attr:`base_url` (and :attr:`uds_path` when it also listens on a
    Unix socket) and provides ``start()`` / ``stop()``."""

    base_url = ""
    uds_path: str | None = None

    def endpoint(self, service: str) -> str:
        """The SOAP endpoint URL of *service*."""
        return f"{self.base_url}/services/{service}"

    def uds_endpoint(self, service: str) -> str:
        """The ``unix://`` endpoint URL of *service* (uds_path set)."""
        if not self.uds_path:
            raise ServiceError("server has no unix socket listener")
        from repro.ws.transport import unix_url
        return unix_url(self.uds_path, f"/services/{service}")

    def wsdl_url(self, service: str) -> str:
        """The WSDL URL of *service*."""
        return f"{self.endpoint(service)}?wsdl"

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class SoapHttpServer(HttpFront):
    """A threaded SOAP-over-HTTP host bound to 127.0.0.1.

    With ``uds_path`` the same container is *also* served on a Unix
    domain socket at that path (stale socket files are replaced); both
    listeners share one :class:`~repro.ws.pipeline.HttpGateway`, so
    policy and metrics are identical across transports.
    """

    def __init__(self, container: ServiceContainer, port: int = 0,
                 compress: bool = True, uds_path: str | None = None):
        self.container = container
        self.gateway = HttpGateway(container, compress=compress)
        tcp = ThreadedListener(self.gateway, ("127.0.0.1", port),
                               "soap-httpd")
        self.port = tcp.address[1]
        self.base_url = self.gateway.base_url = \
            f"http://127.0.0.1:{self.port}"
        self._listeners = [tcp]
        self.uds_path = uds_path or None
        if self.uds_path:
            if os.path.exists(self.uds_path):
                os.unlink(self.uds_path)
            self._listeners.append(ThreadedListener(
                self.gateway, self.uds_path, "soap-httpd-uds"))

    def start(self) -> "SoapHttpServer":
        """Start serving in background threads; returns ``self``."""
        for listener in self._listeners:
            listener.start()
        return self

    def stop(self) -> None:
        """Shut down and release resources."""
        for listener in self._listeners:
            listener.stop()
        if self.uds_path and os.path.exists(self.uds_path):
            os.unlink(self.uds_path)
