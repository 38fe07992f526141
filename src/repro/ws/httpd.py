"""HTTP hosting of SOAP services (the Tomcat/Axis substitution).

:class:`SoapHttpServer` hosts one :class:`~repro.ws.container
.ServiceContainer` on a localhost port using a threading HTTP server:

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

The handler here is a byte loop (head parsing, body read, response
framing); routing, ``Content-Length`` validation and everything between
"request arrived" and "bytes to answer with" live in
:class:`repro.ws.pipeline.HttpGateway`, keeping this module free of
policy imports (enforced by ``tools/layering_lint.py``).
:class:`ThreadedListener` is the one threaded front: this server binds
it to a container's gateway, the mesh gateway to its ingress.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ServiceError
from repro.ws.container import ServiceContainer
from repro.ws.pipeline import HttpGateway, HttpReject, HttpResponse


class _Handler(BaseHTTPRequestHandler):
    server_version = "ReproSOAP/1.0"
    # HTTP/1.1 keep-alive: clients pool one connection across exchanges
    # (every response carries Content-Length, so pipelined framing is
    # unambiguous).  The client side heals pooled connections the server
    # has since dropped — see HttpTransport's stale-retry.
    protocol_version = "HTTP/1.1"
    # one coalesced send per response (headers + body), and no Nagle
    # stall on what remains: an un-buffered two-write response against
    # a keep-alive connection costs a ~40ms delayed-ACK pause per call
    wbufsize = -1
    gateway: HttpGateway  # bound per listener

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output clean; stats live on the container

    def _send(self, response: HttpResponse) -> None:
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        self.wfile.write(response.body)

    def _serve(self) -> None:
        headers = {name.lower(): value
                   for name, value in self.headers.items()}
        try:
            length = self.gateway.body_length(self.path, headers)
        except HttpReject as reject:
            self.close_connection = True  # the unread body is still queued
            self._send(reject.response)
            return
        self._send(self.gateway.handle(self.command, self.path, headers,
                                       self.rfile.read(length)))

    do_GET = do_POST = do_PUT = do_DELETE = _serve  # noqa: N815


class _UnixThreadingHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to an ``AF_UNIX`` stream socket."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # HTTPServer.server_bind unpacks (host, port) and resolves the
        # fqdn — meaningless for a filesystem address; bind raw and pin
        # the HTTP-level identity instead
        socketserver.TCPServer.server_bind(self)
        self.server_name = "localhost"
        self.server_port = 0


class ThreadedListener:
    """One threaded HTTP listener serving *gateway* on *address*: a
    ``(host, port)`` pair, or a filesystem path for a Unix socket."""

    def __init__(self, gateway: HttpGateway, address, name: str):
        tcp = not isinstance(address, str)
        # TCP_NODELAY does not exist on AF_UNIX sockets (setup() would
        # raise); there is no Nagle to disable there either
        handler = type("BoundHandler", (_Handler,),
                       {"gateway": gateway, "disable_nagle_algorithm": tcp})
        self._httpd = (ThreadingHTTPServer if tcp
                       else _UnixThreadingHTTPServer)(address, handler)
        self.address = self._httpd.server_address
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True, name=name)

    def start(self) -> None:
        """Serve in a background thread."""
        self._thread.start()

    def stop(self) -> None:
        """Shut down and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)


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
