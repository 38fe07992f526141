"""Unix-socket transport: same SOAP conversation, no TCP stack.

The ``unix://`` scheme percent-encodes the socket path as the URL
authority; :class:`~repro.ws.transport.UnixSocketTransport` subclasses
the HTTP byte mover, so framing, pooling, stale-connection retry and
the interceptor chain are inherited — which the golden-parity test at
the bottom proves: an identical call sequence produces the *same span
tree* over TCP and over the socket, modulo the ``send:`` kind.
"""

import asyncio
import json
import os
import socket

import pytest

from repro import obs
from repro.errors import ServiceError, TransportError
from repro.ws import shm
from repro.ws.aserve import AsyncSoapHttpServer
from repro.ws.client import ServiceProxy, fetch_url
from repro.ws.container import ServiceContainer
from repro.ws.httpd import SoapHttpServer
from repro.ws.service import operation
from repro.ws.transport import (HttpTransport, UnixSocketTransport,
                                parse_unix_url, transport_for, unix_url)


class Greeter:
    """Greets people."""

    @operation
    def greet(self, name: str, excited: bool = False) -> str:
        """Compose a greeting."""
        return f"hello {name}" + ("!" if excited else "")


def make_container() -> ServiceContainer:
    container = ServiceContainer()
    container.deploy(Greeter, "Greeter")
    return container


class TestUnixUrls:
    def test_round_trip_encodes_the_path_as_authority(self, tmp_path):
        sock = str(tmp_path / "w.sock")
        url = unix_url(sock, "/services/Greeter")
        assert url.startswith("unix://")
        assert parse_unix_url(url) == (sock, "/services/Greeter")

    def test_resource_defaults_to_root(self, tmp_path):
        sock = str(tmp_path / "w.sock")
        assert parse_unix_url(unix_url(sock)) == (sock, "/")

    def test_case_of_the_socket_path_survives(self, tmp_path):
        # urlparse().hostname lowercases; the codec must not
        sock = str(tmp_path / "MixedCase.Sock")
        assert parse_unix_url(unix_url(sock))[0] == sock

    def test_non_unix_urls_are_rejected(self):
        with pytest.raises(TransportError, match="unsupported endpoint"):
            parse_unix_url("http://127.0.0.1:1/services/X")

    def test_transport_for_picks_the_mover_by_scheme(self, tmp_path):
        uds = transport_for(unix_url(str(tmp_path / "a.sock"), "/x"))
        tcp = transport_for("http://127.0.0.1:9/services/X")
        assert isinstance(uds, UnixSocketTransport) and uds.kind == "uds"
        assert isinstance(tcp, HttpTransport) and tcp.kind == "http"


class TestThreadedServerOverUds:
    @pytest.fixture()
    def server(self, tmp_path):
        path = str(tmp_path / "httpd.sock")
        with SoapHttpServer(make_container(), uds_path=path) as srv:
            yield srv

    def test_round_trip_and_socket_cleanup(self, server):
        transport = UnixSocketTransport(
            server.uds_endpoint("Greeter"))
        proxy = ServiceProxy.from_wsdl_text(
            fetch_url(server.wsdl_url("Greeter")), transport)
        assert proxy.greet(name="ada", excited=True) == "hello ada!"
        proxy.close()

    def test_wsdl_import_over_the_socket(self, server):
        # the whole conversation stays on the socket: fetch the WSDL
        # via unix:// and the bound proxy keeps the uds transport
        proxy = ServiceProxy.from_wsdl_url(
            server.uds_endpoint("Greeter") + "?wsdl")
        assert isinstance(proxy.transport, UnixSocketTransport)
        assert proxy.greet(name="grace") == "hello grace"
        proxy.close()

    def test_same_listener_shares_the_tcp_gateway(self, server):
        tcp = ServiceProxy.from_wsdl_url(server.wsdl_url("Greeter"))
        uds = ServiceProxy.from_wsdl_url(
            server.uds_endpoint("Greeter") + "?wsdl")
        assert tcp.greet(name="x") == uds.greet(name="x")
        tcp.close()
        uds.close()

    def test_stop_unlinks_the_socket(self, tmp_path):
        path = str(tmp_path / "gone.sock")
        server = SoapHttpServer(make_container(), uds_path=path).start()
        assert os.path.exists(path)
        server.stop()
        assert not os.path.exists(path)


class TestAsyncServerOverUds:
    @pytest.fixture()
    def server(self, tmp_path):
        path = str(tmp_path / "aserve.sock")
        with AsyncSoapHttpServer(make_container(),
                                 uds_path=path) as srv:
            yield srv

    def test_sync_round_trip(self, server):
        proxy = ServiceProxy.from_wsdl_url(
            server.uds_endpoint("Greeter") + "?wsdl")
        assert proxy.greet(name="ada") == "hello ada"
        proxy.close()

    def test_async_round_trip(self, server):
        proxy = ServiceProxy.from_wsdl_url(
            server.uds_endpoint("Greeter") + "?wsdl")

        async def drive():
            return await proxy.call_async("greet", name="alan",
                                          excited=True)

        assert asyncio.run(drive()) == "hello alan!"
        proxy.close()


FRONTS = {"httpd": SoapHttpServer, "aserve": AsyncSoapHttpServer}


@pytest.mark.parametrize("kind", sorted(FRONTS))
class TestOnlyASocketIsReplaced:
    """A front removes what sits at its ``uds_path`` only if it is a
    dead socket: a stale one from a crashed server goes; a file that is
    no socket, or a live server's socket, is refused and stays."""

    def test_a_regular_file_survives_start_and_stop(self, kind, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("keep me")
        with pytest.raises(ServiceError, match="not a dead socket"):
            front = FRONTS[kind](make_container(), uds_path=str(path))
            try:
                front.start()
            finally:
                front.stop()
        assert path.read_text() == "keep me"

    def test_a_stale_socket_is_replaced_and_removed_at_stop(self, kind,
                                                           tmp_path):
        path = str(tmp_path / "stale.sock")
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(path)
        stale.close()  # the file outlives its listener, as after a crash
        with FRONTS[kind](make_container(), uds_path=path) as front:
            proxy = ServiceProxy.from_wsdl_url(
                front.uds_endpoint("Greeter") + "?wsdl")
            assert proxy.greet(name="ada") == "hello ada"
            proxy.close()
        assert not os.path.exists(path)

    def test_a_live_servers_socket_is_left_to_it(self, kind, tmp_path):
        path = str(tmp_path / "taken.sock")
        with SoapHttpServer(make_container(), uds_path=path) as owner:
            with pytest.raises(ServiceError, match="not a dead socket"):
                front = FRONTS[kind](make_container(), uds_path=path)
                try:
                    front.start()
                finally:
                    front.stop()
            proxy = ServiceProxy.from_wsdl_url(
                owner.uds_endpoint("Greeter") + "?wsdl")
            assert proxy.greet(name="ada") == "hello ada"
            proxy.close()


class TestBootNegotiation:
    def test_transport_learns_the_peer_boot_id(self, tmp_path):
        path = str(tmp_path / "boot.sock")
        with SoapHttpServer(make_container(), uds_path=path) as srv:
            transport = UnixSocketTransport(
                srv.uds_endpoint("Greeter"))
            proxy = ServiceProxy.from_wsdl_text(
                fetch_url(srv.wsdl_url("Greeter")), transport)
            assert not transport.same_host()  # nothing learned yet
            proxy.greet(name="x")
            assert transport.peer_boot == shm.boot_id()
            assert transport.same_host()
            proxy.close()

    def test_tcp_transport_learns_it_too(self):
        # boot-id negotiation is header-based, not scheme-based: a TCP
        # peer on the same kernel is just as eligible for shm hand-off
        with SoapHttpServer(make_container()) as srv:
            transport = HttpTransport(srv.endpoint("Greeter"))
            proxy = ServiceProxy.from_wsdl_text(
                fetch_url(srv.wsdl_url("Greeter")), transport)
            proxy.greet(name="x")
            assert transport.same_host()
            proxy.close()


def _span_tree(spans):
    by_id = {s.span_id: s for s in spans}
    children: dict[str, list] = {}
    roots = []
    for span in spans:
        if span.parent_id and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)

    def node(span):
        name = span.name.replace("send:uds", "send:http")
        kids = sorted((node(c) for c in children.get(span.span_id, [])),
                      key=json.dumps)
        return [name, kids]

    return sorted((node(r) for r in roots), key=json.dumps)


class TestGoldenTraceParity:
    def test_uds_and_tcp_produce_the_same_span_tree(self, tmp_path):
        """The socket slots under the interceptor chain unchanged: an
        identical call sequence traces identically over either mover,
        modulo the ``send:`` kind (normalised here)."""
        path = str(tmp_path / "parity.sock")

        def run(wsdl_url: str):
            obs.reset_tracing()
            obs.enable_tracing()
            proxy = ServiceProxy.from_wsdl_url(wsdl_url)
            proxy.greet(name="ada")
            proxy.greet(name="grace", excited=True)
            with pytest.raises(Exception, match="unknown parameter"):
                proxy.call("greet", nobody="x")
            proxy.close()
            return _span_tree(obs.get_tracer().collector.spans())

        with SoapHttpServer(make_container(), uds_path=path) as srv:
            from repro.ws.client import reset_wsdl_cache
            tcp_tree = run(srv.wsdl_url("Greeter"))
            reset_wsdl_cache()
            uds_tree = run(srv.uds_endpoint("Greeter") + "?wsdl")
        assert tcp_tree == uds_tree
        assert tcp_tree  # the sequence actually traced something
