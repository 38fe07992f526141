"""The HTTP/1.1 byte layer's net: :mod:`repro.ws.http11`.

* structural fuzz — ``parse_head`` on arbitrary bytes returns or raises
  ``BadHead``, nothing else; ``format_*_head`` → ``parse_head``
  round-trips;
* a differential against the stdlib, kept here (and only here) as the
  reference: ``http.client.parse_headers`` agrees on every generated
  well-formed head;
* the blocking and the asyncio driver, fed the same scripted peer split
  at every byte boundary, produce the same ``(status, headers, body)``
  or the same exception type;
* deadlines, over a ``socket.socketpair()``: a silent peer and a peer
  dripping bytes are both cut off at the deadline, on both drivers.
"""

import asyncio
import contextlib
import http.client
import io
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ws import http11

TOKEN = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                "0123456789-_.!#$%&'*+^`|~", min_size=1, max_size=12)
#: visible ASCII plus inner spaces, no leading/trailing whitespace
VALUE = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e),
                min_size=1, max_size=20).flatmap(
    lambda word: st.lists(st.just(word), min_size=1, max_size=3)
    .map(" ".join))
HEADERS = st.dictionaries(
    TOKEN.filter(lambda name: name.lower() not in (
        "content-length", "transfer-encoding", "host", "connection")),
    VALUE, max_size=6).filter(
    lambda d: len({name.lower() for name in d}) == len(d))
FRAGMENT = st.sampled_from([
    b"GET", b"POST", b" ", b"/x", b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2",
    b"200", b"OK", b"\r\n", b"\r", b"\n", b":", b"Content-Length",
    b"Transfer-Encoding", b"chunked", b"12", b"\xb2", b"\t", b"\0", b"a",
    b"Host: x", b"\r\n ", b", "])


class TestParseHead:
    @given(st.one_of(st.binary(max_size=512),
                     st.lists(FRAGMENT, max_size=24).map(b"".join)))
    def test_arbitrary_bytes_parse_or_are_refused(self, data):
        try:
            start, headers = http11.parse_head(data)
        except http11.BadHead as bad:
            assert bad.status in (400, 431, 501)
            return
        assert len(start) == 3 and all(isinstance(f, str) for f in start)
        assert all(name == name.lower() and name.strip() == name != ""
                   for name in headers)
        assert "transfer-encoding" not in headers
        assert headers.get("content-length", "0").isascii()

    @given(TOKEN, VALUE.map(lambda v: "/" + v.replace(" ", "")), TOKEN,
           HEADERS)
    def test_a_request_head_round_trips(self, method, target, host,
                                        headers):
        head = http11.format_request_head(method, target, host, headers)
        assert head.endswith(b"\r\n\r\n")
        start, parsed = http11.parse_head(head[:-4])
        assert start == (method, target, "HTTP/1.1")
        assert parsed == {"host": host, **{name.lower(): value for
                                           name, value in headers.items()}}

    @given(st.sampled_from([200, 400, 404, 405, 408, 413, 431, 500, 501,
                            503]), HEADERS, st.integers(0, 2 ** 40),
           st.booleans())
    def test_a_response_head_round_trips(self, status, headers, length,
                                         keep):
        head = http11.format_response_head(status, headers, length, keep)
        (version, code, reason), parsed = http11.parse_head(head[:-4])
        assert (version, int(code)) == ("HTTP/1.1", status)
        assert reason == http.HTTPStatus(status).phrase
        assert parsed.pop("content-length") == str(length)
        assert parsed.pop("connection", None) == (None if keep else "close")
        assert parsed == {name.lower(): value
                          for name, value in headers.items()}

    @given(st.lists(st.tuples(TOKEN, VALUE), max_size=8))
    def test_the_stdlib_agrees_on_every_well_formed_head(self, fields):
        fields = [(name, value) for name, value in fields
                  if name.lower() not in ("content-length",
                                          "transfer-encoding")]
        head = b"".join(f"{name}: {value}\r\n".encode("latin-1")
                        for name, value in fields)
        reference = http.client.parse_headers(io.BytesIO(head + b"\r\n"))
        _, ours = http11.parse_head(b"GET / HTTP/1.1\r\n" + head[:-2]
                                    if fields else b"GET / HTTP/1.1")
        assert ours == {name.lower(): ", ".join(reference.get_all(name))
                        for name in reference.keys()}

    @pytest.mark.parametrize("head, status", [
        (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked", 501),
        (b"GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3", 400),
        (b"GET / HTTP/1.1\r\nContent-Length: \xb2", 400),
        (b"GET / HTTP/1.1\r\nno colon here", 400),
        (b"GET / HTTP/1.1\r\nA: b\r\n folded", 400),
        (b"GET / HTTP/1.1\r\nA : b", 400),
        (b"GET / HTTP/1.1\r\nA: b\nB: c", 400),
        (b"GET /", 400), (b"", 400), (b"GET / HTTP/2", 400),
        (b"HTTP/1.1 20 OK", 400),
        (b"GET / HTTP/1.1\r\nA: " + b"x" * http11.MAX_HEAD_BYTES, 431)])
    def test_refusals(self, head, status):
        with pytest.raises(http11.BadHead) as refused:
            http11.parse_head(head)
        assert refused.value.status == status

    def test_a_header_cannot_smuggle_a_line(self):
        with pytest.raises(ValueError):
            http11.format_request_head("GET", "/", "x",
                                       {"A": "b\r\nInjected: 1"})


# -- one scripted peer, two drivers ------------------------------------------

BODY = bytes(range(256)) * 3
GOOD = (b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nX-Two: a\r\n"
        b"X-Two: b\r\nContent-Length: %d\r\n\r\n" % len(BODY)) + BODY
SCRIPTS = {
    "good": GOOD,
    "cut short": GOOD[:-100],
    "no length": b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\n\r\n" + BODY,
    "two lengths": b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n"
                   b"Content-Length: 1\r\n\r\nx",
    "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n",
    "not http": b"SSH-2.0-OpenSSH_9.6\r\n\r\n",
    "a request": b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "silence": b"",
}


def _outcome(result):
    status, headers, body = result
    return status, headers, bytes(body)


def _play(peer: socket.socket, script) -> None:
    """The scripted peer's next move: its next part, or hanging up (the
    request read first — closing on unread bytes is a reset, not EOF)."""
    part = next(script, None)
    if part is not None:
        peer.sendall(part)
    elif peer.fileno() >= 0:
        peer.setblocking(False)
        with contextlib.suppress(BlockingIOError):
            peer.recv(1 << 16)
        peer.close()


def _blocking(parts: list[bytes], reused: bool):
    """The exchange's outcome over the blocking driver, the peer's next
    part landing just before each read."""
    ours, peer = socket.socketpair()
    conn = http11.Connection(stream=ours)
    conn.reused = reused
    script = iter(filter(None, parts))
    real_read = conn.read

    def read(deadline, into=None):
        _play(peer, script)
        return real_read(deadline, into)

    conn.read = read
    try:
        return _outcome(http11.run(http11.exchange(
            conn, b"POST / HTTP/1.1\r\n\r\n", [], time.monotonic() + 5)))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    finally:
        peer.close()


def _awaiting(parts: list[bytes], reused: bool):
    """The same over the asyncio driver."""
    async def drive():
        ours, peer = socket.socketpair()
        conn = http11.AsyncConnection(
            stream=await asyncio.open_connection(sock=ours))
        conn.reused = reused
        script = iter(filter(None, parts))
        real_read = conn.read

        async def read(deadline, into=None):
            _play(peer, script)
            return await real_read(deadline, into)

        conn.read = read
        try:
            return _outcome(await http11.run_async(http11.exchange(
                conn, b"POST / HTTP/1.1\r\n\r\n", [],
                time.monotonic() + 5)))
        except Exception as exc:  # noqa: BLE001
            return type(exc)
        finally:
            peer.close()
            conn.close()
    return asyncio.run(drive())


EXPECTED = {
    "good": (200, {"content-type": "text/xml", "x-two": "a, b",
                   "content-length": str(len(BODY))}, BODY),
    "cut short": ConnectionAbortedError,
    "no length": http11.BadHead,
    "two lengths": http11.BadHead,
    "chunked": http11.BadHead,
    "not http": http11.BadHead,
    "a request": http11.BadHead,
    "silence": ConnectionAbortedError,
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_both_drivers_agree_at_every_byte_boundary(name):
    script = SCRIPTS[name]
    splits = [[script]] + [[script[:at], script[at:]]
                           for at in range(1, len(script), 7)] + \
        [[script[:at], script[at:]] for at in range(1, min(len(script), 90))]
    for parts in splits:
        assert _blocking(parts, reused=False) == EXPECTED[name], parts
    for parts in splits[::5]:  # an event loop per case: sample them
        assert _awaiting(parts, reused=False) == EXPECTED[name], parts


@pytest.mark.parametrize("drive", [_blocking, _awaiting])
def test_the_stale_rule(drive):
    """Stale is: reused, and gone before the first response byte."""
    assert drive([], reused=True) is http11.StaleConnection
    assert drive([], reused=False) is ConnectionAbortedError
    assert drive([GOOD[:10]], reused=True) is ConnectionAbortedError
    assert drive([GOOD], reused=True) == EXPECTED["good"]


def _length_of(start, headers):
    return int(headers.get("content-length", "0"))


def test_receive_keeps_what_followed_the_message():
    ours, peer = socket.socketpair()
    conn = http11.Connection(stream=ours)
    peer.sendall(b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
                 b"GET /b HTTP/1.1\r\n\r\n")
    peer.close()
    deadline = time.monotonic() + 5
    assert http11.run(http11.idle(conn, 5))
    first = http11.run(http11.receive(conn, _length_of, deadline))
    second = http11.run(http11.receive(conn, _length_of, deadline))
    assert (first[0][1], bytes(first[2])) == ("/a", b"abc")
    assert (second[0][1], bytes(second[2])) == ("/b", b"")
    assert not http11.run(http11.idle(conn, 5))  # EOF, not a third message
    conn.close()


# -- deadlines ---------------------------------------------------------------

NEAR = 0.05


def _read_blocking(ours, deadline):
    return http11.run(http11.receive(http11.Connection(stream=ours),
                                     _length_of, deadline))


def _read_awaiting(ours, deadline):
    async def drive():
        conn = http11.AsyncConnection(
            stream=await asyncio.open_connection(sock=ours))
        try:
            return await http11.run_async(
                http11.receive(conn, _length_of, deadline))
        finally:
            conn.close()
    return asyncio.run(drive())


@pytest.mark.parametrize("read", [_read_blocking, _read_awaiting])
class TestDeadlines:
    @pytest.mark.parametrize("sent", [
        b"", b"POST / HTT", b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nab"])
    def test_a_peer_that_stops_is_cut_off(self, read, sent):
        ours, peer = socket.socketpair()
        peer.sendall(sent)
        began = time.monotonic()
        with pytest.raises(TimeoutError):
            read(ours, began + NEAR)
        assert NEAR <= time.monotonic() - began < 2.0
        peer.close()

    def test_a_dripping_peer_cannot_outlast_the_deadline(self, read):
        """Each byte arrives well inside any per-read timeout; the
        deadline bounds the whole message, so the reader still stops."""
        ours, peer = socket.socketpair()
        done = threading.Event()

        def drip():
            for byte in b"POST / HTTP/1.1\r\nX-Slow: " + b"z" * 400:
                if done.wait(NEAR / 10):
                    return
                peer.sendall(bytes([byte]))

        dripper = threading.Thread(target=drip, daemon=True)
        dripper.start()
        began = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                read(ours, began + NEAR)
            assert time.monotonic() - began < 1.0
        finally:
            done.set()
            dripper.join(5)
            peer.close()

    def test_a_spent_deadline_reads_nothing(self, read):
        ours, peer = socket.socketpair()
        peer.sendall(b"POST / HTTP/1.1\r\n")
        with pytest.raises(TimeoutError):
            read(ours, time.monotonic() - 1)
        peer.close()


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=300))
def test_receive_on_arbitrary_bytes_answers_or_refuses(data):
    ours, peer = socket.socketpair()
    peer.sendall(data)
    peer.close()
    try:
        _read_blocking(ours, time.monotonic() + 5)
    except (http11.BadHead, ConnectionError, ValueError):
        pass  # ValueError: _length_of's int() on a non-numeric length
    finally:
        ours.close()
