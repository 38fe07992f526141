"""The HTTP/1.1 byte layer, written once: both fronts (``httpd``,
``aserve``) and both client paths (``transport``, ``client.fetch_url``)
move their bytes through here, and nothing else parses or formats a head.

* Pure: :func:`parse_head`, :func:`format_request_head`,
  :func:`format_response_head`, :func:`keep_alive`.  One framing rule —
  at most one ``Content-Length`` (ASCII digits; required on a response),
  no ``Transfer-Encoding``, a head of at most :data:`MAX_HEAD_BYTES`.
* Steps: :func:`idle`, :func:`receive`, :func:`send` and
  :func:`exchange` are generators over a connection that yield each read
  or write (``chunk = yield conn.read(deadline)``), so each is written
  once.  :func:`run` drives them over a blocking :class:`Connection`,
  whose calls have already answered when yielded; :func:`run_async` over
  an :class:`AsyncConnection`, awaiting each and throwing what it raises
  back in.  Callers stack their own steps on top with ``yield from``.
* Every read and write takes a deadline on ``time.monotonic()``.
* The stale rule: a connection that has completed an exchange and then
  fails before the first byte of the next response was closed by the
  peer while idle — :class:`StaleConnection`, worth one retry on a fresh
  connection.  A fresh connection never raises it: its failure is a
  verdict on the endpoint.

Imports nothing from :mod:`repro` (``tools/layering_lint.py``).
"""

from __future__ import annotations

import asyncio
import socket
import time
from http import HTTPStatus

#: Largest head (start line + headers) either side will buffer.
MAX_HEAD_BYTES = 32 * 1024
#: From a request's first byte, head and body must be complete within
#: this (else 408); a response gets as long to be written.
READ_DEADLINE_S = 30.0
#: A keep-alive connection idle this long is closed by the server; the
#: client's one stale retry heals it.
IDLE_TIMEOUT_S = 60.0
#: ``stop()`` waits at most this long for in-flight requests to answer.
DRAIN_TIMEOUT_S = 5.0

_CHUNK = 64 * 1024
_END = b"\r\n\r\n"


class BadHead(Exception):
    """A head this layer refuses; a server answers it :attr:`status`."""

    def __init__(self, status: int, problem: str):
        super().__init__(problem)
        self.status = status


class StaleConnection(ConnectionError):
    """A reused connection failed before the first response byte."""


def parse_head(data: bytes) -> tuple[tuple[str, str, str], dict[str, str]]:
    """``((method, target, version) | (version, status, reason),
    headers)`` of a head given without its closing blank line; names
    lowercased, repeated fields joined with ``", "``.

    Raises :class:`BadHead`: 431 over the cap, 501 for a
    ``Transfer-Encoding``, 400 for a malformed start line, a header line
    without ``:``, whitespace around a name (obs-fold included), a bare
    CR/LF or NUL, or a repeated or non-ASCII ``Content-Length``.
    """
    if len(data) > MAX_HEAD_BYTES:
        raise BadHead(431, "head too large")
    text = data.decode("latin-1")
    lines = text.split("\r\n")
    if "\0" in text or text.count("\n") != len(lines) - 1 \
            or text.count("\r") != len(lines) - 1:
        raise BadHead(400, "stray CR, LF or NUL in head")
    start = lines[0].split(" ", 2)
    if start[0].startswith("HTTP/1.") and len(start) > 1:
        start = (start + [""])[:3]
        good = len(start[1]) == 3 and start[1].isascii() \
            and start[1].isdigit()
    else:
        good = len(start) == 3 and start[2].startswith("HTTP/1.") and \
            start[0] != "" and start[1] != "" and " " not in start[2]
    if not good:
        raise BadHead(400, f"malformed start line {lines[0][:80]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip():
            raise BadHead(400, f"malformed header line {line[:80]!r}")
        name, value = name.lower(), value.strip(" \t")
        if name in headers:
            if name == "content-length":
                raise BadHead(400, "repeated Content-Length")
            value = f"{headers[name]}, {value}"
        headers[name] = value
    if "transfer-encoding" in headers:
        raise BadHead(501, "Transfer-Encoding is not supported")
    if not headers.get("content-length", "").isascii():
        raise BadHead(400, "Content-Length is not a byte count")
    return (start[0], start[1], start[2]), headers


def _format_head(lines: list[str]) -> bytes:
    if any("\r" in line or "\n" in line for line in lines):
        raise ValueError("CR or LF inside a header")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def format_request_head(method: str, target: str, host: str,
                        headers: dict[str, str]) -> bytes:
    """A request head; *headers* carry ``Content-Length`` for a body."""
    return _format_head([f"{method} {target} HTTP/1.1", f"Host: {host}",
                         *(f"{name}: {value}"
                           for name, value in headers.items())])


def format_response_head(status: int, headers: dict[str, str],
                         length: int, keep_alive: bool = True) -> bytes:
    """A response head announcing *length* body bytes — the one place a
    reason phrase is chosen."""
    lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
             *(f"{name}: {value}" for name, value in headers.items()),
             f"Content-Length: {length}"]
    if not keep_alive and "Connection" not in headers:
        lines.append("Connection: close")
    return _format_head(lines)


def keep_alive(version: str, headers: dict[str, str]) -> bool:
    """Whether the sender of this head will reuse the connection."""
    connection = headers.get("connection", "").lower()
    return connection != "close" and \
        (version != "HTTP/1.0" or connection == "keep-alive")


def _response_length(start, headers: dict[str, str]) -> int:
    raw = headers.get("content-length", "")
    if not (start[0].startswith("HTTP/1.") and raw.isdigit()):
        raise BadHead(400, f"not a response with a Content-Length: {start}")
    return int(raw)


# -- steps over a connection -------------------------------------------------

def idle(conn, timeout: float):
    """Wait for the next message's first byte; ``False`` when the peer
    hung up or *timeout* seconds brought none."""
    if not conn.pending:
        try:
            conn.pending += yield conn.read(time.monotonic() + timeout)
        except (TimeoutError, ConnectionError):
            pass
    return bool(conn.pending)


def receive(conn, length_of, deadline: float):
    """One message as ``(start, headers, body)``.

    ``length_of(start, headers)`` gives the body length — or raises, to
    refuse the head — before any body byte is read; the body is one
    preallocated ``bytearray``, filled in place.  ``conn.pending`` is
    non-empty from the message's first byte until it is complete, and
    keeps whatever followed it.
    """
    pending, scanned = conn.pending, 0
    while (end := pending.find(_END, scanned)) < 0:
        if len(pending) > MAX_HEAD_BYTES:
            raise BadHead(431, "head too large")
        scanned = max(0, len(pending) - len(_END) + 1)
        chunk = yield conn.read(deadline)
        if not chunk:
            raise ConnectionAbortedError("peer closed before a full head")
        pending += chunk
    start, headers = parse_head(bytes(pending[:end]))
    length = length_of(start, headers)
    body = bytearray(length)
    at = end + len(_END)
    have = min(length, len(pending) - at)
    body[:have] = pending[at:at + have]
    consumed, view = at + have, memoryview(body)
    while have < length:
        got = yield conn.read(deadline, view[have:])
        if not got:
            raise ConnectionAbortedError("peer closed mid-body")
        have += got
    del pending[:consumed]
    return start, headers, body


def send(conn, head: bytes, chunks, deadline: float):
    """Write *head* and the body *chunks*: head and first chunk as one
    write (a lone head would wake the peer before there is a message to
    read), the caller's larger buffers as themselves."""
    if chunks and len(chunks[0]) <= _CHUNK:
        head, chunks = b"".join((head, chunks[0])), chunks[1:]
    yield conn.write([head, *chunks], deadline)


def exchange(conn, head: bytes, chunks, deadline: float):
    """One client round trip — ``(status, headers, body)``, all of it
    inside *deadline* — and the stale rule."""
    try:
        yield conn.open(deadline)
        yield from send(conn, head, chunks, deadline)
        (_, status, _), headers, body = yield from receive(
            conn, _response_length, deadline)
    except BaseException as exc:
        conn.close()
        if conn.reused and isinstance(exc, ConnectionError) \
                and not conn.pending:
            raise StaleConnection(f"idle connection dropped: {exc}") from exc
        raise
    conn.reused = True
    return int(status), headers, body


# -- drivers -----------------------------------------------------------------

def run(steps):
    """Drive *steps* over a blocking :class:`Connection`."""
    try:
        value = next(steps)
        while True:
            value = steps.send(value)
    except StopIteration as done:
        return done.value


async def run_async(steps):
    """Drive *steps* over an :class:`AsyncConnection`."""
    try:
        pending = next(steps)
        while True:
            try:
                value = await pending
            except BaseException as exc:
                pending = steps.throw(exc)
            else:
                pending = steps.send(value)
    except StopIteration as done:
        return done.value
    finally:
        steps.close()


def _remaining(deadline: float) -> float:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("deadline passed")
    return remaining


def dial(address, deadline: float) -> socket.socket:
    """Connect to ``(host, port)`` over tcp (``TCP_NODELAY`` set) or,
    given a ``str`` path, to that ``AF_UNIX`` socket."""
    if not isinstance(address, str):
        sock = socket.create_connection(address, _remaining(deadline))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(_remaining(deadline))
        sock.connect(address)
    except BaseException:
        sock.close()
        raise
    return sock


class Connection:
    """A blocking socket and the bytes read off it but not yet consumed.
    *stream* is an accepted socket; without one, :meth:`open` dials
    *address*."""

    def __init__(self, address=None, stream=None):
        self.address, self._stream = address, stream
        self.pending, self.reused = bytearray(), False

    def open(self, deadline: float) -> None:
        """Dial :attr:`address` unless already connected."""
        if self._stream is None:
            self._stream = dial(self.address, deadline)

    def read(self, deadline: float, into=None):
        """A chunk of bytes — or, filling a prefix of *into*, their
        count; empty / 0 at EOF."""
        self._stream.settimeout(_remaining(deadline))
        return self._stream.recv(_CHUNK) if into is None \
            else self._stream.recv_into(into)

    def write(self, parts, deadline: float) -> None:
        """Send every buffer of *parts*, in turn."""
        for part in parts:
            self._stream.settimeout(_remaining(deadline))
            self._stream.sendall(part)

    def _socket(self) -> socket.socket:
        return self._stream

    def hang_up(self) -> None:
        """No further requests: the reader sees EOF at its next read, a
        response being written still goes out."""
        try:
            self._socket().shutdown(socket.SHUT_RD)
        except OSError:
            pass  # already gone

    def close(self) -> None:
        """Release the socket."""
        if self._stream is not None:
            self._stream.close()


async def _within(deadline: float, awaitable):
    """Await *awaitable*; at *deadline* cancel it into ``TimeoutError``
    (``asyncio.timeout_at``, which 3.10 lacks)."""
    task, fired = asyncio.current_task(), []
    timer = asyncio.get_running_loop().call_at(
        deadline, lambda: (fired.append(True), task.cancel()))
    try:
        return await awaitable
    except asyncio.CancelledError:
        if not fired:
            raise
        if hasattr(task, "uncancel"):
            task.uncancel()
        raise TimeoutError("deadline passed") from None
    finally:
        timer.cancel()


class AsyncConnection(Connection):
    """:class:`Connection` over an asyncio ``(reader, writer)`` *stream*
    pair: the same calls, awaited."""

    async def open(self, deadline: float) -> None:
        if self._stream is None:
            self._stream = await _within(
                deadline, asyncio.open_unix_connection(self.address)
                if isinstance(self.address, str)
                else asyncio.open_connection(*self.address))

    async def read(self, deadline: float, into=None):
        chunk = await _within(deadline, self._stream[0].read(
            _CHUNK if into is None else len(into)))
        if into is None:
            return chunk
        into[:len(chunk)] = chunk
        return len(chunk)

    async def write(self, parts, deadline: float) -> None:
        for part in parts:  # not writelines(): 3.11's joins them
            self._stream[1].write(part)
        await _within(deadline, self._stream[1].drain())

    def _socket(self):
        return self._stream[1].get_extra_info("socket")

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream[1].close()
            except RuntimeError:
                pass  # its event loop is closed; the socket died with it
