"""The one wire layer under ``repro.serve`` and ``repro.fleet``.

Every byte that crosses a socket in either package goes through this
module.  The two servers (:class:`~repro.serve.server.Server`,
:class:`~repro.fleet.netstore.StoreServer`) are :class:`HTTPServer`
subclasses that supply routes, an error-body format, a banner and a
body cap; the two clients (:class:`~repro.serve.client.ServeClient`,
:class:`~repro.fleet.remote.RemoteJobStore`) call :func:`exchange` and
supply status mapping and retry policy.

Framing is HTTP/1.1 on persistent connections: a response carries a
``Content-Length`` and the connection serves the next request, unless
the request was HTTP/1.0 or said ``Connection: close``, the response
is the EOF-terminated event stream, a refusal or a 500, or the peer
idles for :data:`IDLE_SECONDS` (only those say ``Connection: close``).
A request that breaks the framing is refused with a typed
:class:`HTTPError` (400, 413 or 431; see :func:`read_request`) in the
server's own error format and logged at WARNING; anything a route
raises becomes a logged 500.  An answer that breaks the framing raises
:class:`WireError` in the client.  See "Transport" in
``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager, suppress
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

__all__ = ["MAX_HEAD", "HTTPError", "read_request", "response",
           "json_response", "HTTPServer", "serve_until_signal",
           "WireError", "Connection", "exchange", "hang_up"]

logger = logging.getLogger(__name__)

#: cap on the request head (request line + headers), which is also the
#: longest single line the stream reader will buffer
MAX_HEAD = 1 << 16

#: how long a refused request's unread input is drained before closing
LINGER_SECONDS = 2.0

#: how long a server keeps a connection that sends no next request
IDLE_SECONDS = 15.0

#: the status lines this layer can send
REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
           404: "Not Found", 409: "Conflict",
           413: "Payload Too Large", 429: "Too Many Requests",
           431: "Request Header Fields Too Large",
           500: "Internal Server Error"}

#: the clients' idle connections, one per (thread, host, port); a
#: forked child must not share its parent's sockets
_POOL: Dict[Tuple[int, str, int], Connection] = {}
os.register_at_fork(after_in_child=_POOL.clear)


class HTTPError(Exception):
    """A request that broke the framing; ``status`` is the answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except ValueError:  # the stream reader's line limit
        raise HTTPError(431, "request line or header longer than "
                             f"{MAX_HEAD} bytes") from None
    if line and not line.endswith(b"\n"):
        raise HTTPError(400, "request line or header cut off by EOF")
    return line


async def read_request(reader: asyncio.StreamReader, max_body: int
                       ) -> Optional[Tuple[str, str, bytes, bool]]:
    """Read one request as ``(METHOD, target, body, keep)``, ``keep``
    false for HTTP/1.0 or ``Connection: close``; ``None`` when the
    peer closed, and the calling task cancelled when it sent no request
    line for :data:`IDLE_SECONDS`.  Raises :class:`HTTPError` for
    anything but a well-framed request with at most ``max_body`` body
    bytes; an oversize body is refused on its declared length, unread."""
    idle = asyncio.get_running_loop().call_later(  # a task-free timeout
        IDLE_SECONDS, asyncio.current_task().cancel)
    try:
        line = await _readline(reader)
    finally:
        idle.cancel()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise HTTPError(400, "malformed request line")
    head, length, keep = len(line), 0, parts[2:3] == ["HTTP/1.1"]
    while True:
        h = await _readline(reader)
        if h in (b"\r\n", b"\n"):
            break
        if not h:
            raise HTTPError(400, "request head cut off by EOF")
        head += len(h)
        if head > MAX_HEAD:
            raise HTTPError(431, "request head longer than "
                                 f"{MAX_HEAD} bytes")
        name, _, value = h.decode("latin-1").lower().partition(":")
        if name.strip() == "connection" and "close" in value:
            keep = False
        elif name.strip() == "content-length":
            try:
                length = int(value)
            except ValueError:
                length = -1
            if length < 0:
                raise HTTPError(400, "Content-Length is not a "
                                     "non-negative integer")
            if length > max_body:
                raise HTTPError(413, f"request body of {length} bytes "
                                     f"exceeds the {max_body}-byte cap")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise HTTPError(400, "request body shorter than its "
                             "Content-Length") from None
    return parts[0].upper(), parts[1], body, keep


def response(status: int, body: Optional[bytes],
             content_type: str = "application/json",
             extra: Optional[Dict[str, str]] = None) -> bytes:
    """Render a response.  ``body=None`` renders only the head of an
    EOF-terminated stream: the caller writes the body and the
    connection closing ends it."""
    head = [f"HTTP/1.1 {status} {REASONS[status]}",
            f"Content-Type: {content_type}",
            "Connection: close" if body is None
            else f"Content-Length: {len(body)}"]
    head += [f"{k}: {v}" for k, v in (extra or {}).items()]
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + (body or b"")


def _closing(out: bytes) -> bytes:
    """``out`` with ``Connection: close`` as its last header."""
    return out.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1)


def json_response(status: int, doc: Any,
                  extra: Optional[Dict[str, str]] = None) -> bytes:
    """Render ``doc`` as a one-line JSON response."""
    return response(status, (json.dumps(doc) + "\n").encode("utf-8"),
                    extra=extra)


async def _discard(reader: asyncio.StreamReader) -> None:
    """Drain and drop what a refused peer is still sending.  Closing
    with unread input resets the connection, which would destroy the
    refusal in flight and look like a transport failure to the peer."""
    async def sink() -> None:
        while await reader.read(MAX_HEAD):
            pass
    with suppress(asyncio.TimeoutError):
        await asyncio.wait_for(sink(), LINGER_SECONDS)


class HTTPServer:
    """One listening socket serving persistent connections.

    A subclass sets ``prog`` (the ``repro <verb>`` banner prefix) and
    ``max_body`` (bytes) and defines ``async respond(method, path,
    body)`` to route a well-framed request to its rendered response
    (bytes, or an async iterator of chunks for a stream),
    ``error_response(status, message) -> bytes`` to render a refusal
    or a 500 in its own error format, and ``banner() -> str`` for
    :func:`serve_until_signal`.  ``port=0`` binds an ephemeral port;
    the bound port is the ``port`` attribute after :meth:`start`.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}

    @property
    def url(self) -> str:
        """``http://host:port`` of the (bound) socket."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "HTTPServer":
        """Bind and begin accepting; resolves ``port=0`` bindings."""
        self.started_at = time.time()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_HEAD)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("%s: serving on %s/", self.prog, self.url)
        return self

    async def stop(self) -> None:
        """Stop accepting, then close every connection, idle or
        mid-request, and wait until each is gone."""
        if self._server is not None:
            self._server.close()
            await asyncio.sleep(0)  # let just-accepted handlers enrol
            # close too: <3.12 wait_for can swallow a cancel (bpo-42130)
            for task, writer in self._conns.items():
                writer.close()
                task.cancel()
            await asyncio.gather(*self._conns, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conns[task] = writer
        try:
            while True:
                try:
                    request = await read_request(reader, self.max_body)
                except HTTPError as e:
                    logger.warning("%s: refused a request: %d %s",
                                   self.prog, e.status, e)
                    writer.write(_closing(
                        self.error_response(e.status, str(e))))
                    await writer.drain()
                    await _discard(reader)
                    return
                if request is None:
                    return
                *request, keep = request
                out = await self.respond(*request)
                if not isinstance(out, bytes):
                    async for chunk in out:
                        writer.write(chunk)
                        await writer.drain()
                    return
                writer.write(out if keep else _closing(out))
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            # a peer gone or idle, or stop()'s cancel: ending
            # normally keeps 3.12's client_connected_cb from logging it
            pass
        except Exception as e:  # pragma: no cover - defensive 500
            logger.exception("%s: request handling failed", self.prog)
            with suppress(Exception):
                writer.write(_closing(self.error_response(
                    500, f"{type(e).__name__}: {e}")))
        finally:
            del self._conns[task]
            with suppress(Exception):
                await writer.drain()
                writer.close()
                await writer.wait_closed()


async def serve_until_signal(server: HTTPServer) -> None:
    """Serve until SIGINT/SIGTERM, then shut down cleanly."""
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with suppress(NotImplementedError, RuntimeError):  # not Unix
            loop.add_signal_handler(sig, stop.set)
    print(f"{server.prog}: {server.banner()}", flush=True)
    await stop.wait()
    print(f"{server.prog}: shutting down", flush=True)
    await server.stop()


class WireError(OSError):
    """An answer :func:`exchange` cannot frame: a bad status line or
    Content-Length, a head or body cut short, or a chunked body."""


class Connection:
    """One client connection and the answer last read on it:
    ``status``, ``headers`` (lower-cased names) and a body framed by
    ``Content-Length`` or, with none, by EOF (the event stream), to
    :meth:`read` or iterate by line.  Closed, its ``sock`` is None."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.file = self.sock.makefile("rb")

    def request(self, data: bytes) -> None:
        """Send one request; read the answer's status line and head."""
        self.sock.sendall(data)
        line = self.file.readline(MAX_HEAD)
        if not line:
            raise ConnectionResetError("closed before any response byte")
        if line[:7] != b"HTTP/1." or not line[9:12].isdigit():
            raise WireError(f"malformed status line {line[:80]!r}")
        self.status, self.headers = int(line[9:12]), {}
        while (h := self.file.readline(MAX_HEAD)) not in (b"\r\n", b"\n"):
            if not h.endswith(b"\n"):
                raise WireError("response head cut off")
            name, _, value = h.decode("latin-1").partition(":")
            self.headers[name.strip().lower()] = value.strip()
        length = self.headers.get("content-length")
        if "transfer-encoding" in self.headers or not (
                length is None or length.isdecimal()):
            raise WireError(f"answer framed by neither Content-Length "
                            f"nor EOF: {self.headers}")
        self._left = None if length is None else int(length)
        self.will_close = length is None or "close" in self.headers.get(
            "connection", "").lower()

    def read(self, n: int = -1) -> bytes:
        """The rest of the body, or at most ``n`` bytes of it."""
        if self._left is None:  # ended by EOF
            data = self.file.read(n)
            self._left = 0 if n < 0 or len(data) < n else None
            return data
        n = self._left if n < 0 else min(n, self._left)
        data = self.file.read(n)
        if len(data) < n:
            raise WireError("response body cut off")
        self._left -= n
        return data

    def __iter__(self) -> Iterator[bytes]:
        yield from (iter(self.file.readline, b"") if self._left is None
                    else io.BytesIO(self.read()))
        self._left = 0

    def isclosed(self) -> bool:
        """Whether the body was read to its end."""
        return self._left == 0

    def close(self) -> None:
        if self.sock is not None:
            self.file.close()
            self.sock.close()
            self.sock = None


@contextmanager
def exchange(host: str, port: int, method: str, path: str,
             body: Optional[bytes] = None, *,
             timeout: float) -> Iterator[Connection]:
    """One request on the calling thread's pooled connection to
    ``host:port``; a body is sent as ``application/json``.  Yields the
    connection with the answer's status and headers read; the caller
    reads the body inside the block, and only an answer read to its end
    that does not close returns the connection to the pool.  A reused
    connection that fails before any response byte (idle-closed, or
    the server restarted) is replaced by a fresh one for one resend."""
    if " " in path or not path.isprintable():
        raise ValueError(f"request target {path!r} holds a space or "
                         "a control character")
    length = (f"Content-Length: {len(body or b'')}\r\n"
              if body is not None or method == "POST" else "")
    kind = "Content-Type: application/json\r\n" if body else ""
    data = (f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Accept-Encoding: identity\r\n{length}{kind}\r\n"
            ).encode("ascii") + (body or b"")
    key = (threading.get_ident(), host, port)
    conn = _POOL.pop(key, None)
    while True:
        fresh = conn is None
        if fresh:
            alive = {t.ident for t in threading.enumerate()}
            _close_idle(lambda k: k[0] not in alive)  # threads gone
            conn = Connection(host, port, timeout)
        else:
            conn.sock.settimeout(timeout)
        try:
            conn.request(data)
            break
        except BaseException as e:
            conn.close()
            if fresh or not isinstance(e, ConnectionError):
                raise
            conn = None
    try:
        yield conn
    finally:
        if (conn.will_close or not conn.isclosed()
                or _POOL.setdefault(key, conn) is not conn):
            conn.close()


def _close_idle(drop: Callable[[Tuple[int, str, int]], bool]) -> None:
    """Close the pooled connections whose keys ``drop`` selects."""
    for key in [k for k in list(_POOL) if drop(k)]:
        conn = _POOL.pop(key, None)
        if conn is not None:
            conn.close()


def hang_up(host: str, port: int) -> None:
    """Close every idle pooled connection to ``host:port``."""
    _close_idle(lambda k: k[1:] == (host, port))
