"""The one wire layer (:mod:`repro.serve.transport`): the request
reader fuzzed in memory, the response writer pinned byte for byte,
the typed refusals checked over real TCP against both servers that
sit on it, and the persistent connections both clients reuse."""

import asyncio
import gc
import json
import logging
import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, parse_fault_plan
from repro.fleet import ProtocolError, RemoteJobStore
from repro.fleet.protocol import StoreUnavailable, unpack_response
from repro.obs import MetricsRegistry
from repro.serve import (JOB_SCHEMA, Backpressure, MemoryJobStore,
                         Scheduler, ServeClient, Server, transport)
from tests.fleet.conftest import live_store_server
from tests.serve.conftest import live_server

MAX_BODY = 64


def read(data: bytes):
    """Run the shared reader over ``data`` followed by EOF."""
    async def go():
        reader = asyncio.StreamReader(limit=transport.MAX_HEAD)
        reader.feed_data(data)
        reader.feed_eof()
        return await transport.read_request(reader, MAX_BODY)
    return asyncio.run(go())


def assert_typed_outcome(data: bytes):
    """A parsed request, a clean EOF or the module's typed error --
    never anything else."""
    try:
        request = read(data)
    except transport.HTTPError as e:
        assert e.status in (400, 413, 431)
        return
    if request is not None:
        method, path, body, keep = request
        assert method == method.upper() and path
        assert isinstance(body, bytes) and len(body) <= MAX_BODY
        assert isinstance(keep, bool)


content_lengths = st.one_of(
    st.integers(-3, 2 * MAX_BODY).map(str),
    st.sampled_from(["", "abc", "1e3", "0x10", "+4", " 7 ", "9" * 5000,
                     "²"]))


@st.composite
def almost_valid(draw):
    """A request that is right except where it is not: odd request
    lines, junk/negative/oversize lengths, short bodies, bare-LF line
    ends, one flipped byte, a truncated tail."""
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    lines = [draw(st.sampled_from(
        ["GET /healthz HTTP/1.1", "post /rpc/v1 HTTP/1.1", "GET",
         "", "DELETE /jobs/j1 HTTP/1.0 extra", "GET /" + "a" * 70000]))]
    for name in draw(st.lists(st.sampled_from(
            ["Content-Length", "content-length", "Host", "X-Pad"]),
            max_size=4)):
        value = (draw(content_lengths) if name.lower() ==
                 "content-length" else draw(st.sampled_from(
                     ["x", "a" * 40000])))
        lines.append(f"{name}:{value}")
    raw = (eol.join(lines) + eol + eol).encode("latin-1") \
        + draw(st.binary(max_size=2 * MAX_BODY))
    if draw(st.booleans()) and raw:
        i = draw(st.integers(0, len(raw) - 1))
        raw = raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) \
            + raw[i + 1:]
    return raw[:draw(st.integers(0, len(raw)))] \
        if draw(st.booleans()) else raw


class TestReader:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.binary(max_size=512))
    def test_arbitrary_bytes_parse_or_fail_typed(self, data):
        assert_typed_outcome(data)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=almost_valid())
    def test_almost_valid_requests_parse_or_fail_typed(self, data):
        assert_typed_outcome(data)

    def test_well_formed_request(self):
        assert read(b"post /rpc/v1?x=1 HTTP/1.1\r\nHost: h\r\n"
                    b"Content-Length: 3\r\n\r\nabcdef") == \
            ("POST", "/rpc/v1?x=1", b"abc", True)
        assert read(b"GET /healthz HTTP/1.1\n\n") == \
            ("GET", "/healthz", b"", True)
        assert read(b"") is None

    @pytest.mark.parametrize("data", [
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"GET /healthz\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nconnection:Keep-Alive, Close\r\n\r\n",
    ])
    def test_http10_and_connection_close_do_not_keep(self, data):
        assert read(data) == ("GET", "/healthz", b"", False)

    @pytest.mark.parametrize("data,status", [
        (b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: five\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort", 400),
        (b"GARBAGE\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n", 413),
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 431),
        (b"GET / HTTP/1.1\r\n" + b"X-Pad: " + b"a" * 70000
         + b"\r\n\r\n", 431),
        (b"GET / HTTP/1.1\r\n" + (b"X-Pad: " + b"a" * 30000 + b"\r\n")
         * 3 + b"\r\n", 431),
    ])
    def test_broken_framing_is_refused_with_its_status(self, data,
                                                       status):
        with pytest.raises(transport.HTTPError) as exc:
            read(data)
        assert exc.value.status == status


class TestWriter:
    def test_golden_bytes(self):
        """Header names and their order are the wire format both
        clients (and older peers) parse.  A response with a length
        keeps its connection, so it says nothing about it; one the
        server closes after gets ``Connection: close`` last."""
        assert transport.response(200, b'{"a": 1}\n') == (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 9\r\n\r\n"
            b'{"a": 1}\n')
        assert transport.json_response(
            429, {"error": "slow down"}, extra={"Retry-After": "3"}) == (
            b"HTTP/1.1 429 Too Many Requests\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 23\r\n"
            b"Retry-After: 3\r\n\r\n"
            b'{"error": "slow down"}\n')
        assert transport._closing(transport.response(400, b"{}")) == (
            b"HTTP/1.1 400 Bad Request\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 2\r\n"
            b"Connection: close\r\n\r\n{}")

    def test_stream_head_has_no_length(self):
        assert transport.response(
            200, None, content_type="application/x-ndjson") == (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n")


def raw_exchange(port: int, data: bytes):
    """Send ``data``, half-close, read to EOF; ``(status, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(data)
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := s.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert b"Connection: close" in head
    return int(head.split()[1]), body


def serve_error(body: bytes) -> str:
    return json.loads(body)["error"]


def rpc_error(body: bytes) -> str:
    with pytest.raises(ProtocolError) as exc:
        unpack_response(body)
    return str(exc.value)


@pytest.fixture(params=["serve", "store"])
def live(request, tmp_path):
    """``(server, POST route, error-body decoder)`` for each of the
    two servers on the transport."""
    if request.param == "serve":
        with live_server(slots=1, workdir=tmp_path) as (server, _):
            yield server, "/jobs", serve_error
    else:
        with live_store_server(MemoryJobStore()) as server:
            yield server, "/rpc/v1", rpc_error


class TestRefusalsOverTCP:
    def test_malformed_requests_answer_typed_and_log_no_error(
            self, live, caplog):
        server, route, decode = live
        post = f"POST {route} HTTP/1.1\r\n".encode()
        cases = [
            (post + b"Content-Length: -5\r\n\r\n", 400,
             "Content-Length"),
            (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 431,
             "longer than"),
            (post + f"Content-Length: {server.max_body + 1}\r\n\r\n"
             .encode(), 413, "exceeds"),
        ]
        with caplog.at_level(logging.DEBUG):
            for data, status, needle in cases:
                got, body = raw_exchange(server.port, data)
                assert got == status
                assert needle in decode(body)
        assert [r for r in caplog.records
                if r.levelno >= logging.ERROR] == []
        assert sum(r.levelno == logging.WARNING and
                   r.name == transport.__name__
                   for r in caplog.records) == len(cases)

    @pytest.mark.parametrize("data", [
        b"GET /healthz HTTP/1.1",
        b"GET /healthz HTTP/1.1\r\nX-Pad: 1",
        b"GET /healthz HTTP/1.1\r\nX-Pad: 1\r\n",
    ], ids=["request-line", "header", "blank-line"])
    def test_head_cut_off_by_eof_is_refused(self, live, data, caplog):
        """A head the peer's half-close cuts off -- inside a line, or
        before the blank line that ends it -- is no request: 400, never
        served."""
        server, _, decode = live
        with caplog.at_level(logging.DEBUG):
            status, body = raw_exchange(server.port, data)
        assert status == 400
        assert "cut off" in decode(body)
        assert [r for r in caplog.records
                if r.levelno >= logging.ERROR] == []


@pytest.fixture
def accepted(monkeypatch):
    """The connections the servers accept from here on: one entry per
    :meth:`~repro.serve.transport.HTTPServer._handle` call."""
    seen = []
    handle = transport.HTTPServer._handle

    async def counting(self, reader, writer):
        seen.append(self.port)
        await handle(self, reader, writer)
    monkeypatch.setattr(transport.HTTPServer, "_handle", counting)
    return seen


def read_response(sock):
    """One response off a socket left open: ``(status, head, body)``,
    the body by its ``Content-Length``, or to EOF when it has none."""
    f = sock.makefile("rb")
    head = b""
    while (line := f.readline()) not in (b"\r\n", b""):
        head += line
    length = [int(h.split(b":")[1]) for h in head.split(b"\r\n")
              if h.lower().startswith(b"content-length:")]
    body = f.read(length[0]) if length else f.read()
    return int(head.split()[1]), head, body


def closed_by_server(sock) -> bool:
    """Whether the server closed the connection (waits up to the
    socket timeout; a connection left open raises it)."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def rpc_bytes(op: str, **args) -> bytes:
    from repro.fleet.protocol import pack_request
    body = pack_request(op, args)
    return (f"POST /rpc/v1 HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class TestPersistentConnections:
    """Deterministic: connections are counted, never timed."""

    def test_sequential_rpcs_share_one_connection(self, accepted):
        with live_store_server(MemoryJobStore()) as server:
            remote = RemoteJobStore(server.url)
            got = [remote.allocate() for _ in range(20)]
            remote.close()
        assert [seq for _, seq in got] == list(range(1, 21))
        assert len(set(jid for jid, _ in got)) == 20
        assert accepted == [server.port]

    def test_idle_closed_connection_is_replaced_without_a_retry(
            self, accepted, monkeypatch):
        monkeypatch.setattr(transport, "IDLE_SECONDS", 0.05)
        metrics = MetricsRegistry()
        with live_store_server(MemoryJobStore()) as server:
            remote = RemoteJobStore(server.url, metrics=metrics)
            assert remote.allocate()[1] == 1
            key = (threading.get_ident(), server.host, server.port)
            with socket.socket(fileno=socket.dup(
                    transport._POOL[key].sock.fileno())) as s:
                s.settimeout(10)
                assert closed_by_server(s)  # the server let it go
            assert remote.allocate()[1] == 2
            remote.close()
        assert len(accepted) == 2
        assert metrics.counter("fleet.rpc_retries", "").value == 0

    def test_restarted_server_is_reached_without_a_retry(self, accepted):
        backing = MemoryJobStore()
        metrics = MetricsRegistry()
        with live_store_server(backing) as first:
            remote = RemoteJobStore(first.url, metrics=metrics)
            assert remote.allocate()[1] == 1
        with live_store_server(backing, port=first.port):
            assert remote.allocate()[1] == 2
            remote.close()
        assert len(accepted) == 2
        assert metrics.counter("fleet.rpc_retries", "").value == 0

    @pytest.mark.parametrize("line,header", [
        ("HTTP/1.0", ""), ("HTTP/1.1", "Connection: close\r\n")])
    def test_http10_and_connection_close_are_answered_then_closed(
            self, line, header):
        with live_store_server(MemoryJobStore()) as server, \
                socket.create_connection(("127.0.0.1", server.port),
                                         timeout=10) as s:
            s.sendall(f"GET /healthz {line}\r\n{header}\r\n".encode())
            status, head, body = read_response(s)
            assert status == 200 and json.loads(body)["status"] == "ok"
            assert b"Connection: close" in head
            assert closed_by_server(s)

    def test_keep_alive_connection_serves_requests_in_turn(self):
        with live_store_server(MemoryJobStore()) as server, \
                socket.create_connection(("127.0.0.1", server.port),
                                         timeout=10) as s:
            for seq in (1, 2, 3):
                s.sendall(rpc_bytes("allocate"))
                status, head, body = read_response(s)
                assert status == 200 and b"Connection" not in head
                assert unpack_response(body)[1] == seq
            # a refusal on a kept-alive connection still closes it
            s.sendall(b"POST /rpc/v1 HTTP/1.1\r\n"
                      b"Content-Length: -5\r\n\r\n")
            status, head, body = read_response(s)
            assert status == 400 and b"Connection: close" in head
            assert closed_by_server(s)

    def test_event_stream_says_close_and_ends_at_eof(self, tmp_path):
        with live_server(slots=1, workdir=tmp_path) as (server, client):
            job = client.submit({"schema": JOB_SCHEMA,
                                 "kind": "force_eval",
                                 "params": {"n": 64}})
            client.wait(job["id"], timeout=60, poll=0.01)
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as s:
                s.sendall(f"GET /jobs/{job['id']}/events HTTP/1.1\r\n"
                          f"\r\n".encode())
                status, head, body = read_response(s)
                assert status == 200 and b"Connection: close" in head
                assert b"Content-Length" not in head
                assert body.splitlines()[-1] == \
                    b'{"event": "state", "state": "done"}'
                assert closed_by_server(s)

    def test_threads_share_one_client_correctly(self, accepted):
        with live_store_server(MemoryJobStore()) as server:
            remote = RemoteJobStore(server.url)
            got = [[] for _ in range(8)]

            def work(mine):
                for _ in range(50):
                    mine.append(remote.allocate())

            threads = [threading.Thread(target=work, args=(g,))
                       for g in got]
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(switch)
            assert not any(t.is_alive() for t in threads)
            remote.close()
        pairs = [p for g in got for p in g]
        assert sorted(seq for _, seq in pairs) == list(range(1, 401))
        assert len({jid for jid, _ in pairs}) == 400
        for g in got:  # each thread saw its own answers, in order
            assert [seq for _, seq in g] == sorted(seq for _, seq in g)
        assert len(accepted) == 8

    def test_an_exited_threads_connection_is_closed(self):
        with live_store_server(MemoryJobStore()) as server:
            remote = RemoteJobStore(server.url)
            worker = threading.Thread(target=remote.counts)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            key = (worker.ident, server.host, server.port)
            conn = transport._POOL[key]
            remote.counts()  # this thread's first, fresh connection
            assert key not in transport._POOL and conn.sock is None
            remote.close()

    def test_half_read_or_raising_blocks_never_pool(self, accepted):
        with live_store_server(MemoryJobStore()) as server:
            key = (threading.get_ident(), server.host, server.port)
            with pytest.raises(RuntimeError):
                with transport.exchange(server.host, server.port, "GET",
                                        "/healthz", timeout=10):
                    raise RuntimeError("caller bug")
            assert key not in transport._POOL
            with transport.exchange(server.host, server.port, "GET",
                                    "/healthz", timeout=10) as resp:
                resp.read(5)
            assert key not in transport._POOL
            with transport.exchange(server.host, server.port, "GET",
                                    "/healthz", timeout=10) as resp:
                assert json.loads(resp.read())["status"] == "ok"
            assert key in transport._POOL
            # a fully read answer that raises keeps its connection
            with pytest.raises(RuntimeError):
                with transport.exchange(server.host, server.port, "GET",
                                        "/healthz", timeout=10) as resp:
                    resp.read()
                    raise RuntimeError("caller bug")
            assert key in transport._POOL
            transport.hang_up(server.host, server.port)
            assert key not in transport._POOL
        assert len(accepted) == 3

    def test_corrupted_answer_does_not_poison_the_connection(
            self, accepted):
        with live_store_server(MemoryJobStore()) as server:
            metrics = MetricsRegistry()
            remote = RemoteJobStore(
                server.url, retries=2, backoff=0.01, metrics=metrics,
                fault_injector=FaultInjector(parse_fault_plan(
                    "corrupt_result@site=fleet.rpc,count=1")))
            assert remote.allocate()[1] == 2  # 1 went to the damage
            assert [remote.allocate()[1] for _ in range(3)] == [3, 4, 5]
            remote.close()
        assert metrics.counter("fleet.rpc_retries", "").value == 1
        assert len(accepted) == 1


class TestStop:
    """Stopping a server never waits for a client's idle connection
    (``asyncio.Server.wait_closed`` waits for open connections since
    Python 3.12.1)."""

    def _stopped_in(self, server, loop) -> float:
        t0 = time.monotonic()
        asyncio.run_coroutine_threadsafe(server.stop(),
                                         loop).result(timeout=30)
        return time.monotonic() - t0

    def _serve(self, server):
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever)
        thread.start()
        asyncio.run_coroutine_threadsafe(server.start(),
                                         loop).result(timeout=10)
        return loop, thread

    def _close(self, loop, thread):
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()

    def test_stop_with_pooled_connections_is_prompt(self, tmp_path,
                                                    caplog):
        from repro.fleet import StoreServer
        backing = MemoryJobStore()
        store = StoreServer(backing, port=0)
        sloop, sthread = self._serve(store)
        sched = Scheduler(slots=1, workdir=tmp_path, store=store.url)
        serve = Server(sched, port=0)
        loop, thread = self._serve(serve)
        with caplog.at_level(logging.DEBUG):
            try:
                client = ServeClient(port=serve.port)
                job = client.submit({"schema": JOB_SCHEMA,
                                     "kind": "force_eval",
                                     "params": {"n": 64}})
                assert client.wait(job["id"], timeout=60,
                                   poll=0.01)["state"] == "done"
                # an idle pooled connection to each server, and one
                # held open mid-request by a raw client
                RemoteJobStore(store.url).counts()
                raw = socket.create_connection(("127.0.0.1",
                                                serve.port), timeout=10)
                raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert read_response(raw)[0] == 200  # it is served
                raw.sendall(b"GET /healthz HTTP/1.1\r\n")
                assert self._stopped_in(serve, loop) < 1.0
                assert self._stopped_in(store, sloop) < 1.0
                raw.close()
            finally:
                self._close(loop, thread)
                self._close(sloop, sthread)
                backing.close()
            gc.collect()
        assert [r.getMessage() for r in caplog.records
                if r.levelno >= logging.ERROR] == []


@contextmanager
def canned_server(*segments, pause=0.0):
    """A raw-socket server that answers every request it reads with
    ``segments``, sent ``pause`` seconds apart, then closes the
    connection; yields ``(port, requests)``, each request as read."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    requests, stop = [], threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(10)
                data = b""
                while b"\r\n\r\n" not in data and (chunk := conn.recv(4096)):
                    data += chunk
                length = [int(h.split(b":")[1]) for h in data.split(b"\r\n")
                          if h.lower().startswith(b"content-length:")]
                while (len(data.partition(b"\r\n\r\n")[2]) < sum(length)
                       and (chunk := conn.recv(4096))):
                    data += chunk
                requests.append(data)
                for segment in segments:
                    time.sleep(pause)
                    conn.sendall(segment)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield listener.getsockname()[1], requests
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
        assert not thread.is_alive()


def pieces(data: bytes, *cuts: int):
    """``data`` cut at the given offsets."""
    bounds = (0, *cuts, len(data))
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


class TestClientFraming:
    """The client reads what :class:`~repro.serve.transport.HTTPServer`
    sends, however the bytes arrive, and fails typed on anything
    else."""

    def test_segmented_answer_is_read_whole(self):
        answer = transport.json_response(200, {"a": [1, 2, 3]})
        with canned_server(*pieces(answer, 3, 17, 40, len(answer) - 2),
                           pause=0.05) as (port, requests):
            with transport.exchange("127.0.0.1", port, "POST", "/rpc/v1",
                                    b'{"x": 2}', timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers.get("content-type") == \
                    "application/json"
                assert json.loads(resp.read()) == {"a": [1, 2, 3]}
                assert resp.isclosed() and not resp.will_close
            transport.hang_up("127.0.0.1", port)
        # the request head is what http.client sent for the same call
        assert requests == [
            f"POST /rpc/v1 HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            "Accept-Encoding: identity\r\nContent-Length: 8\r\n"
            "Content-Type: application/json\r\n\r\n"
            '{"x": 2}'.encode()]

    def test_event_stream_is_iterated_by_line_to_eof(self):
        events = [{"event": "step", "step": k} for k in range(3)]
        events.append({"event": "state", "state": "done"})
        body = "".join(json.dumps(e) + "\n" for e in events).encode()
        stream = transport.response(
            200, None, content_type="application/x-ndjson") + body
        with canned_server(*pieces(stream, 30, len(stream) - len(body) + 5,
                                   len(stream) - 9),
                           pause=0.05) as (port, requests):
            assert list(ServeClient(port=port).events("j1")) == events
        assert requests[0].startswith(b"GET /jobs/j1/events HTTP/1.1\r\n")

    def test_header_names_match_in_any_case(self):
        body = b'{"error": "slow down"}\n'
        answer = (b"HTTP/1.1 429 Too Many Requests\r\n"
                  b"content-TYPE: application/json\r\n"
                  b"CONTENT-LENGTH: %d\r\nretry-AFTER: 7\r\n\r\n"
                  % len(body) + body)
        with canned_server(answer) as (port, _):
            with pytest.raises(Backpressure) as exc:
                ServeClient(port=port).submit({"kind": "force_eval"})
            transport.hang_up("127.0.0.1", port)
        assert exc.value.retry_after == 7.0
        assert exc.value.message == "slow down"

    @pytest.mark.parametrize("answer", [
        b"HTTP/1.1 OK 200\r\nContent-Length: 0\r\n\r\n",
        b"garbage\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"3\r\n{}\n\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: x1\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n{}",
    ], ids=["status-line", "garbage", "head-cut-off", "chunked",
            "bad-length", "body-cut-off"])
    def test_broken_framing_fails_typed(self, answer):
        """Each client sees :class:`~repro.serve.transport.WireError`:
        the RPC client retries it as transport trouble, the job client
        raises it; no connection that saw it is pooled."""
        with canned_server(answer) as (port, requests):
            with pytest.raises(transport.WireError):
                with transport.exchange("127.0.0.1", port, "GET",
                                        "/healthz", timeout=10) as resp:
                    resp.read()
            with pytest.raises(transport.WireError):
                ServeClient(port=port).healthz()
            metrics = MetricsRegistry()
            remote = RemoteJobStore(f"http://127.0.0.1:{port}", retries=1,
                                    backoff=0.01, metrics=metrics)
            with pytest.raises(StoreUnavailable) as exc:
                remote.counts()
            assert isinstance(exc.value.__cause__, transport.WireError)
            assert metrics.counter("fleet.rpc_retries", "").value == 1
            assert len(requests) == 4
            assert not [k for k in transport._POOL if k[2] == port]

    def test_request_line_cut_by_idle_timeout_is_not_served(
            self, monkeypatch):
        monkeypatch.setattr(transport, "IDLE_SECONDS", 0.2)
        with live_store_server(MemoryJobStore()) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as s:
                s.sendall(b"GET /healthz HTTP/1.1")  # no line end
                assert closed_by_server(s)  # closed, nothing answered
            remote = RemoteJobStore(server.url)
            assert remote.counts() == {}  # the server serves on
            remote.close()
