"""The one wire layer (:mod:`repro.serve.transport`): the request
reader fuzzed in memory, the response writer pinned byte for byte,
and the typed refusals checked over real TCP against both servers
that sit on it."""

import asyncio
import json
import logging
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import ProtocolError
from repro.fleet.protocol import unpack_response
from repro.serve import MemoryJobStore, transport
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
        method, path, body = request
        assert method == method.upper() and path
        assert isinstance(body, bytes) and len(body) <= MAX_BODY


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
            ("POST", "/rpc/v1?x=1", b"abc")
        assert read(b"GET /healthz HTTP/1.1\n\n") == \
            ("GET", "/healthz", b"")
        assert read(b"") is None

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
        """Header names, their order and ``Connection: close`` are
        the wire format both clients (and older peers) parse."""
        assert transport.response(200, b'{"a": 1}\n') == (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 9\r\n"
            b"Connection: close\r\n\r\n"
            b'{"a": 1}\n')
        assert transport.json_response(
            429, {"error": "slow down"}, extra={"Retry-After": "3"}) == (
            b"HTTP/1.1 429 Too Many Requests\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 23\r\n"
            b"Connection: close\r\n"
            b"Retry-After: 3\r\n\r\n"
            b'{"error": "slow down"}\n')

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
