"""The ``repro.fleet-rpc/v1`` envelope: sealing, digest checking,
typed error round-trips -- pure protocol, no sockets."""

import inspect
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import PayloadCorrupt, ProtocolError, RPC_OPS, \
    RPC_SCHEMA
from repro.fleet.protocol import (_seal, pack_error, pack_request,
                                  pack_result, unpack_request,
                                  unpack_response)
from repro.serve import JobStore, StoreCorrupt, StoreError


class TestEnvelopes:
    def test_request_round_trip(self):
        raw = pack_request("claim", {"job_id": "j1", "worker": "w",
                                     "now": 1.0, "ttl": 30.0})
        op, args = unpack_request(raw)
        assert op == "claim"
        assert args == {"job_id": "j1", "worker": "w", "now": 1.0,
                        "ttl": 30.0}

    def test_result_round_trip(self):
        raw = pack_result({"jobs": [1, 2], "ok": None})
        assert unpack_response(raw) == {"jobs": [1, 2], "ok": None}

    def test_envelope_carries_schema_and_digest(self):
        doc = json.loads(pack_request("list", {}))
        assert doc["schema"] == RPC_SCHEMA
        assert len(doc["sha256"]) == 64

    def test_rpc_ops_cover_the_store_contract(self):
        """Every RPC op is a real store method, and the remote driver
        proxies every one of them (derived queries intentionally stay
        client-side on the base class)."""
        from repro.fleet import RemoteJobStore
        for op in RPC_OPS:
            assert callable(getattr(JobStore, op, None)), op
            assert op in RemoteJobStore.__dict__, \
                f"RemoteJobStore does not proxy {op!r}"
            # ...and the proxy *is* the base declaration: same
            # signature, same docstring, nothing restated
            proxy, base = getattr(RemoteJobStore, op), getattr(JobStore, op)
            assert inspect.signature(proxy) == inspect.signature(base), op
            assert proxy.__doc__ == base.__doc__, op

    @pytest.mark.parametrize("op,args,kwargs,sealed", [
        ("update", ({"id": "j1"},), {},
         {"doc": {"id": "j1"}, "worker": None, "events": None,
          "cache_key": None}),
        ("requeue", ("j1",), {},
         {"job_id": "j1", "from_state": "paused"}),
        ("fleet_heartbeat", ("w",), {"now": 1.0, "ttl": 2.0},
         {"worker": "w", "now": 1.0, "ttl": 2.0, "state": None}),
        ("heartbeat", ("j1", "w"), {"now": 1.0, "ttl": 2.0},
         {"job_id": "j1", "worker": "w", "now": 1.0, "ttl": 2.0,
          "doc": None}),
        ("cache_put", ("k", None, {"n": 1}), {},
         {"key": "k", "digest": None, "result": {"n": 1}}),
    ])
    def test_proxies_seal_every_argument_by_name(self, op, args,
                                                 kwargs, sealed):
        """A positional call and its all-keyword spelling put the same
        envelope on the wire, defaulted arguments included."""
        from repro.fleet import RemoteJobStore
        sent = []
        store = RemoteJobStore("http://127.0.0.1:1")
        store._call = lambda op, **a: sent.append(pack_request(op, a))
        getattr(store, op)(*args, **kwargs)
        getattr(store, op)(**sealed)
        assert sent == [pack_request(op, sealed)] * 2

    def test_allocate_is_a_tuple_over_the_wire(self, remote):
        pair = remote.allocate()
        assert type(pair) is tuple and len(pair) == 2


class TestDamage:
    def test_truncation_is_payload_corrupt(self):
        raw = pack_result([1, 2, 3])
        with pytest.raises(PayloadCorrupt):
            unpack_response(raw[:len(raw) // 2])

    def test_bit_flip_is_payload_corrupt(self):
        raw = bytearray(pack_result({"digest": "abc"}))
        i = raw.index(b"abc"[0])
        raw[i] ^= 0x01
        with pytest.raises(PayloadCorrupt):
            unpack_response(bytes(raw))

    def test_missing_digest_is_protocol_error(self):
        naked = (json.dumps({"schema": RPC_SCHEMA, "ok": True,
                             "result": 1}) + "\n").encode()
        with pytest.raises(ProtocolError):
            unpack_response(naked)

    def test_foreign_schema_is_protocol_error(self):
        from repro.serve.store import _canon, _doc_sha
        doc = {"schema": "someone.elses/v9", "ok": True, "result": 1}
        doc["sha256"] = _doc_sha(_canon(doc))
        with pytest.raises(ProtocolError):
            unpack_response((_canon(doc) + "\n").encode())

    def test_unknown_op_is_protocol_error(self):
        from repro.serve.store import _canon, _doc_sha
        doc = {"schema": RPC_SCHEMA, "op": "drop_tables", "args": {}}
        doc["sha256"] = _doc_sha(_canon(doc))
        with pytest.raises(ProtocolError):
            unpack_request((_canon(doc) + "\n").encode())

    def test_corrupt_is_a_store_corrupt_and_protocol_a_store_error(self):
        """Typed errors slot into the existing store hierarchy, so
        callers catching StoreError/StoreCorrupt keep working."""
        assert issubclass(PayloadCorrupt, StoreCorrupt)
        assert issubclass(ProtocolError, StoreError)


class TestErrorRoundTrip:
    @pytest.mark.parametrize("exc_cls", [StoreError, StoreCorrupt,
                                         ProtocolError])
    def test_server_error_class_survives_the_wire(self, exc_cls):
        raw = pack_error(exc_cls("the message"))
        with pytest.raises(exc_cls, match="the message"):
            unpack_response(raw)

    def test_unknown_error_type_degrades_to_store_error(self):
        raw = pack_error(RuntimeError("weird"))
        with pytest.raises(StoreError, match="weird") as ei:
            unpack_response(raw)
        assert type(ei.value) is StoreError


# -- fuzz: any bytes decode or fail typed --------------------------------

#: ops the envelope no longer carries: their work lives inside
#: ``enqueue`` / ``claim_next``
RETIRED_OPS = ("tenant_active", "tenant_load")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)

#: sealed envelopes with any subset of fields, each plausible or not
envelopes = st.fixed_dictionaries({}, optional={
    "schema": st.sampled_from([RPC_SCHEMA, "repro.fleet-rpc/v0"])
    | json_values,
    "op": st.sampled_from(sorted(RPC_OPS) + list(RETIRED_OPS))
    | json_values,
    "args": json_values, "ok": json_values, "result": json_values,
    "error": json_values,
    "type": st.sampled_from(["StoreError", "PayloadCorrupt", "Nope"])
    | json_values,
}).map(_seal)


@st.composite
def damaged(draw, raw):
    """``raw`` as sent, truncated, or with one byte flipped."""
    raw = bytearray(draw(raw))
    how = draw(st.sampled_from(["keep", "truncate", "flip"]))
    at = draw(st.integers(min_value=0, max_value=len(raw) - 1))
    if how == "truncate":
        del raw[at:]
    elif how == "flip":
        raw[at] ^= draw(st.integers(min_value=1, max_value=255))
    return bytes(raw)


wire = st.binary(max_size=512) | damaged(envelopes)


class TestFuzz:
    """``unpack_request`` / ``unpack_response`` over arbitrary and
    almost-valid bytes: a decoded value of the right shape, or a
    typed error -- never another exception."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(raw=wire)
    def test_requests_decode_or_fail_typed(self, raw):
        try:
            op, args = unpack_request(raw)
        except (PayloadCorrupt, ProtocolError):
            return
        assert op in RPC_OPS and isinstance(args, dict)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(raw=wire)
    def test_responses_decode_or_fail_typed(self, raw):
        try:
            unpack_response(raw)
        except StoreError:  # wire damage, or the server's typed answer
            pass

    @pytest.mark.parametrize("op", RETIRED_OPS)
    def test_retired_ops_are_unknown(self, op):
        with pytest.raises(ProtocolError, match="unknown RPC op"):
            unpack_request(pack_request(op, {"tenant": "a"}))
