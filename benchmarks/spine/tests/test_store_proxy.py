"""The counting proxy must forward -- and count -- every op of the
``JobStore`` contract, found by introspection so a new op cannot be
silently uncounted."""

import inspect
from unittest import mock

from repro.serve.store import JobStore, MemoryJobStore

from spine_store import PROBED_OPS, CountingStore, store_microbench, store_ops


def _contract():
    return [name for name, attr in vars(JobStore).items()
            if callable(attr) and not name.startswith("_")]


def test_every_contract_method_is_overridden_by_a_delegate():
    assert sorted(_contract()) == store_ops()
    assert {"allocate", "claim", "cache_get", "fleet_heartbeat",
            "queued"} <= set(store_ops())
    for op in _contract():
        assert op in vars(CountingStore), f"{op} is not proxied"
        assert vars(CountingStore)[op] is not vars(JobStore)[op]


def test_each_op_reaches_the_inner_store_once_with_its_arguments():
    inner = mock.MagicMock(spec=JobStore)
    proxy = CountingStore(inner)
    for op in _contract():
        params = [p for p in inspect.signature(
            getattr(JobStore, op)).parameters.values() if p.name != "self"]
        args = [f"a-{p.name}" for p in params
                if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty]
        kwargs = {p.name: f"k-{p.name}" for p in params
                  if p.kind is p.KEYWORD_ONLY and p.default is p.empty}
        assert getattr(proxy, op)(*args, **kwargs) \
            is getattr(inner, op).return_value
        getattr(inner, op).assert_called_once_with(*args, **kwargs)
        assert proxy.calls[op] == 1 and proxy.seconds[op] >= 0.0
    assert proxy.total_calls == len(_contract())


def test_kind_and_other_attributes_come_from_the_inner_store():
    inner = MemoryJobStore()
    proxy = CountingStore(inner)
    assert isinstance(proxy, JobStore) and proxy.kind == "memory"
    inner.url = "http://example:1"
    assert proxy.url == "http://example:1"


def test_a_failing_op_is_still_counted():
    inner = mock.MagicMock(spec=JobStore)
    inner.get.side_effect = RuntimeError("boom")
    proxy = CountingStore(inner)
    try:
        proxy.get("j1")
    except RuntimeError:
        pass
    assert proxy.calls == {"get": 1}


def test_microbench_times_every_probed_op_through_the_proxy():
    proxy = CountingStore(MemoryJobStore())
    walls = store_microbench(proxy, 5, n=16)
    assert set(walls) == set(PROBED_OPS)
    assert all(w > 0.0 for w in walls.values())
    assert all(proxy.calls[op] == 5 for op in PROBED_OPS)
