"""Golden firings: the visits at which a seeded probabilistic fault
fires, pinned across code versions.

A ``prob`` fault fires where a hash of ``(plan seed, spec index, site
key)`` says it does, so each hook's site key is part of what every
recorded chaos plan means: change a key and the same plan fires
somewhere else.  Each case drives one hook through the code that
consults it in a run (the engine's shard, the device's force call,
the fleet RPC client, the checkpoint loop) for 200 visits of a
``prob=0.5`` spec that never runs out, reads the visits that fired
from the flight recorder's ``fault.injected`` records, and compares
them with lists recorded from an earlier version of the injector.
"""

import numpy as np
import pytest

from repro.core import DirectSummation, Float64Backend, TreeCode
from repro.exec import PipelineEngine
from repro.faults import (FaultInjector, TransientBackendError,
                          parse_fault_plan)
from repro.fleet import RemoteJobStore
from repro.grape import GrapeBackend
from repro.obs import FlightRecorder
from repro.serve import MemoryJobStore
from repro.sim import Simulation
from tests.fleet.conftest import live_store_server

pytestmark = pytest.mark.chaos

VISITS = 200
SPEC = "prob=0.5,count=1000000,seed=4242"


def _fired(flight, selector):
    """The ``selector`` value of every ``fault.injected`` record."""
    return [e[selector] for e in flight.snapshot()
            if e["kind"] == "fault.injected"]


def _injector(plan, flight):
    return FaultInjector(parse_fault_plan(plan), flight=flight)


def batch_firings():
    """Sweeps (one shard each) whose shard fired."""
    flight = FlightRecorder(capacity=2 * VISITS)
    rng = np.random.default_rng(7)
    pos, mass = rng.normal(size=(64, 3)), np.full(64, 1.0 / 64)
    with PipelineEngine(workers=1, faults=f"latency@seconds=0,{SPEC}",
                        flight=flight) as engine:
        tc = TreeCode(theta=0.75, n_crit=16, backend=Float64Backend(),
                      engine=engine)
        for _ in range(VISITS):
            tc.accelerations(pos, mass, 0.01)
    return _fired(flight, "sweep")


def device_firings():
    """Force calls whose ``grape.compute`` site fired."""
    flight = FlightRecorder(capacity=2 * VISITS)
    gb = GrapeBackend(fault_injector=_injector(
        f"transient_error@site=grape.compute,{SPEC}", flight),
        max_retries=0)
    for _ in range(VISITS):
        try:
            gb.force_call(lambda: None)
        except TransientBackendError:
            pass
    return _fired(flight, "call")


def rpc_firings():
    """Store RPCs whose ``fleet.rpc`` site fired."""
    flight = FlightRecorder(capacity=2 * VISITS)
    with live_store_server(MemoryJobStore()) as server:
        remote = RemoteJobStore(server.url, fault_injector=_injector(
            f"latency@site=fleet.rpc,seconds=0,{SPEC}", flight))
        for _ in range(VISITS):
            remote.counts()
        remote.close()
    return _fired(flight, "call")


def checkpoint_firings(workdir):
    """Steps whose periodic checkpoint write was damaged."""
    flight = FlightRecorder(capacity=2 * VISITS)
    rng = np.random.default_rng(3)
    sim = Simulation(pos=rng.normal(size=(4, 3)), vel=np.zeros((4, 3)),
                     mass=np.ones(4), eps=0.1, G=1.0,
                     force=DirectSummation())
    sim.run([1e-3] * VISITS, checkpoint_path=workdir / "ck.npz",
            checkpoint_every=1,
            fault_injector=_injector(f"checkpoint_truncate@{SPEC}",
                                     flight))
    return _fired(flight, "step")


#: recorded from the blake2b draw (:meth:`FaultInjector._draw`)
GOLDEN = {
    "batch": [
        0, 1, 2, 3, 5, 6, 7, 9, 11, 12, 14, 19, 20, 21, 22, 27, 28, 33,
        35, 37, 42, 43, 44, 45, 48, 54, 55, 58, 59, 60, 61, 63, 67, 70,
        71, 72, 74, 75, 76, 78, 79, 80, 82, 83, 84, 86, 88, 89, 90, 92,
        94, 97, 101, 102, 104, 105, 106, 107, 113, 114, 119, 120, 121,
        130, 133, 134, 135, 136, 138, 142, 143, 144, 145, 147, 149, 153,
        156, 157, 158, 168, 171, 173, 176, 181, 182, 183, 184, 188, 189,
        192, 193, 194, 196, 197, 199
    ],
    "grape.compute": [
        0, 1, 4, 7, 8, 11, 12, 15, 25, 29, 31, 32, 36, 39, 41, 42, 43,
        45, 46, 49, 56, 58, 60, 62, 63, 65, 70, 71, 77, 78, 81, 88, 90,
        94, 95, 96, 98, 105, 106, 108, 109, 111, 112, 115, 116, 117,
        118, 120, 121, 125, 126, 128, 130, 131, 132, 133, 137, 138, 141,
        143, 145, 146, 147, 148, 149, 151, 153, 154, 156, 157, 159, 162,
        163, 164, 165, 169, 177, 180, 182, 185, 187, 194, 195, 196, 197,
        198
    ],
    "fleet.rpc": [
        0, 1, 3, 5, 7, 9, 11, 15, 16, 19, 22, 23, 26, 27, 28, 30, 31,
        34, 35, 37, 38, 39, 41, 45, 48, 52, 55, 58, 60, 61, 63, 66, 68,
        69, 71, 72, 73, 74, 75, 76, 78, 80, 82, 83, 88, 90, 91, 92, 97,
        98, 99, 101, 102, 103, 104, 105, 111, 112, 114, 121, 123, 129,
        131, 132, 133, 134, 135, 136, 139, 142, 143, 144, 147, 156, 157,
        158, 159, 160, 162, 164, 165, 167, 171, 172, 174, 175, 176, 177,
        180, 181, 185, 186, 187, 188, 191, 192, 193, 194, 195, 196, 197,
        199
    ],
    "checkpoint": [
        1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13, 15, 16, 17, 18, 19, 21, 24,
        25, 26, 27, 30, 31, 34, 35, 37, 38, 41, 42, 47, 49, 50, 54, 55,
        56, 61, 62, 64, 65, 69, 72, 73, 76, 77, 78, 79, 80, 81, 82, 85,
        86, 89, 90, 91, 93, 94, 95, 97, 98, 99, 100, 103, 104, 105, 106,
        109, 110, 111, 112, 114, 115, 116, 117, 120, 122, 124, 126, 127,
        129, 131, 132, 135, 136, 138, 139, 140, 141, 148, 150, 151, 152,
        153, 155, 158, 159, 160, 164, 165, 166, 168, 173, 175, 177, 182,
        184, 185, 186, 187, 188, 189, 196, 197, 198, 199, 200
    ],
}


def test_batch_hook_fires_at_its_golden_visits():
    assert batch_firings() == GOLDEN["batch"]


def test_device_hook_fires_at_its_golden_visits():
    assert device_firings() == GOLDEN["grape.compute"]


def test_rpc_hook_fires_at_its_golden_visits():
    assert rpc_firings() == GOLDEN["fleet.rpc"]


def test_checkpoint_hook_fires_at_its_golden_visits(tmp_path):
    assert checkpoint_firings(tmp_path) == GOLDEN["checkpoint"]
