"""The isolated sphere is the only gravity the code solves, and the
monopole list walk the only force it evaluates.

The periodic stack (Ewald summation, the particle-mesh solver, the
periodic treecode, the comoving leapfrog and the minimum-image MAC
knob) was deleted; so were the host-side quadrupole ablation, the
libg5-style call-sequence handle and the per-shard evaluation hook
that existed only for them; and the engine's per-shard private
backends, whose counters came back through a replayed call log.  Rebuilding any of it belongs in git
history, not in a shim.  These gates fail if one of their names or
options reappears in the source, the docs, the README or the
examples.  ROADMAP.md, CHANGES.md and SNIPPETS.md record history and
are not searched.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.core import mac
from repro.core.multipole import compute_moments
from repro.core.octree import Octree, build_octree
from repro.core.treecode import TreeCode
from repro.exec.plan import SweepSpec

REPO = Path(__file__).resolve().parents[2]

RETIRED = ("EwaldCorrectionTable", "PeriodicDirectSummation",
           "ewald_kernels", "minimum_image", "PeriodicTreeCode",
           "ParticleMesh", "ComovingLeapfrog")

#: the quadrupole ablation, the ``G5Context`` handle, the engine's
#: per-shard hook and its per-shard private backends with their
#: replayed call log, and the cluster's second sweep path with its
#: open/close protocol: every sweep is one ``ForceBackend.eval_lists``
#: call per shard on the caller's instance, charged once
RETIRED_SEAMS = ("G5Context", "G5Error", "quadkernel", "quadrupole_accpot",
                 "eval_sweep", "retry_transient", "worker_factory",
                 "merge_stats", "call_log", "record_calls",
                 "ClusterContext", "ClusterError", "take_rows")

_MAC_BOX = re.compile(r"BarnesHutMAC\([^)]*\bbox\s*=")


def _searched():
    yield from (REPO / "src").rglob("*.py")
    yield from (p for p in (REPO / "docs").rglob("*") if p.is_file())
    yield REPO / "README.md"
    yield from (REPO / "examples").glob("*.py")


def test_retired_periodic_names_do_not_reappear():
    for path in _searched():
        text = path.read_text(errors="replace")
        where = path.relative_to(REPO)
        for name in RETIRED:
            assert name not in text, f"{where} mentions {name}"
        assert not _MAC_BOX.search(text), f"{where} sets BarnesHutMAC box="
        if path.suffix == ".py" and "src" in path.parts:
            assert "ewald" not in text.lower(), f"{where} mentions Ewald"


def test_barnes_hut_mac_has_no_geometry_switch():
    assert [f.name for f in dataclasses.fields(mac.BarnesHutMAC)] == ["theta"]
    assert "box" not in inspect.signature(mac._pair_dmin).parameters


def test_retired_evaluation_paths_do_not_reappear():
    for path in _searched():
        text = path.read_text(errors="replace")
        where = path.relative_to(REPO)
        for name in RETIRED_SEAMS:
            assert name not in text, f"{where} mentions {name}"


def _params(fn):
    return set(inspect.signature(fn).parameters)


def test_monopole_path_has_no_retired_option():
    assert "quadrupole" not in _params(TreeCode)
    assert "quadrupole" not in _params(compute_moments)
    assert not {"corner", "size"} & _params(build_octree)
    assert "eval_sweep" not in {f.name for f in dataclasses.fields(SweepSpec)}
    assert "quad" not in {f.name for f in dataclasses.fields(Octree)}


def test_cluster_is_a_backend_not_a_second_sweep_path():
    from repro.cluster import ClusterBackend
    from repro.core.kernels import ForceBackend
    from repro.grape import GrapeBackend
    assert "cluster" not in _params(TreeCode)
    assert issubclass(ClusterBackend, GrapeBackend)
    assert not hasattr(ForceBackend, "compute")
    assert not hasattr(ClusterBackend, "evaluate")
