"""The isolated sphere is the only gravity the code solves.

The periodic stack (Ewald summation, the particle-mesh solver, the
periodic treecode, the comoving leapfrog and the minimum-image MAC
knob) was deleted; rebuilding it belongs in git history, not in a
shim.  This gate fails if one of its names reappears in the source,
the docs, the README or the examples.  ROADMAP.md, CHANGES.md and
SNIPPETS.md record history and are not searched.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.core import mac

REPO = Path(__file__).resolve().parents[2]

RETIRED = ("EwaldCorrectionTable", "PeriodicDirectSummation",
           "ewald_kernels", "minimum_image", "PeriodicTreeCode",
           "ParticleMesh", "ComovingLeapfrog")

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
