"""Docs-vs-CLI drift gate.

Every ``--flag`` token mentioned in the user-facing docs and the README
must exist on the live ``repro`` argparse surface.  This catches the
usual decay mode of CLI documentation: a flag is renamed or removed in
:mod:`repro.cli` while a worked example in ``docs/`` keeps advertising
the old spelling.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[2]

#: documentation that advertises repro CLI invocations
DOC_FILES = sorted(p for p in (REPO / "docs").glob("*.md")) + [REPO / "README.md"]

#: flags that belong to *other* tools shown in shell snippets
#: (pytest, the measurement spine, coverage tooling), not to repro
_EXTERNAL = {
    "--ignore",           # pytest
    "--smoke",            # benchmarks/spine/run.py
    "--workload",         # benchmarks/spine/run.py
    "--fail-under",       # tools/docstring_coverage.py
    "--cov",              # pytest-cov
    "--tb",               # pytest
}

_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _parser_flags(parser: argparse.ArgumentParser, seen: set) -> set:
    """Collect every ``--long-option`` reachable from ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in set(action.choices.values()):
                _parser_flags(sub, seen)
        else:
            seen.update(s for s in action.option_strings
                        if s.startswith("--"))
    return seen


@pytest.fixture(scope="module")
def live_flags():
    return _parser_flags(build_parser(), set())


def test_docs_exist():
    assert DOC_FILES, "no documentation files found"
    assert (REPO / "docs" / "cluster.md") in DOC_FILES


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_documented_flags_exist(doc, live_flags):
    """Every flag a doc mentions is accepted by the live CLI."""
    mentioned = set(_FLAG_RE.findall(doc.read_text()))
    phantom = mentioned - live_flags - _EXTERNAL
    assert not phantom, (
        f"{doc.name} documents flags the CLI does not accept: "
        f"{sorted(phantom)} -- update the doc or restore the flag")


def test_retired_kernels_selector_is_not_documented(live_flags):
    """There is one evaluation path and nothing selects it: neither the
    ``--kernels`` flag nor the ``kernels=`` keyword may reappear in any
    file under ``docs/`` or in the README (nor be excused as another
    tool's flag)."""
    assert "--kernels" not in live_flags | _EXTERNAL
    files = [p for p in (REPO / "docs").rglob("*") if p.is_file()]
    for path in files + [REPO / "README.md"]:
        text = path.read_text(errors="replace")
        for token in ("--kernels", "kernels="):
            assert token not in text, (
                f"{path.relative_to(REPO)} mentions the retired "
                f"{token!r} selector")


def test_retired_bench_harness_is_not_documented():
    """There is one benchmark system per question (the spine for wall
    clock, plain pytest for the paper tables): the ``repro bench`` verb,
    its package, its result trajectory and its baseline may not
    reappear in ``docs/``, the README or EXPERIMENTS.md."""
    for path in DOC_FILES + [REPO / "EXPERIMENTS.md"]:
        text = path.read_text()
        for token in ("repro bench", "repro.bench", "BENCH_PR",
                      "baselines/fast.json"):
            assert token not in text, (
                f"{path.relative_to(REPO)} mentions the retired "
                f"{token!r}")


def test_cluster_flags_are_documented(live_flags):
    """The PR-9 cluster surface is both live and documented."""
    assert {"--hosts", "--boards"} <= live_flags
    text = (REPO / "docs" / "cluster.md").read_text()
    assert "--hosts" in text and "--boards" in text


def test_fleet_surface_is_documented(live_flags):
    """The PR-10 fleet surface is both live and documented."""
    assert "--cache-budget" in live_flags
    text = (REPO / "docs" / "fleet.md").read_text()
    assert "--cache-budget" in text
    for verb in ("store serve", "store verify", "fleet status",
                 "fleet workers", "fleet drain"):
        assert verb in text, f"fleet.md does not mention 'repro {verb}'"
    # the store URL form workers consume must be shown somewhere
    assert "http://" in text and "repro.fleet-rpc/v1" in text


def test_allowlist_is_not_stale(live_flags):
    """_EXTERNAL must never shadow a real repro flag."""
    assert not (_EXTERNAL & live_flags)
