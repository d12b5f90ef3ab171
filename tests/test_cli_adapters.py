"""What the two adapters over ``repro.sim.recipes`` must agree on, and
that the CLI's lazy imports stay lazy.

``repro.cli`` and ``repro.serve.runner`` start the same work from argv
and from a ``Job``.  Their workload defaults are a hand-matched pair
(a shared table would need a third home: ``repro info`` and the client
verbs build the parser without importing ``repro.sim``), so the pair is
pinned here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.serve import JobSpec

HELP = Path(__file__).parent / "data" / "cli_help"


@pytest.mark.parametrize("kind", ["run", "sweep"])
def test_cli_defaults_equal_the_job_schema_defaults(kind):
    args = build_parser().parse_args([kind])
    params = JobSpec(kind=kind).params
    assert {name: getattr(args, name) for name in params} == params


@pytest.mark.parametrize("verb", ["run", "resume", "sweep"])
def test_help_is_byte_identical_to_the_captured_text(verb, capsys,
                                                     monkeypatch):
    """``tests/data/cli_help`` was captured before the verbs became
    adapters: no flag, default or help string moved."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([verb, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (HELP / f"{verb}.txt").read_text()


#: each stage names the module prefixes that must still be absent
_LAZY = """
import sys
def loaded(*prefixes):
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".")
                         for p in prefixes))
import io
import repro.cli
assert not loaded("repro.serve", "repro.sim", "scipy", "asyncio",
                  "sqlite3"), loaded("repro", "scipy", "asyncio",
                                     "sqlite3")
assert repro.cli.main(["info"], out=io.StringIO()) == 0
assert not loaded("scipy", "repro.sim"), loaded("scipy", "repro.sim")
assert repro.cli.main(["run", "--ngrid", "5", "--steps", "1"],
                      out=io.StringIO()) == 0
assert not loaded("repro.serve", "scipy", "asyncio", "sqlite3"), \\
    loaded("repro.serve", "scipy", "asyncio", "sqlite3")
"""


def test_lazy_imports_stay_lazy():
    """The guard on the spine's ``cli.startup_s`` / ``cli.info_s``:
    importing the CLI loads no service, simulation or SciPy module,
    ``info`` still none of the last two, and a whole ``run`` never
    touches the service stack or SciPy."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _LAZY],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: ``None`` in ``sys.modules`` makes every ``import scipy...`` raise
_NO_SCIPY = """
import io, sys
sys.modules["scipy"] = None
import repro.cosmo
assert not [m for m in sys.modules
            if m.startswith("scipy.") and sys.modules[m] is not None]
import repro.cli
assert repro.cli.main(["info"], out=io.StringIO()) == 0
assert repro.cli.main(["run", "--ngrid", "5", "--steps", "1"],
                      out=io.StringIO()) == 0
"""


def test_run_path_works_without_scipy():
    """SciPy is imported only where analysis code (or a non-EdS
    background) uses it: with every SciPy import failing,
    ``import repro.cosmo``, ``info`` and a whole ``run`` still succeed
    (the local stand-in for CI's NumPy-only job)."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
