"""The docstring-coverage gate itself, run in-process as a tier-1 test
so the CI job cannot silently drift from what developers run locally."""

import importlib.util
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
GATED = [str(REPO / "src/repro/perf"), str(REPO / "src/repro/cluster")]

_spec = importlib.util.spec_from_file_location(
    "docstring_coverage", REPO / "tools" / "docstring_coverage.py")
_mod = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _mod
_spec.loader.exec_module(_mod)
collect, inspect_file, main = _mod.collect, _mod.inspect_file, _mod.main


class TestGateOnRepo:
    def test_gated_packages_meet_threshold(self, capsys):
        assert main(GATED + ["--fail-under", "80"]) == 0
        assert "ok: docstring coverage" in capsys.readouterr().out

    def test_collect_finds_all_modules(self):
        reports = collect(GATED)
        names = {r.path.name for r in reports}
        assert {"model.py", "opcount.py", "report.py",
                "spec.py", "backend.py", "let.py"} <= names


class TestChecker:
    def write(self, tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source))
        return inspect_file(path)

    def test_counts_module_class_and_function(self, tmp_path):
        rep = self.write(tmp_path, '''
            """Module doc."""
            class Good:
                """Doc."""
                def method(self):
                    """Doc."""
            def bare():
                pass
            ''')
        assert rep.total == 4
        assert rep.documented == 3
        assert rep.missing == ["bare"]

    def test_private_names_skipped(self, tmp_path):
        rep = self.write(tmp_path, '''
            """Module doc."""
            def _helper():
                pass
            class _Internal:
                def visible_but_inside_private(self):
                    pass
            ''')
        assert rep.total == 1 and rep.documented == 1

    def test_init_with_args_required(self, tmp_path):
        rep = self.write(tmp_path, '''
            """Module doc."""
            class A:
                """Doc."""
                def __init__(self, x):
                    pass
            class B:
                """Doc."""
                def __init__(self):
                    pass
            ''')
        assert rep.missing == ["A.__init__"]

    def test_nested_functions_skipped(self, tmp_path):
        rep = self.write(tmp_path, '''
            """Module doc."""
            def outer():
                """Doc."""
                def inner():
                    pass
            ''')
        assert rep.total == 2 and rep.documented == 2

    def test_fail_under_enforced(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def undocumented():\n    pass\n")
        assert main([str(path), "--fail-under", "80"]) == 1
        assert "FAIL" in capsys.readouterr().out
