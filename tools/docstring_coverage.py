#!/usr/bin/env python
"""Docstring-coverage gate (stdlib-only stand-in for ``interrogate``).

Walks Python sources with :mod:`ast` and counts how many *public*
definitions — modules, classes, functions, and methods — carry a
docstring.  Exits nonzero when coverage falls below ``--fail-under``,
so it can gate CI without third-party dependencies.

What counts as public (and is therefore required to be documented):

* every module file itself (module docstring);
* every class whose name does not start with ``_``;
* every function/method whose name does not start with ``_``, plus
  ``__init__`` when it has parameters beyond ``self``.

Nested definitions inside functions (closures, local helpers) are
skipped: they are implementation detail, not API surface.

Usage::

    python tools/docstring_coverage.py src/repro/perf src/repro/cluster \
        --fail-under 80 [--verbose]
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Tuple

FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FileReport:
    """Per-file tally of documented / total definitions."""

    path: Path
    total: int = 0
    documented: int = 0
    missing: List[str] = field(default_factory=list)

    def count(self, label: str, has_doc: bool) -> None:
        """Record one definition and whether it carries a docstring."""
        self.total += 1
        if has_doc:
            self.documented += 1
        else:
            self.missing.append(label)

    @property
    def coverage(self) -> float:
        """Documented fraction in percent (100.0 for empty files)."""
        return 100.0 * self.documented / self.total if self.total else 100.0


def _is_public_function(node: ast.AST) -> bool:
    """Public API surface: non-underscore names, plus real __init__."""
    name = node.name
    if name == "__init__":
        args = node.args
        n_params = (len(args.posonlyargs) + len(args.args)
                    + len(args.kwonlyargs))
        return n_params > 1 or args.vararg is not None
    return not name.startswith("_")


def _walk_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualified_label, node)`` for public classes/functions.

    Only module- and class-level definitions are visited; function
    bodies are not descended into.
    """
    stack: List[Tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, parent = stack.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                label = f"{prefix}{node.name}"
                yield label, node
                stack.append((f"{label}.", node))
            elif isinstance(node, FuncDef):
                if _is_public_function(node):
                    yield f"{prefix}{node.name}", node


def inspect_file(path: Path) -> FileReport:
    """Parse one source file and tally its docstring coverage."""
    report = FileReport(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    report.count("<module>", ast.get_docstring(tree) is not None)
    for label, node in _walk_definitions(tree):
        report.count(label, ast.get_docstring(node) is not None)
    return report


def collect(paths: List[str]) -> List[FileReport]:
    """Inspect every ``.py`` file under the given files/directories."""
    reports = []
    for raw in paths:
        root = Path(raw)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            reports.append(inspect_file(path))
    return reports


def summarize(reports: List[FileReport], verbose: bool = False) -> str:
    """Render the per-file table plus the aggregate line."""
    lines = []
    width = max((len(str(r.path)) for r in reports), default=10)
    for rep in reports:
        lines.append(f"{str(rep.path):<{width}}  "
                     f"{rep.documented:>3}/{rep.total:<3}  "
                     f"{rep.coverage:6.1f}%")
        if verbose:
            for label in rep.missing:
                lines.append(f"{'':<{width}}    missing: {label}")
    total = sum(r.total for r in reports)
    documented = sum(r.documented for r in reports)
    overall = 100.0 * documented / total if total else 100.0
    lines.append(f"{'TOTAL':<{width}}  {documented:>3}/{total:<3}  "
                 f"{overall:6.1f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="stdlib docstring-coverage gate")
    parser.add_argument("paths", nargs="+",
                        help="files or directories to inspect")
    parser.add_argument("--fail-under", type=float, default=80.0,
                        help="minimum overall coverage percent "
                             "(default 80)")
    parser.add_argument("--verbose", action="store_true",
                        help="list each undocumented definition")
    args = parser.parse_args(argv)

    reports = collect(args.paths)
    print(summarize(reports, verbose=args.verbose))
    total = sum(r.total for r in reports)
    documented = sum(r.documented for r in reports)
    overall = 100.0 * documented / total if total else 100.0
    if overall < args.fail_under:
        print(f"FAIL: docstring coverage {overall:.1f}% "
              f"< required {args.fail_under:.1f}%")
        return 1
    print(f"ok: docstring coverage {overall:.1f}% "
          f">= {args.fail_under:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
