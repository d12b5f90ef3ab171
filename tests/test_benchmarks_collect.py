"""The paper-table experiments stay collectable.

``benchmarks/bench_*.py`` are run by plain ``pytest benchmarks
--ignore=benchmarks/spine`` (docs/benchmarking.md), which is not part
of tier-1; this collects them in a subprocess so a script that stops
importing fails here, not on the next table regeneration.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parent.parent


def test_every_bench_script_collects_under_plain_pytest():
    scripts = sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))
    assert len(scripts) == 15
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "benchmarks", "--ignore=benchmarks/spine"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = {line.split("::")[0] for line in proc.stdout.splitlines()
                 if "::" in line}
    assert collected == {f"benchmarks/{name}" for name in scripts}
    # pytest is the only runner: no repro.bench* module to import
    assert not [m.name for m in pkgutil.iter_modules(repro.__path__)
                if m.name.startswith("bench")]
