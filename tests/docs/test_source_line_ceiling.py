"""The ``src/repro`` line ceiling (ROADMAP aim 2), as a tier-1 test.

Source line count is a tracked metric that only moves down.  The gate
also lives in ``.github/workflows/ci.yml``; this test counts the same
lines the workflow's ``find ... -exec cat {} + | wc -l`` does, so the
ceiling holds wherever the suite runs, and pins the workflow's number
to the constant below so the two cannot drift apart.  A PR that
removes code lowers ``CEILING`` (and the workflow) to the new total.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: measured ``src/repro`` total after the last change that removed
#: lines (a served cache hit as one store transaction)
CEILING = 14769


def test_source_line_count_is_under_the_ceiling():
    total = sum(p.read_bytes().count(b"\n")
                for p in (REPO / "src" / "repro").rglob("*.py"))
    assert total <= CEILING, (
        f"src/repro grew to {total} lines (ceiling {CEILING}); the "
        "ceiling only moves down")


def test_ci_workflow_enforces_the_same_ceiling():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert re.findall(r'test "\$total" -le (\d+)', ci) == [str(CEILING)]
