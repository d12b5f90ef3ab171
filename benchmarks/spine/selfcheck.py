#!/usr/bin/env python3
"""The A/A gate: run the untraced set twice on one commit and demand
that the two agree.

    python3 benchmarks/spine/selfcheck.py [--seed S] [--seconds T] [--smoke]
    python3 benchmarks/spine/selfcheck.py --compare A.json B.json

Exits non-zero unless every end-to-end metric of every workload agrees
within its own bound in ``BENCHMARK.json`` and every exact fact
(interaction counts, modelled GRAPE seconds, digests, force error) is
equal.  Run it before trusting a diff between two commits: a metric
that does not repeat here cannot carry a claim.

A comparison is refused when the two sides' configuration blocks
differ -- they did not run the same benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from spine_config import HERE, OUT, benchmark_spec

#: relative tolerance of an "exact" float (1e-12: bit-level noise only)
EXACT_RTOL = 1e-12


class ConfigMismatch(ValueError):
    """The two result sets ran under different configurations."""


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=EXACT_RTOL, abs_tol=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
            ) -> Tuple[List[str], List[str]]:
    """Agreement table (lines) and the list of disagreements between
    two ``{"results": [...]}`` documents."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    by_name = {d["config"]["workload"]: d for d in b["results"]}
    lines = [f"{'workload':20s} {'metric':20s} {'A':>13s} {'B':>13s} "
             f"{'|B-A|/A':>8s} {'bound':>6s}"]
    bad: List[str] = []
    for da in a["results"]:
        name = da["config"]["workload"]
        db = by_name.get(name)
        if db is None:
            raise ConfigMismatch(f"workload {name} is missing from B")
        if da["config"] != db["config"] or da["seed"] != db["seed"]:
            diff = sorted(k for k in set(da["config"]) | set(db["config"])
                          if da["config"].get(k) != db["config"].get(k))
            raise ConfigMismatch(
                f"{name}: configuration blocks differ in "
                f"{diff or ['seed']}; refusing to compare")
        for metric, bound in bounds.items():
            va = da["metrics"][metric]["value"]
            vb = db["metrics"][metric]["value"]
            rel = abs(vb - va) / abs(va)
            ok = rel <= bound
            lines.append(f"{name:20s} {metric:20s} {va:13.6g} {vb:13.6g} "
                         f"{rel:8.3f} {bound:6.2f}{'' if ok else '  DISAGREE'}")
            if not ok:
                bad.append(f"{name} {metric}: {va:.6g} vs {vb:.6g}")
        for fact in sorted(set(da["exact"]) | set(db["exact"])):
            fa, fb = da["exact"].get(fact), db["exact"].get(fact)
            ok = _same(fa, fb)
            lines.append(f"{name:20s} {fact:20s} exact "
                         f"{'equal' if ok else 'DIFFERENT'}")
            if not ok:
                bad.append(f"{name} {fact}: {fa} vs {fb}")
        for side, doc in (("A", da), ("B", db)):
            if not doc["correct"]:
                bad.append(f"{name}: side {side} failed its checks: "
                           f"{doc['problems']}")
    return lines, bad


def _load(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_set(out: Path, args: argparse.Namespace) -> Dict[str, Any]:
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed),
           "--out", str(out)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
    if not out.is_file():
        raise SystemExit(f"selfcheck: {' '.join(cmd)} produced no result")
    return _load(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1999)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two saved result sets, run nothing")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (_load(p) for p in args.compare)
    else:
        a = _run_set(OUT / "selfcheck-a.json", args)
        b = _run_set(OUT / "selfcheck-b.json", args)
    try:
        lines, bad = compare(a, b, benchmark_spec())
    except ConfigMismatch as e:
        print(f"selfcheck: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    for problem in bad:
        print(f"selfcheck: DISAGREE {problem}", file=sys.stderr)
    print(f"selfcheck: {'FAIL' if bad else 'ok'} "
          f"({len(bad)} disagreement(s))")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
