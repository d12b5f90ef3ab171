"""``cli_run_cold``: what a user typing ``repro run`` pays, interpreter
start-up included.

Every unit is a fresh ``python -m repro run`` subprocess with no
kernel or engine flags, so start-up, initial conditions, the default
kernel path and checkpoint writing show here and nowhere else.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from spine_config import FIXED_CONFIG, ROOT, scratch_dir
from spine_spans import SpanRecorder, median, probe, span
from spine_workload import Workload

_TIMEOUT = 150.0


def _python(*args: str) -> float:
    """Wall seconds of one fresh interpreter, spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=str(ROOT), check=True,
                   stdout=subprocess.DEVNULL, timeout=_TIMEOUT)
    return time.perf_counter() - t0


class CliWorkload(Workload):
    """A unit is one ``python -m repro run`` subprocess, spawn to exit."""

    #: the largest child: the run subprocesses, not this driver
    rss_who = resource.RUSAGE_CHILDREN

    def __init__(self, name: str, sizes: Dict[str, Any], seed: int) -> None:
        super().__init__(name, sizes, seed)
        self.dir: Optional[Path] = None
        self.import_walls: List[float] = []
        self._digest_cache: Optional[List[str]] = None

    # -- set-up --------------------------------------------------------
    def setup(self, rec: Optional[SpanRecorder]) -> None:
        """A scratch directory plus one fresh-interpreter import of the
        CLI: it proves the command can start and fills the bytecode
        cache, so the timed runs pay start-up but not compilation of
        ``.pyc`` files."""
        self.teardown()
        self.dir = scratch_dir("spine-cli-")
        with span(rec, "cli.import"):
            self.import_walls.append(_python("-c", "import repro.cli"))

    def teardown(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.dir = None

    # -- the measured region -------------------------------------------
    def _paths(self, i: int) -> tuple:
        return self.dir / f"ck{i}.npz", self.dir / f"summary{i}.json"

    def measure(self, seconds: float, rec: Optional[SpanRecorder]) -> None:
        begin, spent = len(self.units), 0.0
        s = self.sizes
        before = self.calibrate()
        while True:
            i = len(self.units)
            ck, summary = self._paths(i)
            cmd = [sys.executable, "-m", "repro", "run",
                   "--ngrid", str(s["ngrid"]), "--steps", str(s["steps"]),
                   "--z-final", str(s["z_final"]), "--seed", str(self.seed),
                   "--checkpoint", str(ck), "--json-summary", str(summary)]
            with span(rec, "cli.run", unit=i):
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=str(ROOT),
                                      stdout=subprocess.DEVNULL,
                                      timeout=_TIMEOUT)
                wall = time.perf_counter() - t0
            doc: Dict[str, Any] = {}
            if proc.returncode == 0:
                with open(summary, encoding="utf-8") as fh:
                    doc = json.load(fh)
            after = self.calibrate()
            self.record({"wall": wall, "ok": proc.returncode == 0,
                         "traced": rec is not None,
                         "interactions": doc.get("interactions", 0),
                         "code": proc.returncode, "summary": doc,
                         "checkpoint": ck}, before, after)
            before = after
            spent += wall
            if len(self.units) - begin >= s["min_units"] and spent >= seconds:
                break

    # -- correctness ---------------------------------------------------
    def _digests(self) -> List[str]:
        """``state_digest`` of every successful run's loaded checkpoint
        (read once, after measuring)."""
        from repro.sim.checkpoint import load_checkpoint
        from repro.sim.recipes import state_digest
        if self._digest_cache is None:
            self._digest_cache = []
            for u in self.units:
                if u["ok"]:
                    sim = load_checkpoint(u["checkpoint"])
                    self._digest_cache.append(
                        state_digest(sim.pos, sim.vel, sim.t))
        return self._digest_cache

    def check(self) -> List[str]:
        bad = []
        codes = [u["code"] for u in self.units]
        if any(codes):
            bad.append(f"repro run exit codes {codes}")
        for field in ("interactions", "grape_model_seconds"):
            seen = {u["summary"].get(field) for u in self.units if u["ok"]}
            if len(seen) != 1 or None in seen:
                bad.append(f"summary {field} differs across runs: "
                           f"{sorted(map(str, seen))}")
        if len(set(self._digests())) != 1:
            bad.append("checkpoint state_digest differs across runs")
        return bad

    def exact(self) -> Dict[str, Any]:
        first = next((u["summary"] for u in self.units if u["ok"]), {})
        return {"interactions": first.get("interactions"),
                "grape_model_seconds": first.get("grape_model_seconds"),
                "state_digest": (self._digests() or [None])[0]}

    # -- per-layer probes (traced run) ---------------------------------
    def layers(self, rec: SpanRecorder) -> Dict[str, float]:
        from repro.sim.checkpoint import load_checkpoint
        from repro.sim.recipes import carve_run_region

        out: Dict[str, float] = {}
        out["cli.import_s"] = median(self.import_walls)
        out["cli.info_s"], _ = probe(
            rec, "cli.info", lambda: _python("-m", "repro", "info"),
            budget=5.0)
        ok = [(u["wall"], u["summary"]["wall_seconds"])
              for u in self.units if u["ok"]]
        out["cli.summary_wall_s"] = median([inner for _, inner in ok])
        out["cli.startup_s"] = median([w - inner for w, inner in ok])
        ck = self.units[0]["checkpoint"]
        out["sim.checkpoint_bytes"] = ck.stat().st_size
        out["sim.checkpoint_read_s"], _ = probe(
            rec, "sim.checkpoint_read", lambda: load_checkpoint(ck))
        out["cosmo.ic_s"], _ = probe(
            rec, "cosmo.ic",
            lambda: carve_run_region(ngrid=self.sizes["ngrid"],
                                     seed=self.seed,
                                     z_init=FIXED_CONFIG["z_init"]))
        return out
