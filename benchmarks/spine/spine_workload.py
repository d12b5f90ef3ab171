"""What ``run.py`` drives: the shape every workload shares.

A workload is set up from a seed, measured for a number of seconds as a
sequence of *units* (one ``Simulation.step``, one ``repro run``
subprocess, one served job), checked, and -- in a traced run -- probed
layer by layer.  The end-to-end metrics are the same four readings of
those units on every workload, so one list in ``BENCHMARK.json`` covers
all five.
"""

from __future__ import annotations

import resource
from typing import Any, Dict, List, Optional

from spine_calib import samples, speed
from spine_spans import SpanRecorder, median


class Workload:
    #: whose peak RSS this workload reports (the driver process runs the
    #: program in-process; the CLI workload runs it in children)
    rss_who = resource.RUSAGE_SELF

    def __init__(self, name: str, sizes: Dict[str, Any], seed: int) -> None:
        self.name, self.sizes, self.seed = name, sizes, int(seed)
        #: one record per unit of work, each with at least ``wall``
        #: (raw seconds), ``speed`` (see ``spine_calib``), ``ok``,
        #: ``traced`` and ``interactions``
        self.units: List[Dict[str, Any]] = []
        #: untraced measuring time at reference speed, the denominator
        #: of the throughputs
        self.measured_wall = 0.0
        #: every calibration reading taken during the run
        self.calibration: List[float] = []

    # -- what a subclass supplies --------------------------------------
    def setup(self, rec: Optional[SpanRecorder]) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, rec: Optional[SpanRecorder]) -> None:
        raise NotImplementedError

    def check(self) -> List[str]:
        """Failures of the output checks (empty when correct)."""
        raise NotImplementedError

    def exact(self) -> Dict[str, Any]:
        """Facts two runs of one commit and seed must agree on exactly,
        however many units each had time for."""
        raise NotImplementedError

    def layers(self, rec: SpanRecorder) -> Dict[str, float]:
        """Per-layer metrics of a traced run."""
        raise NotImplementedError

    def begin_traced(self, rec: SpanRecorder) -> None:
        """Called between the untraced and the traced half of a traced
        run; most workloads put spans around the same objects."""

    # -- calibration ---------------------------------------------------
    def calibrate(self) -> List[float]:
        """Time the calibration job a few times, beside a unit."""
        got = samples()
        self.calibration.extend(got)
        return got

    def record(self, unit: Dict[str, Any], before: List[float],
               after: List[float]) -> None:
        """Keep a unit that ran alone between two calibration readings."""
        unit["speed"] = speed(before, after)
        self.units.append(unit)
        if not unit["traced"]:
            self.measured_wall += unit["wall"] * unit["speed"]

    # -- shared readings -----------------------------------------------
    def walls(self, *, traced: bool = False, raw: bool = False
              ) -> List[float]:
        """Unit walls at reference speed (``raw``: as the clock read)."""
        return [u["wall"] * (1.0 if raw else u["speed"]) for u in self.units
                if u["ok"] and u["traced"] == traced]

    def end_to_end(self) -> Dict[str, float]:
        done = [u for u in self.units if u["ok"] and not u["traced"]]
        return {
            "unit_wall_p50_s": median(self.walls()),
            "units_per_s": len(done) / self.measured_wall,
            "interactions_per_s": (sum(u["interactions"] for u in done)
                                   / self.measured_wall),
            "peak_rss_mb": resource.getrusage(
                self.rss_who).ru_maxrss / 1024.0,
        }

    def counts(self) -> Dict[str, int]:
        return {"attempted": len(self.units),
                "failed": sum(1 for u in self.units if not u["ok"])}
