"""E1 -- GRAPE-5 system configuration (paper figure 1 / section 2).

Regenerates the machine-description numbers: board/chip/pipeline
counts, clocks, the 109.44 Gflops theoretical peak, and the modelled
sustained speed of a production-size force call.  The benchmark times
the emulator's force call (the emulator's own throughput, not the
modelled hardware's).
"""

import numpy as np
import pytest

from conftest import emit
from repro.grape import Grape5System, OPS_PER_INTERACTION
from repro.perf.report import format_table


def test_e1_system_table(benchmark, results_dir):
    s = Grape5System()
    d = benchmark(s.describe)
    t = s.timing
    rows = [
        {"quantity": "processor boards", "paper": 2, "built": d["boards"]},
        {"quantity": "G5 chips / board", "paper": 8,
         "built": d["chips_per_board"]},
        {"quantity": "pipelines / chip", "paper": 2,
         "built": d["pipelines_per_chip"]},
        {"quantity": "pipelines total", "paper": 32,
         "built": d["pipelines_total"]},
        {"quantity": "pipeline clock [MHz]", "paper": 90,
         "built": d["pipeline_clock_MHz"]},
        {"quantity": "memory clock [MHz]", "paper": 15,
         "built": d["memory_clock_MHz"]},
        {"quantity": "ops / interaction", "paper": 38,
         "built": d["ops_per_interaction"]},
        {"quantity": "peak [Gflops]", "paper": 109.44,
         "built": round(d["peak_Gflops"], 2)},
        {"quantity": "sustained, n_i=2000 x n_j=13431 [Gflops]",
         "paper": "(~36 run avg incl. host)",
         "built": round(t.sustained_flops(2000, 13431) / 1e9, 1)},
    ]
    emit(results_dir, "e1_system", format_table(rows))
    assert d["peak_Gflops"] == pytest.approx(109.44)


def test_e1_emulator_throughput(benchmark, results_dir):
    """Time one production-shaped force call through the emulator."""
    rng = np.random.default_rng(1)
    xi = rng.uniform(-1, 1, (512, 3))
    xj = rng.uniform(-1, 1, (4096, 3))
    mj = rng.uniform(0.5, 1.5, 4096)
    s = Grape5System()
    s.set_range(-1.5, 1.5)

    def call():
        return s.compute(xi, xj, mj, 0.01)

    benchmark(call)
    inter = 512 * 4096
    emu_rate = inter / benchmark.stats["mean"]
    hw_rate = inter / s.timing.force_call_time(512, 4096)
    emit(results_dir, "e1_throughput", format_table([{
        "emulator [Minter/s]": round(emu_rate / 1e6, 1),
        "modelled hardware [Minter/s]": round(hw_rate / 1e6, 1),
        "modelled hardware [Gflops]": round(
            hw_rate * OPS_PER_INTERACTION / 1e9, 1),
    }]))
