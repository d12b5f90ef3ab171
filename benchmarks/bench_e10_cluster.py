"""E10 -- boards per host (extension of paper section 4).

The Gordon Bell price/performance question behind the paper's
configuration choice: at the same catalogue prices (1.65 M JPY per
board, 1.4 M JPY per host), would one host have scored better with 1,
4 or 8 boards than with the paper's 2?

Answered straight from the single-host performance model
(``repro.perf.model`` with the timing model's ``n_boards``) and the
price ledger of the same installation.  Expected shape: at the paper's
N = 2.1 M one or two boards is near the $/Mflops optimum -- more
pipelines idle while the host walks the tree, so 8 boards on one host
is a poor buy.  What *several hosts* buy depends on the traffic they
exchange, which a model has to measure rather than assume: that is
E14 (``bench_cluster_scaling.py``).
"""

import pytest

from conftest import emit
from repro.cluster import ClusterSpec
from repro.grape.timing import GrapeTimingModel
from repro.perf.model import PerformanceModel
from repro.perf.report import format_table

EFFECTIVE_FRACTION = 1 / 6.18  # the paper's measured correction


def test_e10_cluster_costs(benchmark, results_dir):
    def sweep():
        rows = []
        for boards in (1, 2, 4, 8):
            timing = GrapeTimingModel(n_boards=boards)
            run = PerformanceModel(grape=timing).run_prediction()
            eff_gflops = run["raw_gflops"] * EFFECTIVE_FRACTION
            cost = ClusterSpec(hosts=1, boards=boards).cost()
            rows.append({
                "hosts": 1, "boards/host": boards,
                "peak [Gflops]": round(timing.peak_flops / 1e9, 1),
                "run [h]": round(run["total_hours"], 2),
                "eff [Gflops]": round(eff_gflops, 2),
                "cost [$]": round(cost.total_usd),
                "$/Mflops": round(
                    cost.price_per_mflops(eff_gflops * 1e9), 2),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = ("paper's configuration: 1 host x 2 boards -> $6.9/Mflops "
              "(reported as 7.0)")
    emit(results_dir, "e10_cluster_costs",
         header + "\n" + format_table(rows))

    by_boards = {r["boards/host"]: r for r in rows}
    paper_cfg = by_boards[2]
    # the paper row reproduces the headline price
    assert paper_cfg["$/Mflops"] == pytest.approx(6.9, rel=0.10)
    # the paper's choice is at (or within 15 % of) the sweep's optimum
    best = min(r["$/Mflops"] for r in rows)
    assert paper_cfg["$/Mflops"] <= 1.15 * best
    # board scaling saturates: 8 boards on one host is a poor buy
    assert by_boards[8]["$/Mflops"] > paper_cfg["$/Mflops"]
