"""E10 -- cost-optimal configuration (extension of paper section 4).

The Gordon Bell price/performance question behind the paper's
configuration choice: given the same catalogue prices (1.65 M JPY per
board, 1.4 M JPY per host), would more boards per host, or a cluster
of hosts, have scored better than the paper's 1 host x 2 boards?

The cluster model (``repro.grape.cluster``) answers with the treecode's
communication structure included.  Expected shape: at the paper's
N = 2.1 M, one or two boards on a single host is near the $/Mflops
optimum (more pipelines idle while the host walks the tree); clusters
buy wall-clock speed at slightly worse price/performance -- which is
exactly the trajectory the GRAPE project took for later, larger N.
"""

import pytest

from conftest import emit
from repro.grape.cluster import ClusterConfig, GrapeCluster
from repro.perf.model import PAPER_N, PAPER_NG, PAPER_STEPS
from repro.perf.report import format_table

EFFECTIVE_FRACTION = 1 / 6.18  # the paper's measured correction


def test_e10_cluster_costs(benchmark, results_dir):
    def sweep():
        rows = []
        for nodes, boards in ((1, 1), (1, 2), (1, 4), (1, 8),
                              (2, 2), (4, 2), (8, 2), (16, 2)):
            cl = GrapeCluster(config=ClusterConfig(
                n_nodes=nodes, boards_per_node=boards))
            r = cl.report(PAPER_N, PAPER_NG, PAPER_STEPS,
                          EFFECTIVE_FRACTION)
            rows.append({
                "nodes": nodes, "boards/node": boards,
                "peak [Gflops]": round(r["peak_Gflops"], 1),
                "run [h]": round(r["total_hours"], 2),
                "eff [Gflops]": round(r["eff_Gflops"], 2),
                "cost [$]": round(r["cost_usd"]),
                "$/Mflops": round(r["usd_per_Mflops"], 2),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = ("paper's configuration: 1 node x 2 boards -> $6.9/Mflops "
              "(reported as 7.0)")
    emit(results_dir, "e10_cluster_costs",
         header + "\n" + format_table(rows))

    by_cfg = {(r["nodes"], r["boards/node"]): r for r in rows}
    paper_cfg = by_cfg[(1, 2)]
    # the paper row reproduces the headline price
    assert paper_cfg["$/Mflops"] == pytest.approx(6.9, rel=0.10)
    # the paper's choice is at (or within 15 % of) the sweep's optimum
    best = min(r["$/Mflops"] for r in rows)
    assert paper_cfg["$/Mflops"] <= 1.15 * best
    # clusters trade money for time: 8 nodes much faster, not cheaper
    assert by_cfg[(8, 2)]["run [h]"] < 0.3 * paper_cfg["run [h]"]
    assert by_cfg[(8, 2)]["$/Mflops"] >= 0.95 * paper_cfg["$/Mflops"]
    # board scaling saturates: 8 boards on one host is a poor buy
    assert by_cfg[(1, 8)]["$/Mflops"] > paper_cfg["$/Mflops"]
