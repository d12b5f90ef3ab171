"""E14 -- emulated PC-GRAPE cluster: scaling and price/performance.

One force sweep of a Plummer workload through
``ClusterBackend(ClusterSpec(hosts=K))`` for K in {1, 2, 4}, two boards
per host.  The correctness content is the cluster contract: the
cluster is a GRAPE backend the one pipeline engine drives, so every K
is bit-identical to the single-host GRAPE path; K=1 predicts its model
seconds to rel 1e-12 (the same per-call terms, charged to one host);
LET exchange volume is zero at K=1 and grows with K; and the modelled
cluster wall-clock shrinks as hosts are added.

The price/performance content is the multi-host half of the paper's
section-4 question (E10 is the single-host half), asked where the
exchange traffic is *measured* rather than assumed: each K is priced by
``ClusterSpec.cost()`` and divided by the raw Gflops this sweep
sustains on it.  Hosts buy wall clock, not price/performance -- the
trajectory the GRAPE project took for later, larger N.

Writes ``results/e14_cluster.json`` with the per-K exchange volume and
predicted cluster Gflops; the scale-free metric is
``cluster_predicted_gflops`` at K=4.
"""

import json
import time

import numpy as np

from conftest import emit
from repro.cluster import ClusterBackend, ClusterSpec
from repro.core import TreeCode
from repro.grape.system import GrapeBackend
from repro.perf.report import format_table
from repro.sim.models import plummer_model

N = 4096
N_CRIT = 256
EPS = 0.01
HOST_COUNTS = (1, 2, 4)


def _cluster_sweep(pos, mass, hosts):
    spec = ClusterSpec(hosts=hosts, boards=2)
    tc = TreeCode(theta=0.75, n_crit=N_CRIT, backend=ClusterBackend(spec))
    t0 = time.perf_counter()
    acc, pot = tc.accelerations(pos, mass, EPS)
    wall = time.perf_counter() - t0
    summary = tc.backend.summary()
    tc.close()
    cost = spec.cost()
    summary["cost_usd"] = cost.total_usd
    summary["usd_per_mflops"] = cost.price_per_mflops(
        summary["predicted_gflops"] * 1e9)
    return acc, pot, wall, summary


def test_cluster_scaling(benchmark, results_dir):
    rng = np.random.default_rng(14)
    pos, _, mass = plummer_model(N, rng)

    def measure():
        tc0 = TreeCode(theta=0.75, n_crit=N_CRIT,
                       backend=GrapeBackend())
        acc0, pot0 = tc0.accelerations(pos, mass, EPS)
        serial_model = tc0.backend.model_seconds
        runs = []
        for hosts in HOST_COUNTS:
            acc, pot, wall, summary = _cluster_sweep(pos, mass, hosts)
            assert np.array_equal(acc, acc0) and np.array_equal(pot, pot0), \
                f"K={hosts} diverged bitwise from the serial GRAPE path"
            if hosts == 1:
                assert abs(summary["predicted_seconds"] - serial_model) \
                    <= 1e-12 * serial_model, \
                    "K=1 cluster timing != single-host timing model"
                assert summary["let_exchange_bytes"] == 0.0
            else:
                assert summary["let_exchange_bytes"] > 0.0
            runs.append({"hosts": hosts, "wall_seconds": wall,
                         **summary})
        pred = {r["hosts"]: r["predicted_seconds"] for r in runs}
        assert pred[4] < pred[2] < pred[1], \
            "predicted cluster seconds did not shrink with hosts"
        price = {r["hosts"]: r["usd_per_mflops"] for r in runs}
        assert price[1] <= price[2] <= price[4], \
            "hosts buy wall clock, not price/performance"
        return serial_model, runs

    serial_model, runs = benchmark.pedantic(measure, rounds=1,
                                            iterations=1)

    by_hosts = {r["hosts"]: r for r in runs}
    benchmark.extra_info["serial_model_seconds"] = serial_model
    for r in runs:
        k = r["hosts"]
        benchmark.extra_info[f"k{k}_let_bytes"] = r["let_exchange_bytes"]
        benchmark.extra_info[f"k{k}_predicted_seconds"] = (
            r["predicted_seconds"])
    benchmark.extra_info["cluster_predicted_gflops"] = (
        by_hosts[4]["predicted_gflops"])

    doc = {
        "schema": "repro.e14_cluster/v1",
        "n_particles": N,
        "n_crit": N_CRIT,
        "boards_per_host": 2,
        "serial_model_seconds": serial_model,
        "cluster": runs,
        "k1_bit_identical": True,
    }
    (results_dir / "e14_cluster.json").write_text(
        json.dumps(doc, indent=2) + "\n")

    rows = [{"hosts": r["hosts"],
             "pred [s]": round(r["predicted_seconds"], 5),
             "Gflops": round(r["predicted_gflops"], 2),
             "LET cells": r["let_import_cells"],
             "LET parts": r["let_import_particles"],
             "LET [kB]": round(r["let_exchange_bytes"] / 1e3, 1),
             "cost [$]": round(r["cost_usd"]),
             "$/Mflops": round(r["usd_per_mflops"], 2)}
            for r in runs]
    emit(results_dir, "e14_cluster",
         format_table(rows)
         + "\n(K=1 bit-identical to the serial GRAPE path; its "
         "predicted seconds equal the single-host timing model)"
         "\n($/Mflops: ClusterSpec.cost() over the raw Gflops of this "
         f"N = {N} sweep)")
