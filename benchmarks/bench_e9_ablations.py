"""E9 -- design-choice ablations (DESIGN.md section 5).

Not a paper table: these benches probe the design choices the paper
made implicitly, using the machinery built for E1-E8.

(a) Monopole vs quadrupole cells -- retired with the host-side
    quadrupole path; the GRAPE-5 pipeline evaluates point masses only.
    Its last numbers are kept in EXPERIMENTS.md.

(b) **Opening-angle MAC vs absolute-error MAC** (the paper's ref [17],
    Kawai & Makino 1999): work-error tradeoff of the two acceptance
    criteria on the same snapshot.

(c) **Leaf size.**  Tree-build cost vs list length as the leaf
    capacity varies -- the knob that trades host tree depth against
    pipeline work.
"""

import time

import numpy as np
import pytest

from conftest import emit
from repro.core import (AbsoluteErrorMAC, BarnesHutMAC, DirectSummation,
                        TreeCode)
from repro.core.traversal import build_interaction_lists
from repro.perf.report import format_table


def _rms(a, ref):
    e = np.linalg.norm(a - ref, axis=1) / np.linalg.norm(ref, axis=1)
    return float(np.sqrt(np.mean(e**2)))


def test_e9b_mac_comparison(benchmark, cosmo_snapshot, results_dir):
    pos, mass, eps = cosmo_snapshot
    acc_ref, _ = DirectSummation().accelerations(pos, mass, eps)
    amean = float(np.mean(np.linalg.norm(acc_ref, axis=1)))

    def sweep():
        rows = []
        for theta in (1.0, 0.75, 0.5):
            tc = TreeCode(theta=theta, n_crit=256)
            a, _ = tc.accelerations(pos, mass, eps)
            rows.append({
                "MAC": f"opening angle {theta}",
                "interactions": tc.last_stats.total_interactions,
                "err RMS [%]": round(100 * _rms(a, acc_ref), 4),
            })
        for tol in (3e-2, 1e-2, 3e-3):
            tc = TreeCode(n_crit=256,
                          mac=AbsoluteErrorMAC(eps_abs=tol * amean))
            a, _ = tc.accelerations(pos, mass, eps)
            rows.append({
                "MAC": f"abs error {tol:g}*<a>",
                "interactions": tc.last_stats.total_interactions,
                "err RMS [%]": round(100 * _rms(a, acc_ref), 4),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(results_dir, "e9b_mac_tradeoff", format_table(rows))
    # both families must show monotone work-for-error exchange
    bh = [r for r in rows if r["MAC"].startswith("opening")]
    ae = [r for r in rows if r["MAC"].startswith("abs")]
    assert bh[0]["interactions"] < bh[-1]["interactions"]
    assert bh[0]["err RMS [%]"] > bh[-1]["err RMS [%]"]
    assert ae[0]["interactions"] < ae[-1]["interactions"]
    assert ae[0]["err RMS [%]"] > ae[-1]["err RMS [%]"]


def test_e9c_leaf_size(benchmark, plummer_snapshot, results_dir):
    pos, mass, eps = plummer_snapshot

    def sweep():
        rows = []
        for leaf in (1, 4, 8, 16, 32):
            tc = TreeCode(theta=0.75, n_crit=256, leaf_size=leaf)
            tc.accelerations(pos, mass, eps)
            s, g = tc.last_stats, tc.last_groups
            # the sweep walks its shards on the pool threads, so the
            # submitting thread's "traverse" is ~0: time one whole walk
            t0 = time.perf_counter()
            build_interaction_lists(tc.last_tree, g.center, g.radius,
                                    tc.mac)
            t_walk = time.perf_counter() - t0
            rows.append({
                "leaf_size": leaf,
                "cells": s.n_cells,
                "depth": s.depth,
                "mean list": round(s.interactions_per_particle),
                "t_build [ms]": round(1e3 * s.times["build"], 1),
                "t_traverse [ms]": round(1e3 * t_walk, 1),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(results_dir, "e9c_leaf_size", format_table(rows))
    # bigger leaves, smaller tree
    cells = [r["cells"] for r in rows]
    assert all(b <= a for a, b in zip(cells, cells[1:]))
