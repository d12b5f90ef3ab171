"""E12 -- periodic-solver shoot-out (extension).

The road the paper's lineage took next was TreePM: PM above the mesh
scale, tree below.  This benchmark motivates it by measuring the three
periodic solvers built here against the exact (tiny-theta, Ewald)
reference on one clustered periodic realisation:

* Ewald-corrected direct summation (exact, O(N^2));
* the periodic treecode at production theta (accurate everywhere,
  O(N log N));
* PM at two mesh resolutions (cheap, smooth below the mesh scale).

Expected shape: the tree's error is small and scale-independent; PM's
error is O(1) on this deeply-clustered workload because it lives
entirely below the mesh scale (the large-scale force is fine).  That
scale split is precisely the division of labour TreePM exploits.
"""

import numpy as np

from conftest import emit
from repro.cosmo.periodic_tree import PeriodicTreeCode
from repro.cosmo.pm import ParticleMesh
from repro.perf.report import format_table

BOX = 1.0
N_SIDE = 12   # 1728 particles


def test_e12_periodic_solvers(benchmark, periodic_workload, results_dir):
    pos, mass, eps, table, ref = periodic_workload
    scale = float(np.mean(np.linalg.norm(ref, axis=1)))

    def rms(a):
        return float(np.sqrt(np.mean(
            (np.linalg.norm(a - ref, axis=1) / scale) ** 2)))

    rows = [{"solver": "Ewald direct (reference)", "error vs exact": 0.0,
             "cost proxy": f"{len(pos)**2} pair ops"}]

    def run_tree():
        tc = PeriodicTreeCode(box=BOX, theta=0.5, n_crit=64,
                              ewald_table=table)
        a, _ = tc.accelerations(pos, mass, eps)
        return a, tc.last_stats.total_interactions

    a_tree, inter = benchmark.pedantic(run_tree, rounds=1, iterations=1)
    rows.append({"solver": "periodic treecode (theta=0.5)",
                 "error vs exact": round(rms(a_tree), 4),
                 "cost proxy": f"{inter} pair ops"})

    for ngrid in (16, 32):
        pm = ParticleMesh(box=BOX, ngrid=ngrid)
        a_pm, _ = pm.accelerations(pos, mass)
        rows.append({"solver": f"PM {ngrid}^3",
                     "error vs exact": round(rms(a_pm), 4),
                     "cost proxy": f"{ngrid}^3 FFT + CIC"})

    emit(results_dir, "e12_periodic_solvers", format_table(rows))

    tree_err = rows[1]["error vs exact"]
    pm_errs = [rows[2]["error vs exact"], rows[3]["error vs exact"]]
    # the tree is accurate at production theta, scale-independently
    assert tree_err < 0.05
    # PM carries an O(1) small-scale error against the softened
    # pairwise reference at BOTH meshes (its large-scale force is
    # fine; the deficit below a few cells is the TreePM opening --
    # note that a finer mesh does not monotonically reduce THIS
    # metric, since the reference is Plummer-softened while the mesh
    # is top-hat smoothed)
    assert all(0.1 < e < 1.2 for e in pm_errs)
    assert all(e > 10 * tree_err for e in pm_errs)
    # tree does far fewer pair operations than direct
    assert inter < 0.7 * len(pos) ** 2
