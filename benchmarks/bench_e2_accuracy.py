"""E2 -- force accuracy (paper section 2).

Paper claims regenerated here:

* the G5 pipeline's pairwise force error is ~0.3 % RMS;
* the *total* force error of the production configuration is ~0.1 %,
  dominated by the tree approximation, not the hardware;
* re-running the same force calculation in 64-bit arithmetic gives
  "practically the same" accuracy.

Measured on both the scaled cosmological snapshot (the paper's
workload) and an isolated Plummer sphere.
"""

import numpy as np
import pytest

from conftest import emit
from repro.core import DirectSummation, TreeCode
from repro.core.kernels import pairwise_accpot
from repro.grape import G5Numerics, G5Pipeline, Grape5System, GrapeBackend
from repro.perf.report import format_table


def _rms(a, ref):
    e = np.linalg.norm(a - ref, axis=1) / np.linalg.norm(ref, axis=1)
    return float(np.sqrt(np.mean(e**2)))


def test_e2_pairwise_error(benchmark, results_dir):
    """RMS relative error of single pairwise interactions."""
    rng = np.random.default_rng(2)
    n = 2000
    xi = rng.uniform(-1, 1, (n, 3))
    xj = rng.uniform(-1, 1, (n, 3))
    mj = rng.uniform(0.5, 1.5, n)
    pipe = G5Pipeline()
    pipe.set_range(-1.5, 1.5)

    def measure():
        errs = np.empty(n)
        for i in range(n):
            a, _ = pipe.compute(xi[i:i + 1], xj[i:i + 1], mj[i:i + 1], 0.02)
            r, _ = pairwise_accpot(xi[i:i + 1], xj[i:i + 1], mj[i:i + 1],
                                   0.02)
            errs[i] = np.linalg.norm(a[0] - r[0]) / np.linalg.norm(r[0])
        return float(np.sqrt(np.mean(errs**2)))

    rms = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(results_dir, "e2_pairwise", format_table([{
        "quantity": "pairwise force rel. error (RMS)",
        "paper": "~0.3 %", "measured": f"{100 * rms:.2f} %"}]))
    assert 0.0015 < rms < 0.006


def test_e2_total_force_error(benchmark, cosmo_snapshot, plummer_snapshot,
                              results_dir):
    """Total force error vs theta: tree-dominated, hardware-insensitive.

    The paper does not quote its accuracy parameter; the sweep shows
    which theta corresponds to its ~0.1 % regime on each workload, and
    that at every theta the GRAPE pipeline adds little on top of the
    tree error while the exact-mode pipeline is bit-identical to the
    host float64 path.
    """
    rows = []
    cases = [("cosmological sphere", cosmo_snapshot, (0.75, 0.6, 0.4)),
             ("Plummer 4k", plummer_snapshot, (0.75,))]
    for name, (pos, mass, eps), thetas in cases:
        acc_ref, _ = DirectSummation().accelerations(pos, mass, eps)
        for theta in thetas:
            def tree_grape(th=theta):
                tc = TreeCode(theta=th, n_crit=256,
                              backend=GrapeBackend())
                return tc.accelerations(pos, mass, eps)[0]

            if name == "Plummer 4k":
                acc_g = benchmark.pedantic(tree_grape, rounds=1,
                                           iterations=1)
            else:
                acc_g = tree_grape()

            tc64 = TreeCode(theta=theta, n_crit=256)
            acc_64, _ = tc64.accelerations(pos, mass, eps)
            exact = GrapeBackend(system=Grape5System(
                numerics=G5Numerics().exact()))
            tce = TreeCode(theta=theta, n_crit=256, backend=exact)
            acc_e, _ = tce.accelerations(pos, mass, eps)

            rows.append({
                "workload": name,
                "N": len(pos),
                "theta": theta,
                "tree+GRAPE [%]": round(100 * _rms(acc_g, acc_ref), 3),
                "tree+float64 [%]": round(100 * _rms(acc_64, acc_ref), 3),
                "tree+exact-pipe [%]": round(100 * _rms(acc_e, acc_ref),
                                             3),
            })
    header = ("paper: total error ~0.1 %, dominated by the tree, "
              "'practically the same' in 64-bit")
    emit(results_dir, "e2_total_error",
         header + "\n" + format_table(rows))
    for r in rows:
        # hardware adds at most a small factor over the tree error
        assert (r["tree+GRAPE [%]"]
                < 3.0 * max(r["tree+float64 [%]"], 0.05))
        # 64-bit pipeline reproduces the host path exactly
        assert abs(r["tree+exact-pipe [%]"]
                   - r["tree+float64 [%]"]) < 1e-6
    # the paper's ~0.1 % regime is reachable on both workloads
    assert any(r["tree+float64 [%]"] <= 0.15 for r in rows
               if r["workload"] == "cosmological sphere")
    assert any(r["tree+float64 [%]"] <= 0.15 for r in rows
               if r["workload"] == "Plummer 4k")
