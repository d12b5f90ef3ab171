"""E3 -- the optimal group size n_g (paper section 3).

"The modified tree algorithm reduces the calculation cost of the host
computer by roughly a factor of n_g ... the amount of work on GRAPE-5
increases as we increase n_g ... There is, therefore, an optimal n_g at
which the total computing time is minimum ... For the present
configuration, the optimal n_g is around 2000."

Procedure (mirroring how such a curve is actually obtained):

1. measure the mean interaction-list length L(n_g) live, on the scaled
   cosmological snapshot, across a decade and a half of n_crit;
2. fit the Makino-1991 form L = c0 + c1 n_g + c2 n_g^{2/3} and anchor
   its cell part to the paper-scale measurement (L(2000) = 13,431 at
   N = 2.1 M);
3. evaluate the host + GRAPE step-time model at the paper's N over a
   n_g grid, locate the minimum, and tabulate the time breakdown.
"""

import numpy as np
import pytest

from conftest import emit
from repro.core import TreeCode
from repro.perf.model import (FittedListLength, PAPER_LIST_LENGTH, PAPER_N,
                              PAPER_NG, PerformanceModel)
from repro.perf.report import format_table

# a decade and a half of n_crit in 4 points: enough to condition the
# 3-coefficient Makino fit while keeping the fast tier cheap
NCRITS = (100, 400, 1600, 6400)


def test_e3_optimal_group_size(benchmark, cosmo_snapshot, results_dir):
    pos, mass, eps = cosmo_snapshot

    def measure_lists():
        ng, ll = [], []
        for ncrit in NCRITS:
            tc = TreeCode(theta=0.75, n_crit=ncrit)
            tc.accelerations(pos, mass, eps)
            s = tc.last_stats
            ng.append(s.mean_group_size)
            ll.append(s.interactions_per_particle)
        return np.array(ng), np.array(ll)

    ng_meas, ll_meas = benchmark.pedantic(measure_lists, rounds=1,
                                          iterations=1)

    fit = FittedListLength.fit(ng_meas, ll_meas)
    anchored = fit.anchored(PAPER_NG, PAPER_LIST_LENGTH)
    pm = PerformanceModel(list_length=anchored)
    ng_opt, t_opt = pm.optimal_ng(PAPER_N)

    rows = []
    for ng in (100, 250, 500, 1000, 2000, 4000, 8000, 16000):
        th = pm.host_step_time(PAPER_N, ng)
        tg = pm.grape_step_time(PAPER_N, ng)
        rows.append({
            "n_g": ng,
            "L(n_g) model": round(float(anchored(ng)), 0),
            "host [s/step]": round(th, 1),
            "GRAPE [s/step]": round(tg, 1),
            "total [s/step]": round(th + tg, 1),
        })
    summary = [
        {"quantity": "optimal n_g", "paper": "~2000 ('around')",
         "measured": round(ng_opt, 0)},
        {"quantity": "t(2000)/t(opt)", "paper": "1 by construction",
         "measured": round(pm.step_time(PAPER_N, PAPER_NG) / t_opt, 3)},
        {"quantity": "fit  L = c0 + c1 ng + c2 ng^2/3",
         "paper": "n/a",
         "measured": (f"c0={fit.c0:.0f} c1={fit.c1:.2f} "
                      f"c2={fit.c2:.1f}")},
    ]
    meas_rows = [{"n_crit": c, "n_g measured": round(g, 0),
                  "L measured": round(l, 0)}
                 for c, g, l in zip(NCRITS, ng_meas, ll_meas)]
    emit(results_dir, "e3_optimal_ng",
         format_table(meas_rows) + "\n\n" + format_table(rows)
         + "\n\n" + format_table(summary))

    # the paper's qualitative claims (grouping saturates on a small
    # snapshot once n_crit exceeds the top-level cell populations, so
    # compare distinct points only)
    assert np.all(np.diff(ll_meas) >= 0)             # L grows with n_g
    host_times = [r["host [s/step]"] for r in rows]
    assert host_times[0] > host_times[-1]            # host cost falls
    assert 500 <= ng_opt <= 8000                     # optimum in band
    assert pm.step_time(PAPER_N, PAPER_NG) < 1.25 * t_opt
