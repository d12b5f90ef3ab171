"""E8 -- O(N log N) vs O(N^2) (paper section 1 motivation).

"The calculation cost of the astrophysical N-body simulation rapidly
increases for large N, because it is proportional to N^2 if we use a
straightforward approach ... Hierarchical tree algorithm is one of
such fast algorithms which reduce the calculation cost from O(N^2) to
O(N log N)."

Measured two ways: interaction counts (machine-independent, the
paper's own currency) and modelled GRAPE-5 wall time per force sweep.
The direct rows also show why GRAPE-5 *without* the tree would not
reach the paper's scale: 2.1M^2 interactions per step at 2.88e9/s is
~27 minutes per step vs the treecode's ~10 s.
"""

import numpy as np
import pytest

from conftest import emit
from repro.core import TreeCode
from repro.core.traversal import count_interactions
from repro.grape import GrapeTimingModel
from repro.perf.report import format_table
from repro.sim.models import plummer_model

SIZES = (512, 1024, 2048, 4096, 8192, 16384)


def test_e8_scaling(benchmark, results_dir):
    rng = np.random.default_rng(8)
    tm = GrapeTimingModel()
    rows = []

    def sweep():
        out = []
        for n in SIZES:
            pos, _, mass = plummer_model(n, rng)
            tc = TreeCode(theta=0.75, n_crit=max(32, n // 16))
            tc.accelerations(pos, mass, 0.01)
            s = tc.last_stats
            tree_int = s.total_interactions
            direct_int = n * n
            # modelled GRAPE time: tree = one call per group (its list
            # lengths counted here, the sweep keeps none); direct = one
            # call with all particles as both sinks and sources
            g = tc.last_groups
            cells, parts = count_interactions(tc.last_tree, g.center,
                                              g.radius, tc.mac)
            t_tree = sum(tm.force_call_time(int(c), int(l))
                         for c, l in zip(g.count, cells + parts))
            t_direct = tm.force_call_time(n, n)
            out.append({
                "N": n,
                "tree interactions": tree_int,
                "direct interactions": direct_int,
                "direct/tree": round(direct_int / tree_int, 1),
                "GRAPE t_tree [ms]": round(1e3 * t_tree, 1),
                "GRAPE t_direct [ms]": round(1e3 * t_direct, 1),
            })
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # paper-scale extrapolation rows
    rows.append({
        "N": 2_159_038,
        "tree interactions": "2.9e10/step (paper)",
        "direct interactions": f"{2_159_038**2:.2g}",
        "direct/tree": round(2_159_038**2 / 2.9e10, 1),
        "GRAPE t_tree [ms]": "~14,000 (model)",
        "GRAPE t_direct [ms]": round(
            1e3 * GrapeTimingModel().force_call_time(2_159_038,
                                                     2_159_038), 0),
    })
    emit(results_dir, "e8_scaling", format_table(rows))

    # shape: the tree's advantage grows with N
    advantages = [r["direct/tree"] for r in rows[:-1]]
    assert all(b > a for a, b in zip(advantages, advantages[1:]))
    # per-particle tree work grows sub-linearly (N log N total)
    per_particle = [r["tree interactions"] / r["N"] for r in rows[:-1]]
    growth = per_particle[-1] / per_particle[0]
    size_growth = SIZES[-1] / SIZES[0]
    assert growth < 0.5 * size_growth
