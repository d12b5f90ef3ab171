"""E7 -- modified vs original tree algorithm (paper section 3 ablation).

The three claims of section 3, measured head-to-head on the same
snapshot at the same accuracy parameter:

1. "the calculation cost on the host computer is greatly reduced" --
   the host builds ~n_g times fewer interaction lists (we count the
   list *terms* the host constructs);
2. "the amount of work on GRAPE-5 increases" -- the pipelined
   interaction count grows by the overhead ratio;
3. "our modified tree algorithm is more accurate than the original
   tree algorithm for the same accuracy parameter" (Barnes 1990).
"""

import numpy as np
import pytest

from conftest import emit
from repro.core import DirectSummation, TreeCode
from repro.perf.report import format_table


def _rms(a, ref):
    e = np.linalg.norm(a - ref, axis=1) / np.linalg.norm(ref, axis=1)
    return float(np.sqrt(np.mean(e**2)))


def test_e7_modified_vs_original(benchmark, cosmo_snapshot, results_dir):
    pos, mass, eps = cosmo_snapshot
    # subsample so the per-particle original evaluation stays snappy
    rng = np.random.default_rng(7)
    pick = rng.choice(len(pos), size=4000, replace=False)
    pos, mass = pos[pick], mass[pick] * (len(pick) / len(pick))
    acc_ref, _ = DirectSummation().accelerations(pos, mass, eps)

    theta = 0.75
    tc = TreeCode(theta=theta, n_crit=400)

    def run_modified():
        return tc.accelerations(pos, mass, eps, algorithm="modified")

    acc_m, _ = benchmark.pedantic(run_modified, rounds=1, iterations=1)
    s_mod = tc.last_stats
    acc_o, _ = tc.accelerations(pos, mass, eps, algorithm="original")
    s_orig = tc.last_stats

    host_terms_mod = s_mod.cell_terms + s_mod.part_terms
    host_terms_orig = s_orig.cell_terms + s_orig.part_terms
    rows = [
        {"quantity": "host list terms built",
         "original": host_terms_orig, "modified": host_terms_mod,
         "mod/orig": round(host_terms_mod / host_terms_orig, 3)},
        {"quantity": "pipelined interactions",
         "original": s_orig.total_interactions,
         "modified": s_mod.total_interactions,
         "mod/orig": round(s_mod.total_interactions
                           / s_orig.total_interactions, 2)},
        {"quantity": "force error RMS [%]",
         "original": round(100 * _rms(acc_o, acc_ref), 3),
         "modified": round(100 * _rms(acc_m, acc_ref), 3),
         "mod/orig": round(_rms(acc_m, acc_ref)
                           / _rms(acc_o, acc_ref), 2)},
        {"quantity": "sinks walked",
         "original": s_orig.n_groups, "modified": s_mod.n_groups,
         "mod/orig": round(s_mod.n_groups / s_orig.n_groups, 4)},
    ]
    header = (f"N = {len(pos)}, theta = {theta}, n_crit = 400 "
              f"(mean n_g = {s_mod.mean_group_size:.0f})\n"
              "paper: host cost / ~n_g, GRAPE work x several, accuracy "
              "BETTER at same theta")
    emit(results_dir, "e7_modified_vs_original",
         header + "\n" + format_table(rows))

    # claim 1: host work shrinks by a large factor
    assert host_terms_mod < 0.2 * host_terms_orig
    # claim 2: pipelined work grows
    assert s_mod.total_interactions > 1.5 * s_orig.total_interactions
    # claim 3: modified is MORE accurate at the same theta
    assert _rms(acc_m, acc_ref) < _rms(acc_o, acc_ref)
