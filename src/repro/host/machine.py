"""Host computer model (COMPAQ AlphaServer DS10).

Everything GRAPE-5 does not do runs on the host: tree construction,
grouping, tree traversal (interaction-list construction), time
integration, and the software side of the force calls.  The *balance*
between host and GRAPE time is the whole story of the paper's section 3
-- the optimal group size ``n_g`` sits where the shrinking host cost
meets the growing pipeline cost.

:class:`HostMachine` captures the host as a small set of per-operation
wall-clock costs.  The defaults are calibrated so that the paper's
headline run (N = 2,159,038, n_g ~ 2000, average list 13,431, 999
steps) lands at the reported ~30,141 s total together with the GRAPE
timing model -- see EXPERIMENTS.md for the calibration arithmetic.  The
absolute values are an Alpha-21264/466 MHz-era few-microseconds-per-
particle figure; experiment E3 shows the optimum's *location* depends
only on the ratio of these costs to the GRAPE constants.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HostMachine", "ALPHASERVER_DS10"]


@dataclass(frozen=True)
class HostMachine:
    """Per-operation wall-clock costs of the host.

    Attributes
    ----------
    name, cpu, clock_hz, memory_bytes:
        Descriptive identity (reported in E1/E4 tables).
    t_tree_build:
        Seconds per particle to build the octree and its moments.
    t_walk_term:
        Seconds per interaction-list term produced during traversal
        (the dominant host cost of the *original* algorithm; the
        modified algorithm divides the per-particle count by ~n_g).
    t_integrate:
        Seconds per particle per step for the leapfrog update and
        bookkeeping.
    t_force_host_word:
        Seconds of host software time per transferred i/j/f word during
        a GRAPE call (list marshalling, partial-force reduction).
    """

    name: str = "COMPAQ AlphaServer DS10"
    cpu: str = "Alpha 21264"
    clock_hz: float = 466.0e6
    memory_bytes: int = 512 * 1024 * 1024
    t_tree_build: float = 3.0e-6
    t_walk_term: float = 5.0e-7
    t_integrate: float = 5.0e-7
    t_force_host_word: float = 2.0e-8

    def tree_build_time(self, n: int) -> float:
        """Host seconds to build the tree over ``n`` particles."""
        return self.t_tree_build * n

    def traverse_time(self, total_terms: int) -> float:
        """Host seconds to construct lists totalling ``total_terms``."""
        return self.t_walk_term * total_terms

    def integrate_time(self, n: int) -> float:
        """Host seconds for one integration step of ``n`` particles."""
        return self.t_integrate * n

    def step_time(self, n: int, n_groups: int, mean_list: float) -> float:
        """Total host seconds of one simulation step.

        ``mean_list`` is the average interaction-list length; traversal
        and marshalling both scale with ``n_groups * mean_list``.
        """
        terms = n_groups * mean_list
        marshal = self.t_force_host_word * (4 * terms + 7 * n)
        return (self.tree_build_time(n) + self.traverse_time(terms)
                + self.integrate_time(n) + marshal)


#: The paper's host, with calibrated cost constants.
ALPHASERVER_DS10 = HostMachine()
