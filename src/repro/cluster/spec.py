"""Cluster configuration: how many emulated hosts, how many boards each.

The paper's machine is one host driving a two-board GRAPE-5; its
scale-out lineage is the parallel PC-GRAPE cluster of GRAPE-6A
(Fukushige, Makino & Kawai, astro-ph/0504407): K domain-decomposed
hosts, each driving its own board set, exchanging locally-essential
trees over the network.  :class:`ClusterSpec` is the immutable
description of such an installation that rides through
``build_force(cluster=...)`` and the CLI's ``--hosts``/``--boards``
flags; :class:`~repro.cluster.backend.ClusterBackend` is the GRAPE
backend built from it.

Validation errors raise plain :class:`ValueError`, so every entry
point (constructor, recipe, CLI) reports a bad configuration as the
uniform exit-2 usage error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..host.cost import PAPER_SYSTEM_COST, CostItem, SystemCost

__all__ = ["ClusterSpec"]

#: network gear per host (NIC + switch share), JPY, once there is a
#: network at all; boards and hosts are priced as in the paper's
#: section 4 (:data:`~repro.host.cost.PAPER_SYSTEM_COST`)
NETWORK_PRICE_JPY = 0.1e6


@dataclass(frozen=True)
class ClusterSpec:
    """An emulated PC-GRAPE cluster configuration.

    Attributes
    ----------
    hosts:
        Emulated host computers (K).  ``hosts=1`` with ``boards=2`` is
        exactly the paper's single-host machine.  Forces are the
        non-cluster path's bits at every K; K only moves the cost.
    boards:
        GRAPE-5 boards per host (B).  Each host's timing model splits
        its j-stream over these boards, like
        :class:`~repro.grape.timing.GrapeTimingModel` does for the
        paper's two.
    exchange_bandwidth:
        Sustained host-to-host network bandwidth in bytes/s used by the
        timing model for locally-essential-tree imports (default: a
        gigabit-Ethernet-class 125 MB/s, the interconnect of the
        GRAPE-6A cluster era).
    exchange_latency:
        Fixed per-evaluation exchange setup latency in seconds, charged
        once per host per force evaluation when it imports anything.
    """

    hosts: int = 1
    boards: int = 2
    exchange_bandwidth: float = 125.0e6
    exchange_latency: float = 100.0e-6

    def __post_init__(self):
        if int(self.hosts) < 1:
            raise ValueError(f"cluster needs hosts >= 1, got {self.hosts}")
        if int(self.boards) < 1:
            raise ValueError(f"cluster needs boards >= 1, got {self.boards}")
        object.__setattr__(self, "hosts", int(self.hosts))
        object.__setattr__(self, "boards", int(self.boards))
        if not self.exchange_bandwidth > 0.0:
            raise ValueError("exchange_bandwidth must be positive")
        if self.exchange_latency < 0.0:
            raise ValueError("exchange_latency must be non-negative")

    @property
    def total_boards(self) -> int:
        """Boards across the whole cluster (K x B)."""
        return self.hosts * self.boards

    def cost(self) -> SystemCost:
        """The installation's price ledger: K x B boards and K hosts at
        the paper's catalogue prices, plus network gear per host when
        K > 1 -- so ``hosts=1, boards=2`` prices the paper's machine."""
        board, host = PAPER_SYSTEM_COST.items
        items = [replace(board, quantity=self.total_boards),
                 replace(host, quantity=self.hosts)]
        if self.hosts > 1:
            items.append(CostItem("network (NIC + switch share)",
                                  NETWORK_PRICE_JPY, self.hosts))
        return SystemCost(items=tuple(items))
