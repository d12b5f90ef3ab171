"""Emulated PC-GRAPE cluster: K hosts x B boards.

Generalises the exec stack from the paper's single host driving one
two-board GRAPE-5 to the parallel PC-GRAPE cluster of GRAPE-6A
(Fukushige, Makino & Kawai, astro-ph/0504407): domain-decomposed hosts,
each driving a private board set, exchanging locally-essential trees.

Layers (see ``docs/cluster.md``):

* :mod:`~repro.cluster.spec` -- :class:`ClusterSpec` configuration and
  the :class:`ClusterError` protocol-misuse exception;
* :mod:`~repro.cluster.decompose` -- ORB sink decomposition;
* :mod:`~repro.cluster.let` -- locally-essential-tree exchange
  accounting (:func:`let_exchange`, CSR row extraction);
* :mod:`~repro.cluster.context` -- the live :class:`ClusterContext`,
  which a cluster treecode holds as its backend.

This is the repo's one cluster model: it *measures* its exchange
traffic (the LET cells and particles each host's lists reference), and
:meth:`ClusterSpec.cost` prices the installation, so experiment E14
reads scaling and price/performance off the same run.

Entry points: ``TreeCode(cluster=...)``, ``build_force(cluster=...)``,
and the CLI's ``--hosts`` / ``--boards`` flags.
"""

from .context import ClusterContext
from .decompose import orb_partition
from .let import ExchangeStats, HostExchange, let_exchange, take_rows
from .spec import ClusterError, ClusterSpec

__all__ = [
    "ClusterContext", "ClusterError", "ClusterSpec", "ExchangeStats",
    "HostExchange", "let_exchange", "orb_partition", "take_rows",
]
