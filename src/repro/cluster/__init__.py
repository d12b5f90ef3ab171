"""Emulated PC-GRAPE cluster: K hosts x B boards.

Generalises the paper's single host driving one two-board GRAPE-5 to
the parallel PC-GRAPE cluster of GRAPE-6A (Fukushige, Makino & Kawai,
astro-ph/0504407): domain-decomposed hosts, each driving a private
board set, exchanging locally-essential trees.

Layers (see ``docs/cluster.md``):

* :mod:`~repro.cluster.spec` -- :class:`ClusterSpec` configuration;
* :mod:`~repro.cluster.decompose` -- ORB sink decomposition;
* :mod:`~repro.cluster.let` -- locally-essential-tree exchange
  accounting (:func:`let_exchange`);
* :mod:`~repro.cluster.backend` -- :class:`ClusterBackend`, the GRAPE
  backend a cluster treecode holds; the one pipeline engine drives it.

This is the repo's one cluster model: it *measures* its exchange
traffic (the LET cells and particles each host's lists reference), and
:meth:`ClusterSpec.cost` prices the installation, so experiment E14
reads scaling and price/performance off the same run.

Entry points: ``TreeCode(backend=ClusterBackend(spec))``,
``build_force(cluster=spec)``, and the CLI's ``--hosts`` / ``--boards``
flags.
"""

from .backend import ClusterBackend
from .decompose import orb_partition
from .let import ExchangeStats, HostExchange, let_exchange
from .spec import ClusterSpec

__all__ = [
    "ClusterBackend", "ClusterSpec", "ExchangeStats", "HostExchange",
    "let_exchange", "orb_partition",
]
