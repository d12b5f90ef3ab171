"""Periodic-boundary treecode (extension).

The classic Hernquist--Bouchet--Suto (1991) recipe that every later
cosmological treecode (and the paper's own lineage, for box runs)
follows:

1. build the octree over positions wrapped into the fundamental box;
2. traverse with **minimum-image** distances in the acceptance
   criterion, so each sink interacts with the nearest image of every
   cell or particle;
3. evaluate the interaction list with the nearest-image Newtonian
   kernel **plus** the tabulated Ewald correction, which accounts for
   all the other images (cells enter the correction as point masses at
   their centers of mass -- consistent with the monopole tree).

:class:`PeriodicTreeCode` subclasses the isolated
:class:`~repro.core.treecode.TreeCode`: same API, same statistics,
same backends (the nearest-image kernel still goes through the GRAPE
emulator; the smooth Ewald correction runs on the host, which is also
how real GRAPE systems did periodic boxes -- the correction cannot be
expressed as point-mass interactions).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.kernels import ForceBackend
from ..core.mac import MAC, BarnesHutMAC
from ..core.multipole import compute_moments
from ..core.octree import Octree, build_octree
from ..core.traversal import InteractionLists
from ..core.treecode import TreeCode
from .ewald import EwaldCorrectionTable, minimum_image

__all__ = ["PeriodicTreeCode"]


class PeriodicTreeCode(TreeCode):
    """Barnes--Hut treecode in a periodic cubic box.

    Parameters (beyond :class:`~repro.core.treecode.TreeCode`)
    ----------
    box:
        Period L; positions are wrapped into ``[0, L)``.
    ewald_table:
        Precomputed :class:`~repro.cosmo.ewald.EwaldCorrectionTable`
        (built once per box size when omitted -- reuse tables across
        steps, they are position-independent).

    The sweep is per group: the anchored nearest-image kernel goes
    through ``backend.eval_lists`` (one dense call per group, phrased
    as a one-sink list) and the Ewald correction is added on the host
    -- both inside the engine's per-shard hook, so groups of different
    shards are corrected on different pool threads.
    """

    def __init__(self, *, box: float, theta: float = 0.75,
                 n_crit: int = 2000, leaf_size: int = 8,
                 backend: Optional[ForceBackend] = None,
                 mac: Optional[MAC] = None,
                 ewald_table: Optional[EwaldCorrectionTable] = None,
                 tracer: Optional[object] = None,
                 metrics: Optional[object] = None) -> None:
        if box <= 0:
            raise ValueError("box must be positive")
        if mac is None:
            mac = BarnesHutMAC(theta=theta, box=box)
        super().__init__(theta=theta, n_crit=n_crit,
                         leaf_size=leaf_size, backend=backend, mac=mac,
                         tracer=tracer, metrics=metrics)
        self.box = float(box)
        if ewald_table is None:
            ewald_table = EwaldCorrectionTable(self.box)
        elif abs(ewald_table.box - self.box) > 1e-12:
            raise ValueError("ewald_table box does not match")
        self.ewald_table = ewald_table

    # ------------------------------------------------------------------
    def build(self, pos: np.ndarray, mass: np.ndarray) -> Octree:
        """Build the octree over the wrapped fundamental box."""
        wrapped = np.mod(np.asarray(pos, dtype=np.float64), self.box)
        tree = build_octree(wrapped, mass, leaf_size=self.leaf_size,
                            corner=np.zeros(3), size=self.box)
        compute_moments(tree, quadrupole=self.quadrupole)
        self._last_domain = (-0.5 * self.box, 1.5 * self.box)
        self.backend.set_domain(-0.5 * self.box, 1.5 * self.box)
        return tree

    # ------------------------------------------------------------------
    def _eval_sweep(self, backend: ForceBackend, tree: Octree, lists,
                    sink_start: np.ndarray, sink_count: np.ndarray,
                    eps: float, acc_s: np.ndarray, pot_s: np.ndarray
                    ) -> None:
        """Anchored-image kernel through the backend + exact correction.

        One shared j-list per group is what GRAPE needs, so every
        source is shifted to its minimum image relative to the group's
        first particle (*anchor*) before the backend call.  Sinks away
        from the anchor may then see some boundary sources at a
        non-minimum image ``d_a``; the host-side correction uses the
        exact identity

            periodic(d) = bare(d_a) + [table(d_w) + bare(d_w)
                                       - bare(d_a)],

        with ``d_w = wrap(d_a)``: the bracket is evaluated here per
        pair, and collapses to the plain table value whenever
        ``d_a == d_w`` (the overwhelming majority of pairs).

        The anchored sources are rebuilt per group, so each group is
        its own backend call: a one-sink list whose "cells" are those
        sources, evaluated straight into the group's output rows.
        """
        no_parts = np.empty(0, dtype=np.int64)
        no_parts_off = np.zeros(2, dtype=np.int64)
        for g in range(int(sink_start.shape[0])):
            s, n = int(sink_start[g]), int(sink_count[g])
            xi = tree.pos_sorted[s:s + n]
            cells = lists.cells_of(g)
            parts = lists.parts_of(g)
            xj = np.concatenate([tree.com[cells], tree.pos_sorted[parts]])
            mj = np.concatenate([tree.mass[cells], tree.mass_sorted[parts]])
            xj_near = xi[0] + minimum_image(xj - xi[0], self.box)
            n_j = int(mj.shape[0])
            dense = InteractionLists(
                n_sinks=1, cell_idx=np.arange(n_j, dtype=np.int64),
                cell_off=np.array([0, n_j], dtype=np.int64),
                part_idx=no_parts, part_off=no_parts_off)
            backend.eval_lists(tree.pos_sorted, tree.mass_sorted,
                               xj_near, mj, dense, sink_start[g:g + 1],
                               sink_count[g:g + 1], eps, acc_s, pot_s)
            self._add_ewald(xi, xj_near, mj, eps, acc_s[s:s + n],
                            pot_s[s:s + n])

    def _add_ewald(self, xi: np.ndarray, xj_near: np.ndarray,
                   mj: np.ndarray, eps: float, acc: np.ndarray,
                   pot: np.ndarray) -> None:
        """Add the host-side correction of one group's anchored list
        (the bracket in :meth:`_eval_sweep`) to ``acc``/``pot``."""
        n_i = xi.shape[0]
        eps2 = float(eps) ** 2
        tiny = np.finfo(np.float64).tiny
        step = max(1, (1 << 20) // max(n_i, 1))
        for j0 in range(0, xj_near.shape[0], step):
            j1 = min(j0 + step, xj_near.shape[0])
            d_a = (xj_near[None, j0:j1, :]
                   - xi[:, None, :]).reshape(-1, 3)
            d_w = minimum_image(d_a, self.box)
            gc, pc = self.ewald_table.correction(d_w)

            same = np.all(np.abs(d_a - d_w) < 1e-9 * self.box, axis=1)
            if not np.all(same):
                # re-base the bare kernel from the anchored image onto
                # the minimum image for the affected pairs
                # affected pairs are all at |d| ~ box/2: softening and
                # zero-distance guards are moot, but kept for safety
                for dd, s in ((d_w, 1.0), (d_a, -1.0)):
                    r2 = np.einsum("ij,ij->i", dd, dd) + eps2
                    rinv = 1.0 / np.sqrt(np.maximum(r2, tiny))
                    w = np.where(same, 0.0, s * rinv)
                    gc = gc + (w * rinv * rinv)[:, None] * dd
                    pc = pc + w

            m = mj[j0:j1]
            acc += (m[None, :, None]
                    * gc.reshape(n_i, j1 - j0, 3)).sum(axis=1)
            pot -= (m[None, :]
                    * pc.reshape(n_i, j1 - j0)).sum(axis=1)
