"""Domain decomposition: assign sinks (Barnes groups) to hosts.

The cluster path keeps the *global* tree and the *global* traversal --
both are cheap next to force evaluation and sharing them keeps the
interaction lists, and so the forces, bit-identical to the single-host
path -- and partitions the **sinks** across hosts.  Each host is then
charged its own groups' force calls on its own boards.

The decomposition is :func:`orb_partition`, recursive orthogonal
bisection: split the sink set at the weight median along its widest
axis, recurse on the halves.  This is the scheme of the GRAPE-6A
PC-cluster (astro-ph/0504407); non-power-of-two host counts split the
weights proportionally (``K -> K//2 + (K - K//2)``).  It takes per-sink
weights (group populations), so hosts receive near-equal *particle*
counts rather than group counts, and uses stable sorts only -- the same
inputs always give the same owners.
"""

from __future__ import annotations

import numpy as np

__all__ = ["orb_partition"]


def orb_partition(centers: np.ndarray, weights: np.ndarray,
                  hosts: int) -> np.ndarray:
    """Recursive orthogonal bisection of sinks onto ``hosts`` owners.

    Returns an ``(S,)`` int64 owner array with values in
    ``0..hosts-1``.  Deterministic: stable sorts, widest-axis splits,
    weight-proportional targets.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise ValueError("centers must have shape (S, 3)")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (centers.shape[0],):
        raise ValueError("weights must have shape (S,)")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if hosts < 1:
        raise ValueError(f"hosts must be >= 1, got {hosts}")
    n = centers.shape[0]
    owner = np.zeros(n, dtype=np.int64)

    def split(idx: np.ndarray, k: int, base: int) -> None:
        if k == 1 or idx.size == 0:
            owner[idx] = base
            return
        if idx.size == 1:
            owner[idx] = base
            return
        kl = k // 2
        sub = np.ascontiguousarray(centers[idx].T)   # (3, n) columns
        spans = sub.max(axis=1) - sub.min(axis=1)
        axis = int(np.argmax(spans))
        order = idx[np.argsort(sub[axis], kind="stable")]
        cum = np.cumsum(weights[order])
        target = cum[-1] * (kl / k)
        cut = int(np.searchsorted(cum, target, side="left")) + 1
        cut = min(max(cut, 1), idx.size - 1)
        split(order[:cut], kl, base)
        split(order[cut:], k - kl, base + kl)

    split(np.arange(n, dtype=np.int64), int(hosts), 0)
    return owner
