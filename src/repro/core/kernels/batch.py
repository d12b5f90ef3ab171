"""Batch drivers: NumPy arrays in, compiled tree and list walks out.

These functions marshal the octree and
:class:`~repro.core.traversal.InteractionLists` CSR blocks into the
compiled kernels of :mod:`repro.core.kernels.cnative`.  Every driver is
*total*: when the native library is unavailable (no compiler,
kill-switch set, unsupported numerics) it reports failure --
``(False, 0)`` / ``False`` / ``None`` -- and the caller falls back to
the NumPy frontier walk or the per-sink reference loop.  Callers never
need to know whether the fast path exists.

Two properties the execution layer depends on:

* **Assignment semantics** -- output rows are written with ``=``, never
  ``+=``, so re-running a sink range (the pipeline engine's retry
  ladder, the corrupt-result checksum path) is idempotent.
* **Non-rebased CSR views** -- the ``lists`` argument may carry offset
  slices that do not start at zero, with index arrays spanning the whole
  shard; the kernels index ``idx[off[g]:off[g+1]]`` directly, so workers
  can evaluate a half-open batch ``[g0, g1)`` without copying lists.
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from . import cnative

__all__ = ["f64_eval_lists", "g5_eval_lists", "tree_walk"]


def _dp(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _ip(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong))


def _f64c(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64c(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _writable(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous \
        and a.flags.writeable


def _csr_args(lists, sink_start, sink_count):
    """Marshal the CSR block; returns None when outputs can't be used
    in place (the reference loop handles those)."""
    cell_idx = _i64c(lists.cell_idx)
    cell_off = _i64c(lists.cell_off)
    part_idx = _i64c(lists.part_idx)
    part_off = _i64c(lists.part_off)
    start = _i64c(sink_start)
    count = _i64c(sink_count)
    n_groups = int(start.shape[0])
    lengths = np.diff(cell_off) + np.diff(part_off)
    max_len = int(lengths.max()) if n_groups else 0
    scratch = np.empty((4, max(max_len, 1)), dtype=np.float64)
    inter = int(np.sum(count * lengths)) if n_groups else 0
    return (cell_idx, cell_off, part_idx, part_off, start, count,
            n_groups, scratch, inter)


def f64_eval_lists(pos, pmass, com, cmass, lists, sink_start, sink_count,
                   eps, out_acc, out_pot) -> Tuple[bool, int]:
    """IEEE-double CSR list walk.  Returns ``(done, interactions)``."""
    lib = cnative.load()
    if lib is None or not (_writable(out_acc) and _writable(out_pot)):
        return False, 0
    (cell_idx, cell_off, part_idx, part_off, start, count,
     n_groups, scratch, inter) = _csr_args(lists, sink_start, sink_count)
    if n_groups == 0:
        return True, 0
    pos = _f64c(pos)
    lib.repro_f64_csr(
        _dp(pos), _dp(_f64c(pmass)), _dp(_f64c(com)), _dp(_f64c(cmass)),
        _ip(cell_idx), _ip(cell_off), _ip(part_idx), _ip(part_off),
        _ip(start), _ip(count), n_groups, float(eps) ** 2,
        _dp(scratch[0]), _dp(scratch[1]), _dp(scratch[2]), _dp(scratch[3]),
        _dp(out_acc), _dp(out_pot))
    return True, inter


def _g5_params(eps, numerics, fixed):
    """The reduced-precision constants, or None when the datapath falls
    outside what the compiled kernel's stage-4 table reproduces exactly
    -- no quantised window, fb outside [1, 11], or a window whose r^2
    range (slack included) reaches an exponent of +-680 -- and the
    Python pipeline, which is authoritative, takes the call.  The last
    two constants bound a nonzero source mass: inside ``[mlo, mhi)``
    the mass and m r^-1/2, m r^-3/2 stay normal over that r^2 range
    (8: rounding slack), so the kernel rounds without a guard."""
    fb = int(numerics.force_fraction_bits)
    if fixed is None or not 1 <= fb <= 11:
        return None
    from repro.grape.numerics import round_mantissa
    eps2q = float(round_mantissa(np.float64(eps) ** 2, fb))
    xmin, res = float(fixed.xmin), float(fixed.resolution)
    qmax = float((1 << int(fixed.bits)) - 1)
    width = qmax * res
    lo = min(res * res, eps2q or res * res) / 16  # 16, 4: rounding slack
    hi = 4 * (3 * width * width + eps2q)
    if not (2.0 ** -679 < lo and hi < 2.0 ** 679):
        return None
    a, b = hi ** 0.5, lo ** 0.5
    mlo = max(2.0 ** -1022, 2.0 ** -1019 * max(a, a * hi))
    mhi = min(2.0 ** 1023, 2.0 ** 1020 * min(b, b * lo))
    return eps2q, fb, xmin, res, qmax, mlo, mhi


def g5_eval_lists(pos, pmass, com, cmass, lists, sink_start, sink_count,
                  eps, out_acc, out_pot, *, numerics, fixed) -> bool:
    """GRAPE-5 datapath CSR list walk, bit-identical per pair to
    :class:`repro.grape.pipeline.G5Pipeline`, each sink summing in list
    order.  Returns ``done``: False also when a source or sink fails
    the kernel's input check (a NaN coordinate, a mass outside the
    range above), with some rows already written."""
    lib = cnative.load()
    if lib is None or not (_writable(out_acc) and _writable(out_pot)):
        return False
    params = _g5_params(eps, numerics, fixed)
    if params is None:
        return False
    (cell_idx, cell_off, part_idx, part_off, start, count,
     n_groups, scratch, _) = _csr_args(lists, sink_start, sink_count)
    if n_groups == 0:
        return True
    pos = _f64c(pos)
    return lib.repro_g5_csr(
        _dp(pos), _dp(_f64c(pmass)), _dp(_f64c(com)), _dp(_f64c(cmass)),
        _ip(cell_idx), _ip(cell_off), _ip(part_idx), _ip(part_off),
        _ip(start), _ip(count), n_groups, *params,
        _dp(scratch[0]), _dp(scratch[1]), _dp(scratch[2]), _dp(scratch[3]),
        _dp(out_acc), _dp(out_pot)) == 0


def tree_walk(tree, mac, sink_center, sink_radius, collect):
    """The compiled per-sink breadth-first walk (``repro_walk``) for a
    MAC with a per-cell ``threshold``: the CSR ``(cell_off, cell_idx,
    part_off, part_idx)`` with ``collect``, else per-sink ``(cell
    counts, part counts)`` from the counts pass alone; ``None`` without
    the native library."""
    lib = cnative.load()
    if lib is None:
        return None
    n = int(sink_radius.shape[0])
    cell_off = np.zeros(n + 1, dtype=np.int64)
    part_off = np.zeros(n + 1, dtype=np.int64)
    child = np.ascontiguousarray(tree.child, dtype=np.int32)
    leaf = np.ascontiguousarray(tree.is_leaf, dtype=np.uint8)
    args = (_dp(_f64c(tree.com)), _dp(_f64c(mac.threshold(tree))),
            _dp(_f64c(tree.mass)),
            child.ctypes.data_as(ctypes.POINTER(ctypes.c_int)),
            leaf.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
            _ip(_i64c(tree.start)), _ip(_i64c(tree.count)),
            _dp(_f64c(sink_center)), _dp(_f64c(sink_radius)), n,
            _ip(np.empty(tree.n_cells, dtype=np.int64)))
    lib.repro_walk(*args, _ip(cell_off[1:]), _ip(part_off[1:]),
                   None, None, 0)
    if not collect:
        return cell_off[1:], part_off[1:]
    np.cumsum(cell_off, out=cell_off)
    np.cumsum(part_off, out=part_off)
    cell_idx = np.empty(int(cell_off[-1]), dtype=np.int64)
    part_idx = np.empty(int(part_off[-1]), dtype=np.int64)
    lib.repro_walk(*args, _ip(cell_off), _ip(part_off), _ip(cell_idx),
                   _ip(part_idx), 1)
    return cell_off, cell_idx, part_off, part_idx
