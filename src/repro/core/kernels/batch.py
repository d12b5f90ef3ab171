"""Batch drivers: NumPy arrays in, compiled tree build and walks out.

These functions marshal the sorted Morton keys, the octree and
:class:`~repro.core.traversal.InteractionLists` CSR blocks into the
compiled kernels of :mod:`repro.core.kernels.cnative`.  Every driver is
*total*: when the native library is unavailable (no compiler,
kill-switch set, unsupported numerics) it reports failure -- ``False``
/ ``None`` -- and the caller falls back to its NumPy oracle (the level
loop, the prefix sums, the frontier walk, the per-sink reference
loop).  Callers never need to know whether the fast path exists.  No
driver counts anything: the caller's backend charges a sweep once,
after it succeeded.

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
import threading

import numpy as np

from . import cnative

__all__ = ["f64_eval_lists", "g5_eval_lists", "moments", "refine",
           "tree_walk", "walk_inputs"]


def _p(a, dtype=None):
    """A typed pointer to ``a`` as a C-contiguous ``dtype`` array (a
    copy only when it is not one); the pointer keeps the array alive."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return a.ctypes.data_as(
        ctypes.POINTER(np.ctypeslib.as_ctypes_type(a.dtype)))


def _writable(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous \
        and a.flags.writeable


def _csr_args(pos, pmass, com, cmass, lists, sink_start, sink_count):
    """Marshal the sources and the CSR block: the kernels' leading
    pointers, their four scratch rows and the group count."""
    lengths = np.diff(lists.cell_off) + np.diff(lists.part_off)
    scratch = np.empty((4, max(int(lengths.max(initial=0)), 1)))
    return ([_p(a, np.float64) for a in (pos, pmass, com, cmass)]
            + [_p(a, np.int64) for a in (lists.cell_idx, lists.cell_off,
                                         lists.part_idx, lists.part_off,
                                         sink_start, sink_count)],
            [*map(_p, scratch)], len(sink_start))


def f64_eval_lists(pos, pmass, com, cmass, lists, sink_start, sink_count,
                   eps, out_acc, out_pot) -> bool:
    """IEEE-double CSR list walk.  Returns ``done``."""
    lib = cnative.load()
    if lib is None or not (_writable(out_acc) and _writable(out_pot)):
        return False
    ptrs, scratch, n_groups = _csr_args(
        pos, pmass, com, cmass, lists, sink_start, sink_count)
    if n_groups:
        lib.repro_f64_csr(*ptrs, n_groups, float(eps) ** 2, *scratch,
                          _p(out_acc), _p(out_pot))
    return True


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
    ptrs, scratch, n_groups = _csr_args(
        pos, pmass, com, cmass, lists, sink_start, sink_count)
    return n_groups == 0 or lib.repro_g5_csr(
        *ptrs, n_groups, *params, *scratch, _p(out_acc), _p(out_pot)) == 0


#: list entries per sink (cells, particles) a thread's first walk sizes
#: its buffers for; later walks take the last walk's means plus a quarter
_FIRST_PER_SINK = (64.0, 256.0)
_per_sink = threading.local()


def _grown(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buf`` doubled (at least to ``need``), its first ``used`` kept."""
    out = np.empty(max(2 * buf.shape[0], need), dtype=np.int64)
    out[:used] = buf[:used]
    return out


def walk_inputs(tree, mac):
    """``repro_walk``'s per-tree arguments (the MAC threshold, the uint8
    leaf mask, contiguous tree arrays), built once per sweep for all its
    :func:`tree_walk` calls; ``None`` without the native library."""
    if cnative.load() is None:
        return None
    f, i = np.float64, np.int64
    return tuple(_p(a, t) for a, t in (
        (tree.com, f), (mac.threshold(tree), f), (tree.mass, f),
        (tree.child, np.int32), (tree.is_leaf, np.uint8),
        (tree.start, i), (tree.count, i))) + (tree.n_cells,)


def tree_walk(inputs, sink_center, sink_radius, collect):
    """The compiled per-sink breadth-first walk (``repro_walk``) over
    :func:`walk_inputs`: the CSR ``(cell_off, cell_idx, part_off,
    part_idx)`` with ``collect``, else per-sink ``(cell counts, part
    counts)``.

    One pass fills buffers sized from this thread's last walk; when one
    fills, the walk stops at a sink, the buffer doubles and the walk
    resumes there.  The index arrays come back as exact-length copies
    (shrinking the buffers in place fragments the heap, raising RSS).
    """
    lib = cnative.load()
    n = int(sink_radius.shape[0])
    offs = [np.zeros(n + 1, dtype=np.int64) for _ in range(2)]
    args = (*inputs[:-1], _p(sink_center, np.float64),
            _p(sink_radius, np.float64), n,
            _p(np.empty(inputs[-1], dtype=np.int64)), *map(_p, offs))
    if not collect:
        lib.repro_walk(*args, None, None, 0, 0, 0)
        return np.diff(offs[0]), np.diff(offs[1])
    bufs = [np.empty(max(1, int(1.25 * m * n)), dtype=np.int64)
            for m in getattr(_per_sink, "means", _FIRST_PER_SINK)]
    i = 0
    while i < n:
        i = lib.repro_walk(*args, *map(_p, bufs), i, *(b.size for b in bufs))
        bufs = [_grown(b, o[i], o[i + 1]) if i < n and o[i + 1] > b.size
                else b for b, o in zip(bufs, offs)]
    cell_idx, part_idx = (b[:o[-1]].copy() for b, o in zip(bufs, offs))
    if n:
        _per_sink.means = tuple(o[-1] / n for o in offs)
    return offs[0], cell_idx, offs[1], part_idx


#: cells per particle a first ``repro_refine`` has room for (leaf 8: ~0.55)
_CELLS_PER_PARTICLE = 1.0


def refine(keys, leaf_size):
    """``repro_refine``'s ``(level, start, count, parent)`` over the
    sorted ``keys``; ``None`` without the native library."""
    lib = cnative.load()
    if lib is None:
        return None
    cap = int(_CELLS_PER_PARTICLE * len(keys)) + 1
    while True:
        out = [np.empty(cap, dtype=t)
               for t in (np.int8, np.int64, np.int64, np.int32)]
        n_cells = lib.repro_refine(_p(keys, np.uint64), len(keys),
                                   leaf_size, cap, *map(_p, out))
        if n_cells >= 0:
            return [a[:n_cells].copy() for a in out]
        cap *= 2


def moments(tree):
    """``repro_moments``' ``(mass, com)``, or ``None`` without it."""
    lib = cnative.load()
    if lib is None:
        return None
    mass, com = np.empty(tree.n_cells), np.empty((tree.n_cells, 3))
    f, i = np.float64, np.int64
    lib.repro_moments(
        _p(tree.pos_sorted, f), _p(tree.mass_sorted, f), tree.n_particles,
        _p(tree.start, i), _p(tree.count, i), _p(tree.center, f),
        tree.n_cells, _p(np.empty(4 * tree.n_particles + 4)), _p(mass),
        _p(com))
    return mass, com
