"""Vectorized Morton (Z-order) keys for 3-D particle coordinates.

The linear octree in :mod:`repro.core.octree` is built by sorting particles
along a space-filling Z-order curve.  A Morton key interleaves the bits of
the three integer grid coordinates of a particle so that the key's leading
``3 * L`` bits identify the octree cell containing the particle at level
``L``.  All routines here operate on whole NumPy arrays; there are no
per-particle Python loops (see the hpc-parallel guides: vectorise the hot
path).

The default key depth is :data:`MAX_LEVEL` = 21 bits per dimension, which
packs into 63 bits of a ``uint64`` and supports octrees up to 21 levels
deep -- far deeper than any realistic particle distribution requires.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_LEVEL", "spread_bits", "compact_bits", "encode_grid",
           "decode_grid", "morton_keys", "cell_prefix", "bounding_cube"]

#: Bits per spatial dimension in a Morton key (3 * 21 = 63 <= 64).
MAX_LEVEL = 21

# Magic constants for the classic bit-spreading trick.  ``spread_bits``
# maps bit i of the input to bit 3*i of the output; the masks below clear
# the garbage produced by each shift-or step.
_SPREAD_MASKS = (
    np.uint64(0x1FFFFF),              # keep low 21 bits
    np.uint64(0x1F00000000FFFF),
    np.uint64(0x1F0000FF0000FF),
    np.uint64(0x100F00F00F00F00F),
    np.uint64(0x10C30C30C30C30C3),
    np.uint64(0x1249249249249249),
)
_SPREAD_SHIFTS = (np.uint64(32), np.uint64(16), np.uint64(8),
                  np.uint64(4), np.uint64(2))


def spread_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each element so bit ``i`` moves to ``3*i``.

    Parameters
    ----------
    v:
        Array of unsigned integers; only the low 21 bits are used.

    Returns
    -------
    numpy.ndarray of uint64 with every input bit separated by two zeros.
    """
    x = np.asarray(v, dtype=np.uint64) & _SPREAD_MASKS[0]
    for shift, mask in zip(_SPREAD_SHIFTS, _SPREAD_MASKS[1:]):
        x = (x | (x << shift)) & mask
    return x


def compact_bits(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`spread_bits`: gather bits ``0, 3, 6, ...``."""
    x = np.asarray(v, dtype=np.uint64) & _SPREAD_MASKS[-1]
    for shift, mask in zip(reversed(_SPREAD_SHIFTS), reversed(_SPREAD_MASKS[:-1])):
        x = (x | (x >> shift)) & mask
    return x


def encode_grid(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Interleave three integer grid coordinates into Morton keys.

    Coordinates must lie in ``[0, 2**MAX_LEVEL)``.  Bit layout (most
    significant first) is ``x y z x y z ...`` so that the top three bits
    select the level-1 octant with x as the highest bit.
    """
    return (
        (spread_bits(ix) << np.uint64(2))
        | (spread_bits(iy) << np.uint64(1))
        | spread_bits(iz)
    )


def decode_grid(keys: np.ndarray):
    """Recover the three integer grid coordinates from Morton keys."""
    k = np.asarray(keys, dtype=np.uint64)
    ix = compact_bits(k >> np.uint64(2))
    iy = compact_bits(k >> np.uint64(1))
    iz = compact_bits(k)
    return ix, iy, iz


def bounding_cube(pos: np.ndarray, pad: float = 1e-4):
    """Smallest axis-aligned cube enclosing ``pos``, slightly padded.

    Returns ``(corner, size)`` where ``corner`` is the lower corner of the
    cube and ``size`` its edge length.  The padding guarantees that every
    particle maps strictly inside ``[0, 1)`` in cube coordinates, so grid
    indices never reach ``2**MAX_LEVEL``.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"pos must have shape (N, 3), got {pos.shape}")
    if pos.shape[0] == 0:
        raise ValueError("cannot bound an empty particle set")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions contain NaN or inf")
    # reduce contiguous columns: ``min(axis=0)`` over (N, 3) rows is a
    # strided loop ~10x slower; either way min/max are exact
    cols = np.ascontiguousarray(pos.T)
    lo = cols.min(axis=1)
    hi = cols.max(axis=1)
    size = float((hi - lo).max())
    if size == 0.0:
        size = 1.0  # all particles coincide; any cube works
    size *= 1.0 + pad
    center = 0.5 * (lo + hi)
    corner = center - 0.5 * size
    return corner, size


def morton_keys(pos: np.ndarray, corner: np.ndarray, size: float) -> np.ndarray:
    """Morton keys of particles inside the cube ``(corner, size)``.

    Positions exactly on the upper faces are clamped into the last grid
    cell, so callers may pass a tight bounding cube.
    """
    pos = np.asarray(pos, dtype=np.float64)
    ngrid = np.uint64(1) << np.uint64(MAX_LEVEL)
    scaled = (pos - corner) * (float(ngrid) / size)
    grid = np.clip(scaled.astype(np.int64), 0, int(ngrid) - 1).astype(np.uint64)
    return encode_grid(grid[:, 0], grid[:, 1], grid[:, 2])


def cell_prefix(keys: np.ndarray, level: int) -> np.ndarray:
    """Key prefix identifying each particle's octree cell at ``level``.

    Level 0 is the root (prefix 0 for everything); level ``MAX_LEVEL`` is
    the full key.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    shift = np.uint64(3 * (MAX_LEVEL - level))
    return np.asarray(keys, dtype=np.uint64) >> shift
