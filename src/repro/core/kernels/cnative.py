"""Compiled kernels: ``repro_walk``, the one-pass tree walk behind
:func:`repro.core.traversal.build_interaction_lists`, and the CSR list
walk behind ``eval_lists`` in two flavours, ``f64`` (IEEE double, 4 sink
lanes) and ``g5`` (GRAPE-5 datapath, 8 lanes), each bit-identical to a
list-order loop (g5: over :class:`repro.grape.pipeline.G5Pipeline`).
What each computes and why, and when the oracle runs: ``docs/kernels.md``.

The source compiles at first use with ``$CC``, else ``gcc``, else
``cc``: ``-march=native`` first, dropped if the compiler rejects it,
and always ``-ffp-contract=off``, so no FMA forms and NumPy's separate
multiply/add is matched.  The g5 walk rounds to ``fb`` bits, the
frexp-mantissa convention of :func:`repro.grape.numerics.round_mantissa`:
r^2 and its terms by adding and subtracting ``sign 2^(E+53-fb)``, the
mass products by integer bit arithmetic; under AVX-512 one gather per
pass reads its stage table (a per-lane loop elsewhere).  With no
compiler, no writable cache or ``REPRO_KERNELS_NO_CNATIVE`` set,
:func:`load` returns ``None`` and every caller falls back to NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from typing import Optional

__all__ = ["available", "load", "SOURCE"]

SOURCE = r"""
#include <math.h>
#ifdef __AVX512F__
#include <immintrin.h>
#endif

typedef long long i64;
typedef unsigned long long u64;

#define B 8  /* sinks per j-pass: the lanes */
typedef double vd __attribute__((vector_size(8 * B)));
typedef u64 vu __attribute__((vector_size(8 * B)));
typedef i64 vi __attribute__((vector_size(8 * B)));

/* round-to-nearest-even to fb = 53 - s mantissa bits, per lane, of a
   zero or normal x = sign m 2^E (no guard: repro_g5_csr's checks keep
   every value it rounds so).  rd_mant_v adds the round bit plus the
   ties-to-even correction and clears the dropped bits.  rd_exp_v, for
   E + s < 1023, adds and subtracts c = sign 2^(E+s): x + c lies in the
   binade whose ulp is x's rounding step 2^(E-fb+1), so the FPU rounds
   it to nearest even (c/ulp = 2^52 is even), the subtraction is exact
   (Sterbenz) and -0 becomes +0.  It relies on -ffp-contract=off and
   no -ffast-math (which would fold it to x), as this source is built. */
static inline vd rd_mant_v(vd x, int s) {
    vu u = (vu)x;
    return (vd)((u + (((u >> s) & 1) + ((1ULL << (s - 1)) - 1)))
                & ~((1ULL << s) - 1));
}
static inline vd rd_exp_v(vd x, int s) {
    vd c = (vd)(((vu)x & 0xFFF0000000000000ULL) + ((u64)s << 52));
    return (x + c) - c;
}

/* fixed-point coordinate roundtrip (g5_set_range grid, saturating) */
static inline double quant(double x, double xmin, double res, double qmax) {
    double q = rint((x - xmin) / res);
    q = q < 0.0 ? 0.0 : (q > qmax ? qmax : q);
    return xmin + q * res;
}

/* ----------------------------------------------------------------- */
/* IEEE-double CSR list walk: for each sink group g, assign forces on
   rows sink_start[g]..+sink_count[g] from its cell monopoles then its
   direct particles, F sinks per pass, each lane adding its sources in
   list order (a spare lane repeats a live row and is never stored).
   Outputs are assigned (idempotent re-runs).                         */
#define F 4
typedef double vf __attribute__((vector_size(8 * F)));
typedef i64 vfi __attribute__((vector_size(8 * F)));
i64 repro_f64_csr(const double *pos, const double *pmass,
                  const double *com, const double *cmass,
                  const i64 *cell_idx, const i64 *cell_off,
                  const i64 *part_idx, const i64 *part_off,
                  const i64 *sink_start, const i64 *sink_count,
                  i64 n_groups, double eps2,
                  double *sx, double *sy, double *sz, double *sm,
                  double *out_acc, double *out_pot)
{
    for (i64 g = 0; g < n_groups; g++) {
        i64 nc = cell_off[g + 1] - cell_off[g];
        i64 nj = nc + part_off[g + 1] - part_off[g];
        for (i64 k = 0; k < nj; k++) {
            i64 j = k < nc ? cell_idx[cell_off[g] + k]
                           : part_idx[part_off[g] + k - nc];
            const double *x = k < nc ? com + 3*j : pos + 3*j;
            sx[k] = x[0]; sy[k] = x[1]; sz[k] = x[2];
            sm[k] = k < nc ? cmass[j] : pmass[j];
        }
        i64 s0 = sink_start[g], n_i = sink_count[g];
        for (i64 i0 = 0; i0 < n_i; i0 += F) {
            vf xi, yi, zi, ax = {0}, ay = {0}, az = {0}, pp = {0};
            for (int l = 0; l < F; l++) {
                i64 r = 3*(s0 + (i0 + l < n_i ? i0 + l : n_i - 1));
                xi[l] = pos[r]; yi[l] = pos[r+1]; zi[l] = pos[r+2];
            }
            for (i64 j = 0; j < nj; j++) {  /* eps2 = +0 adds exactly */
                vf dx = sx[j] - xi, dy = sy[j] - yi, dz = sz[j] - zi;
                vf r2 = ((dx*dx + dy*dy) + dz*dz) + eps2, rt;
                for (int l = 0; l < F; l++)
                    rt[l] = sqrt(r2[l]);
                vf rinv = (vf)((vfi)(1.0 / rt) & (vfi)(r2 > 0.0));
                vf mr = sm[j] * rinv, mr3 = mr * rinv * rinv;
                pp -= mr;
                ax += mr3 * dx; ay += mr3 * dy; az += mr3 * dz;
            }
            for (int l = 0; l < F && i0 + l < n_i; l++) {
                i64 row = s0 + i0 + l;
                out_acc[3*row] = ax[l]; out_acc[3*row+1] = ay[l];
                out_acc[3*row+2] = az[l]; out_pot[row] = pp[l];
            }
        }
    }
    return 0;
}

/* ----------------------------------------------------------------- */
/* G5-datapath CSR list walk: same structure, the reduced precision
   applied per stage exactly as G5Pipeline.compute does, B sinks per
   pass.  With 1 <= fb <= 11 and every r^2 exponent inside +-680 (the
   caller checks) a rounded r^2 = m 2^(2k+p) is zero or normal and has
   rinv = T1[p,m] 2^-k and rinv3 = T3[p,m] 2^-3k exactly: one gathered
   u64 entry holds T3 with T1 >> s in its zero low s bits.  A staged
   mass in [mlo, mhi) (or zero) keeps m rinv and m rinv3 normal (up to
   2^1020: rd_mant_v), so no stage needs a guard: a source with a NaN
   coordinate, a non-finite mass or a mass outside the range, or a NaN
   sink, returns 1 (not done) before any pair is formed with it.  A
   zero r^2 (eps2q = +0 only) zeroes its lane's mass: rinv and rinv3
   stay finite (table entry 0, k of a zero exponent), so it adds +-0. */
i64 repro_g5_csr(const double *pos, const double *pmass,
                 const double *com, const double *cmass,
                 const i64 *cell_idx, const i64 *cell_off,
                 const i64 *part_idx, const i64 *part_off,
                 const i64 *sink_start, const i64 *sink_count,
                 i64 n_groups, double eps2q, int fb,
                 double xmin, double res, double qmax,
                 double mlo, double mhi,
                 double *sx, double *sy, double *sz, double *sm,
                 double *out_acc, double *out_pot)
{
    const int s = 53 - fb;
    const u64 nt = 1ULL << fb, low = (1ULL << s) - 1;
    u64 tab[1 << 11];  /* index: exponent low bit, fraction */
    for (u64 t = 0; t < nt; t++) {  /* r^2 in [1, 4): E = 1 - (t >> fb-1) */
        union {double d; u64 u;} r, a, c;
        r.u = ((1024 - (t >> (fb - 1))) << 52) | ((t & (nt / 2 - 1)) << s);
        a.d = rd_mant_v((vd){1.0 / sqrt(r.d)}, s)[0];
        c.d = rd_mant_v((vd){a.d * a.d * a.d}, s)[0];
        tab[t] = c.u | (a.u >> s);
    }
    for (i64 g = 0; g < n_groups; g++) {
        i64 nc = cell_off[g + 1] - cell_off[g];
        i64 nj = nc + part_off[g + 1] - part_off[g];
        for (i64 k = 0; k < nj; k++) {
            i64 j = k < nc ? cell_idx[cell_off[g] + k]
                           : part_idx[part_off[g] + k - nc];
            const double *x = k < nc ? com + 3*j : pos + 3*j;
            double m = k < nc ? cmass[j] : pmass[j];
            if (x[0] != x[0] || x[1] != x[1] || x[2] != x[2]
                || (m != 0.0 && !(fabs(m) >= mlo && fabs(m) < mhi)))
                return 1;
            sx[k] = quant(x[0], xmin, res, qmax);
            sy[k] = quant(x[1], xmin, res, qmax);
            sz[k] = quant(x[2], xmin, res, qmax);
            sm[k] = rd_mant_v((vd){m}, s)[0];
        }
        i64 s0 = sink_start[g], n_i = sink_count[g];
        for (i64 i0 = 0; i0 < n_i; i0 += B) {
            vd xi, yi, zi, ax = {0}, ay = {0}, az = {0}, pp = {0};
            for (int l = 0; l < B; l++) {
                const double *x = pos + 3*(s0 + (i0 + l < n_i ? i0 + l
                                                               : n_i - 1));
                if (x[0] != x[0] || x[1] != x[1] || x[2] != x[2])
                    return 1;
                xi[l] = quant(x[0], xmin, res, qmax);
                yi[l] = quant(x[1], xmin, res, qmax);
                zi[l] = quant(x[2], xmin, res, qmax);
            }
            for (i64 j = 0; j < nj; j++) {
                vd dx = sx[j] - xi, dy = sy[j] - yi, dz = sz[j] - zi;
                vd r2 = rd_exp_v(((rd_exp_v(dx*dx, s) + rd_exp_v(dy*dy, s))
                                  + rd_exp_v(dz*dz, s)) + eps2q, s);
                vu u = (vu)r2, idx = (u >> s) & (nt - 1), e;
                vu k = (vu)(((vi)(u >> 52) - 1023) >> 1) << 52;
#ifdef __AVX512F__
                e = (vu)_mm512_i64gather_epi64((__m512i)idx, tab, 8);
#else
                for (int l = 0; l < B; l++)
                    e[l] = tab[idx[l]];
#endif
                vd mj = (vd)((vu)(r2 > 0.0) & (vu)(sm[j] - (vd){}));
                vd mr = rd_mant_v(mj * (vd)((e << s) - k), s);
                vd mr3 = rd_mant_v(mj * (vd)((e & ~low) - 3 * k), s);
                pp -= mr;
                ax += mr3 * dx; ay += mr3 * dy; az += mr3 * dz;
            }
            for (int l = 0; l < B && i0 + l < n_i; l++) {
                i64 row = s0 + i0 + l;
                out_acc[3*row] = ax[l]; out_acc[3*row+1] = ay[l];
                out_acc[3*row+2] = az[l]; out_pot[row] = pp[l];
            }
        }
    }
    return 0;
}

/* ----------------------------------------------------------------- */
/* Per-sink breadth-first walk over the flat octree, the NumPy frontier
   walk's rules on a FIFO queue from the root: a massless cell is
   dropped, an accepted one (thr[c] < d_min, the squares summed
   (x + z) + y as the NumPy side does) emitted, a rejected leaf emits
   its particle range and a rejected internal cell queues its children
   in slot order.  One pass from sink i0 with cell_off[i0], part_off[i0]
   set: sink i's lists are written from those offsets and end at
   cell_off[i + 1], part_off[i + 1].  Returns the sink a full buffer
   stopped it at (its offsets past it then hold the length the walk
   needed), else n_sinks.  NULL buffers: the offsets only, no caps.
   queue holds n_cells entries.                                      */
i64 repro_walk(const double *com, const double *thr, const double *cmass,
               const int *child, const unsigned char *leaf,
               const i64 *start, const i64 *count,
               const double *sink_c, const double *sink_r, i64 n_sinks,
               i64 *queue, i64 *cell_off, i64 *part_off,
               i64 *cell_idx, i64 *part_idx, i64 i0,
               i64 cell_cap, i64 part_cap)
{
    for (i64 i = i0; i < n_sinks; i++) {
        const double *x = sink_c + 3*i;
        i64 nc = cell_off[i], np = part_off[i], head = 0, tail = 1, full = 0;
        queue[0] = 0;
        while (head < tail && !full) {
            i64 c = queue[head++];
            if (cmass[c] <= 0.0)
                continue;
            double dx = com[3*c] - x[0], dy = com[3*c+1] - x[1],
                   dz = com[3*c+2] - x[2];
            double d = sqrt((dx*dx + dz*dz) + dy*dy) - sink_r[i];
            if (thr[c] < (d < 0.0 ? 0.0 : d)) {
                if (cell_idx && !(full = nc == cell_cap))
                    cell_idx[nc] = c;
                nc++;
            } else if (leaf[c]) {
                if (part_idx && !(full = np + count[c] > part_cap))
                    for (i64 k = 0; k < count[c]; k++)
                        part_idx[np + k] = start[c] + k;
                np += count[c];
            } else {
                for (int k = 0; k < 8; k++)
                    if (child[8*c + k] >= 0) queue[tail++] = child[8*c + k];
            }
        }
        cell_off[i + 1] = nc, part_off[i + 1] = np;
        if (full)
            return i;
    }
    return n_sinks;
}
"""

#: base flags; ``-ffp-contract=off`` forbids FMA contraction so the C
#: arithmetic matches NumPy's separate multiply/add per stage
_BASE_FLAGS = ["-O3", "-fno-math-errno", "-ffp-contract=off",
               "-shared", "-fPIC"]

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_tried = False

_c_double_p = ctypes.POINTER(ctypes.c_double)
_c_i64_p = ctypes.POINTER(ctypes.c_longlong)

_SIGNATURES = {
    "repro_f64_csr": [_c_double_p] * 4 + [_c_i64_p] * 6
    + [ctypes.c_longlong, ctypes.c_double] + [_c_double_p] * 6,
    "repro_g5_csr": [_c_double_p] * 4 + [_c_i64_p] * 6
    + [ctypes.c_longlong, ctypes.c_double, ctypes.c_int]
    + [ctypes.c_double] * 5 + [_c_double_p] * 6,
    "repro_walk": [_c_double_p] * 3 + [ctypes.POINTER(ctypes.c_int),
                                       ctypes.POINTER(ctypes.c_ubyte)]
    + [_c_i64_p] * 2 + [_c_double_p] * 2 + [ctypes.c_longlong]
    + [_c_i64_p] * 5 + [ctypes.c_longlong] * 3,
}


def _cache_dir() -> Optional[str]:
    """A writable directory to keep the compiled library in."""
    candidates = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        candidates.append(os.path.join(xdg, "repro-kernels"))
    home = os.path.expanduser("~")
    if home and home != "~":
        candidates.append(os.path.join(home, ".cache", "repro-kernels"))
    for path in candidates:
        try:
            os.makedirs(path, exist_ok=True)
            return path
        except OSError:
            continue
    try:
        return tempfile.mkdtemp(prefix="repro-kernels-")
    except OSError:
        return None


def _compiler() -> Optional[str]:
    return os.environ.get("CC") or shutil.which("gcc") or shutil.which("cc")


def _so_path(cache: str) -> str:
    """The cached library for this source, these flags and this CPU: a
    ``-march=native`` object from a shared cache (an NFS home, a baked
    image) must not load on another CPU and die with SIGILL."""
    try:
        with open("/proc/cpuinfo") as f:
            flags = next((ln for ln in f if ln.startswith("flags")), "")
    except OSError:
        flags = ""
    key = " ".join([SOURCE] + _BASE_FLAGS + [platform.machine(), flags])
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(cache, f"repro_kernels_{tag}.so")


def _bind(so_path: str) -> Optional[ctypes.CDLL]:
    """Load a built library and declare its entry points."""
    try:
        lib = ctypes.CDLL(so_path)
    except OSError:
        return None
    for name, argtypes in _SIGNATURES.items():
        getattr(lib, name).argtypes = argtypes
        getattr(lib, name).restype = ctypes.c_longlong
    return lib


def _compile_and_load() -> Optional[ctypes.CDLL]:
    cache, cc = _cache_dir(), _compiler()
    if cache is None or cc is None:
        return None
    so_path = _so_path(cache)
    if not os.path.exists(so_path):
        c_path = so_path[:-3] + ".c"
        try:
            with open(c_path, "w") as f:
                f.write(SOURCE)
        except OSError:
            return None
        tmp = so_path + f".tmp{os.getpid()}"
        for extra in (["-march=native"], []):
            cmd = [cc] + _BASE_FLAGS + extra + ["-o", tmp, c_path, "-lm"]
            try:
                proc = subprocess.run(cmd, capture_output=True, timeout=120)
            except (OSError, subprocess.TimeoutExpired):
                return None
            if proc.returncode == 0:
                break
        else:
            return None
        try:
            os.replace(tmp, so_path)  # atomic: concurrent builds race safely
        except OSError:
            return None
    return _bind(so_path)


def load() -> Optional[ctypes.CDLL]:
    """The compiled library, building it on first call; ``None`` when
    compilation is unavailable, failed, or disabled via
    ``REPRO_KERNELS_NO_CNATIVE``."""
    global _lib, _tried
    if _tried:
        return _lib
    with _lock:
        if not _tried:
            _lib = (None if os.environ.get("REPRO_KERNELS_NO_CNATIVE")
                    else _compile_and_load())
            _tried = True
    return _lib


def available() -> bool:
    """Whether the compiled fast path can be used."""
    return load() is not None
