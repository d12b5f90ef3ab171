"""How the compiled kernels are built: the cache key and the ISA.

A ``-march=native`` library is only valid on the CPU that built it, so
the cache key carries the CPU identity; and the lane width the compiler
picks (SSE2, AVX2, AVX-512) must not be able to move a bit.
"""

import io
import subprocess

import numpy as np
import pytest

from repro.core import TreeCode
from repro.core.kernels import Float64Backend, cnative
from repro.grape import GrapeBackend
from repro.sim.models import plummer_model
from tests.conftest import uncut_sweep


class TestBuildCache:
    def test_machine_type_keys_the_library(self, tmp_path, monkeypatch):
        here = cnative._so_path(str(tmp_path))
        assert cnative._so_path(str(tmp_path)) == here
        monkeypatch.setattr(cnative.platform, "machine", lambda: "other")
        assert cnative._so_path(str(tmp_path)) != here

    def test_cpu_flags_key_the_library(self, tmp_path, monkeypatch):
        def path_on(flags):
            text = f"processor\t: 0\nflags\t\t: {flags}\n"
            monkeypatch.setattr(cnative, "open",
                                lambda *a, **k: io.StringIO(text),
                                raising=False)
            return cnative._so_path(str(tmp_path))

        assert path_on("fpu sse2 avx2 avx512f") != path_on("fpu sse2 avx2")
        assert path_on("fpu sse2") == path_on("fpu sse2")


class TestPortableBuild:
    def test_portable_build_is_the_native_build(self, tmp_path,
                                                monkeypatch):
        """``SOURCE`` under the base flags only (no ``-march=native``)
        gives the loaded library's bits on a 2k-particle sweep, in
        both arithmetic flavours: ``repro_f64_csr``'s 4 and
        ``repro_g5_csr``'s 8 sink lanes are SSE2 pairs in one build and
        the CPU's widest vectors in the other."""
        native, cc = cnative.load(), cnative._compiler()
        if native is None or cc is None:
            pytest.skip("no C compiler here")
        c_path, so_path = tmp_path / "k.c", tmp_path / "portable.so"
        c_path.write_text(cnative.SOURCE)
        subprocess.run([cc] + cnative._BASE_FLAGS
                       + ["-o", str(so_path), str(c_path), "-lm"],
                       check=True, capture_output=True, timeout=120)
        portable = cnative._bind(str(so_path))
        assert portable is not None

        pos, _, mass = plummer_model(2000, np.random.default_rng(2000))
        tc = TreeCode(theta=0.75, n_crit=256)
        tc.accelerations(pos, mass, 0.01)
        out = {}
        for name, lib in (("native", native), ("portable", portable)):
            monkeypatch.setattr(cnative, "load", lambda lib=lib: lib)
            for backend in (Float64Backend(), GrapeBackend()):
                out[name, backend.name] = uncut_sweep(tc, backend, 0.01)
        for flavour in ("float64", "grape5"):
            for a, b in zip(out["native", flavour],
                            out["portable", flavour]):
                assert a.tobytes() == b.tobytes(), flavour

    @staticmethod
    def _cpu_flags():
        """This CPU's ``/proc/cpuinfo`` flags, read as ``_so_path``
        reads them."""
        try:
            with open("/proc/cpuinfo") as f:
                return next((ln for ln in f if ln.startswith("flags")),
                            "").split()
        except OSError:
            return []

    @pytest.mark.parametrize("extra,needs", [
        (["-mavx2"], "avx2"),
        (["-march=native"], None),
    ], ids=["avx2", "native"])
    def test_every_lane_width_is_the_loaded_build(self, tmp_path,
                                                  monkeypatch, extra,
                                                  needs):
        """``SOURCE`` built at each lane width the CPU runs gives the
        loaded library's bits in both flavours, at eps > 0 and at
        eps = 0 (the G5 walk's r^2 > 0 mask live): ``-mavx2`` splits
        every 8-lane vector into two and looks the stage table up lane
        by lane, ``-march=native`` on an AVX-512 CPU gathers it in one
        instruction; the base flags (SSE2) are the test above."""
        native, cc = cnative.load(), cnative._compiler()
        if native is None or cc is None:
            pytest.skip("no C compiler here")
        if needs is not None and needs not in self._cpu_flags():
            pytest.skip(f"this CPU has no {needs}")
        c_path, so_path = tmp_path / "k.c", tmp_path / "width.so"
        c_path.write_text(cnative.SOURCE)
        subprocess.run([cc] + cnative._BASE_FLAGS + extra
                       + ["-o", str(so_path), str(c_path), "-lm"],
                       check=True, capture_output=True, timeout=120)
        built = cnative._bind(str(so_path))
        assert built is not None

        pos, _, mass = plummer_model(2000, np.random.default_rng(2001))
        tc = TreeCode(theta=0.75, n_crit=256)
        tc.accelerations(pos, mass, 0.01)
        out = {}
        for name, lib in (("loaded", native), ("built", built)):
            monkeypatch.setattr(cnative, "load", lambda lib=lib: lib)
            for eps in (0.01, 0.0):
                for backend in (Float64Backend(), GrapeBackend()):
                    out[name, eps, backend.name] = uncut_sweep(tc, backend,
                                                               eps)
        for key in [k[1:] for k in out if k[0] == "loaded"]:
            for a, b in zip(out[("loaded",) + key], out[("built",) + key]):
                assert a.tobytes() == b.tobytes(), key
