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
