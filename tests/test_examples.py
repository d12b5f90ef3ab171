"""Example-script smoke tests.

Full example runs take minutes; these tests verify the scripts stay
importable (no bit-rot against the library API) and that their entry
points exist.  The cheapest example's core path is exercised for real.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples"
                   ).glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExamplesImportable:
    def test_examples_exist(self):
        names = {p.stem for p in EXAMPLES}
        assert {"quickstart", "cosmological_sphere",
                "optimal_group_size", "grape_accuracy",
                "galaxy_collision"} <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_importable_with_main(self, path):
        mod = _load(path)
        assert callable(getattr(mod, "main", None))


class TestTinyEndToEnd:
    def test_quickstart_pipeline_small(self, rng):
        """The quickstart's computation at toy size."""
        import numpy as np
        from repro.core import DirectSummation, TreeCode
        from repro.grape import GrapeBackend
        from repro.sim.models import plummer_model

        pos, _, mass = plummer_model(400, rng)
        acc_ref, _ = DirectSummation().accelerations(pos, mass, 0.01)
        backend = GrapeBackend()
        tc = TreeCode(theta=0.75, n_crit=64, backend=backend)
        acc, _ = tc.accelerations(pos, mass, 0.01)
        err = (np.linalg.norm(acc - acc_ref, axis=1)
               / np.linalg.norm(acc_ref, axis=1))
        assert np.sqrt(np.mean(err**2)) < 0.02
        assert backend.model_seconds > 0
