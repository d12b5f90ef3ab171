"""Shared benchmark fixtures: the paper-table workloads.

The E-series reproduces the paper's tables and figures on *scaled*
workloads (pure-Python traversal cannot run 2.9e13 interactions).  The
session fixtures below build each workload once per pytest session and
hand the same object to every experiment that asks.

Every experiment writes its paper-vs-measured table to
``benchmarks/results/`` and prints it, so ``pytest benchmarks
--ignore=benchmarks/spine -s`` regenerates the full evaluation.  Wall
clock is not this suite's job: speed claims and regression gates are
``benchmarks/spine/run.py`` under ``BENCHMARK.json``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import TreeCode
from repro.cosmo import SCDM, ZeldovichIC, carve_sphere
from repro.grape import GrapeBackend
from repro.sim import Simulation, paper_schedule
from repro.sim.models import plummer_model

RESULTS = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS.mkdir(exist_ok=True)
    return RESULTS


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a table and persist it under benchmarks/results/.

    A file under ``benchmarks/results/`` is tracked in git iff it
    reproduces byte-for-byte from run to run, so that after
    regenerating the tables ``git status`` shows exactly the paper
    numbers that moved.  Tables carrying a wall-clock column are still
    written and printed here but are listed in ``.gitignore``.
    """
    print(f"\n=== {name} ===\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def cosmo_snapshot():
    """A clustered cosmological sphere: N ~ 11.5k, evolved z 24 -> 3.

    Scaled stand-in for the paper's mid-run states; used by the
    accuracy (E2), group-size (E3), headline (E5) and algorithm-
    comparison (E7) benchmarks.  Returns ``(pos, mass, eps)``.
    """
    ic = ZeldovichIC(box=100.0, ngrid=28, seed=1999)
    region = carve_sphere(ic, radius=50.0, z_init=24.0)
    sim = Simulation.from_sphere(
        region, force=TreeCode(theta=0.75, n_crit=256))
    sim.t = SCDM.age(24.0)
    sim.run(paper_schedule(SCDM, 24.0, 3.0, 12, spacing="loga"))
    return sim.pos.copy(), sim.mass.copy(), sim.eps


@pytest.fixture(scope="session")
def plummer_snapshot():
    """An isolated Plummer sphere, N = 4096 (E2 accuracy workload)."""
    rng = np.random.default_rng(4096)
    pos, _, mass = plummer_model(4096, rng)
    return pos, mass, 0.01


@pytest.fixture(scope="session")
def evolved_sphere_z0():
    """The figure-4 run: N ~ 7200 sphere evolved z = 24 -> 0 on the
    emulated GRAPE.  Shared by E6 (the slab/correlation figures) and
    E11 (the halo catalogue).  Returns ``(sim, backend)``.
    """
    ic = ZeldovichIC(box=100.0, ngrid=24, seed=1999)
    region = carve_sphere(ic, radius=50.0, z_init=24.0)
    backend = GrapeBackend()
    sim = Simulation.from_sphere(
        region, force=TreeCode(theta=0.75, n_crit=256, backend=backend))
    sim.t = SCDM.age(24.0)
    # log-a spacing: with only 60 steps (vs the paper's 999) the
    # uniform-in-t plan under-resolves the early expansion (the first
    # step would be ~2x the initial age) -- see repro.sim.timestep
    sim.run(paper_schedule(SCDM, 24.0, 0.0, 60, spacing="loga"))
    return sim, backend
