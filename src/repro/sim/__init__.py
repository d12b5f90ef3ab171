"""Simulation driver: integrators, the run loop, checkpoints, diagnostics.

Typical scaled version of the paper's run::

    from repro.cosmo import ZeldovichIC, carve_sphere, SCDM
    from repro.sim import Simulation, paper_schedule

    ic = ZeldovichIC(box=100.0, ngrid=32, seed=7)
    region = carve_sphere(ic, radius=50.0, z_init=24.0)
    sim = Simulation.from_sphere(region)
    sim.t = SCDM.age(24.0)
    sim.run(paper_schedule(SCDM, z_init=24.0, z_final=0.0, n_steps=100))
    print(sim.total_interactions, sim.mean_list_length)
"""

from .checkpoint import (CheckpointCorrupt, load_checkpoint, load_latest,
                         save_checkpoint)
from .diagnostics import (EnergyLedger, interaction_totals,
                          lagrangian_radii, virial_ratio)
from .integrator import LeapfrogKDK
from .simulation import Simulation, StepRecord
from .snapshot import slab
from .models import (cold_lattice_sphere, hernquist_model, plummer_model,
                     uniform_sphere)
from .timestep import paper_schedule

__all__ = [
    "CheckpointCorrupt", "load_checkpoint", "load_latest",
    "save_checkpoint", "EnergyLedger", "interaction_totals", "lagrangian_radii",
    "virial_ratio", "LeapfrogKDK", "Simulation",
    "StepRecord", "slab",
    "paper_schedule", "plummer_model",
    "hernquist_model", "uniform_sphere", "cold_lattice_sphere",
]
