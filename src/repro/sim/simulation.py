"""The N-body simulation driver.

Ties together the workload (initial conditions from
:mod:`repro.cosmo`), the force solver (:class:`~repro.core.treecode.TreeCode`
over any backend, or the direct baseline), and the leapfrog integrator,
while accumulating the run statistics the paper reports: the total
particle-particle interaction count (2.90e13 for the headline run), the
average interaction-list length (13,431), and -- when the force backend
is the GRAPE-5 emulator -- the modelled accelerator wall-clock time.

Coordinate convention for the cosmological sphere: **physical
coordinates, plain Newtonian dynamics**.  An isolated sphere carved
from an expanding universe needs no comoving trick -- the expansion is
entirely contained in the initial Hubble-flow velocities, and the
Newtonian evolution of the physical coordinates is exact (this is the
classic setup of the sphere-geometry cosmological runs of the GRAPE
group), and it is the only geometry the code solves.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.treecode import TreeCode
from ..cosmo.sphere import SphereRegion
from ..cosmo.units import G as G_ASTRO
from ..obs.trace import as_tracer
from .integrator import LeapfrogKDK

__all__ = ["StepRecord", "Simulation"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StepRecord:
    """Statistics of one completed step.

    ``phases`` is a view over the step's observability data: per-phase
    host wall seconds (``build``/``group``/``traverse``/``eval``/
    ``kernel``/``host_direct``) taken from the force solver's span
    timings, empty when the solver does not report them.
    """

    step: int
    t: float
    dt: float
    interactions: int
    mean_list_length: float
    n_groups: int
    wall_seconds: float
    phases: Dict[str, float] = field(default_factory=dict)


@dataclass
class Simulation:
    """A running N-body system.

    Parameters
    ----------
    pos, vel, mass:
        Phase-space state; ``pos`` in Mpc, ``vel`` in km/s, ``mass`` in
        M_sun when using the default ``G`` (any self-consistent unit
        system works with a matching ``G``).
    eps:
        Plummer softening length (same units as ``pos``).
    force:
        A solver with ``accelerations(pos, mass, eps) -> (acc, pot)``
        and a ``last_stats`` attribute; defaults to a
        :class:`~repro.core.treecode.TreeCode` with paper-like settings.
    G:
        Newton's constant in the chosen units; the astronomical value
        by default.  Source masses are pre-scaled by G so the G = 1
        kernels return accelerations directly.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  Every step then runs
        inside a ``step`` span; when the force solver shares the same
        tracer (the default solver does; the CLI wires one tracer
        through both) the treecode's phase spans nest under it.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; step
        counters (``sim.steps_total``, ``sim.interactions_total``) and
        the ``sim.step_seconds`` histogram are recorded when present.
    """

    pos: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    eps: float
    force: object = None
    G: float = G_ASTRO
    t: float = 0.0
    tracer: object = None
    metrics: object = None

    history: List[StepRecord] = field(default_factory=list)
    _integrator: LeapfrogKDK = field(default=None, repr=False)
    _mass_eff: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.pos = np.ascontiguousarray(self.pos, dtype=np.float64)
        self.vel = np.ascontiguousarray(self.vel, dtype=np.float64)
        self.mass = np.ascontiguousarray(self.mass, dtype=np.float64)
        n = self.pos.shape[0]
        if self.pos.shape != (n, 3) or self.vel.shape != (n, 3):
            raise ValueError("pos and vel must both be (N, 3)")
        if self.mass.shape != (n,):
            raise ValueError("mass must be (N,)")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        self.tracer = as_tracer(self.tracer)
        if self.force is None:
            self.force = TreeCode(theta=0.75,
                                  n_crit=min(2000, max(1, n // 8)),
                                  tracer=self.tracer,
                                  metrics=self.metrics)
        self._mass_eff = self.G * self.mass
        self._integrator = LeapfrogKDK()
        #: checkpoint recoveries performed by :meth:`run` so far
        self.fault_recoveries = 0
        #: optional :class:`~repro.obs.flightrec.FlightRecorder`;
        #: recovery decisions land in its ring and force a dump
        self.flight = None
        if self.metrics is not None:
            self.metrics.gauge("sim.n_particles",
                               "particles in the run").set(n)

    # ------------------------------------------------------------------
    @classmethod
    def from_sphere(cls, region: SphereRegion, *, eps: Optional[float] = None,
                    force: object = None, t: float = 0.0,
                    tracer: object = None,
                    metrics: object = None) -> "Simulation":
        """Build a run from a carved cosmological sphere.

        ``eps`` defaults to 4% of the mean interparticle spacing of the
        initial sphere -- a standard collisionless choice that keeps
        two-body relaxation suppressed without erasing the small-scale
        clustering that drives the paper's interaction-list lengths.
        """
        if eps is None:
            r = np.max(np.sqrt(np.einsum("ij,ij->i", region.pos, region.pos)))
            spacing = (4.0 / 3.0 * np.pi * r**3 / region.n_particles) ** (1.0 / 3.0)
            eps = 0.04 * spacing
        return cls(pos=region.pos.copy(), vel=region.vel.copy(),
                   mass=region.mass.copy(), eps=float(eps), force=force,
                   t=t, tracer=tracer, metrics=metrics)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the force solver (its engine's thread pool), if it
        has a ``close``.  Safe to call repeatedly."""
        closer = getattr(self.force, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    @property
    def n_particles(self) -> int:
        return int(self.pos.shape[0])

    def _eval(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.force.accelerations(pos, self._mass_eff, self.eps)

    # ------------------------------------------------------------------
    def step(self, dt: float) -> StepRecord:
        """Advance one leapfrog step and record its statistics."""
        n_step = len(self.history) + 1
        w0 = time.perf_counter()
        with self.tracer.span("step", step=n_step, dt=float(dt)):
            self.pos, self.vel = self._integrator.step(
                self.pos, self.vel, dt, self._eval)
            self.t += dt
        wall = time.perf_counter() - w0

        stats = getattr(self.force, "last_stats", None)
        phases: Dict[str, float] = {}
        if stats is not None and hasattr(stats, "total_interactions"):
            inter = stats.total_interactions
            mll = stats.interactions_per_particle
            ngr = stats.n_groups
            phases = dict(getattr(stats, "times", None) or {})
        elif isinstance(stats, dict):
            inter = stats.get("interactions", 0)
            mll = inter / max(1, self.n_particles)
            ngr = 1
        else:
            inter, mll, ngr = 0, 0.0, 0
        rec = StepRecord(step=n_step, t=self.t, dt=dt,
                         interactions=int(inter), mean_list_length=float(mll),
                         n_groups=int(ngr), wall_seconds=wall,
                         phases=phases)
        self.history.append(rec)
        if self.metrics is not None:
            m = self.metrics
            m.counter("sim.steps_total", "completed steps").inc()
            m.counter("sim.interactions_total",
                      "run total particle-particle interactions"
                      ).inc(int(inter))
            m.histogram("sim.step_seconds", "host wall seconds per step"
                        ).observe(wall)
            m.gauge("sim.time", "simulation time").set(self.t)
        logger.debug("step %d: t=%.4g dt=%.3g wall=%.3fs "
                     "interactions=%d", n_step, self.t, dt, wall, inter)
        return rec

    def run(self, dts: Sequence[float], *,
            callback: Optional[Callable[["Simulation", StepRecord], None]]
            = None,
            checkpoint_path: Optional[object] = None,
            checkpoint_every: int = 0,
            resume_on_fault: bool = False,
            max_recoveries: int = 3,
            fault_injector: Optional[object] = None) -> List[StepRecord]:
        """Advance through a whole step schedule.

        With ``checkpoint_path`` and ``checkpoint_every > 0``, a rotated
        checkpoint generation is written every that many steps.  With
        ``resume_on_fault`` as well, a recoverable failure
        (:class:`repro.exec.EngineError`,
        :class:`repro.faults.TransientBackendError`) rolls the state
        back to the newest intact generation and replays the remaining
        schedule -- the leapfrog is deterministic, so the recovered run
        finishes bit-identical to an uninterrupted one.  At most
        ``max_recoveries`` recoveries are attempted; anything beyond
        (or any failure with no checkpoint on disk) re-raises.

        ``fault_injector`` is a chaos-testing hook: its ``checkpoint``
        hook fires after every periodic write and may damage the
        just-written generation (the ``checkpoint_truncate`` fault
        kind), exercising the pointer fallback.
        """
        from ..exec.engine import EngineError
        from ..faults import TransientBackendError, corrupt_file
        from .checkpoint import load_latest, save_checkpoint

        dts = [float(dt) for dt in dts]
        periodic = checkpoint_path is not None and checkpoint_every > 0
        start_hist = len(self.history)
        out: List[StepRecord] = []
        recoveries = 0
        while len(self.history) - start_hist < len(dts):
            done = len(self.history) - start_hist
            try:
                rec = self.step(dts[done])
            except (EngineError, TransientBackendError) as e:
                if not (resume_on_fault and periodic
                        and recoveries < max_recoveries):
                    raise
                from .checkpoint import CheckpointCorrupt
                try:
                    restored = load_latest(checkpoint_path,
                                           force=self.force)
                except CheckpointCorrupt:
                    raise e
                if len(restored.history) < start_hist:
                    # stale file from some earlier run: rolling back
                    # past this call's schedule start is not resumption
                    raise
                recoveries += 1
                self.fault_recoveries = recoveries
                logger.warning("step %d failed (%s: %s); recovering "
                               "from checkpoint (%d/%d)", done + 1,
                               type(e).__name__, e, recoveries,
                               max_recoveries)
                self.tracer.record("sim.recovery", 0.0,
                                   error=type(e).__name__,
                                   recoveries=recoveries)
                if self.flight is not None:
                    self.flight.record(
                        "recovery", decision="checkpoint_rollback",
                        step=done + 1, error=type(e).__name__,
                        recoveries=recoveries)
                    self.flight.flush()
                if self.metrics is not None:
                    self.metrics.counter(
                        "sim.fault_recoveries",
                        "run resumptions from a checkpoint").inc()
                self._restore_from(restored)
                # the restored history may pre-date steps already
                # yielded; drop their records so ``out`` matches
                out = out[:len(self.history) - start_hist]
                continue
            out.append(rec)
            if callback is not None:
                callback(self, rec)
            if periodic and (done + 1) % checkpoint_every == 0:
                written = save_checkpoint(checkpoint_path, self,
                                          rotate=True)
                if fault_injector is not None:
                    fault = fault_injector.fire(
                        "checkpoint", step=len(self.history))
                    if fault is not None:
                        off = corrupt_file(
                            written, mode="truncate",
                            seed=fault_injector.plan.seed)
                        logger.warning("injected checkpoint fault: "
                                       "truncated %s at byte %d",
                                       written, off)
        return out

    def _restore_from(self, other: "Simulation") -> None:
        """Adopt another simulation's phase-space state and history
        (checkpoint recovery); the force solver and engine are kept."""
        self.pos = np.ascontiguousarray(other.pos, dtype=np.float64)
        self.vel = np.ascontiguousarray(other.vel, dtype=np.float64)
        self.mass = np.ascontiguousarray(other.mass, dtype=np.float64)
        self.t = float(other.t)
        self.history = list(other.history)
        self._mass_eff = self.G * self.mass
        # fresh integrator: the cached kick acceleration belongs to the
        # abandoned trajectory
        self._integrator = LeapfrogKDK()

    # ------------------------------------------------------------------
    @property
    def total_interactions(self) -> int:
        """Run total of particle-particle interactions (the 2.90e13
        analogue for a scaled run)."""
        return int(sum(r.interactions for r in self.history))

    @property
    def mean_list_length(self) -> float:
        """Run-averaged interaction-list length per particle."""
        if not self.history:
            return 0.0
        return float(np.mean([r.mean_list_length for r in self.history]))

    # ------------------------------------------------------------------
    def energies(self) -> Tuple[float, float, float]:
        """(kinetic, potential, total) energy of the current state.

        The potential is re-evaluated with the current force solver so
        the value is consistent with the positions (one extra force
        call; use sparingly inside hot loops).
        """
        _, pot = self._eval(self.pos)
        kin = 0.5 * float(np.sum(self.mass
                                 * np.einsum("ij,ij->i", self.vel, self.vel)))
        pe = 0.5 * float(np.sum(self.mass * pot))
        return kin, pe, kin + pe

    def momentum(self) -> np.ndarray:
        """Total linear momentum (conserved by the symmetric kernel up
        to the tree approximation's asymmetry)."""
        return np.sum(self.mass[:, None] * self.vel, axis=0)

    def center_of_mass(self) -> np.ndarray:
        return (np.sum(self.mass[:, None] * self.pos, axis=0)
                / float(self.mass.sum()))
