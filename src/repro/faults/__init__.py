"""Deterministic fault injection for the exec/GRAPE/checkpoint stack.

The paper's production run finished 999 steps uninterrupted; this
package exists to prove the software survives when runs *don't* go
that way.  It provides:

* :class:`~repro.faults.plan.FaultPlan` / ``FaultSpec`` -- seedable,
  serialisable descriptions of exactly which faults fire where
  (``--faults`` on the CLI);
* :class:`~repro.faults.inject.FaultInjector` -- the per-process
  consumption state consulted by the pipeline engine, device backends
  and the checkpoint loop;
* :class:`~repro.faults.inject.TransientBackendError` -- the retryable
  error class honoured by the pipeline engine's shard retry and by the
  device retry loop of :meth:`repro.grape.GrapeBackend.force_call`;
* :func:`~repro.faults.inject.corrupt_file` -- deterministic file
  truncation/bit-flips for checkpoint chaos tests.

The self-healing machinery these faults exercise lives with the code
it protects: shard retry in
:class:`repro.exec.PipelineEngine`, atomic writes and the last-good
pointer in :mod:`repro.sim.checkpoint`, device call retry in
:class:`repro.grape.GrapeBackend`, and run-level auto-recovery in
:meth:`repro.sim.Simulation.run`.  See ``docs/fault_tolerance.md``.
"""

from .inject import FaultInjector, TransientBackendError, corrupt_file
from .plan import (FAULT_HOOKS, FAULT_KINDS, FaultPlan, FaultSpec,
                   as_fault_plan, parse_fault_plan)

__all__ = [
    "FAULT_HOOKS", "FAULT_KINDS", "FaultPlan", "FaultSpec", "FaultInjector",
    "TransientBackendError", "as_fault_plan", "parse_fault_plan",
    "corrupt_file",
]
