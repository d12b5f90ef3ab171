"""Deterministic fault injection for the exec/GRAPE/checkpoint stack.

The paper's production run finished 999 steps uninterrupted; this
package exists to prove the software survives when runs *don't* go
that way.  It provides:

* :class:`~repro.faults.plan.FaultPlan` / ``FaultSpec`` -- seedable
  descriptions, parsed from text, of exactly which faults fire where
  (``--faults`` on the CLI);
* :class:`~repro.faults.inject.FaultInjector` -- the per-process
  consumption state whose one hook, ``fire``, the pipeline engine,
  device backends, fleet RPC client and checkpoint loop consult, and
  :func:`~repro.faults.inject.strike`, which applies a fired latency
  or transient error;
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

from .inject import (FaultInjector, TransientBackendError, corrupt_file,
                     strike)
from .plan import (FAULT_HOOKS, FAULT_KINDS, FaultPlan, FaultSpec,
                   as_fault_plan, parse_fault_plan)

__all__ = [
    "FAULT_HOOKS", "FAULT_KINDS", "FaultPlan", "FaultSpec", "FaultInjector",
    "TransientBackendError", "as_fault_plan", "parse_fault_plan",
    "corrupt_file", "strike",
]
