"""The pipeline engine (the host/GRAPE overlap, in software).

Public surface:

* :class:`~repro.exec.engine.PipelineEngine` -- evaluates a
  :class:`~repro.exec.plan.SweepSpec` over any
  :class:`~repro.core.kernels.ForceBackend`, sharded over a thread
  pool.  Every :class:`~repro.core.treecode.TreeCode` sweep goes
  through one: its own by default, a shared one with
  ``TreeCode(engine=...)``; ``--workers N`` sizes a run's pool;
* :class:`~repro.exec.engine.EngineError` -- its one typed failure.

See ``docs/parallel_engine.md`` for the contracts and the paper
mapping.
"""

from .engine import EngineError, PipelineEngine
from .plan import EvalResult, SweepSpec

__all__ = ["EngineError", "EvalResult", "PipelineEngine", "SweepSpec"]
