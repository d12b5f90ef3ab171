"""The pipeline engine (the host/GRAPE overlap, in software).

Public surface:

* :class:`~repro.exec.engine.PipelineEngine` -- evaluates a
  :class:`~repro.exec.plan.SweepSpec` over any
  :class:`~repro.core.kernels.ForceBackend` that offers a
  ``worker_factory()``, sharded over a thread pool; selected with
  ``TreeCode(engine=...)`` or ``--engine pipeline --workers N``;
* :class:`~repro.exec.engine.EngineError` -- its one typed failure.

The default (``engine=None``, ``--engine serial``) is the treecode's
in-process sweep and involves nothing in this package.  See
``docs/parallel_engine.md`` for the contracts and the paper mapping.
"""

from .engine import EngineError, EvalResult, PipelineEngine
from .plan import SweepSpec

__all__ = ["EngineError", "EvalResult", "PipelineEngine", "SweepSpec"]
