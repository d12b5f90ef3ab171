"""Force kernels and the one seam through which lists are evaluated.

Every driver -- :class:`~repro.core.treecode.TreeCode`, the pipeline
engine's pool threads, the emulated cluster -- evaluates a CSR
interaction-list sweep the same way: one call to
:meth:`ForceBackend.eval_lists`.  The bundled backends override it with
the compiled list walk of :mod:`repro.core.kernels.cnative`; the
base-class body (one unpriced :meth:`ForceBackend.kernel` per sink) is the
reference loop the tests compare against and the path that runs when no
C compiler is available.  See ``docs/kernels.md``.
"""

from .backend import (DEFAULT_TILE, Float64Backend, ForceBackend,
                      pairwise_accpot, self_potential_correction)

__all__ = [
    "ForceBackend", "Float64Backend", "pairwise_accpot",
    "self_potential_correction", "DEFAULT_TILE",
]
