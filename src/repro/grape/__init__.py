"""GRAPE-5 hardware emulator.

The paper's machine, in software, described once: the reduced-precision
G5 force pipeline (:class:`G5Pipeline`), a cycle-level timing model that
is the only geometry and the only clocks (:class:`GrapeTimingModel`:
2 boards x 8 chips x 2 pipelines, peak 109.44 Gflops), the device that
puts the two together (:class:`Grape5System`), and the force backend
the treecode drives it through (:class:`GrapeBackend`).

Quick use::

    from repro.core import TreeCode
    from repro.grape import GrapeBackend

    backend = GrapeBackend()                 # paper configuration
    backend.system.set_range(-50.0, 50.0)    # announce the domain
    tc = TreeCode(theta=0.75, n_crit=2000, backend=backend)
    acc, pot = tc.accelerations(pos, mass, eps)
    print(backend.model_seconds)             # modelled GRAPE wall time
"""

from .erroranalysis import (ErrorSample, pairwise_error_sample,
                            required_fraction_bits, summed_error_sample)
from .numerics import FixedPointFormat, G5Numerics, G5_NUMERICS, round_mantissa
from .pipeline import G5Pipeline
from .system import Grape5System, GrapeBackend
from .timing import GrapeTimingModel, OPS_PER_INTERACTION

__all__ = [
    "ErrorSample", "pairwise_error_sample", "required_fraction_bits",
    "summed_error_sample", "FixedPointFormat",
    "G5Numerics", "G5_NUMERICS", "round_mantissa", "G5Pipeline",
    "Grape5System", "GrapeBackend", "GrapeTimingModel",
    "OPS_PER_INTERACTION",
]
