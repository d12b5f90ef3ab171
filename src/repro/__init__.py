"""repro -- reproduction of "$7.0/Mflops Astrophysical N-Body Simulation
with Treecode on GRAPE-5" (Kawai, Fukushige & Makino, SC 1999).

The package rebuilds the paper's whole stack in Python:

``repro.core``
    Barnes--Hut treecode with Barnes' (1990) modified grouped traversal
    (the algorithm run on GRAPE-5), plus the O(N^2) direct baseline.
``repro.grape``
    GRAPE-5 emulator: the reduced-precision G5 pipeline (~0.3 %
    pairwise force error), the 2-board/32-pipeline system (109.44
    Gflops peak), a cycle-level timing model, and the force backend
    the treecode drives it through.
``repro.host``
    Host (AlphaServer DS10) cost model and the section-4 price ledger.
``repro.cosmo``
    Cosmological workload substrate: SCDM power spectrum, Gaussian
    realisations, Zel'dovich initial conditions, sphere selection.
``repro.sim``
    Leapfrog integration, the run loop, snapshots and diagnostics.
``repro.perf``
    Operation counting (38-op convention), the original-algorithm
    correction, the host+GRAPE analytic model with its optimal n_g,
    and the headline $/Mflops report.
``repro.obs``
    Observability: span tracing, run metrics, JSONL/Prometheus export
    and the section-5-style per-phase profile table.
``repro.viz``
    Figure-4 style slab rendering (ASCII/PGM).

Logging follows library convention: everything logs under the
``repro`` logger hierarchy, a ``NullHandler`` is installed at the
root, and nothing is printed unless the application configures
handlers (the CLI's ``-v/--verbose`` flag does).

Thirty-second example::

    import numpy as np
    from repro.core import TreeCode
    from repro.grape import GrapeBackend

    rng = np.random.default_rng(0)
    pos = rng.standard_normal((10_000, 3))
    mass = np.full(10_000, 1.0 / 10_000)

    tc = TreeCode(theta=0.75, n_crit=500, backend=GrapeBackend())
    acc, pot = tc.accelerations(pos, mass, eps=0.01)
    print(tc.last_stats.total_interactions,
          tc.backend.model_seconds)  # modelled GRAPE-5 wall time
"""

import logging as _logging

__version__ = "1.1.0"

__all__ = ["core", "grape", "host", "cosmo", "sim", "perf", "obs", "viz"]

# Library convention: never emit log records unless the embedding
# application opts in (PEP 282 / logging HOWTO).
_logging.getLogger(__name__).addHandler(_logging.NullHandler())
