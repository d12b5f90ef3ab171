"""The GRAPE-5 accuracy story (paper section 2), as an error budget.

Decomposes the force error of the production pipeline into its two
sources -- the tree approximation and the reduced-precision hardware --
and shows the paper's two claims:

* the hardware's ~0.3 % pairwise error is invisible behind the tree's
  ~0.1 % total error at production settings;
* an opening-angle sweep moves the tree error across the hardware
  floor, locating where the hardware *would* start to matter.

Also shows one force call made on the emulated device directly.

Run:  python examples/grape_accuracy.py
"""

import numpy as np

from repro.core import DirectSummation, TreeCode
from repro.grape import G5Numerics, Grape5System, GrapeBackend
from repro.perf.report import format_table
from repro.sim.models import plummer_model


def rms(acc, ref):
    e = np.linalg.norm(acc - ref, axis=1) / np.linalg.norm(ref, axis=1)
    return float(np.sqrt(np.mean(e**2)))


def main():
    rng = np.random.default_rng(7)
    pos, _, mass = plummer_model(6000, rng)
    eps = 0.01
    acc_ref, _ = DirectSummation().accelerations(pos, mass, eps)

    # hardware floor: direct summation THROUGH the pipeline
    grape_direct = DirectSummation(backend=GrapeBackend())
    acc_hw, _ = grape_direct.accelerations(pos, mass, eps)
    floor = rms(acc_hw, acc_ref)
    print(f"hardware-only error (direct sums on the pipeline): "
          f"{100 * floor:.3f} %")
    print("paper: pairwise ~0.3 %; the summed total is lower because "
          "pair errors are uncorrelated\n")

    rows = []
    for theta in (1.2, 1.0, 0.8, 0.6, 0.4, 0.2):
        t64 = TreeCode(theta=theta, n_crit=256)
        a64, _ = t64.accelerations(pos, mass, eps)
        tg = TreeCode(theta=theta, n_crit=256, backend=GrapeBackend())
        ag, _ = tg.accelerations(pos, mass, eps)
        rows.append({
            "theta": theta,
            "tree error (float64) [%]": round(100 * rms(a64, acc_ref), 4),
            "tree error (GRAPE) [%]": round(100 * rms(ag, acc_ref), 4),
            "list length": round(
                t64.last_stats.interactions_per_particle),
        })
    print(format_table(rows))
    print("\npaper: 'The average error of the force in our simulation "
          "is around 0.1%, which is dominated by the approximation "
          "made in the tree algorithm and not by the accuracy of the "
          "hardware.'\n")

    # ---- one force call on the device: 64 sinks vs every particle ----
    print("one Grape5System.compute call, 64 sinks vs the full "
          "particle set:")
    system = Grape5System(numerics=G5Numerics())  # paper numerics
    system.set_range(float(pos.min()) - 1.0, float(pos.max()) + 1.0)
    acc64, _ = system.compute(pos[:64], pos, mass, eps)
    err = rms(acc64, acc_ref[:64])
    print(f"  -> {100 * err:.3f} % RMS error on 64 forces, "
          f"{system.interactions} interactions, "
          f"{1e6 * system.model_seconds:.0f} us modelled GRAPE time")


if __name__ == "__main__":
    main()
