"""The readings every workload shares, and the speed calibration."""

import pytest

from spine_calib import REFERENCE_S, sample, speed
from spine_workload import Workload


def _unit(wall, ok=True, traced=False, interactions=100):
    return {"wall": wall, "ok": ok, "traced": traced,
            "interactions": interactions}


def test_speed_scales_a_wall_time_to_the_reference_box():
    assert speed([REFERENCE_S], [REFERENCE_S]) == pytest.approx(1.0)
    # a box that takes twice as long over the calibration job
    assert speed([2 * REFERENCE_S] * 3, [2 * REFERENCE_S] * 3) \
        == pytest.approx(0.5)
    # the median of the readings on both sides: one stall is ignored
    assert speed([REFERENCE_S, REFERENCE_S, 1.0],
                 [REFERENCE_S, REFERENCE_S, REFERENCE_S]) \
        == pytest.approx(1.0)
    assert 0.0 < sample() < 1.0


def test_end_to_end_readings_are_at_reference_speed():
    w = Workload("w", {}, 1)
    slow = [2 * REFERENCE_S]
    w.record(_unit(4.0), slow, slow)              # 2.0 s at reference
    w.record(_unit(1.0), [REFERENCE_S], [REFERENCE_S])
    w.record(_unit(6.0), slow, slow)              # 3.0 s at reference
    assert w.walls() == pytest.approx([2.0, 1.0, 3.0])
    assert w.walls(raw=True) == [4.0, 1.0, 6.0]
    e2e = w.end_to_end()
    assert e2e["unit_wall_p50_s"] == pytest.approx(2.0)
    assert e2e["units_per_s"] == pytest.approx(3 / 6.0)
    assert e2e["interactions_per_s"] == pytest.approx(300 / 6.0)
    assert e2e["peak_rss_mb"] > 0


def test_failed_and_traced_units_never_contribute_a_time():
    w = Workload("w", {}, 1)
    ref = [REFERENCE_S]
    w.record(_unit(1.0), ref, ref)
    w.record(_unit(9.0, ok=False, interactions=0), ref, ref)
    w.record(_unit(5.0, traced=True), ref, ref)
    assert w.counts() == {"attempted": 3, "failed": 1}
    assert w.walls() == pytest.approx([1.0])
    assert w.walls(traced=True) == pytest.approx([5.0])
    # the failed unit's time still counts against the throughput
    assert w.end_to_end()["units_per_s"] == pytest.approx(1 / 10.0)
