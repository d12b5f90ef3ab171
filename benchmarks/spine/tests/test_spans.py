"""Span recorder: self-time arithmetic and the summary statistics."""

import pytest

from spine_spans import SpanRecorder, median, percentile, probe


def test_self_time_is_duration_minus_covered_children():
    rec = SpanRecorder()
    root = rec.add("step", 0.0, 10.0, unit=3)
    rec.add("force", 1.0, 4.0, parent=root)
    rec.add("force", 6.0, 9.0, parent=root)
    assert rec.self_times() == pytest.approx([4.0, 3.0, 3.0])
    assert rec.self_by_name("step") == pytest.approx([4.0])
    assert [s["unit"] for s in rec.spans] == [3, 3, 3]


def test_overlapping_and_overhanging_children_count_once():
    rec = SpanRecorder()
    root = rec.add("job", 0.0, 10.0)
    rec.add("a", 1.0, 5.0, parent=root)
    rec.add("b", 3.0, 7.0, parent=root)      # overlaps a by 2
    rec.add("c", 9.0, 12.0, parent=root)     # 2 of 3 seconds outside
    assert rec.self_times()[root] == pytest.approx(10.0 - 6.0 - 1.0)


def test_grandchildren_do_not_reduce_the_grandparent():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    child = rec.add("child", 2.0, 8.0, parent=root)
    rec.add("leaf", 3.0, 4.0, parent=child)
    assert rec.self_times() == pytest.approx([4.0, 5.0, 1.0])


def test_context_manager_nests_and_writes_jsonl(tmp_path):
    rec = SpanRecorder()
    with rec.span("outer", unit=7) as outer:
        with rec.span("inner") as inner:
            pass
    assert rec.spans[inner]["parent"] == outer
    assert rec.spans[inner]["unit"] == 7
    assert rec.spans[outer]["end"] >= rec.spans[inner]["end"]
    rec.write_jsonl(tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert len(lines) == 2 and '"self"' in lines[0]


def test_median_and_nearest_rank_percentile():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert percentile([1.0, 2.0, 3.0], 0.95) == 3.0   # too few: the max
    assert percentile(list(range(1, 101)), 0.95) == 95


def test_probe_stops_at_its_budget_and_keeps_the_last_result():
    calls = []
    wall, result = probe(None, "x", lambda: calls.append(1) or len(calls),
                         budget=0.0, max_reps=3)
    assert calls == [1] and result == 1 and wall >= 0.0
    wall, result = probe(None, "x", lambda: calls.append(1) or len(calls))
    assert result == 4
