"""Headline-report tests: the paper's numbers are mutually consistent."""

import pytest

import repro.obs.export
import repro.perf
from repro.perf.report import HeadlineReport, PAPER_HEADLINE, format_table


class TestPaperHeadline:
    def test_list_length(self):
        """'the average length of the interaction list is 13,431'."""
        assert PAPER_HEADLINE.mean_list_length == pytest.approx(13_431,
                                                                rel=2e-3)

    def test_raw_gflops(self):
        """'average computing speed of 36.4 Gflops'."""
        assert PAPER_HEADLINE.raw_gflops == pytest.approx(36.4, rel=5e-3)

    def test_effective_gflops(self):
        """'The effective sustained speed is 5.92 Gflops'."""
        assert PAPER_HEADLINE.effective_gflops == pytest.approx(5.92,
                                                                rel=2e-3)

    def test_price_per_mflops(self):
        """'the price/performance is $7.0/Mflops' (6.91 before rounding)."""
        assert PAPER_HEADLINE.price_per_mflops == pytest.approx(6.91,
                                                                abs=0.05)
        assert round(PAPER_HEADLINE.price_per_mflops) == 7

    def test_hours(self):
        """'took 30,141 seconds (8.37 hours)'."""
        assert PAPER_HEADLINE.wall_seconds / 3600 == pytest.approx(8.37,
                                                                   abs=0.01)

    def test_overhead_ratio(self):
        assert PAPER_HEADLINE.overhead_ratio == pytest.approx(
            6.18, abs=0.02)

    def test_as_row_complete(self):
        row = PAPER_HEADLINE.as_row("paper")
        for k in ("run", "N", "steps", "interactions", "list_len",
                  "raw_Gflops", "eff_Gflops", "usd_per_Mflops"):
            assert k in row
        assert row["run"] == "paper"


class TestHeadlineReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeadlineReport(1, 1, 1.0, 1.0, wall_seconds=0.0)
        with pytest.raises(ValueError):
            HeadlineReport(0, 1, 1.0, 1.0, wall_seconds=1.0)

    def test_scaling(self):
        """Half the wall time doubles both speeds; price halves."""
        fast = HeadlineReport(1000, 10, 1e10, 1e9, wall_seconds=100.0)
        slow = HeadlineReport(1000, 10, 1e10, 1e9, wall_seconds=200.0)
        assert fast.raw_gflops == pytest.approx(2 * slow.raw_gflops)
        assert fast.price_per_mflops == pytest.approx(
            0.5 * slow.price_per_mflops)


class TestFormatTable:
    def test_empty(self):
        assert "empty" in format_table([])
        # one formatter: the perf name is the obs function, not a copy
        assert format_table is repro.obs.export.format_table
        assert repro.perf.format_table is format_table

    def test_alignment_and_header(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}]
        out = format_table(rows)
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "a" in lines[0] and "b" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        # columns aligned: all lines same width
        assert len({len(l) for l in lines}) == 1

    def test_missing_keys_blank(self):
        out = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert out.splitlines()[-1].strip().startswith("3")
