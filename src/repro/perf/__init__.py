"""Performance accounting: the machinery of the paper's section 5.

Operation counting under the 38-op convention, the original-algorithm
correction, the analytic host+GRAPE step-time model with its optimal
group size, and the headline price/performance report.
"""

from .measure import (GroupSweepPoint, fit_list_length, force_error,
                      group_size_sweep)
from .model import (FittedListLength, PAPER_LIST_LENGTH, PAPER_N, PAPER_NG,
                    PAPER_STEPS, PerformanceModel)
from .opcount import (OPS_PER_INTERACTION, flops, gflops,
                      original_interaction_count)
from .report import HeadlineReport, PAPER_HEADLINE, format_table

__all__ = [
    "GroupSweepPoint", "fit_list_length", "force_error",
    "group_size_sweep", "FittedListLength", "PAPER_LIST_LENGTH", "PAPER_N", "PAPER_NG",
    "PAPER_STEPS", "PerformanceModel", "OPS_PER_INTERACTION",
    "flops", "gflops", "original_interaction_count",
    "HeadlineReport", "PAPER_HEADLINE", "format_table",
]
