"""E4 -- the cost ledger (paper section 4).

"The total cost of the GRAPE-5 system is 4.7 M JYE.  The GRAPE-5 board
is available ... for the price of 1.65 M JYE per board.  Remaining
1.4 M JYE was spent for the host computer ... The total cost, with the
present exchange rate of 1 dollar = 115 JYE, is about 40,900 dollars."
"""

import pytest

from conftest import emit
from repro.host.cost import PAPER_SYSTEM_COST
from repro.perf.report import format_table


def test_e4_cost_table(benchmark, results_dir):
    ledger = benchmark(PAPER_SYSTEM_COST.ledger)
    rows = list(ledger)
    rows.append({"item": "TOTAL (USD @115 JPY/$)", "quantity": "",
                 "unit_MJPY": "",
                 "total_MJPY": f"${PAPER_SYSTEM_COST.total_usd:,.0f}"})
    emit(results_dir, "e4_cost", format_table(rows))
    assert PAPER_SYSTEM_COST.total_jpy == pytest.approx(4.7e6)
    assert PAPER_SYSTEM_COST.total_usd == pytest.approx(40_900, rel=2e-3)


def test_e4_price_per_mflops_sensitivity(benchmark, results_dir):
    """$/Mflops across the effective-speed range: the headline 7.0
    plus what raw-speed crediting would have claimed (2.1 -- the
    number the correction honestly forgoes)."""
    def table():
        rows = []
        for label, gflops in (("effective (paper, 5.92)", 5.92),
                              ("raw / uncorrected (36.4)", 36.4),
                              ("theoretical peak (109.44)", 109.44)):
            rows.append({
                "speed basis": label,
                "$/Mflops": round(
                    PAPER_SYSTEM_COST.price_per_mflops(gflops * 1e9), 2),
            })
        return rows

    rows = benchmark(table)
    emit(results_dir, "e4_price_sensitivity", format_table(rows))
    assert rows[0]["$/Mflops"] == pytest.approx(6.91, abs=0.05)
