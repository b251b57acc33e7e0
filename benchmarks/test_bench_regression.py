"""The bench-regression gate's verdict on synthetic rows.

No benchmark runs here: ``check_rows`` is the one comparison of a
measurement with a committed bound, and these cases pin that the contract
is closed both ways (a bound needs a row, a measured row needs a bound).
"""

import pytest

from bench_regression import check_rows

FLOORS = {"floored": 1.0}
CEILINGS = {"ceilinged": 10.0}

CASES = {
    "within-bounds": (
        [{"kernel": "floored", "speedup": 1.5},
         {"kernel": "ceilinged", "value": 4.0}], set(), None),
    "below-floor": (
        [{"kernel": "floored", "speedup": 0.5},
         {"kernel": "ceilinged", "value": 4.0}], set(),
        "floored: measured 0.5 below the baseline floor 1"),
    "above-ceiling": (
        [{"kernel": "floored", "speedup": 1.5},
         {"kernel": "ceilinged", "value": 12.0}], set(),
        "ceilinged: measured 12.0 above the baseline ceiling 10"),
    "unbounded-row": (
        [{"kernel": "floored", "speedup": 1.5},
         {"kernel": "ceilinged", "value": 4.0},
         {"kernel": "retired", "speedup": 20.0}], set(),
        "retired: measured, but baseline.json has no floor or ceiling for it"),
    "missing-row": (
        [{"kernel": "ceilinged", "value": 4.0}], set(),
        "floored: no measurement produced"),
    "optional-skipped": (
        [{"kernel": "floored", "skipped": True},
         {"kernel": "ceilinged", "value": 4.0}], {"floored"}, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_gate_verdict(case):
    rows, optional, failure = CASES[case]
    failures = check_rows(rows, FLOORS, CEILINGS, optional)
    assert failures == ([] if failure is None else [failure])
