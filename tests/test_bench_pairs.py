"""tools/bench_pairs.py: the pairs rule on one metric's runs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
from bench_pairs import judge  # noqa: E402

# quartiles 98.25, 100, 101.75
PARENT = [100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 103.0, 97.0, 101.0, 99.0]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parents_spread():
    change = [p + 10.0 for p in PARENT]
    change[3] = 101.0  # one pair lost
    won = judge(PARENT, change, "higher", 0.25)
    assert won["wins"] == 9 and won["gain"] and won["within_bound"] and won["worse_by"] == 0.0
    assert won["parent_spread"] == pytest.approx(3.5 / 100.0)

    change[5] = 99.0  # a second pair lost: 8 of 10
    assert not judge(PARENT, change, "higher", 0.25)["gain"]
    # every pair won, but the medians differ by less than the parent's quartile distance
    assert not judge(PARENT, [p + 1.0 for p in PARENT], "higher", 0.25)["gain"]


def test_lower_is_better_and_the_bound_is_relative_to_the_parents_median():
    faster = judge(PARENT, [p - 10.0 for p in PARENT], "lower", 0.1)
    assert faster["wins"] == 10 and faster["gain"] and faster["median_ratio"] < 1.0
    slower = judge(PARENT, [p * 1.2 for p in PARENT], "lower", 0.1)
    assert slower["wins"] == 0 and slower["worse_by"] == pytest.approx(0.2)
    assert not slower["within_bound"]
    assert judge(PARENT, [p * 1.05 for p in PARENT], "lower", 0.1)["within_bound"]
