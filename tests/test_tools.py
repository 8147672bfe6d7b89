"""The gain rule, the no-regression verdict and seed ranges of tools/bench_pairs.py."""

import argparse
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import parse_seeds, regression, verdict  # noqa: E402

# Ten base runs whose quartiles are 1.0225 and 1.0675: a spread of 0.045.
BASE = [1.00 + 0.01 * k for k in range(10)]
NO_FAILURES = {"base": 0, "change": 0}


def test_nine_wins_of_ten_hold_and_eight_do_not():
    nine = [b - 0.5 for b in BASE[:9]] + [BASE[9] + 0.5]
    assert verdict(BASE, nine, "lower", NO_FAILURES) == (9, True)
    eight = [b - 0.5 for b in BASE[:8]] + [b + 0.5 for b in BASE[8:]]
    assert verdict(BASE, eight, "lower", NO_FAILURES) == (8, False)


def test_ties_count_for_neither_side():
    assert verdict(BASE, BASE, "lower", NO_FAILURES) == (0, False)
    assert verdict(BASE, BASE, "higher", NO_FAILURES) == (0, False)
    nine_and_a_tie = [b - 0.5 for b in BASE[:9]] + [BASE[9]]
    assert verdict(BASE, nine_and_a_tie, "lower", NO_FAILURES) == (9, True)


def test_a_higher_is_better_metric():
    faster = [b + 0.5 for b in BASE]
    assert verdict(BASE, faster, "higher", NO_FAILURES) == (10, True)
    assert verdict(BASE, faster, "lower", NO_FAILURES) == (0, False)


def test_a_margin_inside_the_base_spread_does_not_hold():
    # Every pair wins, but by 0.01, less than the base's quartile spread.
    assert verdict(BASE, [b - 0.01 for b in BASE], "lower", NO_FAILURES) == (10, False)


def test_more_failed_operations_on_the_change_side_do_not_hold():
    faster = [b - 0.5 for b in BASE]
    assert verdict(BASE, faster, "lower", {"base": 0, "change": 1}) == (10, False)
    assert verdict(BASE, faster, "lower", {"base": 2, "change": 2}) == (10, True)


def test_a_change_within_the_bound_is_no_worse():
    # 10 % slower, inside a 25 % bound, on a base whose spread (4.3 %) is inside it too.
    assert regression(BASE, [b * 1.10 for b in BASE], "lower", 0.25) == "no worse"
    assert regression(BASE, [b * 0.90 for b in BASE], "higher", 0.25) == "no worse"


def test_a_median_past_the_bound_is_worse():
    assert regression(BASE, [b * 1.30 for b in BASE], "lower", 0.25) == "worse"
    assert regression(BASE, [b * 0.70 for b in BASE], "higher", 0.25) == "worse"
    # Worse past the bound is reported as worse even when the base spreads wider.
    assert regression(BASE, [b * 1.30 for b in BASE], "lower", 0.01) == "worse"


def test_a_base_spread_past_the_bound_is_unresolved():
    # The base's quartiles lie 4.3 % of its median apart, past a 2 % bound.
    assert regression(BASE, [b * 1.01 for b in BASE], "lower", 0.02) == "unresolved"
    # Unless every change run beats every base run.
    faster = [BASE[0] - 0.01 * (k + 1) for k in range(10)]
    assert regression(BASE, faster, "lower", 0.02) == "no worse"
    assert regression(BASE, faster[:9] + [BASE[0]], "lower", 0.02) == "unresolved"


def test_seed_ranges():
    assert parse_seeds("101..110") == list(range(101, 111))
    assert parse_seeds("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        parse_seeds("110..101")
    for garbage in ("", "abc", "1..x", "1...3", "1-3"):
        with pytest.raises(argparse.ArgumentTypeError, match="expected seeds like"):
            parse_seeds(garbage)
