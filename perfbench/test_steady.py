"""Tests of the steadiness verdict and of span self times.

    python3 -m pytest perfbench
"""
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spans  # noqa: E402
import steady  # noqa: E402

LATENCY = {"name": "latency_p50_ms", "better": "lower", "bound": 0.1}
THROUGHPUT = {"name": "throughput_rps", "better": "higher", "bound": 0.1}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


def judge(metric, first, second):
    return steady.judge(metric, [float(x) for x in first], [float(x) for x in second])


def test_spread_is_quartile_distance_over_median():
    assert steady.spread([10.0] * 5) == 0.0
    assert steady.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_worsening_follows_the_better_direction():
    assert steady.worsening(100.0, 110.0, "lower") == pytest.approx(0.1)
    assert steady.worsening(100.0, 110.0, "higher") == pytest.approx(-0.1)
    assert steady.worsening(100.0, 90.0, "higher") == pytest.approx(0.1)


def test_agreeing_sets_are_steady():
    v = judge(LATENCY, [10, 10.1, 10.2, 9.9, 10.0], [10.1, 10.0, 9.9, 10.2, 10.1])
    assert v["ok"]


def test_wide_spread_is_not_steady():
    assert not judge(LATENCY, [8, 9, 10, 11, 12], [10] * 5)["ok"]
    assert not judge(LATENCY, [10] * 5, [8, 9, 10, 11, 12])["ok"]


def test_second_set_worse_beyond_bound_is_not_steady():
    assert not judge(LATENCY, [10] * 5, [11.5] * 5)["ok"]
    assert not judge(THROUGHPUT, [10] * 5, [8.5] * 5)["ok"]


def test_second_set_better_beyond_bound_is_not_steady():
    v = judge(THROUGHPUT, [10] * 5, [13] * 5)
    assert v["worse"] == pytest.approx(-0.3)
    assert not v["ok"]
    assert not judge(LATENCY, [10] * 5, [8.5] * 5)["ok"]
    assert judge(LATENCY, [10] * 5, [9.5] * 5)["ok"]


def test_setup_spread_is_exempt_but_its_median_is_not():
    assert judge(SETUP, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5])["ok"]
    assert not judge(SETUP, [1, 2, 3, 4, 5], [2, 3, 4, 5, 6])["ok"]
    assert not judge(SETUP, [3, 4, 5, 6, 7], [1, 2, 3, 4, 5])["ok"]


def test_self_time_subtracts_children():
    t = spans.Tracer()
    t.spans.extend([
        ["outer", 0.0, 10.0, -1, 1],
        ["inner", 1.0, 4.0, 0, 1],
        ["inner", 5.0, 6.0, 0, 1],
        ["leaf", 2.0, 3.0, 1, 1],
    ])
    calls, own, incl = t.self_times()
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(3.0)
    assert own["leaf"] == pytest.approx(1.0)
    assert incl["inner"] == pytest.approx(4.0)
    # a later window counts only its own spans
    calls, own, _ = t.self_times(first=1)
    assert calls == {"inner": 2, "leaf": 1}


def test_instrument_rebinds_every_importer_and_restores():
    from flexicolor import cli, listcolor, treewidth

    original = listcolor.satisfied_amount
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.satisfied_amount is treewidth.satisfied_amount is listcolor.satisfied_amount
        assert listcolor.satisfied_amount is not original
        assert listcolor.satisfied_amount.__wrapped__ is original
    assert cli.satisfied_amount is original
    assert treewidth.satisfied_amount is original
    assert listcolor.satisfied_amount is original
