"""Unit tests of the e2e benchmark's statistics and result helpers.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; nothing
here trains a model.
"""

import math

import numpy as np
import pytest

import measure
from repro.pipeline.multiscale import Detection

# the parent benchmarks/conftest.py pulls pytest-benchmark's fixture into
# every test; these tests time nothing
pytestmark = pytest.mark.filterwarnings(
    "ignore:Benchmark fixture was not used")


@pytest.mark.parametrize("n,pct", [(1500, 99), (1000, 99), (999, 98),
                                   (500, 98), (200, 95), (100, 90), (60, 80),
                                   (50, 80)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    values = list(np.random.default_rng(n).random(n))
    got_pct, got = measure.tail(values)
    assert got_pct == pct
    assert n * (100 - pct) / 100 >= 10
    assert got == pytest.approx(np.percentile(values, pct))


def test_tail_falls_back_to_block_median_below_fifty_samples():
    assert measure.tail([3.0, 1.0, 2.0, 10.0]) == (None, 2.5)
    values = [float(v) for v in range(49)]
    assert measure.tail(values) == (None, measure.block_median(values))


def test_block_median_averages_consecutive_blocks():
    # five blocks of two: means 1.5, 3.5, 5.5, 7.5, 9.5
    assert measure.block_median([float(v) for v in range(1, 11)]) == 5.5
    # fewer values than blocks: one block per value, a plain median
    assert measure.block_median([4.0, 1.0, 3.0]) == 3.0
    # frames alternating between two machine states, 60% slow: the per-frame
    # median sits on the slow state, the block median between the two
    mixed = [12.0, 17.0, 17.0, 12.0, 17.0] * 4
    assert measure.percentile(mixed, 50) == 17.0
    assert 14.0 < measure.block_median(mixed) < 16.0
    # ... while one disturbed block does not move it
    assert measure.block_median([10.0] * 8 + [500.0] * 2) == 10.0
    with pytest.raises(ValueError):
        measure.block_median([])


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = measure.quartiles(values)
    assert q2 == 3.0
    assert measure.spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert measure.spread([2.0] * 4) == 0.0


def _det(y, x, size, score):
    return Detection(float(y), float(x), float(size), float(score))


def test_match_is_greedy_best_score_first():
    truth = [(0, 0, 24), (0, 20, 24)]
    strong = _det(0, 12, 24, 0.9)  # IoU 0.33 with truth 0, 0.50 with truth 1
    weak = _det(0, 22, 24, 0.1)    # IoU 0.85 with truth 1 only
    # the strong detection claims truth 1 first, whatever the input order,
    # leaving the weak one nothing it overlaps (input order would match 2)
    assert measure.match_count([weak, strong], truth) == 1
    assert measure.match_count([strong, _det(0, 2, 24, 0.5)], truth) == 2


def test_match_needs_iou_threshold():
    truth = [(0, 0, 24)]
    assert measure.match_count([_det(0, 14, 24, 1.0)], truth) == 0  # IoU 0.26
    assert measure.match_count([_det(0, 10, 24, 1.0)], truth) == 1  # IoU 0.41
    assert measure.match_count([], truth) == 0
    assert measure.match_count([_det(0, 0, 24, 1.0)], []) == 0


def test_open_loop_lateness_accounting():
    due = [10.0, 10.02, 10.04]
    sent = [10.001, 10.02, 10.09]
    assert measure.lateness(due, sent) == pytest.approx([0.001, 0.0, 0.05])
    # a submission a hair early never counts as negative lateness
    assert measure.lateness([1.0], [0.999]) == [0.0]
    # frame time runs from the due time: lateness + served latency
    assert measure.open_loop_times(due, sent, [0.012, 0.013, 0.011]) == \
        pytest.approx([0.013, 0.013, 0.061])


def test_result_json_round_trip():
    units = {"fps": "frames/s", "setup_s": "s"}
    line = measure.result_line(True, 400, 0,
                               {"fps": 50.01234567, "setup_s": 3.5}, units)
    obj = measure.parse_result(line)
    assert obj == {"correct": True, "attempted": 400, "failed": 0,
                   "metrics": {"fps": {"value": 50.01234567,
                                       "unit": "frames/s"},
                               "setup_s": {"value": 3.5, "unit": "s"}}}
    assert measure.result_line(obj["correct"], obj["attempted"],
                               obj["failed"],
                               {k: m["value"] for k, m in
                                obj["metrics"].items()}, units) == line
    with pytest.raises(ValueError):
        measure.parse_result('{"correct": true, "attempted": 1, '
                             '"failed": 0, "metrics": {}, "extra": 1}')
    with pytest.raises(ValueError):
        measure.parse_result('{"correct": true, "attempted": 1, "failed": 0,'
                             ' "metrics": {"x": {"value": 1}}}')


LOWER = {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.1}
HIGHER = {"name": "fps", "unit": "1/s", "better": "higher", "bound": 0.1}


def _verdict(a, b, metric):
    rows = measure.compare({"w": {metric["name"]: a}},
                           {"w": {metric["name"]: b}}, [metric])
    return rows[0]["status"], rows[0]["worse"]


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.0]
    assert _verdict(base, [104.0, 105.0, 103.0], LOWER)[0] == "ok"
    status, worse = _verdict(base, [120.0, 121.0, 119.0], LOWER)
    assert status == "FLAG" and worse == pytest.approx(0.2)
    assert _verdict(base, [80.0, 81.0, 79.0], HIGHER)[0] == "FLAG"
    assert _verdict(base, [120.0, 121.0, 119.0], HIGHER)[0] == "ok"
    noisy = [70.0, 100.0, 130.0, 100.0]
    assert _verdict(noisy, [101.0, 100.0, 102.0], LOWER)[0] == "unresolved"
    # every run of B better than every run of A resolves a noisy pairing
    assert _verdict([100.0, 150.0, 120.0], [90.0, 95.0, 91.0],
                    LOWER)[0] == "ok"


def test_compare_needs_three_runs():
    with pytest.raises(ValueError):
        measure.compare({"w": {"ms": [1.0, 2.0]}}, {"w": {"ms": [1.0] * 3}},
                        [LOWER])
    assert math.isinf(measure.spread([0.0, 0.0, 1.0, -1.0]))
