import numpy as np
import pytest

from predcomp.cusum import CusumChart
from predcomp.seeding import spawn_rng


def test_hand_worked_chart(run_chart):
    # x = (1, 2, 5, 5), target 1, k = 0.5, threshold 3:
    # S = (0, 0.5, 4) -> alarm at index 2, change located at index 1
    dets, traj = run_chart(np.array([1.0, 2.0, 5.0, 5.0]), np.full(4, 1.0),
                           threshold=3.0, allowance=0.5)
    assert traj[:3] == [0.0, 0.5, 4.0]
    assert dets[0] == (2, 1)


def test_closed_form_identity():
    # recursion S_j = max(0, S_{j-1} + inc_j) equals the non-recursive
    # M_j - min(0, min_{i<=j} M_i) with M the prefix sums of increments.
    # Dyadic lattice values keep both computations exact in binary floats.
    rng = spawn_rng(11, "cusum-id")
    x = rng.integers(-16, 17, 300) / 8.0
    tgt = rng.integers(-8, 9, 300) / 8.0
    chart = CusumChart(threshold=np.inf, allowance=0.5)
    path = []
    for i, (xv, tv) in enumerate(zip(x, tgt)):
        chart.step(i, float(xv), float(tv))
        path.append(chart.value)
    M = np.cumsum(x - tgt - 0.5)
    oracle = M - np.minimum.accumulate(np.minimum(M, 0.0))
    assert np.array_equal(np.array(path), oracle)


def test_located_is_last_zero_plus_one():
    chart = CusumChart(threshold=2.0, allowance=0.0)
    seq = [(-1.0, False), (-1.0, False), (1.5, False), (1.5, True)]
    for i, (x, expect_alarm) in enumerate(seq):
        assert chart.step(i, x, 0.0) is expect_alarm
    assert chart.located() == 2


def test_downward_variant():
    chart = CusumChart(threshold=3.0, allowance=0.5, direction="down")
    assert not chart.step(0, 5.0, 5.0)
    assert not chart.step(1, 5.0, 5.0)
    assert chart.step(2, 1.0, 5.0)  # 1 - 5 + 0.5 = -3.5 < -3
    assert chart.located() == 2


def test_run_chart_resets_after_alarm(run_chart):
    x = np.array([1.0, 2.0, 5.0, 5.0])
    dets, traj = run_chart(x, np.full(4, 1.0), threshold=3.0, allowance=0.5)
    # after the alarm at 2 the chart restarts from zero; x=5 vs target 1
    # gives increment 3.5 > 3 immediately
    assert dets == [(2, 1), (3, 3)]


def test_start_offset():
    chart = CusumChart(threshold=1.0, allowance=0.0, start=10)
    chart.step(10, 0.0, 0.0)
    assert chart.step(11, 2.0, 0.0)
    assert chart.located() == 11


def test_a_fresh_chart_locates_at_its_start():
    chart = CusumChart(threshold=1.0, allowance=0.0, start=7)
    assert chart.value == 0.0
    assert chart.located() == 7  # the first step runs at index 7
    assert chart.step(7, 5.0, 0.0)
    assert chart.located() == 7


def test_threshold_validation():
    with pytest.raises(ValueError):
        CusumChart(threshold=-1.0)
    with pytest.raises(ValueError):
        CusumChart(threshold=1.0, direction="sideways")


def test_first_alarm_monotone_in_threshold(run_chart):
    rng = spawn_rng(3, "mono")
    x = rng.normal(0.5, 1.0, 400)
    first = []
    for lam in [0.5, 1.0, 2.0, 4.0, 8.0]:
        dets, _ = run_chart(x, np.zeros(400), threshold=lam, allowance=0.5)
        first.append(dets[0][0] if dets else len(x))
    assert first == sorted(first)
