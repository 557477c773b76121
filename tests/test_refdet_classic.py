"""Tests for the classic CUSUM detector with a running-mean target."""

from __future__ import annotations

import numpy as np
import pytest

from predcomp.refdet.classic import classic_cusum_detect
from predcomp.seeding import spawn_rng


def _shifted(seed=0, n=600, cp=300, delta=2.0):
    rng = spawn_rng(seed, "classic")
    x = rng.normal(0.0, 1.0, size=n)
    x[cp:] += delta
    return x


def test_detects_step_and_resets():
    x = _shifted()
    dets, _ = classic_cusum_detect(x, threshold=5.0, allowance=0.5, target_window=50)
    assert [(d.detect_time, d.located_time) for d in dets[:2]] == [(303, 292), (307, 304)]
    assert dets[0].stat_value > 5.0
    # the chart resets after each alarm and keeps monitoring
    times = [d.detect_time for d in dets]
    assert times == sorted(times) and len(set(times)) == len(times)


def test_target_is_causal_running_mean():
    x = _shifted()
    _, trace = classic_cusum_detect(x, threshold=5.0, target_window=50, keep_trace=True)
    assert trace[0][0] == 50  # warm-up equals the target window
    i, _, tgt, _, _ = trace[73]
    assert i == 123
    assert tgt == pytest.approx(x[73:123].mean(), abs=1e-12)


def test_target_window_validation():
    with pytest.raises(ValueError):
        classic_cusum_detect(np.zeros(100), threshold=5.0, target_window=0)


def test_quiet_on_in_control_noise():
    rng = spawn_rng(1, "classic-null")
    x = rng.normal(0.0, 1.0, size=1000)
    dets, _ = classic_cusum_detect(x, threshold=8.0, allowance=0.5, target_window=50)
    assert dets == []


def test_null_false_positive_rate_is_low():
    # The causal running-mean target wobbles while its window fills, so a
    # desInt=8 chart is not free of null alarms; the measured rate is ~0.1.
    quiet = 0
    for s in range(100):
        x = spawn_rng(s, "classic-null-mc").normal(0.0, 1.0, 2000)
        dets, _ = classic_cusum_detect(x, threshold=8.0, allowance=0.5,
                                       target_window=50)
        quiet += not dets
    assert quiet >= 85


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    # before, one NaN silently ended every later alarm
    x = _shifted()
    x[120] = bad
    with pytest.raises(ValueError, match=r"index 120 is not finite"):
        classic_cusum_detect(x, threshold=5.0)
