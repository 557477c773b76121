"""Tests for the online tail-scan mean-shift detector."""

from __future__ import annotations

import numpy as np
import pytest

from predcomp.refdet.ocd import ocd_detect
from predcomp.seeding import spawn_rng


def _shifted(seed=2, n=500, cp=300, delta=2.0):
    rng = spawn_rng(seed, "ocd")
    x = rng.normal(0.0, 1.0, size=n)
    x[cp:] += delta
    return x


def test_detects_shift_and_locates_it():
    x = _shifted()
    dets, trace = ocd_detect(x, diag=6.0, h_tail=50, baseline_window=100,
                             keep_trace=True)
    assert [(d.detect_time, d.located_time) for d in dets] == [(303, 300)]
    assert dets[0].stat_value > 6.0
    # monitoring starts right after the baseline window
    assert trace[0][0] == 100


def test_statistic_matches_definition():
    x = _shifted()
    _, trace = ocd_detect(x, diag=1e9, h_tail=20, baseline_window=100,
                          keep_trace=True)
    mean = x[:100].mean()
    sd = x[:100].std(ddof=1)
    idx, stat, tau = trace[57]
    i = trace[0][0] + 57
    assert idx == i
    dev = x[100:i + 1] - mean
    taus = np.arange(1, min(20, len(dev)) + 1)
    stats = np.abs([dev[-t:].sum() for t in taus]) / (sd * np.sqrt(taus))
    assert stat == pytest.approx(stats.max(), abs=1e-12)
    assert tau == taus[np.argmax(stats)]


def test_threshold_monotonicity():
    x = _shifted()
    firsts = []
    counts = []
    for diag in (3.0, 6.0, 12.0):
        dets, _ = ocd_detect(x, diag=diag, h_tail=50, baseline_window=100)
        firsts.append(dets[0].detect_time if dets else len(x))
        counts.append(len(dets))
    assert firsts == sorted(firsts)
    assert counts == sorted(counts, reverse=True)


def test_baseline_extends_past_constant_prefix():
    rng = spawn_rng(3, "ocdconst")
    x = np.concatenate([np.ones(120), rng.normal(5.0, 1.0, size=200)])
    dets, trace = ocd_detect(x, diag=8.0, h_tail=30, baseline_window=100,
                             keep_trace=True)
    # sd is zero on the constant prefix, so the baseline grows until the
    # window catches a varying point
    assert trace[0][0] == 121
    assert dets and dets[0].detect_time == 121


def test_constant_series_yields_nothing():
    dets, trace = ocd_detect(np.ones(300), diag=5.0, keep_trace=True)
    assert dets == []
    assert trace == []


def test_baseline_reestimated_after_detection():
    rng = spawn_rng(4, "ocd-two")
    x = rng.normal(0.0, 1.0, size=900)
    x[300:] += 3.0
    x[600:] += 3.0
    dets, _ = ocd_detect(x, diag=8.0, h_tail=50, baseline_window=100)
    assert len(dets) >= 2
    # the second alarm must wait for a fresh baseline on post-alarm data
    assert dets[1].detect_time > dets[0].detect_time + 100


def test_parameter_validation():
    x = np.zeros(10)
    with pytest.raises(ValueError):
        ocd_detect(x, diag=0.0)
    with pytest.raises(ValueError):
        ocd_detect(x, diag=1.0, h_tail=0)
    with pytest.raises(ValueError):
        ocd_detect(x, diag=1.0, baseline_window=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    # before, one NaN silently ended every later alarm
    x = _shifted()
    x[120] = bad
    with pytest.raises(ValueError, match=r"index 120 is not finite"):
        ocd_detect(x, diag=5.0)
