"""Tests for the random detection baseline."""

from __future__ import annotations

import numpy as np
import pytest

from predcomp.refdet.baseline import random_baseline
from predcomp.series import CpLabel, LabeledSeries


def _series(n=1000, lo=600, hi=900):
    labels = [CpLabel(100, "E", "K"), CpLabel(lo, "K", "A"), CpLabel(hi, "A", "V")]
    return LabeledSeries(np.zeros(n), labels, name="base")


def test_zero_budget_always_finds_with_no_false_positives():
    series = _series()
    target = series.cp_labels[1]
    res = random_baseline(series, target, n_fp=0, repetitions=400, seed=1)
    assert res.fpc_mean == 0.0
    assert np.isfinite(res.arlp_mean)  # every repetition found the target
    # uniform draw inside the phase: mean delay about half the phase
    assert 40.0 < res.arlp_mean < 60.0


def test_fixed_budget_hits_exactly():
    series = _series()
    target = series.cp_labels[1]
    res = random_baseline(series, target, n_fp=3, repetitions=50, seed=2)
    # all budgeted indices land before the label, so every rep scores 3
    assert res.fpc_mean == 3.0
    assert np.isfinite(res.arlp_mean)


def test_budget_clipped_to_available_history():
    labels = [CpLabel(4, "K", "A")]
    series = LabeledSeries(np.zeros(50), labels, name="tiny")
    res = random_baseline(series, labels[0], n_fp=10, repetitions=20, seed=0)
    assert res.fpc_mean == 4.0  # only four indices exist before the label


def test_seeded_determinism():
    series = _series()
    target = series.cp_labels[1]
    a = random_baseline(series, target, n_fp=2, repetitions=30, seed=7)
    b = random_baseline(series, target, n_fp=2, repetitions=30, seed=7)
    c = random_baseline(series, target, n_fp=2, repetitions=30, seed=8)
    assert (a.fpc_mean, a.arlp_mean) == (b.fpc_mean, b.arlp_mean)
    assert a.arlp_mean != c.arlp_mean


def test_validation():
    series = _series()
    target = series.cp_labels[1]
    with pytest.raises(ValueError, match="^target label must belong to the series$"):
        random_baseline(series, CpLabel(5, "K", "A"), n_fp=0)
    with pytest.raises(ValueError):
        random_baseline(series, target, n_fp=-1)
    with pytest.raises(ValueError):
        random_baseline(series, target, n_fp=0, repetitions=0)
