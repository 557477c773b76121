"""Tests for moving-sum monitoring of season-trend residuals."""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np
import pytest

from predcomp.refdet.mosum import boundary_constant, mosum_detect, mosum_sweep
from predcomp.seeding import spawn_rng


def _table():
    with resources.files("predcomp.refdet").joinpath("mosum_boundary.json").open() as fh:
        return json.load(fh)


def test_boundary_lookup_exact_level_nearest_band():
    tab = _table()
    c_25_05 = tab["c"][tab["h_bands"].index(0.25)][tab["levels"].index(0.05)]
    assert boundary_constant(0.25, 0.05) == c_25_05
    # nearest tabulated bandwidth fraction wins
    assert boundary_constant(0.3, 0.05) == c_25_05
    assert boundary_constant(0.45, 0.05) == \
        tab["c"][tab["h_bands"].index(0.5)][tab["levels"].index(0.05)]
    with pytest.raises(ValueError):
        boundary_constant(0.25, 0.07)


def test_boundary_table_monotone():
    tab = _table()
    for row in tab["c"]:
        # tighter levels need larger constants
        assert row == sorted(row, reverse=True)
    for col in range(len(tab["levels"])):
        by_h = [row[col] for row in tab["c"]]
        # wider bands accumulate more noise, so the constant grows
        assert by_h == sorted(by_h)


def test_quiet_on_linear_trend():
    rng = spawn_rng(6, "mosum-null")
    t = np.arange(1200, dtype=float)
    y = 5.0 + 0.01 * t + rng.normal(0.0, 1.0, size=1200)
    dets, trace = mosum_detect(y, min_hist=250, level=0.05, keep_trace=True)
    assert dets == []
    # monitoring starts at monitor_from = 2 * min_hist by default
    assert trace[0][0] == 500
    assert trace[-1][0] == 1199


def test_detects_slope_break():
    rng = spawn_rng(6, "mosum-null")
    t = np.arange(1200, dtype=float)
    y = 5.0 + 0.01 * t + rng.normal(0.0, 1.0, size=1200)
    y[700:] += 0.04 * (t[700:] - 700)
    dets, trace = mosum_detect(y, min_hist=250, level=0.05, keep_trace=True)
    assert [d.detect_time for d in dets] == [757]
    assert dets[0].located_time is None
    assert abs(next(row[1] for row in trace if row[0] == dets[0].detect_time)) > 0


def test_trace_reproduces_boundary_formula():
    rng = spawn_rng(6, "mosum-null")
    t = np.arange(900, dtype=float)
    y = 1.0 + 0.02 * t + rng.normal(0.0, 1.0, size=900)
    _, trace = mosum_detect(y, min_hist=250, hist_fact=0.5, level=0.05,
                            keep_trace=True)
    # reconstruct the fit: history is the stable tail of the lead-in
    mon_start = 500
    length = int(min(max(250, math.ceil(0.5 * mon_start)), 4 * 250, mon_start))
    lo = mon_start - length
    th = np.arange(lo, mon_start, dtype=float)
    X = np.column_stack([np.ones_like(th), th])
    beta, *_ = np.linalg.lstsq(X, y[lo:mon_start], rcond=None)
    resid_hist = y[lo:mon_start] - X @ beta
    sd = math.sqrt(float(resid_hist @ resid_hist) / (length - 2))
    c = boundary_constant(0.25, 0.05)
    band = math.ceil(0.25 * length)
    t_all = np.arange(lo, 900, dtype=float)
    resid = y[lo:] - np.column_stack([np.ones_like(t_all), t_all]) @ beta
    csum = np.concatenate(([0.0], np.cumsum(resid)))
    for j in (0, 17, 120):
        pos = length + j
        mosum = csum[pos + 1] - csum[max(pos + 1 - band, 0)]
        bound = c * sd * math.sqrt(length) * (1.0 + (j + 1) / length)
        idx, got_mosum, got_bound = trace[j]
        assert idx == mon_start + j
        assert got_mosum == pytest.approx(mosum, abs=1e-9)
        assert got_bound == pytest.approx(bound, abs=1e-9)


def test_harmonic_terms_absorb_seasonality():
    t = np.arange(1200, dtype=float)
    rng = spawn_rng(7, "mosum-seas")
    y = 10.0 + 0.01 * t + 2.0 * np.sin(2 * np.pi * t / 50.0) \
        + rng.normal(0.0, 0.2, size=1200)
    dets, trace_fit = mosum_detect(y, min_hist=250, harmonics=1, period=50.0,
                                   level=0.05, keep_trace=True)
    assert dets == []
    _, trace_raw = mosum_detect(y, min_hist=250, harmonics=0, level=0.05,
                                keep_trace=True)
    # the seasonal fit shrinks the residual sd, hence the boundary
    assert trace_fit[0][2] < 0.2 * trace_raw[0][2]
    # a level shift on top of the seasonality is still caught
    y2 = y.copy()
    y2[800:] += 3.0
    dets2, _ = mosum_detect(y2, min_hist=250, harmonics=1, period=50.0, level=0.05)
    assert [d.detect_time for d in dets2] == [805]


def test_monitoring_resumes_after_detection():
    rng = spawn_rng(8, "mosum-two")
    t = np.arange(2000, dtype=float)
    y = rng.normal(0.0, 1.0, size=2000)
    y[800:] += 5.0
    y[1500:] += 5.0
    dets, _ = mosum_detect(y, min_hist=250, level=0.05)
    assert len(dets) >= 2
    # refit needs min_hist fresh points before monitoring resumes
    assert dets[1].detect_time >= dets[0].detect_time + 1 + 250


def test_level_monotonicity_on_marginal_signal():
    rng = spawn_rng(9, "mosum-weak")
    t = np.arange(1400, dtype=float)
    y = rng.normal(0.0, 1.0, size=1400)
    y[900:] += 0.02 * (t[900:] - 900)
    firsts = []
    for level in (0.01, 0.05, 0.1, 0.2):
        dets, _ = mosum_detect(y, min_hist=250, level=level)
        firsts.append(dets[0].detect_time if dets else len(y))
    # looser levels can only alarm earlier or at the same time
    assert firsts == sorted(firsts, reverse=True)


def test_parameter_validation():
    y = np.zeros(100)
    with pytest.raises(ValueError):
        mosum_detect(y, hist_fact=0.0)
    with pytest.raises(ValueError):
        mosum_detect(y, hist_fact=1.5)
    with pytest.raises(ValueError):
        mosum_detect(y, h_band=0.0)
    with pytest.raises(ValueError):
        mosum_detect(y, harmonics=1, period=0.0)
    # a first history shorter than min_hist is never fitted, so nothing is monitored
    with pytest.raises(ValueError, match="monitor_from must be at least the history minimum"):
        mosum_sweep(y, [0.05], min_hist=50, monitor_from=49)


def test_short_series_yields_nothing():
    dets, trace = mosum_detect(np.zeros(150), min_hist=100, keep_trace=True)
    assert dets == [] and trace == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    # before, one NaN silently ended every later alarm
    rng = spawn_rng(6, "mosum-null")
    t = np.arange(1200, dtype=float)
    y = 5.0 + 0.01 * t + rng.normal(0.0, 1.0, size=1200)
    y[700:] += 0.04 * (t[700:] - 700)
    y[600] = bad
    with pytest.raises(ValueError, match=r"index 600 is not finite"):
        mosum_detect(y, min_hist=250, level=0.05)


def test_mosum_does_not_depend_on_the_blas_thread_count(outputs_per_blas_thread_count):
    """A 12,000-point history, past the 10,000 from which OpenBLAS splits a
    dot product, gives the same detections and trace with one and with two
    OpenBLAS threads."""
    code = ("import hashlib\n"
            "from predcomp.refdet.mosum import mosum_detect\n"
            "from predcomp.seeding import spawn_rng\n"
            "x = spawn_rng(1, 'mosum').normal(0.0, 1.0, 40_000)\n"
            "dets, trace = mosum_detect(x, min_hist=3000, monitor_from=24000, keep_trace=True)\n"
            "print(dets, len(trace), hashlib.sha256(repr(trace).encode()).hexdigest())\n")
    outs = outputs_per_blas_thread_count(code)
    assert outs[0] == outs[1]
