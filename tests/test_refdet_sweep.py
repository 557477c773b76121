"""Threshold sweeps of the reference detectors against separate runs.

Each ``*_sweep`` must give, for every threshold, exactly (``==``) the
detections of that threshold's own run, and each one-threshold run must
give exactly the detections and per-step output of the step-by-step loop
kept below as the reference.  The streams make the runs branch (thresholds
alarm at different indices) and merge again (two thresholds alarm at the
same index from different segment starts), and every distinct segment
start must be scanned once, in increasing order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from predcomp.cusum import CusumChart
from predcomp.refdet import (NigPrior, bocpd_detect, classic_cusum_detect, mosum_detect,
                             ocd_detect)
from predcomp.refdet import bocpd, classic, mosum, ocd
from predcomp.refdet.bocpd import BocpdState, bocpd_sweep
from predcomp.refdet.classic import classic_cusum_sweep
from predcomp.refdet.mosum import _design, boundary_constant, mosum_sweep
from predcomp.refdet.ocd import ocd_sweep
from predcomp.refdet.sweep import sweep
from predcomp.seeding import spawn_rng
from predcomp.series import Detection


def loop_cusum(values, threshold, allowance, window, direction):
    chart = CusumChart(threshold, allowance, direction, start=window)
    detections, trace = [], []
    csum = np.concatenate(([0.0], np.cumsum(values)))
    for i in range(window, len(values)):
        tgt = (csum[i] - csum[i - window]) / window
        alarm = chart.step(i, float(values[i]), tgt)
        trace.append((i, float(values[i]), tgt, chart.value, alarm))
        if alarm:
            detections.append(Detection(i, chart.located(), "cusum"))
            chart = CusumChart(threshold, allowance, direction, start=i + 1)
    return detections, trace


def loop_bocpd(values, hazard, prior, r_min, threshold):
    detections = []
    info = {"short_run_prob": []}
    state = BocpdState(prior, hazard, len(values))
    seg_start = 0
    for i, x in enumerate(values):
        state.step(float(x))
        p_short = state._mass_below(r_min + 1)
        info["short_run_prob"].append((i, p_short))
        if state.steps <= r_min + 1:
            continue
        if p_short > threshold:
            located = i - state.map_run_length()
            detections.append(Detection(i, max(located, seg_start), "bocpd"))
            state._reset()
            seg_start = i + 1
    return detections, info


def loop_ocd(values, diag, h_tail, baseline_window):
    n = len(values)
    detections, trace = [], []
    seg_start = 0
    while seg_start < n:
        base_end = seg_start + baseline_window
        sd = 0.0
        while base_end <= n:
            base = values[seg_start:base_end]
            mean = float(np.mean(base))
            sd = float(np.std(base, ddof=1))
            if sd > 0:
                break
            base_end += 1
        if base_end > n or sd == 0.0:
            break
        dev_cum = np.concatenate(([0.0], np.cumsum(values[base_end:] - mean)))
        alarm_at = -1
        for j in range(len(dev_cum) - 1):
            upto = j + 1
            taus = np.arange(1, min(h_tail, upto) + 1)
            stats = np.abs(dev_cum[upto] - dev_cum[upto - taus]) / (sd * np.sqrt(taus))
            best = int(np.argmax(stats))
            stat, idx = float(stats[best]), base_end + j
            trace.append((idx, stat, int(taus[best])))
            if stat > diag:
                detections.append(Detection(idx, idx - int(taus[best]) + 1, "ocd"))
                alarm_at = idx
                break
        if alarm_at < 0:
            break
        seg_start = alarm_at + 1
    return detections, trace


def loop_mosum(values, level, min_hist, h_band, harmonics=0, period=0.0, hist_fact=0.5):
    n = len(values)
    c = boundary_constant(h_band, level)
    detections, trace = [], []
    seg_start, mon_start = 0, min(2 * min_hist, n)
    while mon_start < n:
        avail = mon_start - seg_start
        if avail < min_hist:
            break
        length = int(min(max(min_hist, math.ceil(hist_fact * avail)), 4 * min_hist, avail))
        hist_lo = mon_start - length
        X = _design(np.arange(hist_lo, mon_start, dtype=float), harmonics, period)
        beta, *_ = np.linalg.lstsq(X, values[hist_lo:mon_start], rcond=None)
        resid_hist = values[hist_lo:mon_start] - X @ beta
        sd = float(np.sqrt(np.dot(resid_hist, resid_hist) / max(length - X.shape[1], 1)))
        band = max(int(math.ceil(h_band * length)), 1)
        t_mon = np.arange(mon_start, n, dtype=float)
        resid_mon = values[mon_start:] - _design(t_mon, harmonics, period) @ beta
        csum = np.concatenate(([0.0], np.cumsum(np.concatenate((resid_hist, resid_mon)))))
        alarm_at = -1
        for j in range(len(t_mon)):
            pos = length + j
            mosum_ = csum[pos + 1] - csum[max(pos + 1 - band, 0)]
            bound = c * sd * np.sqrt(length) * (1.0 + (j + 1) / length)
            idx = mon_start + j
            trace.append((idx, float(mosum_), float(bound)))
            if abs(mosum_) > bound:
                detections.append(Detection(idx, None, "mosum"))
                alarm_at = idx
                break
        if alarm_at < 0:
            break
        seg_start = alarm_at + 1
        mon_start = seg_start + min_hist
    return detections, trace


def shifting(seed: int, n: int, every: tuple[int, int], jump: float, trend: float = 0.0):
    """N(0,1) noise with a linear trend, whose mean moves by up to ``jump``
    in either direction at random gaps drawn from ``every``."""
    rng = spawn_rng(seed, "sweep")
    y = rng.normal(0.0, 1.0, size=n) + trend * np.arange(n)
    at = 0
    while (at := at + int(rng.integers(*every))) < n:
        y[at:] += rng.uniform(-jump, jump)
    return y


# kind -> (module, sweep, one-threshold run, reference loop, thresholds, stream)
CASES = {
    "cusum": (classic, lambda x, ts: classic_cusum_sweep(x, ts, 0.5, 30),
              lambda x, t: classic_cusum_detect(x, t, 0.5, 30, keep_trace=True),
              lambda x, t: loop_cusum(x, t, 0.5, 30, "up"),
              [3.0, 6.0, 9.0, 15.0, 25.0], -shifting(11, 1500, (60, 200), 3.0)),
    "bocpd": (bocpd, lambda x, ts: bocpd_sweep(x, 0.01, ts, NigPrior(0.0, 0.5, 2.0, 2.0), 5),
              lambda x, t: bocpd_detect(x, 0.01, NigPrior(0.0, 0.5, 2.0, 2.0), 5, t,
                                        keep_posterior=True),
              lambda x, t: loop_bocpd(x, 0.01, NigPrior(0.0, 0.5, 2.0, 2.0), 5, t),
              [0.2, 0.4, 0.6, 0.8], shifting(12, 1000, (30, 120), 3.0)),
    "ocd": (ocd, lambda x, ts: ocd_sweep(x, ts, h_tail=40, baseline_window=30),
            lambda x, t: ocd_detect(x, t, h_tail=40, baseline_window=30, keep_trace=True),
            lambda x, t: loop_ocd(x, t, 40, 30),
            [3.0, 4.0, 5.0, 7.0, 10.0], shifting(13, 1500, (40, 200), 2.0)),
    "mosum": (mosum, lambda x, ts: mosum_sweep(x, ts, 50, h_band=0.5, harmonics=1, period=40.0),
              lambda x, t: mosum_detect(x, 50, h_band=0.5, level=t, harmonics=1, period=40.0,
                                        keep_trace=True),
              lambda x, t: loop_mosum(x, t, 50, 0.5, 1, 40.0),
              [0.01, 0.05, 0.1, 0.2], shifting(15, 3000, (80, 250), 5.0, trend=0.002)),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_sweep_equals_separate_runs(kind, monkeypatch):
    module, sweep_fn, detect, loop, thresholds, x = CASES[kind]
    separate = [loop(x, t) for t in thresholds]
    for t, want in zip(thresholds, separate):
        assert detect(x, t) == want, t
    runs = [dets for dets, _ in separate]
    assert min(len(dets) for dets in runs) >= 2
    assert len({dets[0].detect_time for dets in runs}) > 1
    # two thresholds branch and meet again at a later alarm
    assert any(a[0].detect_time != b[0].detect_time
               and {d.detect_time for d in a[1:]} & {d.detect_time for d in b[1:]}
               for a in runs for b in runs)

    # in any order and with repeats, each entry gets its own run
    mixed = thresholds[::-1] + [thresholds[1]]
    assert sweep_fn(x, mixed) == [runs[thresholds.index(t)] for t in mixed]

    starts = []

    def recording(scan, thresholds, record=None):
        def scan_and_record(start, levels):
            starts.append(start)
            return scan(start, levels)
        return sweep(scan_and_record, thresholds, record)

    monkeypatch.setattr(module, "sweep", recording)
    assert sweep_fn(x, thresholds) == runs
    first = starts[0]
    assert starts == sorted({first} | {d.detect_time + 1 for dets in runs for d in dets})


@pytest.mark.parametrize("kind", sorted(CASES))
def test_sweep_equals_separate_runs_where_thresholds_alarm_blocks_apart(kind):
    # on a slow ramp the lowest and highest thresholds first alarm more than
    # one block of OCD's or MOSUM's statistic apart, or one never does
    _, sweep_fn, detect, _, thresholds, _ = CASES[kind]
    x = spawn_rng(1, "ramp").normal(0.0, 1.0, size=4000)
    x[1000:] += 0.001 * np.arange(3000)
    levels = [thresholds[-1], thresholds[0]]
    runs = [detect(x, t)[0] for t in levels]
    firsts = sorted(dets[0].detect_time if dets else len(x) for dets in runs)
    assert firsts[1] - firsts[0] > 1024
    assert sweep_fn(x, levels) == runs


def test_sweep_merges_thresholds_that_alarm_together():
    # first alarm of each threshold by segment start: 2.0 and 3.0 alarm
    # together at 9, branch at 19 and 29, and 3.0 meets 1.0 again at start 30
    alarms = {0: {1.0: 19, 2.0: 9, 3.0: 9}, 10: {2.0: 19, 3.0: 29}, 20: {1.0: 29, 2.0: None},
              30: {1.0: None, 3.0: None}}
    scans = []

    def scan(start, levels):
        scans.append((start, levels))
        times = [alarms[start][level] for level in levels] + [None]
        return [Detection(t) for t in times[:times.index(None)]]  # up to the first None

    runs = sweep(scan, [2.0, 1.0, 3.0])
    assert scans == [(0, [1.0, 2.0, 3.0]), (10, [2.0, 3.0]), (20, [1.0, 2.0]), (30, [1.0, 3.0])]
    assert [[d.detect_time for d in dets] for dets in runs] == [[9, 19], [19, 29], [9, 29]]


@pytest.mark.parametrize("call", [
    lambda x: classic_cusum_sweep(x, [1.0, 2.0], trace=[]),
    lambda x: bocpd_sweep(x, 0.01, [0.5, 0.6], trace=[]),
    lambda x: ocd_sweep(x, [1.0, 2.0], trace=[]),
    lambda x: mosum_sweep(x, [0.05, 0.1], trace=[]),
], ids=["cusum", "bocpd", "ocd", "mosum"])
def test_a_trace_needs_a_single_threshold(call):
    with pytest.raises(ValueError, match="a trace needs a single threshold"):
        call(np.zeros(10))


@pytest.mark.parametrize("call, message", [
    (lambda x: classic_cusum_sweep(x, [1.0, 0.0]), "threshold must be positive"),
    (lambda x: classic_cusum_sweep(x, [1.0, np.nan, 2.0]), "threshold must be positive"),
    (lambda x: ocd_sweep(x, [1.0, np.nan, 2.0]), "diag must be positive"),
    (lambda x: bocpd_sweep(x, 0.01, [0.5, 1.0]), "threshold must be in"),
    (lambda x: ocd_sweep(x, [1.0, -1.0]), "diag must be positive"),
    (lambda x: mosum_sweep(x, [0.05, 0.3]), "level 0.3 not calibrated"),
], ids=["cusum", "cusum-nan", "ocd-nan", "bocpd", "ocd", "mosum"])
def test_every_threshold_of_a_sweep_is_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call(np.zeros(10))
