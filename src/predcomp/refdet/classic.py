"""Classic CUSUM detector with a running-mean target.

The target at index i is the mean of the previous ``target_window``
observations (strictly causal).  Decisions start once a full target
window is available; the chart resets after each alarm and monitoring
continues.  An explicit per-index target array can be supplied instead,
which is how the cross-module equivalence with the prediction-assisted
chart is exercised.

A sweep over decision intervals (:func:`classic_cusum_sweep`) runs the
chart once per segment start for every interval that restarts there:
the chart does not depend on the interval, so the smallest ones alarm
first, and each restarts with a zeroed chart at the next index
(:func:`predcomp.refdet.sweep.sweep`).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..cusum import CusumChart
from ..series import Detection, finite_values
from .sweep import require_single, sweep


def classic_cusum_detect(series, threshold: float, allowance: float = 0.5,
                         target_window: int = 50, direction: str = "up",
                         targets=None, start: int | None = None,
                         keep_trace: bool = False):
    """Run the chart over a stream; returns (detections, trace).

    Args:
        series: LabeledSeries or array of observations.
        threshold: decision interval (desInt).
        allowance: slack k.
        target_window: width of the running-mean target.
        targets: optional explicit target array (aligned, full length);
            overrides the running mean.
        start: first monitored index; defaults to ``target_window`` (the
            warm-up equals the window) or 0 with explicit targets.

    Raises ``ValueError`` on a NaN or infinite observation.
    """
    trace = []
    (detections,) = classic_cusum_sweep(series, [threshold], allowance, target_window,
                                        direction, targets, start,
                                        trace=trace if keep_trace else None)
    return detections, trace


def classic_cusum_sweep(series, thresholds, allowance: float = 0.5, target_window: int = 50,
                        direction: str = "up", targets=None, start: int | None = None,
                        trace: list | None = None) -> list[list[Detection]]:
    """The detections of :func:`classic_cusum_detect` at each threshold.

    ``trace``, with a single threshold, receives its rows (index, value,
    target, statistic, alarm).
    """
    require_single(thresholds, trace)
    values = finite_values(series)
    n = len(values)
    if targets is not None:
        targets = np.asarray(targets, dtype=float)
        if len(targets) != n:
            raise ValueError("explicit targets must align with the series")
        first = 0 if start is None else start
    else:
        if target_window <= 0:
            raise ValueError("target_window must be positive")
        first = target_window if start is None else max(start, target_window)
    for threshold in thresholds:  # the chart's own checks, on every threshold
        CusumChart(threshold, allowance, direction, start=first)
    up = direction == "up"
    csum = np.concatenate(([0.0], np.cumsum(values)))

    def scan(seg_start: int, group: list[int]) -> list[Detection | None]:
        order = sorted(group, key=lambda j: thresholds[j])
        levels = [thresholds[j] for j in order]
        chart = CusumChart(levels[0], allowance, direction, start=seg_start)
        found, done = {}, 0
        for i in range(seg_start, n):
            if targets is not None:
                tgt = float(targets[i])
            else:
                tgt = (csum[i] - csum[i - target_window]) / target_window
            chart.step(float(values[i]), tgt)
            # the chart is shared, so the smallest intervals are exceeded first
            fired = bisect_left(levels, chart.value if up else -chart.value, done)
            if trace is not None:
                trace.append((i, float(values[i]), tgt, chart.value, fired > done))
            if fired > done:
                det = Detection(detect_time=i, located_time=chart.located(),
                                detector="cusum", stat_value=chart.value)
                found.update(dict.fromkeys(order[done:fired], det))
                done = fired
                if done == len(order):
                    break
        return [found.get(j) for j in group]

    return sweep(scan, len(thresholds), first)
