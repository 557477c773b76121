"""Classic CUSUM detector with a running-mean target.

The target at index i is the mean of the previous ``target_window``
observations (strictly causal).  Decisions start once a full target
window is available; the chart resets after each alarm and monitoring
continues.  The chart is upward: run it on the negated stream for a
downward one.  A chart in either direction against explicit per-index
targets is :class:`predcomp.cusum.CusumChart`.

A sweep over decision intervals (:func:`classic_cusum_sweep`) runs the
chart once per segment start for the intervals that restart there, in
increasing order (:func:`predcomp.refdet.sweep.sweep`): the chart does not
depend on the interval, so the smallest ones alarm first, and each
restarts with a zeroed chart at the next index.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..cusum import CusumChart
from ..series import Detection, finite_values
from .sweep import sweep


def classic_cusum_detect(series, threshold: float, allowance: float = 0.5,
                         target_window: int = 50, keep_trace: bool = False):
    """Run the chart over a stream; returns (detections, trace).

    Args:
        series: LabeledSeries or array of observations.
        threshold: decision interval (desInt).
        allowance: slack k.
        target_window: width of the running-mean target, and the warm-up:
            monitoring starts at that index.  For explicit targets use
            :class:`predcomp.cusum.CusumChart`.

    Raises ``ValueError`` on a NaN or infinite observation.
    """
    trace = []
    (detections,) = classic_cusum_sweep(series, [threshold], allowance, target_window,
                                        trace=trace if keep_trace else None)
    return detections, trace


def classic_cusum_sweep(series, thresholds, allowance: float = 0.5, target_window: int = 50,
                        trace: list | None = None) -> list[list[Detection]]:
    """The detections of :func:`classic_cusum_detect` at each threshold.

    ``trace``, with a single threshold, receives its rows (index, value,
    target, statistic, alarm).
    """
    values = finite_values(series)
    n = len(values)
    if target_window <= 0:
        raise ValueError("target_window must be positive")
    for threshold in thresholds:  # the chart's own checks, on every threshold
        CusumChart(threshold, allowance, start=target_window)
    csum = np.concatenate(([0.0], np.cumsum(values)))

    def scan(seg_start: int, levels: list) -> list[Detection]:
        seg_start = max(seg_start, target_window)  # the first segment waits for a full window
        chart = CusumChart(levels[0], allowance, start=seg_start)
        found = []
        for i in range(seg_start, n):
            tgt = (csum[i] - csum[i - target_window]) / target_window
            chart.step(i, float(values[i]), tgt)
            # the chart is shared, so the smallest intervals are exceeded first
            fired = bisect_left(levels, chart.value, len(found))
            if trace is not None:
                trace.append((i, float(values[i]), tgt, chart.value, fired > len(found)))
            if fired > len(found):
                det = Detection(detect_time=i, located_time=chart.located(),
                                detector="cusum", stat_value=chart.value)
                found += [det] * (fired - len(found))
                if fired == len(levels):
                    break
        return found

    return sweep(scan, thresholds, trace)
