"""Classic CUSUM detector with a running-mean target.

The target at index i is the mean of the previous ``target_window``
observations (strictly causal).  Decisions start once a full target
window is available; the chart resets after each alarm and monitoring
continues.  An explicit per-index target array can be supplied instead,
which is how the cross-module equivalence with the prediction-assisted
chart is exercised.
"""

from __future__ import annotations

import numpy as np

from ..cusum import CusumChart
from ..series import Detection, finite_values


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
    chart = CusumChart(threshold, allowance, direction, start=first)
    detections = []
    trace = []
    csum = np.concatenate(([0.0], np.cumsum(values)))
    for i in range(first, n):
        if targets is not None:
            tgt = float(targets[i])
        else:
            tgt = (csum[i] - csum[i - target_window]) / target_window
        alarm = chart.step(float(values[i]), tgt)
        if keep_trace:
            trace.append((i, float(values[i]), tgt, chart.value, alarm))
        if alarm:
            detections.append(Detection(detect_time=i, located_time=chart.located(),
                                        detector="cusum", stat_value=chart.value))
            chart.reset()
    return detections, trace
