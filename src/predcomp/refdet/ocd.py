"""Online mean-shift scan over recent tails (univariate case).

After each (re)start the first ``baseline_window`` observations estimate
the in-control mean and standard deviation.  From then on, every step
scans candidate change ages tau = 1..h_tail and computes the standardized
tail statistic

    T_tau = |sum of the last tau deviations| / (sd * sqrt(tau)),

the likelihood-ratio score for a mean shift beginning tau steps ago.  An
alarm fires when max_tau T_tau exceeds ``diag``.  The companion
``off_diag`` threshold guards the cross-coordinate statistic of the
multivariate method; with a single coordinate that statistic is the empty
sum, identically zero, so the parameter is accepted but has no effect.

The baseline is re-estimated from scratch after every detection.
"""

from __future__ import annotations

import numpy as np

from ..series import Detection, finite_values


def ocd_detect(series, diag: float, off_diag: float | None = None,
               h_tail: int = 50, baseline_window: int = 100,
               keep_trace: bool = False):
    """Returns (detections, trace rows (index, statistic, best_tau)).

    Raises ``ValueError`` on a NaN or infinite value.
    """
    if diag <= 0:
        raise ValueError("diag must be positive")
    if h_tail < 1 or baseline_window < 2:
        raise ValueError("h_tail >= 1 and baseline_window >= 2 required")
    values = finite_values(series)
    n = len(values)
    detections = []
    trace = []
    seg_start = 0
    i = 0
    while i < n:
        # establish the baseline; extend it while the sample sd is zero
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
            break  # not enough variation left to monitor
        dev_cum = np.concatenate(([0.0], np.cumsum(values[base_end:] - mean)))
        alarm_at = -1
        for j in range(len(dev_cum) - 1):
            upto = j + 1
            taus = np.arange(1, min(h_tail, upto) + 1)
            sums = dev_cum[upto] - dev_cum[upto - taus]
            stats = np.abs(sums) / (sd * np.sqrt(taus))
            best = int(np.argmax(stats))
            stat = float(stats[best])
            idx = base_end + j
            if keep_trace:
                trace.append((idx, stat, int(taus[best])))
            if stat > diag:
                detections.append(Detection(detect_time=idx,
                                            located_time=idx - int(taus[best]) + 1,
                                            detector="ocd", stat_value=stat))
                alarm_at = idx
                break
        if alarm_at < 0:
            break
        seg_start = alarm_at + 1
        i = seg_start
    return detections, trace
