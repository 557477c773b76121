"""Online mean-shift scan over recent tails (univariate case).

After each (re)start the first ``baseline_window`` observations estimate
the in-control mean and standard deviation.  From then on, every step
scans candidate change ages tau = 1..h_tail and computes the standardized
tail statistic

    T_tau = |sum of the last tau deviations| / (sd * sqrt(tau)),

the likelihood-ratio score for a mean shift beginning tau steps ago.  An
alarm fires when max_tau T_tau exceeds ``diag``.

The baseline is re-estimated from scratch after every detection.

The statistic of a segment is computed as array operations over blocks of
steps by ages, each entry by the same expression as the step-by-step
definition, so every value keeps its bits; a block holds at most
``_CELLS`` entries, which bounds the temporaries however long the segment.
A sweep over thresholds (:func:`ocd_sweep`) computes each segment once for
the thresholds that restart there (:func:`predcomp.refdet.sweep.sweep`):
in each block they fire in increasing order, up to the first with no hit.
"""

from __future__ import annotations

import numpy as np

from ..series import Detection, finite_values
from .sweep import sweep

#: entries of one block of the statistic: 512 steps of 64 ages, 256 KiB
_CELLS = 512 * 64


def ocd_detect(series, diag: float, h_tail: int = 50, baseline_window: int = 100,
               keep_trace: bool = False):
    """Returns (detections, trace rows (index, statistic, best_tau)).

    Raises ``ValueError`` on a NaN or infinite value.
    """
    trace = []
    (detections,) = ocd_sweep(series, [diag], h_tail, baseline_window,
                              trace=trace if keep_trace else None)
    return detections, trace


def _baseline(values: np.ndarray, start: int, window: int):
    """(end, mean, sd) of the baseline opening at ``start``, extended while
    its sample sd is zero; None when no step is left to monitor after it."""
    n = len(values)
    end = start + window
    while end < n:
        base = values[start:end]
        sd = float(np.std(base, ddof=1))
        if sd > 0:
            return end, float(np.mean(base)), sd
        end += 1
    return None


def ocd_sweep(series, diags, h_tail: int = 50, baseline_window: int = 100,
              trace: list | None = None) -> list[list[Detection]]:
    """The detections of :func:`ocd_detect` at each ``diag`` threshold.

    ``trace``, with a single threshold, receives its rows.
    """
    if not all(diag > 0 for diag in diags):
        raise ValueError("diag must be positive")
    if h_tail < 1 or baseline_window < 2:
        raise ValueError("h_tail >= 1 and baseline_window >= 2 required")
    values = finite_values(series)

    def scan(start: int, levels: list) -> list[Detection]:
        found = []
        base = _baseline(values, start, baseline_window)
        if base is None:
            return found  # not enough variation left to monitor
        base_end, mean, sd = base
        dev_cum = np.concatenate(([0.0], np.cumsum(values[base_end:] - mean)))
        steps = len(dev_cum) - 1
        taus = np.arange(1, min(h_tail, steps) + 1)
        scale = sd * np.sqrt(taus)
        rows = max(_CELLS // len(taus), 1)
        j0 = 0
        while len(found) < len(levels) and j0 < steps:
            # step j sees the tails ending at dev_cum[j + 1]; ages past the
            # segment's own length stay out of the maximum
            upto = np.arange(j0 + 1, min(j0 + rows, steps) + 1)
            back = upto[:, None] - taus
            stats = np.abs(dev_cum[upto][:, None] - dev_cum[np.maximum(back, 0)]) / scale
            stats[back < 0] = -np.inf
            best = stats.argmax(axis=1)
            stat = stats[np.arange(len(upto)), best]
            end = len(upto)
            for level in levels[len(found):]:
                hits = np.flatnonzero(stat > level)
                if not hits.size:
                    break  # nor does any higher level hit in this block
                k = int(hits[0])
                idx = base_end + j0 + k
                found.append(Detection(detect_time=idx, located_time=idx - int(best[k]),
                                       detector="ocd", stat_value=float(stat[k])))
                end = k + 1
            if trace is not None:
                trace.extend((base_end + j0 + k, float(stat[k]), int(best[k]) + 1)
                             for k in range(end))
            j0 += len(upto)
        return found

    return sweep(scan, diags, record=trace)
