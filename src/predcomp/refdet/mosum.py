"""Moving-sum monitoring of season-trend residuals (simplified).

A linear trend plus optional harmonic terms,

    y_t = a1 + a2*t + sum_j [ g_j * sin(2*pi*j*t/period + s_j) ] + e_t,

is fitted by least squares on a stable history window (each sinusoid is
expanded into a sin/cos pair, keeping the fit linear).  Monitoring then
tracks the moving sum of out-of-sample residuals over a bandwidth of
ceil(h_band * L) points, L being the history length, and alarms when

    |MOSUM_t| > c(level) * sd * sqrt(L) * (1 + steps_into_monitoring / L).

The critical constants c(level) come from a Monte-Carlo table computed
once under the null (see tools/calibrate_mosum_boundary.py) and shipped
with the package; lookups match the level exactly and take the nearest
tabulated bandwidth fraction.

History protocol: at the initial segment the history is the
``monitor_from`` leading points, at least ``min_hist``, of which the stable
tail of length clamp(ceil(hist_fact * monitor_from), min_hist,
_CAP_FACTOR * min_hist) is fitted.  After each detection the model refits
once ``min_hist`` fresh points have accumulated, then monitoring resumes.
The residual variance is a :func:`predcomp.series.chunked_dot`, so it does
not depend on the BLAS thread count.

The moving sums and their bounds are computed as array operations over
the whole monitored remainder of a segment, each entry by the same
expression as the step-by-step definition, so every value keeps its bits.
A sweep over levels (:func:`mosum_sweep`) sweeps their critical values
c(level) (:func:`predcomp.refdet.sweep.sweep`): it fits and sums each
segment once for the values that restart there, and since a smaller c is
crossed first, they fire in increasing order, up to the first with no hit.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from ..series import Detection, chunked_dot, finite_values
from .sweep import sweep

_TABLE = None

#: the fitted history holds at most this many times ``min_hist`` points
_CAP_FACTOR = 4


def boundary_constant(h_band: float, level: float) -> float:
    """c(level) for the scaled boundary; exact level, nearest h."""
    global _TABLE
    if _TABLE is None:
        with resources.files("predcomp.refdet").joinpath("mosum_boundary.json").open() as fh:
            _TABLE = json.load(fh)
    levels = _TABLE["levels"]
    if level not in levels:
        raise ValueError(f"level {level} not calibrated; available: {levels}")
    hs = _TABLE["h_bands"]
    jh = min(range(len(hs)), key=lambda j: abs(hs[j] - h_band))
    return _TABLE["c"][jh][levels.index(level)]


def _design(t: np.ndarray, harmonics: int, period: float) -> np.ndarray:
    cols = [np.ones_like(t), t]
    for j in range(1, harmonics + 1):
        w = 2.0 * np.pi * j * t / period
        cols.append(np.sin(w))
        cols.append(np.cos(w))
    return np.column_stack(cols)


def mosum_detect(series, min_hist: int = 100, hist_fact: float = 0.5,
                 h_band: float = 0.25, level: float = 0.05,
                 harmonics: int = 0, period: float = 0.0,
                 monitor_from: int | None = None, keep_trace: bool = False):
    """Returns (detections, trace rows (index, mosum, bound)).

    Raises ``ValueError`` on a NaN or infinite value.
    """
    trace = []
    (detections,) = mosum_sweep(series, [level], min_hist, hist_fact, h_band, harmonics, period,
                                monitor_from, trace=trace if keep_trace else None)
    return detections, trace


def mosum_sweep(series, levels, min_hist: int = 100, hist_fact: float = 0.5,
                h_band: float = 0.25, harmonics: int = 0, period: float = 0.0,
                monitor_from: int | None = None,
                trace: list | None = None) -> list[list[Detection]]:
    """The detections of :func:`mosum_detect` at each ``level``.

    ``trace``, with a single level, receives its rows.
    """
    if not 0 < hist_fact <= 1:
        raise ValueError("hist_fact must be in (0, 1]")
    if not 0 < h_band <= 1:
        raise ValueError("h_band must be in (0, 1]")
    if harmonics > 0 and period <= 0:
        raise ValueError(f"harmonics {harmonics} need a period > 0, got period {period}")
    values = finite_values(series)
    n = len(values)
    if monitor_from is None:
        monitor_from = 2 * min_hist
    elif monitor_from < min_hist:
        raise ValueError("monitor_from must be at least the history minimum, "
                         f"got {monitor_from} < {min_hist}")

    def scan(seg_start: int, cs: list) -> list[Detection]:
        found = []
        mon_start = min(monitor_from, n) if seg_start == 0 else seg_start + min_hist
        avail = mon_start - seg_start
        if mon_start >= n:
            return found
        length = int(min(max(min_hist, math.ceil(hist_fact * avail)), _CAP_FACTOR * min_hist))
        hist_lo = mon_start - length
        t_hist = np.arange(hist_lo, mon_start, dtype=float)
        X = _design(t_hist, harmonics, period)
        beta, *_ = np.linalg.lstsq(X, values[hist_lo:mon_start], rcond=None)
        resid_hist = values[hist_lo:mon_start] - X @ beta
        dof = max(length - X.shape[1], 1)
        sd = float(np.sqrt(chunked_dot(resid_hist, resid_hist) / dof))
        band = max(int(math.ceil(h_band * length)), 1)
        t_mon = np.arange(mon_start, n, dtype=float)
        resid_mon = values[mon_start:] - _design(t_mon, harmonics, period) @ beta
        resid = np.concatenate((resid_hist, resid_mon))
        csum = np.concatenate(([0.0], np.cumsum(resid)))
        # entry j is step j into monitoring; band <= length, as h_band <= 1
        mosum = csum[length + 1:] - csum[length + 1 - band:len(csum) - band]
        size = np.abs(mosum)
        growth = 1.0 + np.arange(1, len(mosum) + 1) / length
        end = len(mosum)
        for c in cs:
            hits = np.flatnonzero(size > c * sd * np.sqrt(length) * growth)
            if not hits.size:
                break  # nor does any larger c hit
            k = int(hits[0])
            found.append(Detection(detect_time=mon_start + k, located_time=None, detector="mosum"))
            end = k + 1
        if trace is not None:
            bound = cs[0] * sd * np.sqrt(length) * growth
            trace.extend((mon_start + k, float(mosum[k]), float(bound[k])) for k in range(end))
        return found

    return sweep(scan, [boundary_constant(h_band, level) for level in levels], record=trace)
