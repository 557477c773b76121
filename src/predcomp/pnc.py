"""Prediction-assisted monitoring over a hopping window grid.

At each anchor t of the grid (t = window_len, then every ``horizon``
steps) the predictor forecasts the next ``horizon`` values from the last
``window_len`` observations.  Incoming observations are then compared to
the forecast one step at a time by a decision-interval CUSUM whose target
is the prediction.  The chart persists across windows; it is fresh at the
start of the stream and after every alarm.  It is stepped at each
observation's index, so a location across a skipped window counts its steps.

After an alarm the grid restarts just past the alarm index, so the next
input window is drawn entirely from post-detection data.  With the
``on_detection`` refit policy the predictor is refitted at that next
anchor on the data from the located change point onward, provided enough
of it has accumulated; otherwise the stale model is kept and the skip is
recorded in the diagnostics.

Every decision about index s uses only observations with index <= s.

With ``keep_trace`` the stream records each charted step as a :class:`TraceRow`,
the trace format that ``io.write_trace_csv`` and ``io.write_trace_svg`` write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .cusum import CusumChart
from .predictors import PredictorError, refit_after_detection
from .series import Detection, LabeledSeries, non_finite_error


@dataclass(frozen=True)
class PncConfig:
    """Engine parameters (config-file key in parentheses).

    window_len (l): input window length, horizon (b): prediction window
    length, threshold (desInt) and allowance (k): comparator parameters.
    """

    window_len: int
    horizon: int
    threshold: float
    allowance: float = 0.5
    direction: str = "up"
    refit: str = "never"
    min_refit_history: int = 50

    def __post_init__(self) -> None:
        if self.window_len <= 0 or self.horizon <= 0:
            raise ValueError("window_len and horizon must be positive")
        if self.refit not in ("never", "on_detection"):
            raise ValueError("refit must be 'never' or 'on_detection'")
        CusumChart(self.threshold, self.allowance, self.direction)  # the chart's own checks


class TraceRow(NamedTuple):
    """One charted step: the chart statistic ``stat`` against the signed
    ``bound`` it alarms past, +desInt upward and -desInt downward."""
    index: int
    value: float
    target: float
    stat: float
    bound: float
    alarm: bool


@dataclass
class StreamDiagnostics:
    skipped_windows: list[int] = field(default_factory=list)
    # (anchor, replaced): False when the refit was skipped, failed or kept the same predictor
    refits: list[tuple[int, bool]] = field(default_factory=list)


class PncStream:
    """Incremental interface: push one observation, maybe get a detection.

    Replaying a stored stream through ``push`` is exactly equivalent to
    :func:`run_stream`, which is implemented on top of this class.

    The observations are kept in one preallocated float64 buffer that
    doubles when full, so a push costs the same at any stream length.
    The predictor sees read-only views into that buffer: the input window
    ``buf[t-l:t]`` at each anchor t and, for a refit, the history
    ``buf[:t]``; nothing is copied.  A window's forecast is consumed as an
    iterator, one target per charted step.  A non-finite observation raises
    ``ValueError`` and leaves the stream as it was.
    """

    def __init__(self, predictor, cfg: PncConfig, name: str = "pnc",
                 keep_trace: bool = False):
        self.predictor = predictor
        self.cfg = cfg
        self.name = name
        self.keep_trace = keep_trace
        self.diagnostics = StreamDiagnostics()
        self.trace: list[TraceRow] = []
        self._bound = cfg.threshold if cfg.direction == "up" else -cfg.threshold
        self._buf = np.empty(1024)
        self._n = 0
        self._targets: Iterator[float] | None = None
        self._chart = CusumChart(cfg.threshold, cfg.allowance, cfg.direction, start=cfg.window_len)
        self._pending_refit_from: int | None = None

    def _begin_window(self, t: int) -> None:
        cfg = self.cfg
        # no targets until this window's forecast succeeds, so that a refit
        # or forecast that raises leaves nothing to chart against
        self._targets = None
        history = self._buf[:t]
        history.flags.writeable = False
        if self._pending_refit_from is not None:
            self.predictor, ok = refit_after_detection(
                self.predictor, history, self._pending_refit_from, cfg.min_refit_history)
            self.diagnostics.refits.append((t, ok))
            self._pending_refit_from = None
        try:
            yhat = np.asarray(self.predictor.forecast(history[t - cfg.window_len:], cfg.horizon),
                              dtype=float)
            if yhat.shape != (cfg.horizon,) or not np.all(np.isfinite(yhat)):
                raise PredictorError("forecast is not a finite horizon-length vector")
        except PredictorError:
            self.diagnostics.skipped_windows.append(t)
            return
        self._targets = iter(yhat.tolist())

    def push(self, x: float) -> Detection | None:
        cfg = self.cfg
        x = float(x)
        i = self._n
        if not math.isfinite(x):
            raise non_finite_error(i, x)
        if i == len(self._buf):
            self._buf = np.concatenate((self._buf, np.empty(i)))
        self._buf[i] = x
        self._n = i + 1
        first = self._chart.start
        if i < first:
            return None
        if (i - first) % cfg.horizon == 0:
            self._begin_window(i)
        if self._targets is None:
            return None  # predictor failed on this window; state preserved
        target = next(self._targets)
        alarm = self._chart.step(i, x, target)
        if self.keep_trace:
            self.trace.append(TraceRow(i, x, target, self._chart.value, self._bound, alarm))
        if not alarm:
            return None
        det = Detection(detect_time=i, located_time=self._chart.located(),
                        detector=self.name, stat_value=self._chart.value)
        if cfg.refit == "on_detection":
            self._pending_refit_from = det.located_time
        self._targets = None
        self._chart = replace(self._chart, start=i + 1 + cfg.window_len)  # zeroed
        return det


def run_stream(predictor, cfg: PncConfig, series, name: str = "pnc",
               keep_trace: bool = False):
    """Run the engine over a whole series.

    Returns (detections, stream) where ``stream`` carries diagnostics and,
    when requested, the per-step trace of :class:`TraceRow`.
    """
    values = series.values if isinstance(series, LabeledSeries) else np.asarray(series, dtype=float)
    stream = PncStream(predictor, cfg, name=name, keep_trace=keep_trace)
    detections = []
    for x in values:
        det = stream.push(float(x))
        if det is not None:
            detections.append(det)
    return detections, stream
