"""Tests for the prediction-assisted monitor: grid, persistence, restarts."""

from __future__ import annotations

import numpy as np
import pytest

from predcomp.cusum import CusumChart
from predcomp.pnc import PncConfig, PncStream, TraceRow, run_stream
from predcomp.predictors import PredictorError, fit_predictor, refit_after_detection
from predcomp.seeding import spawn_rng
from predcomp.series import Detection


class ZeroOracle:
    """Forecasts the true in-control mean (zero) exactly."""

    kind = "oracle"

    def forecast(self, window, steps):
        return np.zeros(steps)


class AnchorSlicer:
    """Returns slices of a global per-index target vector.

    Finds the anchor by matching the input window against the stored
    series, which is unique for continuous noise; this turns the stream
    into a plain CUSUM with externally fixed targets.
    """

    kind = "anchor"

    def __init__(self, tvec, vals, window_len):
        self.tvec = np.asarray(tvec, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        self.window_len = window_len

    def forecast(self, window, steps):
        w = np.asarray(window)
        for t in range(self.window_len, len(self.vals) + 1):
            if np.array_equal(self.vals[t - self.window_len:t], w):
                return self.tvec[t:t + steps]
        raise PredictorError("window not found")


class FailOnCall:
    """Raises on selected forecast calls, zero targets otherwise."""

    kind = "flaky"

    def __init__(self, fail_calls):
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def forecast(self, window, steps):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise PredictorError("boom")
        return np.zeros(steps)


def test_config_validation():
    with pytest.raises(ValueError):
        PncConfig(0, 25, 5.0)
    with pytest.raises(ValueError):
        PncConfig(50, 0, 5.0)
    with pytest.raises(ValueError):
        PncConfig(50, 25, 5.0, refit="sometimes")


def test_in_control_with_exact_targets_is_quiet():
    rng = spawn_rng(0, "incontrol")
    vals = rng.normal(0.0, 1.0, size=1500)
    dets, stream = run_stream(ZeroOracle(), PncConfig(100, 25, 8.0, 0.5), vals)
    assert dets == []
    assert stream.diagnostics.skipped_windows == []


def test_trace_gating_and_warmup():
    rng = spawn_rng(0, "incontrol")
    vals = rng.normal(0.0, 1.0, size=300)
    _, quiet = run_stream(ZeroOracle(), PncConfig(100, 25, 8.0, 0.5), vals)
    assert quiet.trace == []
    _, traced = run_stream(ZeroOracle(), PncConfig(100, 25, 8.0, 0.5), vals,
                           keep_trace=True)
    idx = [row.index for row in traced.trace]
    # monitoring starts once a full input window exists
    assert idx == list(range(100, 300))
    assert all(row.target == 0.0 for row in traced.trace)


@pytest.mark.parametrize("direction, bound", [("up", 6.0), ("down", -6.0)])
def test_trace_rows_carry_the_signed_bound_of_their_chart(direction, bound):
    """An upward chart alarms above +desInt, a downward one below -desInt."""
    vals = spawn_rng(0, "incontrol").normal(0.0, 1.0, size=300)
    vals[200:] += 4.0 if direction == "up" else -4.0
    dets, stream = run_stream(ZeroOracle(), PncConfig(50, 25, 6.0, 0.5, direction), vals,
                              keep_trace=True)
    assert dets
    assert all(row.bound == bound for row in stream.trace)
    assert [row.index for row in stream.trace if row.alarm] == [d.detect_time for d in dets]


def test_step_change_detected_quickly_with_ar_predictor():
    for seed in range(5):
        rng = spawn_rng(seed, "step")
        x = rng.normal(0.0, 1.0, size=400)
        x[150:] += 3.0
        pred = fit_predictor({"kind": "ar", "p": 3}, x[:150])
        dets, _ = run_stream(pred, PncConfig(50, 25, 10.0, 0.5), x)
        assert dets, f"seed {seed} missed the change"
        first = dets[0]
        assert 150 < first.detect_time <= 175
        assert abs(first.located_time - 150) <= 25


def test_matches_fixed_target_cusum_up_to_first_alarm(run_chart):
    # with a constant target vector the stream degenerates to the classic
    # chart, so the first alarms must agree exactly
    rng = spawn_rng(7, "equiv")
    vals = rng.normal(0.0, 1.0, size=600)
    vals[300:] += 2.0
    tvec = np.zeros(600)
    pred = AnchorSlicer(tvec, vals, window_len=100)
    dets_pnc, _ = run_stream(pred, PncConfig(100, 25, 5.0, 0.5), vals)
    dets_cl, _ = run_chart(vals[100:], tvec[100:], threshold=5.0, allowance=0.5, start=100)
    assert dets_pnc and dets_cl
    assert (dets_pnc[0].detect_time, dets_pnc[0].located_time) == dets_cl[0] == (306, 300)


def test_failed_window_is_skipped_and_chart_survives():
    rng = spawn_rng(1, "skip")
    x = rng.normal(0.5, 0.1, size=200)  # steady drift keeps the stat positive
    cfg = PncConfig(50, 25, 1e9, 0.4)
    dets, stream = run_stream(FailOnCall([2]), cfg, x, keep_trace=True)
    assert dets == []
    assert stream.diagnostics.skipped_windows == [75]
    idx = [row.index for row in stream.trace]
    assert idx == list(range(50, 75)) + list(range(100, 200))
    # the statistic carries over the gap: one ordinary increment at 100
    at_74 = next(r for r in stream.trace if r.index == 74).stat
    at_100 = next(r for r in stream.trace if r.index == 100).stat
    assert at_100 == pytest.approx(max(0.0, at_74 + (x[100] - 0.0 - 0.4)), abs=1e-12)


class BadOnSecondCall:
    """Forecasts NaN, or one value too few, on the second window; zeros otherwise."""

    kind = "bad"

    def __init__(self, how):
        self.how = how
        self.calls = 0

    def forecast(self, window, steps):
        self.calls += 1
        if self.calls != 2:
            return np.zeros(steps)
        return np.full(steps, np.nan) if self.how == "nan" else np.zeros(steps - 1)


@pytest.mark.parametrize("how", ["nan", "short"])
def test_forecast_that_is_not_a_finite_horizon_vector_skips_its_window(how):
    x = spawn_rng(4, "bad-forecast").normal(0.0, 0.1, size=40)
    dets, stream = run_stream(BadOnSecondCall(how), PncConfig(10, 5, 1e9, 0.5), x,
                              keep_trace=True)
    assert dets == []
    assert stream.diagnostics.skipped_windows == [15]
    assert [r.index for r in stream.trace] == list(range(10, 15)) + list(range(20, 40))


def test_location_counts_the_steps_of_a_window_skipped_before_the_alarm():
    # l=10, b=5: anchors 10, 15, 20; the forecast at 15 fails, so 15-19 are not charted
    x = np.zeros(30)
    x[13:] = 1.0  # against zero targets with k=0.5 the statistic last sits at zero at 12
    dets, stream = run_stream(FailOnCall([2]), PncConfig(10, 5, 2.0, 0.5), x, keep_trace=True)
    assert stream.diagnostics.skipped_windows == [15]
    # 0.5 at 13, 1.0 at 14, then 1.5, 2.0, 2.5 at 20-22: the alarm is at 22
    assert [(d.detect_time, d.located_time) for d in dets][0] == (22, 13)
    assert [r.index for r in stream.trace][:8] == [10, 11, 12, 13, 14, 20, 21, 22]


def test_grid_restarts_after_alarm():
    rng = spawn_rng(2, "refit")
    x = rng.normal(0.0, 1.0, size=500)
    x[200:] += 4.0
    pred = fit_predictor({"kind": "mean"}, x[:200])
    dets, stream = run_stream(pred, PncConfig(100, 25, 5.0, 0.5), x, keep_trace=True)
    assert [(d.detect_time, d.located_time) for d in dets][0] == (201, 200)
    idx = [row.index for row in stream.trace]
    # nothing is monitored during the fresh warm-up after the alarm
    first_after = dets[0].detect_time + 1 + 100
    assert [i for i in idx if dets[0].detect_time < i < first_after] == []
    assert first_after in idx
    alarms = [row.index for row in stream.trace if row.alarm]
    assert alarms[0] == dets[0].detect_time


def test_refit_on_detection():
    rng = spawn_rng(2, "refit")
    x = rng.normal(0.0, 1.0, size=500)
    x[200:] += 4.0
    pred = fit_predictor({"kind": "ar", "p": 1}, x[:200])
    cfg = PncConfig(100, 25, 5.0, 0.5, refit="on_detection", min_refit_history=50)
    dets, stream = run_stream(pred, cfg, x)
    assert dets[0].detect_time == 201
    # the refit happens at the first anchor after the restart, on the data
    # from the located change point onward
    assert stream.diagnostics.refits == [(302, True)]
    assert stream.predictor is not pred
    direct = type(pred).fit(x[200:302], 1)
    assert np.allclose(stream.predictor.coef, direct.coef)
    assert stream.predictor.intercept == pytest.approx(direct.intercept)


def test_refit_skipped_when_history_short():
    rng = spawn_rng(3, "refit2")
    x = rng.normal(0.0, 1.0, size=260)
    x[200:] += 5.0
    pred = fit_predictor({"kind": "mean"}, x[:200])
    cfg = PncConfig(50, 25, 3.0, 0.5, refit="on_detection", min_refit_history=1000)
    dets, stream = run_stream(pred, cfg, x)
    assert len(dets) >= 2
    assert stream.diagnostics.refits == [(234, False)]
    assert stream.predictor is pred


def test_decisions_are_causal():
    rng = spawn_rng(9, "causal")
    x = rng.normal(0.0, 1.0, size=800)
    x[400:] += 2.5
    pred = fit_predictor({"kind": "ar", "p": 2}, x[:300])
    full, _ = run_stream(pred, PncConfig(100, 25, 6.0, 0.5), x)
    first = full[0]
    pred2 = fit_predictor({"kind": "ar", "p": 2}, x[:300])
    prefix, _ = run_stream(pred2, PncConfig(100, 25, 6.0, 0.5),
                           x[:first.detect_time + 1])
    assert [(d.detect_time, d.located_time) for d in prefix] == \
        [(first.detect_time, first.located_time)]


def test_push_interface_matches_run_stream():
    rng = spawn_rng(4, "pushes")
    x = rng.normal(0.0, 1.0, size=400)
    x[200:] += 3.0
    cfg = PncConfig(50, 25, 6.0, 0.5)
    dets_a, _ = run_stream(ZeroOracle(), cfg, x)
    stream = PncStream(ZeroOracle(), cfg, name="manual")
    dets_b = [d for d in (stream.push(v) for v in x) if d is not None]
    assert [(d.detect_time, d.located_time) for d in dets_a] == \
        [(d.detect_time, d.located_time) for d in dets_b]
    assert all(d.detector == "manual" for d in dets_b)


def test_detection_fields():
    rng = spawn_rng(4, "pushes")
    x = rng.normal(0.0, 1.0, size=400)
    x[200:] += 3.0
    dets, _ = run_stream(ZeroOracle(), PncConfig(50, 25, 6.0, 0.5), x, name="pnc-ar")
    assert dets
    assert dets[0].detector == "pnc-ar"
    assert dets[0].stat_value > 6.0


@pytest.mark.parametrize("chart, message", [
    ({"threshold": -1.0}, "threshold must be positive"),
    ({"direction": "sideways"}, "direction must be 'up' or 'down'"),
    ({"allowance": -1.0}, "allowance must be non-negative"),
])
def test_config_checks_its_chart_before_any_push(chart, message):
    with pytest.raises(ValueError, match=message):
        PncConfig(10, 5, **{"threshold": 5.0, **chart})


def test_refit_that_keeps_the_predictor_is_not_reported_done():
    # an LSTM's refit returns the same model, so nothing was refitted
    from predcomp.lstm import LstmPredictor, init_lstm
    rng = spawn_rng(4, "refit-lstm")
    x = rng.normal(0.0, 1.0, size=400)
    x[200:] += 5.0
    pred = LstmPredictor(init_lstm(24, 6, hidden=4, seed=0))
    cfg = PncConfig(24, 6, 5.0, 0.5, refit="on_detection", min_refit_history=10)
    dets, stream = run_stream(pred, cfg, x)
    assert dets[0].detect_time == 201
    refits = stream.diagnostics.refits
    # the first refit has 26 post-change points, above min_refit_history
    assert refits[0] == (226, False)
    assert all(not ok for _, ok in refits)
    assert stream.predictor is pred


def test_skipped_window_keeps_the_located_change():
    """The chart's clock follows the stream over a window whose forecast
    failed; it used to fall one horizon behind, and the locator with it."""
    x = np.zeros(60)
    x[40:] += 3.0
    dets, stream = run_stream(FailOnCall([1]), PncConfig(10, 10, 4.0, 0.5), x, keep_trace=True)
    assert stream.diagnostics.skipped_windows == [10]
    assert [(d.detect_time, d.located_time) for d in dets] == [(41, 40), (53, 52)]
    begin = -1
    for det in dets:
        segment = [r for r in stream.trace if begin < r.index <= det.detect_time]
        # one past the last zero of the statistic, else the segment's first step
        zeros = [r.index for r in segment if r.stat == 0.0]
        assert det.located_time == (zeros[-1] + 1 if zeros else segment[0].index)
        begin = det.detect_time


class ListStream(PncStream):
    """The stream as it was with a Python-list history: every anchor
    converts the whole list to an array.  Reference for the buffer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._list = []
        self._origin = 0

    def _begin_window(self, t):
        cfg = self.cfg
        values = np.asarray(self._list)
        if self._pending_refit_from is not None:
            self.predictor, ok = refit_after_detection(
                self.predictor, values[:t], self._pending_refit_from, cfg.min_refit_history)
            self.diagnostics.refits.append((t, ok))
            self._pending_refit_from = None
        self._anchor = t
        try:
            yhat = np.asarray(self.predictor.forecast(values[t - cfg.window_len:t], cfg.horizon),
                              dtype=float)
            if yhat.shape != (cfg.horizon,) or not np.all(np.isfinite(yhat)):
                raise PredictorError("forecast is not a finite horizon-length vector")
            self._targets = yhat
        except PredictorError:
            self._targets = None
            self.diagnostics.skipped_windows.append(t)

    def push(self, x):
        cfg = self.cfg
        self._list.append(float(x))
        i = len(self._list) - 1
        first = self._origin + cfg.window_len
        if i < first:
            return None
        if (i - first) % cfg.horizon == 0:
            self._begin_window(i)
            if self._chart is None:
                self._chart = CusumChart(cfg.threshold, cfg.allowance, cfg.direction, start=first)
        if self._targets is None:
            return None
        target = float(self._targets[i - self._anchor])
        alarm = self._chart.step(i, float(x), target)
        if self.keep_trace:
            bound = cfg.threshold if cfg.direction == "up" else -cfg.threshold
            self.trace.append(TraceRow(i, float(x), target, self._chart.value, bound, alarm))
        if not alarm:
            return None
        det = Detection(detect_time=i, located_time=self._chart.located(),
                        detector=self.name, stat_value=self._chart.value)
        if cfg.refit == "on_detection":
            self._pending_refit_from = det.located_time
        self._origin = i + 1
        self._targets = None
        self._chart = None
        return det


class Recorder:
    """An AR predictor that logs a copy of every window and history it gets."""

    kind = "recorder"

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def forecast(self, window, steps):
        self.log.append(("forecast", np.array(window)))
        return self.inner.forecast(window, steps)

    def refit(self, history):
        self.log.append(("refit", np.array(history)))
        return Recorder(self.inner.refit(history), self.log)


def _staircase(n=3000, seed=11):
    # an upward step every 400 points: several alarms, each followed by a refit
    rng = spawn_rng(seed, "staircase")
    x = rng.normal(0.0, 1.0, size=n)
    for cp in range(400, n, 400):
        x[cp:] += 3.0
    return x


def test_buffer_matches_list_history_exactly():
    x = _staircase()
    cfg = PncConfig(50, 10, 6.0, 0.5, refit="on_detection", min_refit_history=20)
    runs = []
    for cls in (PncStream, ListStream):
        log = []
        pred = Recorder(fit_predictor({"kind": "ar", "p": 3}, x[:300]), log)
        stream = cls(pred, cfg, keep_trace=True)
        dets = [d for d in (stream.push(v) for v in x) if d is not None]
        runs.append((log, dets, stream))
    (log, dets, stream), (ref_log, ref_dets, ref_stream) = runs
    # the stream outgrows the initial buffer, alarms repeatedly and refits
    assert len(x) > 1024
    assert len(dets) >= 5
    assert sum(ok for _, ok in stream.diagnostics.refits) >= 5
    assert [kind for kind, _ in log] == [kind for kind, _ in ref_log]
    for (_, got), (_, want) in zip(log, ref_log):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert dets == ref_dets
    assert stream.trace == ref_stream.trace
    assert stream.diagnostics == ref_stream.diagnostics


class WindowWriter:
    """A window-mean forecaster that first tries to overwrite its inputs."""

    kind = "writer"

    def __init__(self):
        self.calls = 0
        self.refused = 0

    def _try_write(self, values):
        self.calls += 1
        try:
            values[-1] += 1e6
        except ValueError:
            self.refused += 1

    def forecast(self, window, steps):
        self._try_write(window)
        return np.full(steps, float(np.mean(window)))

    def refit(self, history):
        self._try_write(history)
        return WindowWriter()


def test_predictor_cannot_write_into_the_stream():
    x = _staircase(n=1500)
    cfg = PncConfig(50, 10, 6.0, 0.5, refit="on_detection", min_refit_history=20)
    writer = WindowWriter()
    dets, stream = run_stream(writer, cfg, x, keep_trace=True)
    ref_dets, ref_stream = run_stream(fit_predictor({"kind": "mean"}, x[:300]),
                                      PncConfig(50, 10, 6.0, 0.5), x, keep_trace=True)
    # every attempt is refused, on the original and on the refitted writers
    assert len(dets) >= 3 and len(stream.diagnostics.refits) >= 3
    assert writer.calls > 0 and writer.refused == writer.calls
    assert stream.predictor.refused == stream.predictor.calls > 0
    assert dets == ref_dets
    assert stream.trace == ref_stream.trace


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_push_rejected_and_stream_unchanged(bad):
    x = _staircase(n=1500)
    cfg = PncConfig(50, 10, 6.0, 0.5)
    clean, _ = run_stream(ZeroOracle(), cfg, x)
    stream = PncStream(ZeroOracle(), cfg)
    dets = [d for d in (stream.push(v) for v in x[:420]) if d is not None]
    with pytest.raises(ValueError, match=r"index 420 is not finite"):
        stream.push(bad)
    dets += [d for d in (stream.push(v) for v in x[420:]) if d is not None]
    assert dets == clean
    with pytest.raises(ValueError, match=r"index 20 is not finite"):
        run_stream(ZeroOracle(), cfg, np.concatenate((x[:20], [bad], x[20:])))


class RaisesOnSecondCall:
    """Forecasts the call number; the second call raises a non-predictor error."""

    kind = "raising"

    def __init__(self):
        self.calls = 0

    def forecast(self, window, steps):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("predictor bug")
        return np.full(steps, float(self.calls))


def test_window_whose_forecast_raises_is_not_charted_against_old_targets():
    cfg = PncConfig(10, 5, 1e9, 0.5)
    stream = PncStream(RaisesOnSecondCall(), cfg, keep_trace=True)
    x = np.arange(30.0)
    for i, v in enumerate(x):
        if i == 15:  # the second anchor
            with pytest.raises(RuntimeError):
                stream.push(v)
        else:
            stream.push(v)
    targets = {r.index: r.target for r in stream.trace}
    assert not any(i in targets for i in range(16, 20))
    assert [targets[i] for i in range(10, 15)] == [1.0] * 5
    assert [targets[i] for i in range(20, 30)] == [3.0] * 5 + [4.0] * 5
