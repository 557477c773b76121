import numpy as np
import pytest

from predcomp.predictors import (MAX_P, ArimaPredictor, ArPredictor, ConstantPredictor,
                                 MeanPredictor, NaivePredictor, PredictorError,
                                 _pacf_to_coef, css_innovations, fit_predictor,
                                 predictor_from_dict, refit_after_detection)
from predcomp.seeding import spawn_rng


def ar1(n, phi, mu, seed, sigma=1.0):
    rng = spawn_rng(seed, "ar1")
    e = rng.normal(0.0, sigma, n)
    x = np.empty(n)
    x[0] = mu
    for i in range(1, n):
        x[i] = mu * (1 - phi) + phi * x[i - 1] + e[i]
    return x


def test_naive_and_mean():
    w = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(NaivePredictor().forecast(w, 4), np.full(4, 3.0))
    assert np.array_equal(MeanPredictor().forecast(w, 2), np.full(2, 2.0))
    with pytest.raises(PredictorError):
        NaivePredictor().forecast(np.array([]), 1)


def test_ar_recovers_coefficient():
    x = ar1(3000, 0.6, 2.0, seed=0)
    m = ArPredictor.fit(x, 1)
    assert m.coef[0] == pytest.approx(0.6, abs=0.05)
    assert m.intercept == pytest.approx(2.0 * 0.4, abs=0.1)


def test_ar_forecast_recursion():
    m = ArPredictor(p=2, coef=np.array([0.5, 0.25]), intercept=1.0)
    fc = m.forecast(np.array([2.0, 4.0]), 3)
    # y1 = 1 + .5*4 + .25*2 = 3.5; y2 = 1 + .5*3.5 + .25*4 = 3.75;
    # y3 = 1 + .5*3.75 + .25*3.5 = 3.75
    assert np.allclose(fc, [3.5, 3.75, 3.75])


def test_ar_zero_variance_falls_back():
    m = ArPredictor.fit(np.full(100, 7.0), 3)
    assert isinstance(m, ConstantPredictor)
    assert np.array_equal(m.forecast(np.zeros(5), 3), np.full(3, 7.0))


def test_ar_short_history_rejected():
    with pytest.raises(PredictorError):
        ArPredictor.fit(np.arange(6.0), 2)


def test_css_innovations_match_hand_recursion():
    rng = spawn_rng(1, "css")
    w = rng.normal(0.0, 1.0, 60)
    phi, theta, mu = np.array([0.4, -0.2]), np.array([0.3]), 0.7
    e = css_innovations(w, phi, theta, mu)
    # e_t = (w_t - mu) - phi1 (w_{t-1} - mu) - phi2 (w_{t-2} - mu) - theta1 e_{t-1}
    ref = np.zeros(60)
    c = w - mu
    for t in range(60):
        val = c[t]
        if t >= 1:
            val -= phi[0] * c[t - 1] + theta[0] * ref[t - 1]
        if t >= 2:
            val -= phi[1] * c[t - 2]
        ref[t] = val
    assert np.allclose(e, ref, atol=1e-12)


def test_arima_ar1_recovery():
    x = ar1(3000, 0.6, 2.0, seed=3)
    m = ArimaPredictor.fit(x, order=(1, 0, 0))
    assert m.phi[0] == pytest.approx(0.6, abs=0.05)
    assert m.sigma2 == pytest.approx(1.0, rel=0.1)


def test_arima_ma1_recovery():
    rng = spawn_rng(4, "ma1")
    e = rng.normal(0.0, 1.0, 3000)
    y = 1.0 + e + 0.5 * np.concatenate(([0.0], e[:-1]))
    m = ArimaPredictor.fit(y, order=(0, 0, 1))
    assert m.theta[0] == pytest.approx(0.5, abs=0.07)


def test_arima_forecast_pure_ar_hand_case():
    # phi = 0.5, mu = 0, last value 8 -> forecasts 4, 2, 1
    m = ArimaPredictor(p=1, d=0, q=0, phi=np.array([0.5]), theta=np.empty(0),
                       intercept=0.0, sigma2=1.0)
    fc = m.forecast(np.array([1.0, 3.0, 8.0]), 3)
    assert np.allclose(fc, [4.0, 2.0, 1.0])


def test_arima_differencing_inversion():
    # d=1 with zero AR/MA parts forecasts a flat continuation of the mean
    # increment, i.e. a line from the window's last value
    m = ArimaPredictor(p=0, d=1, q=0, phi=np.empty(0), theta=np.empty(0),
                       intercept=2.0, sigma2=1.0)
    fc = m.forecast(np.array([3.0, 5.0, 7.0]), 3)
    assert np.allclose(fc, [9.0, 11.0, 13.0])


def test_arima_intercept_only_is_mean():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0])
    m = ArimaPredictor.fit(x, order=(0, 0, 0))
    assert m.intercept == pytest.approx(np.mean(x))
    assert np.allclose(m.forecast(x, 2), np.full(2, np.mean(x)))


def test_arima_auto_prefers_differencing_on_ramp():
    rng = spawn_rng(0, "ramp")
    x = 0.5 * np.arange(400) + rng.normal(0.0, 0.5, 400)
    m = ArimaPredictor.fit(x, auto=True)
    assert m.auto
    assert m.d >= 1


def test_arima_auto_deterministic():
    rng = spawn_rng(5, "det")
    x = rng.normal(0.0, 1.0, 200)
    a = ArimaPredictor.fit(x, auto=True)
    b = ArimaPredictor.fit(x, auto=True)
    assert (a.p, a.d, a.q) == (b.p, b.d, b.q)
    assert np.array_equal(a.phi, b.phi)


def test_arima_zero_variance_falls_back():
    assert isinstance(ArimaPredictor.fit(np.full(50, 3.0), order=(1, 0, 0)),
                      ConstantPredictor)


def test_arima_order_validation():
    with pytest.raises(PredictorError):
        ArimaPredictor.fit(np.arange(100.0), order=(6, 0, 0))
    with pytest.raises(PredictorError):
        ArimaPredictor.fit(np.arange(5.0), order=(1, 0, 0))


def test_arima_stationarity_of_fit():
    # fitted AR polynomial must stay stationary even on a near-unit-root input
    x = np.cumsum(spawn_rng(7, "rw").normal(0.0, 1.0, 800))
    m = ArimaPredictor.fit(x, order=(1, 0, 0))
    assert abs(m.phi[0]) < 1.0


def test_round_trip_dicts():
    x = ar1(300, 0.5, 1.0, seed=8)
    for spec in ({"kind": "naive"}, {"kind": "mean"}, {"kind": "ar", "p": 2},
                 {"kind": "arima", "order": (1, 0, 1)}):
        m = fit_predictor(spec, x)
        m2 = predictor_from_dict(m.to_dict())
        w = x[-30:]
        assert np.allclose(m.forecast(w, 5), m2.forecast(w, 5))


def test_fit_predictor_unknown_kind():
    with pytest.raises(PredictorError):
        fit_predictor({"kind": "prophet"}, np.arange(100.0))


def test_refit_after_detection_keeps_short_history():
    x = ar1(300, 0.5, 0.0, seed=9)
    m = ArPredictor.fit(x, 2)
    same, refitted = refit_after_detection(m, x, located=280, min_history=50)
    assert not refitted and same is m
    new, refitted = refit_after_detection(m, x, located=100, min_history=50)
    assert refitted and new is not m


def _pacf_to_coef_numpy(pacf):
    """The Durbin-Levinson map on numpy slices; reference for the float version."""
    p = len(pacf)
    phi = np.zeros(p)
    for k in range(p):
        prev = phi[:k].copy()
        phi[:k] = prev - pacf[k] * prev[::-1]
        phi[k] = pacf[k]
    return phi


def test_pacf_to_coef_matches_numpy_recursion():
    rng = spawn_rng(0, "pacf")
    for _ in range(3000):
        p = int(rng.integers(0, MAX_P + 1))
        pacf = np.tanh(rng.normal(0.0, 3.0, p))
        # entries within 1e-1 .. 1e-15 of +-1, where cancellation is worst
        near = rng.random(p) < 0.3
        pacf[near] = rng.choice([-1.0, 1.0], near.sum()) * (1 - 10 ** -rng.uniform(1, 15, near.sum()))
        got, want = _pacf_to_coef(pacf), _pacf_to_coef_numpy(pacf)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
