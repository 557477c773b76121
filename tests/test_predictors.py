import numpy as np
import pytest

from predcomp.predictors import (MAX_P, ArimaPredictor, ArPredictor, ConstantPredictor,
                                 MeanPredictor, NaivePredictor, PredictorError,
                                 _differenced, _nelder_mead, _pacf_to_coef, css_innovations,
                                 fit_predictor, refit_after_detection)
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


def test_fit_predictor_builds_each_kind_from_its_spec():
    x = ar1(300, 0.5, 1.0, seed=8)
    w = x[-30:]
    for spec, direct in (({"kind": "naive"}, NaivePredictor()), ({"kind": "mean"}, MeanPredictor()),
                         ({"kind": "ar", "p": 2}, ArPredictor.fit(x, 2)),
                         ({"kind": "arima", "order": (1, 0, 1)}, ArimaPredictor.fit(x, (1, 0, 1)))):
        m = fit_predictor(spec, x)
        assert type(m) is type(direct)
        assert np.array_equal(m.forecast(w, 5), direct.forecast(w, 5))


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


# ---------------------------------------------------------------------------
# the in-repo Nelder-Mead and filter against the scipy calls they replace

NM_OPTIONS = {"xatol": 1e-8, "fatol": 1e-8, "maxiter": 4000, "maxfev": 8000}


def _scipy_nelder_mead(func, x0, **options):
    from scipy import optimize
    res = optimize.minimize(func, x0, method="Nelder-Mead", options=options)
    return res.x, res.nfev


def _seeded_objective(n, seed):
    """A rotated, shifted quadratic with a quartic term: smooth, not separable."""
    rng = spawn_rng(seed, "nm")
    A = rng.normal(0.0, 1.0, (n, n))
    c = rng.normal(0.0, 1.0, n)

    def f(x):
        z = A @ (x - c)
        return float(z @ z + 0.1 * np.sum(x ** 4))
    return f, rng.normal(0.0, 1.0, n) * (rng.random(n) < 0.7)  # some zero starts


@pytest.mark.parametrize("n", range(1, 12))
def test_nelder_mead_matches_scipy(n):
    f, x0 = _seeded_objective(n, n)
    got = _nelder_mead(f, x0, **NM_OPTIONS)
    want = _scipy_nelder_mead(f, x0, **NM_OPTIONS)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


@pytest.mark.parametrize("maxfev, maxiter", [(3, 4000), (60, 4000), (8000, 12)])
def test_nelder_mead_matches_scipy_at_its_limits(maxfev, maxiter):
    # maxfev inside the first simplex, maxfev mid-run, and maxiter
    f, x0 = _seeded_objective(5, 20)
    options = dict(NM_OPTIONS, maxfev=maxfev, maxiter=maxiter)
    got = _nelder_mead(f, x0, **options)
    want = _scipy_nelder_mead(f, x0, **options)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert got[1] <= maxfev


def test_nelder_mead_matches_scipy_on_tied_values():
    # staircases: most comparisons are ties and most steps end in a shrink;
    # the second one shrinks vertices on both sides of zero, where the
    # shrink's rounding shows in the result; a flat objective only shrinks
    def stair(scale):
        return lambda x: float(np.floor(scale * np.sum(x ** 2)))
    for f, x0 in ((stair(4.0), [0.3, 0.0, -1.2, 2.0]), (stair(300.0), [0.2, 0.0, 0.0, 0.5]),
                  (lambda x: 1.0, [0.3, 0.0, -1.2, 2.0])):
        x0 = np.array(x0)
        got = _nelder_mead(f, x0, **NM_OPTIONS)
        want = _scipy_nelder_mead(f, x0, **NM_OPTIONS)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


@pytest.mark.parametrize("p, q", [(3, 0), (0, 2), (0, 0), (5, 5)])
def test_css_innovations_matches_lfilter(p, q):
    from scipy import signal
    rng = spawn_rng(p * 10 + q, "css-lfilter")
    w = rng.normal(0.0, 1.0, 300)
    phi, theta, mu = 0.3 * rng.normal(0.0, 1.0, p), 0.3 * rng.normal(0.0, 1.0, q), 0.4
    want = signal.lfilter(np.concatenate(([1.0], -phi)), np.concatenate(([1.0], theta)), w - mu)
    for args in ((phi, theta), (phi.tolist(), theta.tolist())):
        got = css_innovations(w, *args, mu)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _fit_order_scipy(history, p, d, q):
    """The CSS fit as it was written on scipy's minimize and lfilter:
    the reference for the in-repo optimizer and filter."""
    from scipy import optimize, signal

    def poly(raw):
        phi = []
        for r in np.tanh(raw).tolist():
            phi = [phi[i] - r * phi[-1 - i] for i in range(len(phi))] + [r]
        return np.array(phi)

    def css(w, phi, theta, intercept):
        b = np.concatenate(([1.0], -np.asarray(phi, dtype=float)))
        a = np.concatenate(([1.0], np.asarray(theta, dtype=float)))
        return signal.lfilter(b, a, w - intercept)

    w = np.diff(history, n=d) if d else history.copy()
    n = len(w)

    def objective(raw):
        phi = poly(raw[:p]) if p else np.empty(0)
        theta = -poly(raw[p:p + q]) if q else np.empty(0)
        e = css(w, phi, theta, raw[-1])
        ssr = float(np.dot(e, e))
        if not np.isfinite(ssr):
            return 1e12
        return ssr

    start = np.zeros(p + q + 1)
    start[-1] = float(np.mean(w))
    if p + q == 0:
        best_raw = start
    else:
        best_raw = optimize.minimize(objective, start, method="Nelder-Mead",
                                     options=NM_OPTIONS).x
    phi = poly(best_raw[:p]) if p else np.empty(0)
    theta = -poly(best_raw[p:p + q]) if q else np.empty(0)
    intercept = float(best_raw[-1])
    e = css(w, phi, theta, intercept)
    ssr = float(np.dot(e, e))
    k = p + q + 2
    aicc = n * np.log(max(ssr / n, 1e-300)) + 2 * k + 2 * k * (k + 1) / (n - k - 1)
    return phi, theta, intercept, ssr / n, aicc


@pytest.mark.parametrize("order", [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 1), (3, 1, 2),
                                   (5, 2, 5)])
def test_fit_order_matches_scipy_reference(order):
    x = ar1(120, 0.6, 1.0, seed=11) + 0.02 * np.arange(120)
    p, d, q = order
    m = ArimaPredictor._fit_order(_differenced(x, d), p, d, q)
    phi, theta, intercept, sigma2, aicc = _fit_order_scipy(x, p, d, q)
    assert np.array_equal(m.phi, phi) and np.array_equal(m.theta, theta)
    assert (m.intercept, m.sigma2, m.aicc) == (intercept, sigma2, aicc)
