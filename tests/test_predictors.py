import hashlib
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from predcomp import predictors
from predcomp.predictors import (MAX_D, MAX_P, MAX_Q, MIN_FIT, ArimaPredictor, ArPredictor,
                                 ConstantPredictor, MeanPredictor, NaivePredictor, PredictorError,
                                 _auto_items, _differenced, _nelder_mead, _pacf_list,
                                 css_innovations, fit_predictor, refit_after_detection)
from predcomp.pool import pool_map
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
    with pytest.raises(PredictorError, match="^empty input window$"):
        MeanPredictor().forecast([], 3)


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


def _ar_forecast_by_list(m, window, steps):
    """The recursion on a Python list, oldest first: the reference for the buffer."""
    buf = list(window[-m.p:])
    out = np.empty(steps)
    for h in range(steps):
        nxt = m.intercept + float(np.dot(m.coef, buf[::-1]))
        out[h] = nxt
        buf.pop(0)
        buf.append(nxt)
    return out


@pytest.mark.parametrize("p", range(1, 6))
def test_ar_forecast_equals_the_list_recursion(p):
    rng = spawn_rng(p, "ar-forecast")
    for steps in range(1, 61):
        m = ArPredictor(p=p, coef=rng.normal(0.0, 0.4, size=p), intercept=float(rng.normal()))
        window = rng.normal(0.0, 3.0, size=p + int(rng.integers(1, 40)))
        assert np.array_equal(m.forecast(window, steps), _ar_forecast_by_list(m, window, steps))


def test_ar_zero_variance_falls_back():
    m = ArPredictor.fit(np.full(100, 7.0), 3)
    assert isinstance(m, ConstantPredictor)
    assert np.array_equal(m.forecast(np.zeros(5), 3), np.full(3, 7.0))


def test_ar_short_history_rejected():
    with pytest.raises(PredictorError):
        ArPredictor.fit(np.arange(6.0), 2)


def test_ar_order_below_one_rejected():
    with pytest.raises(PredictorError, match="^p must be at least 1$"):
        ArPredictor.fit(ar1(300, 0.5, 0.0, seed=1), 0)


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


def _forecast_reference(m: ArimaPredictor, window: np.ndarray, steps: int) -> np.ndarray:
    """The forecast as it undid differencing with a list of seeds, each the
    previous one differenced once, and a work copy."""
    w = np.diff(window, n=m.d) if m.d else window.copy()
    centered = list(w - m.intercept)
    errs = list(css_innovations(w, m.phi, m.theta, m.intercept))
    future = np.empty(steps)
    for h in range(steps):
        val = 0.0
        for i, ph in enumerate(m.phi):
            val += ph * centered[-1 - i]
        for j, th in enumerate(m.theta):
            val += th * errs[-1 - j]
        future[h] = val
        centered.append(val)
        errs.append(0.0)
    fc = future + m.intercept
    if m.d == 0:
        return fc
    seeds = [window.copy()]
    for _ in range(1, m.d):
        seeds.append(np.diff(seeds[-1]))
    work = fc.copy()
    for k in range(m.d - 1, -1, -1):
        work = np.cumsum(work) + seeds[k][-1]
    return work


@pytest.mark.parametrize("d", [1, 2])
def test_arima_forecast_undoes_differencing_as_the_seed_recursion(d):
    m = ArimaPredictor(p=2, d=d, q=1, phi=np.array([0.41, -0.23]), theta=np.array([0.37]),
                       intercept=0.13, sigma2=1.0)
    window = np.cumsum(np.cumsum(spawn_rng(d, "integrated").normal(0.0, 1.0, 40)))
    for steps in range(1, 11):
        assert np.array_equal(m.forecast(window, steps), _forecast_reference(m, window, steps))


def test_arima_intercept_only_is_mean():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0])
    m = ArimaPredictor.fit(x, order=(0, 0, 0))
    assert m.intercept == pytest.approx(np.mean(x))
    assert np.allclose(m.forecast(x, 2), np.full(2, np.mean(x)))


def test_arima_auto_prefers_differencing_on_ramp():
    rng = spawn_rng(0, "ramp")
    x = 0.5 * np.arange(400) + rng.normal(0.0, 0.5, 400)
    m = ArimaPredictor.fit(x, "auto")
    assert m.auto
    assert m.d >= 1


def test_arima_auto_deterministic():
    rng = spawn_rng(5, "det")
    x = rng.normal(0.0, 1.0, 200)
    a = ArimaPredictor.fit(x, "auto")
    b = ArimaPredictor.fit(x, "auto")
    assert (a.p, a.d, a.q) == (b.p, b.d, b.q)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.theta, b.theta)
    assert (a.intercept, a.aicc) == (b.intercept, b.aicc)


def _fit_bits(m):
    """Everything a fitted order is chosen and forecasts by, as comparable values."""
    return (m.p, m.d, m.q), m.phi.tobytes(), m.theta.tobytes(), m.intercept, m.sigma2, m.aicc


def _fits_sha256(fits):
    h = hashlib.sha256()
    for order, phi, theta, *scalars in map(_fit_bits, fits):
        h.update(repr(order).encode() + phi + theta + struct.pack("<3d", *scalars))
    return h.hexdigest()


# the serial search's fits on each fixture below; a change to any bit of any fit fails
ORDER_SEARCH_SHA256 = {
    "det": "9f50300594c54c93202c9c35ed2f65c3be29ab0fbae615e13805787e74c253ea",
    "ramp": "bbd7452c9500fa1fd379b3e653c948425f58c57fdd84bbfeef671d0d507f392b",
}


@pytest.mark.parametrize("name, history", [
    ("det", lambda: spawn_rng(5, "det").normal(0.0, 1.0, 200)),
    ("ramp", lambda: 0.5 * np.arange(400) + spawn_rng(0, "ramp").normal(0.0, 0.5, 400)),
], ids=["det", "ramp"])
def test_pooled_order_search_equals_the_serial_one(monkeypatch, name, history):
    """The fixtures of the two tests above; every order of the search."""
    items = _auto_items(history())
    serial = [ArimaPredictor._fit_order(item) for item in items]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = pool_map(ArimaPredictor._fit_order, items)
    assert multiprocessing.active_children() == []
    assert [_fit_bits(m) for m in pooled] == [_fit_bits(m) for m in serial]
    assert _fits_sha256(serial) == ORDER_SEARCH_SHA256[name]


def test_pool_map_runs_serially_on_one_cpu_and_in_a_daemonic_worker(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created")

    ctx = multiprocessing.get_context("fork")
    monkeypatch.setattr(ctx, "Pool", no_pool)
    items = [-3, 1, -2, 5]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert pool_map(abs, items) == [3, 1, 2, 5]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    got, sent = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=lambda: sent.send(pool_map(abs, items)), daemon=True)
    worker.start()
    assert got.poll(60)
    assert got.recv() == [3, 1, 2, 5]
    worker.join(60)
    assert worker.exitcode == 0


# `pool.py` loaded alone by path (it needs only the standard library), one
# idle thread started so that the process forks with more than one thread
POOL_WITH_A_THREAD = """\
import importlib.util, multiprocessing, os, sys, threading, time
spec = importlib.util.spec_from_file_location("pool_under_test", sys.argv[1])
pool = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = pool
spec.loader.exec_module(pool)
os.sched_getaffinity = lambda pid: {0, 1}
threading.Thread(target=threading.Event().wait, daemon=True).start()
print(threading.active_count(), pool.pool_map(lambda x: 2 * x, [1, 2, 3]))


def first_fails(x):
    if x == 0:
        raise KeyError("first")
    time.sleep(30)


start = time.perf_counter()
try:
    pool.pool_map(first_fails, [0, 1, 2])
except KeyError as exc:
    print(repr(exc), time.perf_counter() - start < 5, multiprocessing.active_children())
"""


def test_pool_forks_a_threaded_process_with_deprecation_warnings_as_errors():
    """From Python 3.12, forking a process with more than one thread warns
    (DeprecationWarning); the pool must still map, and fail at its first
    failed item, under ``-W error``."""
    pool_py = Path(predictors.__file__).with_name("pool.py")
    out = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c",
                          POOL_WITH_A_THREAD, str(pool_py)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "2 [2, 4, 6]\nKeyError('first') True []\n"


def _first_fails(x):
    if x == 0:
        raise KeyError("first")
    time.sleep(30)


def test_pool_map_raises_its_first_failure_without_waiting_for_later_items(monkeypatch):
    """On two CPUs and on one, the first item's exception is raised at once
    and no worker is left; the later items would each sleep 30 s."""
    raised = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        start = time.perf_counter()
        with pytest.raises(KeyError) as exc:
            pool_map(_first_fails, [0, 1, 2])
        assert time.perf_counter() - start < 5
        assert multiprocessing.active_children() == []
        raised.append((type(exc.value), str(exc.value)))
    assert raised == [(KeyError, "'first'")] * 2


def test_arima_fit_auto_is_the_configs_search(monkeypatch):
    """``"auto"`` as the order asks for the search that the config's default
    arima spec makes, and gives its model."""
    for name, most in (("MAX_P", 2), ("MAX_D", 1), ("MAX_Q", 1)):  # the benchmark's small search
        monkeypatch.setattr(predictors, name, most)
    x = ar1(200, 0.6, 1.0, seed=13)
    a, b = ArimaPredictor.fit(x, "auto"), fit_predictor({"kind": "arima"}, x)
    assert (a.p, a.d, a.q) == (b.p, b.d, b.q)
    assert np.array_equal(a.phi, b.phi) and np.array_equal(a.theta, b.theta)
    assert (a.intercept, a.sigma2, a.aicc) == (b.intercept, b.sigma2, b.aicc)


def test_order_search_errors_reach_the_caller_and_leave_no_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def broken(*args):
        raise RuntimeError("filter failed")

    monkeypatch.setattr(predictors, "css_innovations", broken)
    with pytest.raises(RuntimeError, match="filter failed"):
        ArimaPredictor.fit(ar1(30, 0.5, 0.0, seed=2), "auto")
    assert multiprocessing.active_children() == []


def test_arima_fit_does_not_depend_on_the_blas_thread_count(tmp_path,
                                                           outputs_per_blas_thread_count):
    """An ARMA(1,1) fit on 14,000 points, past the 10,000 from which
    OpenBLAS splits a dot product, gives the same bytes with one and with
    two OpenBLAS threads."""
    rng = spawn_rng(11, "arma11")
    e = rng.normal(0.0, 1.0, 14_000)
    x = np.empty_like(e)
    x[0] = e[0]
    for i in range(1, len(e)):
        x[i] = 0.6 * x[i - 1] + e[i] + 0.3 * e[i - 1]
    np.save(tmp_path / "x.npy", x)
    code = ("import sys, numpy as np\n"
            "from predcomp.predictors import ArimaPredictor\n"
            "m = ArimaPredictor.fit(np.load(sys.argv[1]), (1, 0, 1))\n"
            "print(m.phi.tobytes().hex(), m.theta.tobytes().hex(), "
            "repr((m.intercept, m.sigma2, m.aicc)))\n")
    outs = outputs_per_blas_thread_count(code, str(tmp_path / "x.npy"))
    assert outs[0] == outs[1]


def test_arima_zero_variance_falls_back():
    assert isinstance(ArimaPredictor.fit(np.full(50, 3.0), order=(1, 0, 0)),
                      ConstantPredictor)


def _model_bits(m):
    """A fitted model's type and fields, its arrays as bytes."""
    return type(m), {k: v.tobytes() if isinstance(v, np.ndarray) else v
                     for k, v in vars(m).items()}


@pytest.mark.parametrize("fit", [lambda h: ArPredictor.fit(h, 2),
                                 lambda h: ArimaPredictor.fit(h, (1, 0, 0))],
                         ids=["ar2", "arima100"])
def test_zero_variance_fallback_refits_its_own_model(fit):
    """After a detection, the fallback of a constant training prefix refits
    the configured model on the varying tail, not another constant."""
    values = np.concatenate([np.full(200, 4.0), ar1(300, 0.5, 4.0, seed=12)])
    flat = fit(values[:200])
    assert isinstance(flat, ConstantPredictor) and flat == ConstantPredictor(4.0)
    new, refitted = refit_after_detection(flat, values, located=200)
    assert refitted and _model_bits(new) == _model_bits(fit(values[200:]))
    again = flat.refit(np.full(100, 2.0))  # still constant: a fallback that refits the same way
    assert again == ConstantPredictor(2.0)
    assert _model_bits(again.refit(values[200:])) == _model_bits(new)
    assert ConstantPredictor(4.0).refit(values[200:]) == ConstantPredictor(values[-1])


def test_ar_fit_does_not_depend_on_the_blas_thread_count(tmp_path,
                                                        outputs_per_blas_thread_count):
    """AR(20) fits on 60,000 points, a design far past `DOT_CHUNK` rows,
    give the same bytes with one and with two OpenBLAS threads."""
    for seed in range(3):
        np.save(tmp_path / f"x{seed}.npy", ar1(60_000, 0.7, 2.0, seed=seed))
    code = ("import sys, numpy as np\n"
            "from predcomp.predictors import ArPredictor\n"
            "for path in sys.argv[1:]:\n"
            "    m = ArPredictor.fit(np.load(path), 20)\n"
            "    print(m.coef.tobytes().hex(), repr(m.intercept))\n")
    outs = outputs_per_blas_thread_count(code, *(str(tmp_path / f"x{s}.npy") for s in range(3)))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("x", [ar1(20_000, 0.7, 2.0, seed=3), np.tile([0.0, 1.0, 3.0], 4000)],
                         ids=["ar1", "periodic"])
def test_ar_fit_beyond_dot_chunk_solves_the_least_squares_problem(x):
    """Past `DOT_CHUNK` rows the fit is lstsq's on the design up to rounding,
    a rank-deficient design (a period of 3 under AR(3)) included."""
    m = ArPredictor.fit(x, 3)
    design = np.column_stack([np.ones(len(x) - 3)] + [x[2 - j:len(x) - 1 - j] for j in range(3)])
    beta, *_ = np.linalg.lstsq(design, x[3:], rcond=None)
    assert np.allclose(np.r_[m.intercept, m.coef], beta, rtol=1e-9, atol=1e-12)


ORDERS = [(p, d, q) for p in range(MAX_P + 1) for d in range(MAX_D + 1) for q in range(MAX_Q + 1)]


def test_each_order_is_admitted_from_its_minimum_length():
    """``fit`` takes an order from max(MIN_FIT, d + p + q + 4) points and
    refuses it one point earlier; at each such length, the order search
    admits exactly the orders that ``fit`` takes."""
    x = ar1(MIN_FIT + MAX_P + MAX_D + MAX_Q + 4, 0.5, 1.0, seed=13)
    need = {}
    for order in ORDERS:
        need[order] = max(MIN_FIT, sum(order) + 4)
        assert isinstance(ArimaPredictor.fit(x[:need[order]], order), ArimaPredictor)
        with pytest.raises(PredictorError, match=re.escape(f"history too short for ARIMA{order}")):
            ArimaPredictor.fit(x[:need[order] - 1], order)
    for n in sorted(set(need.values())):
        admitted = [(p, d, q) for _, p, d, q in _auto_items(x[:n])]
        assert sorted(admitted) == [o for o in ORDERS if need[o] <= n]
    assert _auto_items(x[:MIN_FIT - 1]) == []


@pytest.mark.parametrize("history", [np.empty(0), np.full(5, 3.0)], ids=["empty", "constant-5"])
@pytest.mark.parametrize("order", [(1, 0, 0), "auto"], ids=["order", "auto"])
def test_arima_checks_the_length_before_the_zero_variance_fallback(history, order):
    with pytest.raises(PredictorError, match="^history too short for"):
        ArimaPredictor.fit(history, order)


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
    assert np.array_equal(ArimaPredictor.fit(x, np.array([1, 0, 0])).phi, m.phi)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_kind_refuses_a_non_finite_window(bad):
    from predcomp.config import PREDICTORS
    from predcomp.lstm import LstmPredictor, init_lstm
    x = ar1(300, 0.5, 1.0, seed=8)
    models = [NaivePredictor(), MeanPredictor(), ConstantPredictor(1.0), ArPredictor.fit(x, 2),
              ArimaPredictor.fit(x, (1, 0, 1)), LstmPredictor(init_lstm(6, 3, hidden=4, seed=2))]
    assert {m.kind for m in models} == set(PREDICTORS) | {"constant"}
    window = np.arange(30.0)
    window[-2] = bad
    for m in models:
        with pytest.raises(PredictorError, match=r"^history contains non-finite values$"):
            m.forecast(window, 3)


def test_refit_after_detection_keeps_short_history():
    x = ar1(300, 0.5, 0.0, seed=9)
    m = ArPredictor.fit(x, 2)
    same, refitted = refit_after_detection(m, x, located=280, min_history=50)
    assert not refitted and same is m
    new, refitted = refit_after_detection(m, x, located=100, min_history=50)
    assert refitted and new is not m


@pytest.mark.parametrize("tail", range(MIN_FIT, 12))
def test_refit_after_detection_keeps_the_predictor_whose_refit_fails(tail):
    """AR(5) needs 12 points: a tail of MIN_FIT to 11 points passes the
    history check at min_history 0, and the refit raises."""
    x = ar1(300, 0.5, 0.0, seed=9)
    m = ArPredictor.fit(x, 5)
    with pytest.raises(PredictorError, match="too short"):
        m.refit(x[-tail:])
    kept, replaced = refit_after_detection(m, x, located=len(x) - tail, min_history=0)
    assert kept is m and not replaced


def test_arima_refit_at_a_fixed_order_is_a_fit_of_the_tail():
    x = ar1(300, 0.5, 1.0, seed=10)
    tail = x[120:]
    assert ArimaPredictor.fit(x, (1, 0, 1)).refit(tail) == ArimaPredictor.fit(tail, (1, 0, 1))


def test_arima_refit_of_a_searched_model_searches_again(monkeypatch):
    for name, most in (("MAX_P", 2), ("MAX_D", 1), ("MAX_Q", 1)):  # the benchmark's small search
        monkeypatch.setattr(predictors, name, most)
    x = ar1(300, 0.5, 1.0, seed=11)
    tail = x[150:]
    refitted, fresh = ArimaPredictor.fit(x, "auto").refit(tail), ArimaPredictor.fit(tail, "auto")
    assert refitted.auto
    for name, value in vars(fresh).items():
        assert np.array_equal(getattr(refitted, name), value), name


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
        got, want = np.array(_pacf_list(pacf.tolist())), _pacf_to_coef_numpy(pacf)
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


@pytest.mark.parametrize("objective", ["smooth", "stair"])
def test_nelder_mead_matches_scipy_at_every_limit(objective):
    # maxfev 1..80 stops the run inside the initial simplex and inside each kind
    # of step: the smooth objective reflects, expands and contracts both ways
    # within 80 evaluations, the staircase also shrinks (from its 13th); a
    # convex objective never shrinks.  maxiter 1..20 stops it after each of
    # its first iterations.
    if objective == "smooth":
        f, x0 = _seeded_objective(3, 3)
    else:
        f, x0 = (lambda x: float(np.floor(4.0 * np.sum(x ** 2)))), np.array([0.3, 0.0, -1.2])
    limits = [(maxfev, 4000) for maxfev in range(1, 81)]
    limits += [(8000, maxiter) for maxiter in range(1, 21)]
    for maxfev, maxiter in limits:
        options = dict(NM_OPTIONS, maxfev=maxfev, maxiter=maxiter)
        got = _nelder_mead(f, x0, **options)
        want = _scipy_nelder_mead(f, x0, **options)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1], (maxfev, maxiter)


def test_nelder_mead_matches_scipy_where_fatol_decides():
    # steep enough that the simplex is within xatol long before its values
    # are within fatol, so the function-value test ends the run
    f, x0 = _seeded_objective(3, 3)
    got = _nelder_mead(lambda x: 1e12 * f(x), x0, **NM_OPTIONS)
    want = _scipy_nelder_mead(lambda x: 1e12 * f(x), x0, **NM_OPTIONS)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


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
    m = ArimaPredictor._fit_order((_differenced(x, d), p, d, q))
    phi, theta, intercept, sigma2, aicc = _fit_order_scipy(x, p, d, q)
    assert np.array_equal(m.phi, phi) and np.array_equal(m.theta, theta)
    assert (m.intercept, m.sigma2, m.aicc) == (intercept, sigma2, aicc)
