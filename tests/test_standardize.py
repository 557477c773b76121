import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from predcomp.seeding import spawn_rng
from predcomp.series import CpLabel, LabeledSeries
from predcomp.standardize import (DOT_CHUNK, LAM_FLOOR, OnlineStandardizer, TrendFit,
                                  TrendNotEstimable, estimate_trend, standardize)


def test_estimate_trend_exact_power_law():
    # increments of t^2 give cumulative t^2, so nu + 1 = 2 exactly
    n = 5000
    t = np.arange(n, dtype=float)
    fit = estimate_trend(2.0 * t + 1.0)
    assert fit.nu == pytest.approx(1.0, abs=1e-12)
    assert fit.slope == pytest.approx(2.0, rel=1e-2)


def test_estimate_trend_exponent_identity():
    # nu_hat + 1 is the OLS slope (intercept fitted) of ln L(0, s) on ln s
    # over the times s with a positive cumulative count
    rng = spawn_rng(0, "trend")
    x = rng.poisson(4.0, 3000).astype(float)
    fit = estimate_trend(x)
    cum = np.cumsum(x)
    s = np.arange(1, 3001, dtype=float)[cum > 0]
    slope, _ = np.polyfit(np.log(s), np.log(cum[cum > 0]), 1)
    assert fit.nu + 1.0 == pytest.approx(slope, abs=1e-10)


def test_estimate_trend_known_bias_on_flat_rate():
    # flat rate b: cumulative b*t, whose log-log line has slope 1 for every
    # b, so no bias of ln(b)/ln(t) remains at finite length
    n = 50000
    for rate in (1.0, 4.0):
        assert estimate_trend(np.full(n, rate)).nu == pytest.approx(0.0, abs=1e-12)
    # scaling the counts moves only the intercept, never the exponent
    rng = spawn_rng(1, "trend")
    x = rng.poisson(4.0, n).astype(float)
    nu = estimate_trend(x).nu
    for c in (0.25, 3.0, 1000.0):
        assert estimate_trend(c * x).nu == pytest.approx(nu, abs=1e-12)


def test_rate1_scores_standard():
    rng = spawn_rng(0, "r1")
    x = rng.poisson(1.0, 50000).astype(float)
    res = standardize(LabeledSeries(x), t0=0)
    tail = res.scores.values[25000:]
    assert abs(res.fit.nu) < 0.01
    assert abs(np.mean(tail)) < 0.05
    assert np.var(tail) == pytest.approx(1.0, abs=0.1)
    assert res.flagged == []


def test_labels_carried_through():
    s = LabeledSeries(np.arange(1.0, 101.0), [CpLabel(40, "K", "A")])
    res = standardize(s)
    assert res.scores.cp_labels == s.cp_labels


def test_trend_not_estimable_cases():
    with pytest.raises(TrendNotEstimable):
        estimate_trend(np.array([5.0]))
    with pytest.raises(TrendNotEstimable):
        estimate_trend(np.zeros(100))  # cumulative count not positive
    with pytest.raises(TrendNotEstimable):
        estimate_trend(np.ones(100), t0=99)
    with pytest.raises(ValueError):
        estimate_trend(np.ones(10), t=20)


def test_trend_needs_two_positive_cumulative_counts():
    # one positive L(t0, s) in the range leaves the log-log line undefined
    with pytest.raises(TrendNotEstimable, match="fewer than two"):
        estimate_trend(np.r_[np.zeros(99), 3.0])
    fit = estimate_trend(np.r_[np.zeros(98), 3.0, 3.0])
    assert fit.nu == pytest.approx(np.log(2.0) / np.log(100 / 99) - 1.0)
    # counts before t0 do not enter L(t0, s)
    with pytest.raises(TrendNotEstimable, match="fewer than two"):
        estimate_trend(np.r_[np.ones(50), 0.0, 3.0], t0=50)


def test_identity_fallback_flags_everything():
    res = standardize(np.zeros(50))
    assert np.array_equal(res.scores.values, np.zeros(50))
    assert res.fit is None
    assert res.flagged == list(range(50))


def test_floor_clamps_scores_to_zero():
    # decaying fit can push lam_hat below the floor at early times; force
    # it with a fit whose slope is tiny via a handcrafted series
    vals = np.concatenate([np.zeros(10), np.full(10, 1e-12)])
    res = standardize(vals)
    if res.fit is not None:
        lam = res.fit.lam(np.arange(1, 21))
        clamped = [i for i in range(20) if lam[i] < LAM_FLOOR]
        assert set(clamped) <= set(res.flagged)
        for i in clamped:
            assert res.scores.values[i] == 0.0


def test_online_matches_offline_at_final_step():
    rng = spawn_rng(2, "onoff")
    x = rng.poisson(5.0, 400).astype(float)
    off = standardize(x, mode="offline")
    on = standardize(x, mode="online")
    assert on.scores.values[-1] == off.scores.values[-1]
    assert on.fit.nu == off.fit.nu


def test_streaming_wrapper_matches_online_mode():
    rng = spawn_rng(2, "onoff")
    x = rng.poisson(5.0, 300).astype(float)
    on = standardize(x, mode="online")
    st = OnlineStandardizer(t0=0)
    zs = np.array([st.push(v) for v in x])
    assert np.array_equal(zs, on.scores.values)
    assert st.flagged == on.flagged


def test_online_early_steps_flagged():
    on = standardize(np.array([2.0, 3.0, 4.0]), mode="online")
    # first step cannot be fitted (needs two points past t0)
    assert 0 in on.flagged
    assert on.scores.values[0] == 2.0


def test_t0_restricts_the_window():
    rng = spawn_rng(4, "t0")
    x = rng.poisson(3.0, 1000).astype(float)
    full = estimate_trend(x, t0=0)
    late = estimate_trend(x, t0=500)
    assert full.t0 == 0 and late.t0 == 500
    assert full.nu != late.nu


def test_divergent_tail_raises_score_mean():
    # ramp after a long flat stretch: standardized mean over the ramp
    # exceeds the mean over the flat part
    rng = spawn_rng(6, "ramp")
    flat = rng.poisson(5.0, 1500).astype(float)
    ramp_rate = 5.0 + 0.05 * np.arange(500)
    ramp = rng.poisson(ramp_rate).astype(float)
    res = standardize(np.concatenate([flat, ramp]))
    z = res.scores.values
    assert np.mean(z[1500:]) > np.mean(z[:1500])


def test_mode_validation():
    with pytest.raises(ValueError):
        standardize(np.ones(10), mode="batch")


@pytest.mark.parametrize("mode", ["offline", "online", "streaming"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_count_rejected(mode, bad):
    # a NaN would give identity scores and an inf a RuntimeWarning
    x = spawn_rng(3, "nonfinite").poisson(5.0, 60).astype(float)
    x[20] = bad
    with pytest.raises(ValueError, match=r"index 20 is not finite"):
        if mode == "streaming":
            st = OnlineStandardizer()
            for v in x:
                st.push(v)
        else:
            standardize(LabeledSeries(x), mode=mode)


# The per-step loop the online mode ran before its fit step wrote into
# reused work rows: the terms built with fresh arrays, a fit at every s with
# fresh temporaries, then one score at a time.  The exponent comes from
# Welford's co-moment recursion, transcribed here in plain Python floats, and
# the dot products follow the chunk rule below.  The online mode, the
# streaming wrapper and the offline scores must equal it bit for bit.

def _reference_dot(a: np.ndarray, b: np.ndarray) -> float:
    # np.dot on chunks of at most 8,192 elements, added left to right: no
    # chunk reaches the 10,000 elements from which OpenBLAS splits a dot
    # product across its threads
    if len(a) <= 8192:
        return float(np.dot(a, b))
    total = 0.0
    for i in range(0, len(a), 8192):
        total += float(np.dot(a[i:i + 8192], b[i:i + 8192]))
    return total


def _reference_terms(values: np.ndarray, t0: int):
    x = values[t0:]
    log_s = np.log(np.arange(t0 + 1, t0 + len(x) + 1, dtype=float))
    cum = np.cumsum(x)
    kept = cum > 0
    c_xx, c_xy = [], []
    mx = my = sxx = sxy = 0.0
    for j, (a, b) in enumerate(zip(log_s[kept].tolist(), np.log(cum[kept]).tolist()), 1):
        da = a - mx
        mx += da / j
        my += (b - my) / j
        sxx += da * (a - mx)
        sxy += da * (b - my)
        c_xx.append(sxx)
        c_xy.append(sxy)
    return x, log_s, np.cumsum(kept), c_xx, c_xy


def _reference_fit(terms, t0: int, t: int) -> TrendFit | None:
    if t <= t0 + 1 or t < 2:
        return None
    x, log_s, n_kept, c_xx, c_xy = terms
    m = t - t0
    k = int(n_kept[m - 1])
    if k < 2:
        return None
    nu = c_xy[k - 1] / c_xx[k - 1] - 1.0
    u = np.exp(nu * log_s[:m])
    denom = _reference_dot(u, u)
    if denom <= 0 or not np.isfinite(denom):
        return None
    slope = _reference_dot(x[:m], u) / denom
    return TrendFit(nu, slope, t0, t) if np.isfinite(slope) else None


def _reference_score(x: float, lam: float, flags: list[int], idx: int) -> float:
    if not np.isfinite(lam) or lam < LAM_FLOOR:
        flags.append(idx)
        return 0.0
    return (x - lam) / np.sqrt(lam)


@pytest.mark.parametrize("lam", [None, np.nan, np.inf, -2.0, np.nextafter(LAM_FLOOR, 0.0),
                                 LAM_FLOOR, 3.7],
                         ids=["no-trend", "nan", "inf", "negative", "below-floor", "floor",
                              "regular"])
def test_score_follows_the_reference_on_every_branch(lam):
    """The one per-time rule scores as the numpy reference: the raw value
    where no trend is fitted, and otherwise `_reference_score`."""
    module = sys.modules["predcomp.standardize"]
    for x in (0.0, 4.0, -3.5, 1e-12, 7919.0):
        flags = []
        want = x if lam is None else _reference_score(np.float64(x), np.float64(lam), flags, 0)
        assert module._score(x, lam) == (want, lam is None or flags == [0])


def _reference_online(values: np.ndarray, t0: int):
    terms = _reference_terms(values, t0)
    scores, flags = np.empty(len(values)), []
    for i in range(len(values)):
        fit = _reference_fit(terms, t0, i + 1)
        if fit is None:
            scores[i] = values[i]
            flags.append(i)
        else:
            scores[i] = _reference_score(values[i], float(fit.lam(i + 1)), flags, i)
    return scores, flags


def _reference_offline(values: np.ndarray, t0: int):
    n = len(values)
    fit = _reference_fit(_reference_terms(values, t0), t0, n)
    if fit is None:
        return values.copy(), list(range(n))
    lam, flags = fit.lam(np.arange(1, n + 1)), []
    return np.array([_reference_score(values[i], lam[i], flags, i) for i in range(n)]), flags


def _reference_streams() -> dict:
    rng = spawn_rng(11, "reference")
    streams = {
        "leading-zeros": (np.r_[np.zeros(30), rng.poisson(2.0, 600)], 0),
        "t0": (rng.poisson(3.0, 600), 40),
        "t0-leading-zeros": (np.r_[np.zeros(60), rng.poisson(0.5, 400)], 25),
        # slope about 1e-12 over the tiny values, so lam falls below the floor
        "below-floor": (np.r_[np.zeros(10), np.full(10, 1e-12), rng.poisson(1.0, 80)], 0),
        # L(0, s) = 1 after the lone count: nu_hat is exactly -1, where numpy
        # takes s ** nu as 1/s
        "lone-count": (np.r_[np.zeros(5), 1.0, np.zeros(300)], 0),
        # L(0, s) falls to 0 and rises again, so the kept times have a gap
        "negative-counts": (np.r_[2.0, -3.0, rng.poisson(1.0, 300)], 0),
        # past the 10,000 elements from which OpenBLAS splits a dot product
        "long": (rng.poisson(4.0 + 0.001 * np.arange(12000)), 0),
    }
    return {name: (np.asarray(x, dtype=float), t0) for name, (x, t0) in streams.items()}


STREAMS = _reference_streams()


@pytest.mark.parametrize("name", list(STREAMS))
def test_online_mode_matches_the_per_step_reference(name):
    x, t0 = STREAMS[name]
    want_scores, want_flags = _reference_online(x, t0)
    on = standardize(x, t0=t0, mode="online")
    assert np.array_equal(on.scores.values, want_scores)
    assert on.flagged == want_flags
    st = OnlineStandardizer(t0=t0)
    assert np.array_equal([st.push(v) for v in x], want_scores)
    assert st.flagged == want_flags
    assert st.fit == on.fit


def test_streaming_wrapper_appends_its_terms(monkeypatch):
    """A push extends the terms of the pushes before it: it builds no terms
    and fits no trend over the whole buffer, and its terms and scores are
    the online mode's bit for bit.  The third stream's L reaches 9170, the
    first integer whose ``math.log`` differs from ``np.log``."""
    module = sys.modules["predcomp.standardize"]
    streams = [STREAMS["t0-leading-zeros"], STREAMS["negative-counts"],
               (np.r_[9169.0, np.ones(40)], 0)]
    for x, t0 in streams:
        on = standardize(x, t0=t0, mode="online")
        want = module._trend_terms(x, t0)

        def rebuilt(*args, **kwargs):
            raise AssertionError("push rebuilt its prefix")

        with monkeypatch.context() as patch:
            patch.setattr(module, "estimate_trend", rebuilt)
            patch.setattr(module, "_trend_terms", rebuilt)
            st = OnlineStandardizer(t0=t0)
            assert np.array_equal([st.push(v) for v in x], on.scores.values)
        assert st.flagged == on.flagged
        assert st.fit == on.fit
        assert len(st._terms) == len(want)  # x, ln s, n_kept, C_xx and C_xy
        for row, terms in zip(st._terms, want):
            assert np.array_equal(row[:len(terms)], terms)


def test_short_online_standardization_imports_no_multiprocessing():
    """A stream of at most one dot chunk runs serially, so it pays no
    ``multiprocessing`` import."""
    code = ("import sys, numpy as np\n"
            "from predcomp.standardize import standardize\n"
            "standardize(np.arange(100.0), mode='online')\n"
            "print('multiprocessing' in sys.modules)\n")
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_reference_streams_reach_their_cases():
    x, t0 = STREAMS["below-floor"]
    scores, flags = _reference_online(x, t0)
    assert any(scores[i] == 0.0 and x[i] != 0.0 for i in flags)  # clamped, not identity
    assert standardize(STREAMS["lone-count"][0], mode="online").fit.nu == -1.0
    kept = np.cumsum(STREAMS["negative-counts"][0]) > 0
    assert kept[0] and not kept[1] and kept[-1]
    assert len(STREAMS["long"][0]) > 10_000


def _step_exponents(x: np.ndarray, t0: int) -> dict:
    """nu_hat of every fit of the streaming wrapper, by its end time."""
    st, nus = OnlineStandardizer(t0=t0), {}
    for i, v in enumerate(x):
        st.push(v)
        if st.fit is not None and st.fit.t == i + 1:
            nus[i + 1] = st.fit.nu
    return nus


@pytest.mark.parametrize("name", ["t0", "leading-zeros", "t0-leading-zeros"])
def test_exponent_is_the_exact_ols_slope(name):
    """At every 7th step, nu_hat + 1 is within 1e-12 of the OLS slope of
    ln L on ln s over the kept times, computed exactly in rationals from the
    same floats."""
    x, t0 = STREAMS[name]
    nus = _step_exponents(x, t0)
    log_s = np.log(np.arange(t0 + 1, len(x) + 1, dtype=float))
    cum = np.cumsum(x[t0:])
    k = sa = sb = saa = sab = Fraction(0)
    checked = 0
    for t, (a, c) in enumerate(zip(log_s.tolist(), cum.tolist()), t0 + 1):
        if c > 0:
            a, b = Fraction(a), Fraction(float(np.log(c)))
            k, sa, sb, saa, sab = k + 1, sa + a, sb + b, saa + a * a, sab + a * b
        if t % 7 == 0 and t in nus:
            exact = (k * sab - sa * sb) / (k * saa - sa * sa)
            assert abs(Fraction(nus[t]) + 1 - exact) <= 1e-12
            checked += 1
    assert checked > 50


def _centred_exponent(kept_log_s: np.ndarray, kept_log_cum: np.ndarray, k: int) -> float:
    # the exponent the fit step computed before the co-moments: both
    # coordinates centred on running-sum means, then two dot products
    dx = kept_log_s[:k] - np.cumsum(kept_log_s[:k])[-1] / k
    dy = kept_log_cum[:k] - np.cumsum(kept_log_cum[:k])[-1] / k
    return _reference_dot(dx, dy) / _reference_dot(dx, dx) - 1.0


@pytest.mark.parametrize("name", list(STREAMS))
def test_exponent_stays_within_the_centred_formula(name):
    """Every step's nu_hat is within 1e-11 of the centred formula's, and a
    constant L still gives exactly -1."""
    x, t0 = STREAMS[name]
    nus = _step_exponents(x, t0)
    log_s = np.log(np.arange(t0 + 1, len(x) + 1, dtype=float))
    cum = np.cumsum(x[t0:])
    kept = cum > 0
    kept_log_s, kept_log_cum, n_kept = log_s[kept], np.log(cum[kept]), np.cumsum(kept)
    assert nus
    for t, nu in nus.items():
        k = int(n_kept[t - t0 - 1])
        assert abs(nu - _centred_exponent(kept_log_s, kept_log_cum, k)) <= 1e-11
        if name == "lone-count":
            assert nu == -1.0


def test_a_fit_step_makes_two_dot_products(monkeypatch):
    """The exponent is read from the co-moments, so a fit makes only the
    slope's two dot products: in `estimate_trend`, at every online step and
    at every push that fits."""
    module = sys.modules["predcomp.standardize"]
    calls, dot = [], module.chunked_dot

    def counted(a, b):
        calls.append(len(a))
        return dot(a, b)

    monkeypatch.setattr(module, "chunked_dot", counted)
    x, t0 = STREAMS["t0"]
    estimate_trend(x, t0=t0)
    assert len(calls) == 2
    st, fitted = OnlineStandardizer(t0=t0), 0
    for i, v in enumerate(x):
        before = len(calls)
        st.push(v)
        fits = st.fit is not None and st.fit.t == i + 1
        fitted += fits
        assert len(calls) - before == 2 * fits
    assert fitted == len(x) - t0 - 1
    calls.clear()
    standardize(x, t0=t0, mode="online")
    assert len(calls) == 2 * fitted


@pytest.mark.parametrize("name", list(STREAMS))
def test_offline_scores_match_the_per_element_reference(name):
    x, t0 = STREAMS[name]
    want_scores, want_flags = _reference_offline(x, t0)
    off = standardize(x, t0=t0, mode="offline")
    assert np.array_equal(off.scores.values, want_scores)
    assert off.flagged == want_flags


def test_online_matches_offline_at_final_step_past_one_dot_chunk():
    x = STREAMS["long"][0]
    assert len(x) > DOT_CHUNK
    off = standardize(x, mode="offline")
    on = standardize(x, mode="online")
    assert on.scores.values[-1] == off.scores.values[-1]
    assert on.fit == off.fit


def test_pooled_online_equals_the_serial_one(monkeypatch):
    """The long reference stream on one, two and four forked workers scores
    as on one CPU, from t0 = 0 and from a later t0.  Its steps reach the
    pool as the same ranges on every CPU count, latest first, covering
    range(t0 + 1, n) once."""
    # the package's `standardize` attribute is the function, not the module
    module = sys.modules["predcomp.standardize"]
    calls, pool_map = [], module.pool_map
    x = STREAMS["long"][0]

    def counted(fn, items):
        calls.append(len(items))
        assert [i for steps in reversed(items) for i in steps] == list(range(t0 + 1, len(x)))
        return pool_map(fn, items)

    monkeypatch.setattr(module, "pool_map", counted)
    for t0 in (0, 40):
        runs = []
        for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            runs.append(standardize(x, t0=t0, mode="online"))
        assert multiprocessing.active_children() == []
        for res in runs[1:]:
            assert np.array_equal(res.scores.values, runs[0].scores.values)
            assert res.flagged == runs[0].flagged
            assert res.fit == runs[0].fit
    assert calls == [12] * 6


def test_online_scores_do_not_depend_on_the_blas_thread_count(tmp_path,
                                                                outputs_per_blas_thread_count):
    """The long reference stream, scored in two processes with one and with
    two OpenBLAS threads, gives the same bytes."""
    x, t0 = STREAMS["long"]
    np.save(tmp_path / "x.npy", x)
    code = ("import sys, numpy as np\n"
            "from predcomp.standardize import standardize\n"
            "res = standardize(np.load(sys.argv[1]), t0=int(sys.argv[2]), mode='online')\n"
            "print(res.scores.values.tobytes().hex(), res.flagged, repr(res.fit))\n")
    outs = outputs_per_blas_thread_count(code, str(tmp_path / "x.npy"), str(t0))
    assert outs[0] == outs[1]
