"""Forecasting models feeding the prediction-assisted chart.

All predictors implement the same contract: ``fit`` consumes a raw history
vector, ``forecast(window, steps)`` is a pure function of the fitted
parameters and the input window, and ``refit(history)`` re-estimates the
same specification on new data (used after a located change point).

The ARIMA family is fitted by conditional sum of squares: innovations are
filtered with zero initial conditions, and the Nelder-Mead search runs in
a transformed space (tanh plus the Durbin-Levinson recursion) that keeps
the AR polynomial stationary and the MA polynomial invertible.  The sum of
squares is :func:`predcomp.series.chunked_dot`, the dot that standardization
uses too, so a fit does not depend on the BLAS thread count.  The auto
order search scans p <= 5, d <= 2, q <= 5 by corrected AIC.  Its order
fits are independent, so the search maps them over up to one forked
worker per CPU (:func:`predcomp.pool.pool_map`, which ``run_grid`` also
uses for its units); the parent picks among them in the serial order, so
the chosen model is the serial one bit for bit.

The search is :func:`_nelder_mead`, an in-repo transcription of scipy's
``minimize(method="Nelder-Mead")``.  It keeps scipy's arithmetic
expressions, its argsort reorders (so ties fall as numpy's sort puts them)
and its maxiter/maxfev accounting, but runs them on array methods with
scipy's step coefficients written as the numbers they are, and calls the
objective directly, without scipy's per-call wrapper; the innovations come
from the compiled filter behind ``scipy.signal.lfilter``.  Fits are bit for
bit those of the scipy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .pool import pool_map
from .series import DOT_CHUNK, chunked_dot

MAX_P = 5
MAX_D = 2
MAX_Q = 5
#: fewest observations accepted by any model fit
MIN_FIT = 8


class PredictorError(ValueError):
    """Raised when a model cannot be fitted or applied."""


def _as_history(values) -> np.ndarray:
    x = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise PredictorError("history contains non-finite values")
    return x


# ---------------------------------------------------------------------------
# trivial predictors

@dataclass
class NaivePredictor:
    """Forecast = last observed value, repeated."""

    kind = "naive"

    def forecast(self, window, steps: int) -> np.ndarray:
        window = _as_history(window)
        if len(window) == 0:
            raise PredictorError("empty input window")
        return np.full(steps, window[-1])

    def refit(self, history) -> "NaivePredictor":
        return self


@dataclass
class MeanPredictor:
    """Forecast = mean of the input window, repeated."""

    kind = "mean"

    def forecast(self, window, steps: int) -> np.ndarray:
        window = _as_history(window)
        if len(window) == 0:
            raise PredictorError("empty input window")
        return np.full(steps, float(np.mean(window)))

    def refit(self, history) -> "MeanPredictor":
        return self


@dataclass
class ConstantPredictor:
    """Degenerate fallback for zero-variance histories.  A refit reruns
    ``fitted_by``, the fit that fell back to it, so the configured model comes
    back on a varying history; without one it is the history's last value."""

    value: float
    fitted_by: Callable | None = field(default=None, compare=False, repr=False)
    kind = "constant"

    def forecast(self, window, steps: int) -> np.ndarray:
        _as_history(window)
        return np.full(steps, self.value)

    def refit(self, history):
        if self.fitted_by is not None:
            return self.fitted_by(history)
        history = _as_history(history)
        return ConstantPredictor(float(history[-1]))


# ---------------------------------------------------------------------------
# autoregression by least squares

@dataclass
class ArPredictor:
    """AR(p) with intercept, fitted by ordinary least squares.

    A design of at most `DOT_CHUNK` rows is solved by ``np.linalg.lstsq``.
    On a longer one lstsq's bits depend on the BLAS thread count, so the fit
    solves the normal equations there: each entry is a
    :func:`predcomp.series.chunked_dot`, and lstsq takes the (p+1)x(p+1)
    system, so that a rank-deficient design (a periodic series) still gets
    its minimum-norm fit.  That squares the design's condition number.
    """

    p: int
    coef: np.ndarray | None = None
    intercept: float = 0.0
    kind = "ar"

    @classmethod
    def fit(cls, history, p: int) -> "ArPredictor | ConstantPredictor":
        history = _as_history(history)
        if p < 1:
            raise PredictorError("p must be at least 1")
        if len(history) < max(MIN_FIT, 2 * p + 2):
            raise PredictorError(f"history too short for AR({p})")
        if np.ptp(history) == 0:
            return ConstantPredictor(float(history[0]), partial(cls.fit, p=p))
        y = history[p:]
        cols = [np.ones(len(y))] + [history[p - j - 1:len(history) - j - 1] for j in range(p)]
        if len(y) <= DOT_CHUNK:
            beta, *_ = np.linalg.lstsq(np.column_stack(cols), y, rcond=None)
        else:
            gram = [[chunked_dot(a, b) for b in cols] for a in cols]
            beta, *_ = np.linalg.lstsq(gram, [chunked_dot(a, y) for a in cols], rcond=None)
        return cls(p, beta[1:].copy(), float(beta[0]))

    def forecast(self, window, steps: int) -> np.ndarray:
        window = _as_history(window)
        if len(window) < self.p:
            raise PredictorError(f"input window shorter than p={self.p}")
        # newest first: z[h] is forecast from the p values after it, the window's last
        z = np.empty(steps + self.p)
        z[steps:] = window[:-self.p - 1:-1]
        for h in range(steps - 1, -1, -1):
            z[h] = self.intercept + float(np.dot(self.coef, z[h + 1:h + 1 + self.p]))
        return z[steps - 1::-1]

    def refit(self, history):
        return ArPredictor.fit(history, self.p)


# ---------------------------------------------------------------------------
# ARIMA by conditional sum of squares

def _pacf_list(pacf: list[float]) -> list[float]:
    """Durbin-Levinson map from partial autocorrelations to AR coefficients.

    Runs on Python floats: at these lengths (p <= 5) that is faster than
    numpy slices.  Step k sets phi[i] = phi[i] - r * phi[k-1-i] for every
    i at once, in place, by mirrored pairs; each new value is the same
    multiply-then-subtract of two old values.
    """
    phi: list[float] = []
    for r in pacf:
        i, j = 0, len(phi) - 1
        while i < j:
            a, b = phi[i], phi[j]
            phi[i], phi[j] = a - r * b, b - r * a
            i += 1
            j -= 1
        if i == j:
            phi[i] -= r * phi[i]
        phi.append(r)
    return phi


_linear_filter = None


def _filter():
    """The compiled filter behind ``scipy.signal.lfilter``, imported on first
    use: scipy.signal costs about a second to load."""
    global _linear_filter
    if _linear_filter is None:
        try:
            from scipy.signal._sigtools import _linear_filter
        except ImportError:  # the private module moved; lfilter takes the same arguments
            from scipy.signal import lfilter as _linear_filter
    return _linear_filter


def css_innovations(w: np.ndarray, phi, theta, intercept: float) -> np.ndarray:
    """Innovations e_t of (1 - phi(L))(w_t - mu) = (1 + theta(L)) e_t.

    Zero initial conditions: pre-sample w - mu and e are taken as 0.
    ``phi`` and ``theta`` are float sequences (lists or arrays).  This is
    ``scipy.signal.lfilter(b, a, w - mu)`` without its argument checks:
    with no MA part it takes lfilter's own ``len(a) == 1`` path, a
    truncated convolution, and otherwise it calls the compiled filter
    that lfilter calls.
    """
    centered = w - intercept
    b = np.array([1.0] + [-c for c in phi])
    if len(theta) == 0:
        return np.convolve(b, centered)[:len(centered)]
    return _filter()(b, np.array([1.0] + list(theta)), centered, -1)


class _MaxFevReached(Exception):
    pass


def _nelder_mead(func, x0: np.ndarray, xatol: float, fatol: float, maxiter: int,
                 maxfev: int) -> tuple[np.ndarray, int]:
    """Minimize ``func`` from ``x0``; returns (x, number of evaluations).

    A transcription of scipy 1.17's ``minimize(func, x0,
    method="Nelder-Mead", options={...})`` for the non-adaptive, unbounded
    case: the same initial simplex, step expressions (scipy's coefficients
    come to 2, 3, 1.5 and 0.5), argsort/take reorders and maxiter/maxfev
    accounting, so x and the evaluation count are bit for bit scipy's.  A
    limit hit inside a step stores nothing of it, except that a shrink
    writes ``sim[j]`` before ``f(sim[j])`` raises: the rows it moved stay
    moved, as in scipy.  Both initial sorts stay, as numpy's default argsort
    is not stable on ties, so the second need not be the identity.  What
    differs is call overhead only: array methods in place of the
    ``np.take``/``np.argsort``/``np.max`` wrappers, and the convergence test
    asks first whether the sorted values span at most ``fatol``, which is
    scipy's value test (rounding is monotone, NaN sorts last), before it
    builds the simplex's spread.  ``func`` is called directly on a row or a
    fresh point, without scipy's per-call copy and result checks; it must
    return a float and must not modify its argument.
    """
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + nonzdelt) * x0[k] if x0[k] != 0 else zdelt
    fsim = np.full((N + 1,), np.inf, dtype=float)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFevReached
        nfev += 1
        return func(x)

    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _MaxFevReached:
        pass
    finally:
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    ind = fsim.argsort()
    fsim = fsim.take(ind, 0)
    sim = sim.take(ind, 0)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            best, worst = sim[0], sim[-1]
            # scipy's two tests, the cheap one first: sorted, the values'
            # largest distance from the best is their span
            if (fsim[-1] - fsim[0] <= fatol and
                    abs(sim[1:] - best).max() <= xatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = 2 * xbar - worst
            fxr = f(xr)
            doshrink = 0
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * worst
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            elif fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * worst
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = 1
                else:
                    xcc = 0.5 * xbar + 0.5 * worst
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = 1
                if doshrink:
                    for j in range(1, N + 1):
                        sim[j] = best + 0.5 * (sim[j] - best)
                        fsim[j] = f(sim[j])
            iterations += 1
        except _MaxFevReached:
            pass
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)
    return sim[0], nfev


def _differenced(history: np.ndarray, d: int) -> np.ndarray:
    return np.diff(history, n=d) if d else history.copy()


def _aicc(ssr: float, n: int, n_params: int) -> float:
    # n_params counts AR + MA coefficients plus intercept and variance; a
    # fitted order has n >= n_params + 2
    sigma2 = max(ssr / n, 1e-300)
    return n * np.log(sigma2) + 2 * n_params + 2 * n_params * (n_params + 1) / (n - n_params - 1)


@dataclass
class ArimaPredictor:
    p: int
    d: int
    q: int
    phi: np.ndarray
    theta: np.ndarray
    intercept: float
    sigma2: float
    aicc: float = np.nan
    auto: bool = False
    kind = "arima"

    @classmethod
    def fit(cls, history, order) -> "ArimaPredictor | ConstantPredictor":
        """CSS fit at the order (p, d, q), or the AICc scan when it is ``"auto"``.
        An order needs max(MIN_FIT, d + p + q + 4) points, a constant history
        too; the scan needs as many as its smallest order, (0, 0, 0)."""
        history = _as_history(history)
        auto = isinstance(order, str) and order == "auto"  # an array order compares by element
        p, d, q = (0, 0, 0) if auto else order
        if not (0 <= p <= MAX_P and 0 <= d <= MAX_D and 0 <= q <= MAX_Q):
            raise PredictorError(f"order {order} outside the supported grid")
        if len(history) < max(MIN_FIT, d + p + q + 4):
            raise PredictorError("history too short for "
                                 + ("the ARIMA order search" if auto else f"ARIMA{order}"))
        if np.ptp(history) == 0:
            return ConstantPredictor(float(history[0]), partial(cls.fit, order=order))
        if auto:
            return cls._fit_auto(history)
        return cls._fit_order((_differenced(history, d), p, d, q))

    @classmethod
    def _fit_order(cls, item: tuple) -> "ArimaPredictor":
        """CSS fit of one ``(w, p, d, q)``: ARIMA(p, d, q) on ``w``, the history
        differenced d times, which has at least p + q + 4 points."""
        w, p, d, q = item
        n = len(w)
        pq = p + q

        def model(raw: np.ndarray) -> tuple[list[float], list[float], float]:
            """(phi, theta, SSR) of a search point: its first p + q entries are
            the partial autocorrelations under tanh, its last the intercept."""
            coef = np.tanh(raw[:pq]).tolist()
            phi = _pacf_list(coef[:p])
            theta = [-c for c in _pacf_list(coef[p:])]
            e = css_innovations(w, phi, theta, raw[-1])
            return phi, theta, chunked_dot(e, e)

        def objective(raw: np.ndarray) -> float:
            ssr = model(raw)[2]
            return ssr if math.isfinite(ssr) else 1e12

        best = np.zeros(pq + 1)
        best[-1] = float(np.mean(w))  # the CSS optimum when p = q = 0
        if pq:
            best, _ = _nelder_mead(objective, best, xatol=1e-8, fatol=1e-8,
                                   maxiter=4000, maxfev=8000)
        phi, theta, ssr = model(best)
        return cls(p, d, q, np.array(phi), np.array(theta), float(best[-1]), ssr / n,
                   _aicc(ssr, n, pq + 2))

    @classmethod
    def _fit_auto(cls, history: np.ndarray) -> "ArimaPredictor":
        _filter()  # loaded once here, not once in each worker
        best = None
        for cand in pool_map(cls._fit_order, _auto_items(history)):
            if best is None or cand.aicc < best.aicc - 1e-10:
                best = cand
        best.auto = True
        return best

    def forecast(self, window, steps: int) -> np.ndarray:
        window = _as_history(window)
        if len(window) < self.d + max(self.p, self.q) + 1:
            raise PredictorError("input window too short for the fitted order")
        w = _differenced(window, self.d)
        centered = list(w - self.intercept)
        errs = list(css_innovations(w, self.phi, self.theta, self.intercept))
        future = np.empty(steps)
        for h in range(steps):
            val = 0.0
            for i, ph in enumerate(self.phi):
                val += ph * centered[-1 - i]
            for j, th in enumerate(self.theta):
                val += th * errs[-1 - j]
            future[h] = val
            centered.append(val)
            errs.append(0.0)  # future innovations are zero in expectation
        fc = future + self.intercept
        # undo the differencing, each level seeded by the window differenced k times
        for k in range(self.d - 1, -1, -1):
            fc = np.cumsum(fc) + _differenced(window, k)[-1]
        return fc

    def refit(self, history):
        return ArimaPredictor.fit(history, "auto" if self.auto else (self.p, self.d, self.q))


def _auto_items(history: np.ndarray) -> list[tuple]:
    """(differenced history, p, d, q) for every order the history is long
    enough for, in complexity order, so that an AICc tie resolves to the
    simplest model (smallest p+d+q, then smallest p).  From ``MIN_FIT``
    points on, (0, 0, 0) is among them."""
    orders = sorted(
        ((p, d, q) for p in range(MAX_P + 1) for d in range(MAX_D + 1)
         for q in range(MAX_Q + 1)),
        key=lambda o: (o[0] + o[1] + o[2], o[0], o[1], o[2]),
    )
    diffs = [_differenced(history, d) for d in range(MAX_D + 1)]
    return [(diffs[d], p, d, q) for p, d, q in orders
            if len(history) >= max(MIN_FIT, d + p + q + 4)]


# ---------------------------------------------------------------------------
# dispatch helpers

def fit_predictor(spec: dict, history) -> object:
    """A predictor fitted to ``history`` from a spec dict ({"kind": ..., keys}), typed and
    built by :data:`predcomp.config.PREDICTORS`; an LSTM is loaded from its ``model_path``
    (it trains on windows, :mod:`predcomp.lstm`) and ignores ``history``."""
    from .config import PREDICTORS, kind_of
    if spec.get("kind") not in PREDICTORS:
        raise PredictorError(f"unknown predictor kind {spec.get('kind')!r}")
    kind, keys = kind_of(spec, PREDICTORS, "predictor")
    return PREDICTORS[kind].build(keys, history)


def refit_after_detection(predictor, values, located: int,
                          min_history: int = 50) -> tuple[object, bool]:
    """Refit ``predictor`` on values[located:]; keep it unchanged when the
    post-change history is shorter than ``min_history`` or the refit fails.

    The flag is True only when a new predictor replaced the old one; kinds
    whose ``refit`` returns the same object (naive, mean, LSTM) report False.
    """
    values = np.asarray(values, dtype=float)
    located = max(located, 0)
    tail = values[located:]
    if len(tail) < max(min_history, MIN_FIT):
        return predictor, False
    try:
        refitted = predictor.refit(tail)
    except (PredictorError, np.linalg.LinAlgError):
        return predictor, False
    return refitted, refitted is not predictor
