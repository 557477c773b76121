"""Forecasting models feeding the prediction-assisted chart.

All predictors implement the same contract: ``fit`` consumes a raw history
vector, ``forecast(window, steps)`` is a pure function of the fitted
parameters and the input window, and ``refit(history)`` re-estimates the
same specification on new data (used after a located change point).

The ARIMA family is fitted by conditional sum of squares: innovations are
filtered with zero initial conditions, and the Nelder-Mead search runs in
a transformed space (tanh plus the Durbin-Levinson recursion) that keeps
the AR polynomial stationary and the MA polynomial invertible.  The auto
order search scans p <= 5, d <= 2, q <= 5 by corrected AIC.

The search is :func:`_nelder_mead`, an in-repo transcription of scipy's
``minimize(method="Nelder-Mead")`` that takes the same steps in the same
floating-point order but calls the objective directly, without scipy's
per-call wrapper; the innovations come from the compiled filter behind
``scipy.signal.lfilter``.  Fits are bit for bit those of the scipy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Degenerate fallback for zero-variance histories."""

    value: float
    kind = "constant"

    def forecast(self, window, steps: int) -> np.ndarray:
        return np.full(steps, self.value)

    def refit(self, history) -> "ConstantPredictor":
        history = _as_history(history)
        return ConstantPredictor(float(history[-1]))


# ---------------------------------------------------------------------------
# autoregression by least squares

@dataclass
class ArPredictor:
    """AR(p) with intercept, fitted by ordinary least squares."""

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
            return ConstantPredictor(float(history[0]))
        y = history[p:]
        cols = [history[p - j - 1:len(history) - j - 1] for j in range(p)]
        design = np.column_stack([np.ones(len(y))] + cols)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        return cls(p, beta[1:].copy(), float(beta[0]))

    def forecast(self, window, steps: int) -> np.ndarray:
        window = _as_history(window)
        if len(window) < self.p:
            raise PredictorError(f"input window shorter than p={self.p}")
        buf = list(window[-self.p:])
        out = np.empty(steps)
        for h in range(steps):
            nxt = self.intercept + float(np.dot(self.coef, buf[::-1]))
            out[h] = nxt
            buf.pop(0)
            buf.append(nxt)
        return out

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


def _pacf_to_coef(pacf: np.ndarray) -> np.ndarray:
    """:func:`_pacf_list` from and to float64 arrays."""
    return np.array(_pacf_list(pacf.tolist()))


_linear_filter = None


def css_innovations(w: np.ndarray, phi, theta, intercept: float) -> np.ndarray:
    """Innovations e_t of (1 - phi(L))(w_t - mu) = (1 + theta(L)) e_t.

    Zero initial conditions: pre-sample w - mu and e are taken as 0.
    ``phi`` and ``theta`` are float sequences (lists or arrays).  This is
    ``scipy.signal.lfilter(b, a, w - mu)`` without its argument checks:
    with no MA part it takes lfilter's own ``len(a) == 1`` path, a
    truncated convolution, and otherwise it calls the compiled filter
    that lfilter calls.
    """
    global _linear_filter
    centered = w - intercept
    b = np.array([1.0] + [-c for c in phi])
    if len(theta) == 0:
        return np.convolve(b, centered)[:len(centered)]
    if _linear_filter is None:
        # imported on first use: scipy.signal costs about a second to load
        try:
            from scipy.signal._sigtools import _linear_filter
        except ImportError:  # the private module moved; lfilter takes the same arguments
            from scipy.signal import lfilter as _linear_filter
    return _linear_filter(b, np.array([1.0] + list(theta)), centered, -1)


class _MaxFevReached(Exception):
    pass


def _nelder_mead(func, x0: np.ndarray, xatol: float, fatol: float, maxiter: int,
                 maxfev: int) -> tuple[np.ndarray, int]:
    """Minimize ``func`` from ``x0``; returns (x, number of evaluations).

    A transcription of scipy 1.17's ``minimize(func, x0,
    method="Nelder-Mead", options={...})`` for the non-adaptive, unbounded
    case: the same initial simplex, numpy expressions, argsort/take
    reorders and maxiter/maxfev accounting, so x and the evaluation count
    are bit for bit scipy's.  ``func`` is called directly on a row or a
    fresh point, without scipy's per-call copy and result checks; it must
    return a float and must not modify its argument.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    one2np1 = list(range(1, N + 1))
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
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            doshrink = 0
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
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
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = 1
                else:
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = 1
                if doshrink:
                    for j in one2np1:
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _MaxFevReached:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], nfev


def _differenced(history: np.ndarray, d: int) -> np.ndarray:
    return np.diff(history, n=d) if d else history.copy()


def _aicc(ssr: float, n: int, n_params: int) -> float:
    # n_params counts AR + MA coefficients plus intercept and variance
    if n <= n_params + 1:
        return np.inf
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
    def fit(cls, history, order=(1, 0, 0), auto: bool = False) -> "ArimaPredictor | ConstantPredictor":
        """CSS fit at a fixed order, or an AICc scan when ``auto`` is True."""
        history = _as_history(history)
        if np.ptp(history) == 0:
            return ConstantPredictor(float(history[0]))
        if auto:
            return cls._fit_auto(history)
        p, d, q = order
        if not (0 <= p <= MAX_P and 0 <= d <= MAX_D and 0 <= q <= MAX_Q):
            raise PredictorError(f"order {order} outside the supported grid")
        if len(history) < max(MIN_FIT, d + p + q + 4):
            raise PredictorError(f"history too short for ARIMA{order}")
        return cls._fit_order(_differenced(history, d), p, d, q)

    @classmethod
    def _fit_order(cls, w: np.ndarray, p: int, d: int, q: int) -> "ArimaPredictor":
        """CSS fit of ARIMA(p, d, q); ``w`` is the history differenced d times."""
        n = len(w)
        if n < p + q + 3:
            raise PredictorError("differenced series too short")
        mean_w = float(np.mean(w))
        pq = p + q

        def objective(raw: np.ndarray) -> float:
            coef = np.tanh(raw[:pq]).tolist()
            theta = [-c for c in _pacf_list(coef[p:])]
            e = css_innovations(w, _pacf_list(coef[:p]), theta, raw[-1])
            ssr = float(np.dot(e, e))
            return ssr if math.isfinite(ssr) else 1e12

        start = np.zeros(pq + 1)
        start[-1] = mean_w
        if pq == 0:
            # intercept-only: CSS optimum is the plain mean
            best_raw = start
        else:
            best_raw, _ = _nelder_mead(objective, start, xatol=1e-8, fatol=1e-8,
                                       maxiter=4000, maxfev=8000)
        pacf = np.tanh(best_raw[:pq])
        phi = _pacf_to_coef(pacf[:p])
        theta = -_pacf_to_coef(pacf[p:])
        intercept = float(best_raw[-1])
        e = css_innovations(w, phi, theta, intercept)
        ssr = float(np.dot(e, e))
        sigma2 = ssr / n
        aicc = _aicc(ssr, n, p + q + 2)
        return cls(p, d, q, phi, theta, intercept, sigma2, aicc)

    @classmethod
    def _fit_auto(cls, history: np.ndarray) -> "ArimaPredictor":
        # scan in complexity order so AICc ties resolve to the simplest
        # model (smallest p+d+q, then smallest p)
        orders = sorted(
            ((p, d, q) for p in range(MAX_P + 1) for d in range(MAX_D + 1)
             for q in range(MAX_Q + 1)),
            key=lambda o: (o[0] + o[1] + o[2], o[0], o[1], o[2]),
        )
        diffs = [_differenced(history, d) for d in range(MAX_D + 1)]
        best = None
        for p, d, q in orders:
            if len(history) < max(MIN_FIT, d + p + q + 4):
                continue
            try:
                cand = cls._fit_order(diffs[d], p, d, q)
            except (PredictorError, np.linalg.LinAlgError):
                continue
            if best is None or cand.aicc < best.aicc - 1e-10:
                best = cand
        if best is None:
            raise PredictorError("auto order search found no fittable model")
        best.auto = True
        return best

    def forecast(self, window, steps: int) -> np.ndarray:
        window = _as_history(window)
        if len(window) < self.d + max(self.p, self.q) + 1:
            raise PredictorError("input window too short for the fitted order")
        w = np.diff(window, n=self.d) if self.d else window.copy()
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
        if self.d == 0:
            return fc
        # undo the differencing, seeded by the tail of the raw window
        seeds = [window.copy()]
        for _ in range(1, self.d):
            seeds.append(np.diff(seeds[-1]))
        work = fc.copy()
        for k in range(self.d - 1, -1, -1):
            work = np.cumsum(work) + seeds[k][-1]
        return work

    def refit(self, history):
        if self.auto:
            return ArimaPredictor.fit(history, auto=True)
        return ArimaPredictor.fit(history, (self.p, self.d, self.q))


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
