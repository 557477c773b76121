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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize, signal

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

    def to_dict(self) -> dict:
        return {"kind": self.kind}


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

    def to_dict(self) -> dict:
        return {"kind": self.kind}


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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p, "coef": list(map(float, self.coef)),
                "intercept": self.intercept}


# ---------------------------------------------------------------------------
# ARIMA by conditional sum of squares

def _pacf_to_coef(pacf: np.ndarray) -> np.ndarray:
    """Durbin-Levinson map from partial autocorrelations to AR coefficients."""
    p = len(pacf)
    phi = np.zeros(p)
    for k in range(p):
        prev = phi[:k].copy()
        phi[:k] = prev - pacf[k] * prev[::-1]
        phi[k] = pacf[k]
    return phi


def _unconstrained_to_poly(raw: np.ndarray) -> np.ndarray:
    return _pacf_to_coef(np.tanh(raw))


def css_innovations(w: np.ndarray, phi: np.ndarray, theta: np.ndarray,
                    intercept: float) -> np.ndarray:
    """Innovations e_t of (1 - phi(L))(w_t - mu) = (1 + theta(L)) e_t.

    Zero initial conditions: pre-sample w - mu and e are taken as 0.
    """
    centered = w - intercept
    b = np.concatenate(([1.0], -np.asarray(phi, dtype=float)))
    a = np.concatenate(([1.0], np.asarray(theta, dtype=float)))
    return signal.lfilter(b, a, centered)


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
        return cls._fit_order(history, p, d, q)

    @classmethod
    def _fit_order(cls, history: np.ndarray, p: int, d: int, q: int) -> "ArimaPredictor":
        w = np.diff(history, n=d) if d else history.copy()
        n = len(w)
        if n < p + q + 3:
            raise PredictorError("differenced series too short")
        mean_w = float(np.mean(w))

        def objective(raw: np.ndarray) -> float:
            phi = _unconstrained_to_poly(raw[:p]) if p else np.empty(0)
            theta = -_unconstrained_to_poly(raw[p:p + q]) if q else np.empty(0)
            e = css_innovations(w, phi, theta, raw[-1])
            ssr = float(np.dot(e, e))
            if not np.isfinite(ssr):
                return 1e12
            return ssr

        start = np.zeros(p + q + 1)
        start[-1] = mean_w
        if p + q == 0:
            # intercept-only: CSS optimum is the plain mean
            best_raw = start
        else:
            res = optimize.minimize(objective, start, method="Nelder-Mead",
                                    options={"xatol": 1e-8, "fatol": 1e-8,
                                             "maxiter": 4000, "maxfev": 8000})
            best_raw = res.x
        phi = _unconstrained_to_poly(best_raw[:p]) if p else np.empty(0)
        theta = -_unconstrained_to_poly(best_raw[p:p + q]) if q else np.empty(0)
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
        best = None
        for p, d, q in orders:
            if len(history) < max(MIN_FIT, d + p + q + 4):
                continue
            try:
                cand = cls._fit_order(history, p, d, q)
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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p, "d": self.d, "q": self.q,
                "phi": list(map(float, self.phi)), "theta": list(map(float, self.theta)),
                "intercept": self.intercept, "sigma2": self.sigma2,
                "aicc": float(self.aicc), "auto": self.auto}


# ---------------------------------------------------------------------------
# dispatch helpers

def fit_predictor(spec: dict, history) -> object:
    """Build a predictor from a spec dict ({"kind": ..., params}).

    Kinds: naive, mean, ar (p), arima (order or auto).  The LSTM predictor
    is constructed in :mod:`predcomp.lstm` because it trains on windows,
    not on a raw history vector.
    """
    kind = spec.get("kind")
    if kind == "naive":
        return NaivePredictor()
    if kind == "mean":
        return MeanPredictor()
    if kind == "ar":
        return ArPredictor.fit(history, int(spec.get("p", 1)))
    if kind == "arima":
        if spec.get("auto", False) or spec.get("order", "auto") == "auto":
            return ArimaPredictor.fit(history, auto=True)
        order = tuple(int(v) for v in spec["order"])
        return ArimaPredictor.fit(history, order)
    raise PredictorError(f"unknown predictor kind {kind!r}")


def predictor_from_dict(d: dict) -> object:
    kind = d.get("kind")
    if kind == "naive":
        return NaivePredictor()
    if kind == "mean":
        return MeanPredictor()
    if kind == "constant":
        return ConstantPredictor(float(d["value"]))
    if kind == "ar":
        return ArPredictor(int(d["p"]), np.asarray(d["coef"], dtype=float), float(d["intercept"]))
    if kind == "arima":
        return ArimaPredictor(int(d["p"]), int(d["d"]), int(d["q"]),
                              np.asarray(d["phi"], dtype=float),
                              np.asarray(d["theta"], dtype=float),
                              float(d["intercept"]), float(d["sigma2"]),
                              float(d.get("aicc", np.nan)), bool(d.get("auto", False)))
    raise PredictorError(f"unknown predictor kind {kind!r}")


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
