"""Poisson standardization of monotone-rate count streams.

The rate is modelled as lam(t) = b * t^nu.  With 1-based times s and the
cumulative count L(t0, s) = sum of X_r for r in (t0, s], the model gives
E[L(0, s)] = b * s^(nu+1) / (nu+1), a line in log-log coordinates whose
intercept ln(b / (nu+1)) is unknown.  The exponent is therefore estimated
with the intercept fitted too:

    nu_hat + 1 = OLS slope of ln L(t0, s) on ln s, over s in (t0, t] with L > 0

which leaves nu_hat unchanged when the counts are scaled by a constant.
The slope b_hat then comes from no-intercept least squares of X_s on
U_s = s^nu_hat.  Scores are Z(s) = (X_s - lam_hat(s)) / sqrt(lam_hat(s));
for a Poisson stream with that rate they are approximately standard.

Offline mode fits once on the whole series; online mode re-estimates the
pair (nu_hat, b_hat) at every step from the data seen so far, so the two
modes coincide at the final step.  Natural logarithms throughout.

Every fit is one `_fit_step` on per-time terms that no end time changes:
online mode builds them once and runs one step per time.  The exponent is
read in O(1) from the running co-moments of (ln s, ln L) over the kept
times, which Welford's (1962) update (`_comoment_step`) carries from one
time to the next.  The slope is linear in the history: nu_hat moves every
step, so the sum of x_s s^nu_hat cannot be carried over.  Its exp pass
goes into a reused work row, and its two dot products are summed over
chunks in a fixed order (the shared :func:`predcomp.series.chunked_dot`,
which the ARIMA fits use too), so its bits do not depend on the BLAS
thread count.  The steps are independent, so past one chunk online mode
maps them on the process pool (:func:`predcomp.pool.pool_map`) in
consecutive ranges of `STEPS_PER_RANGE`, latest and costliest first, for
the workers to take as they free up.  A step costs about its prefix
length, so the last range bounds the speed-up at about n / 2,048: 4x at
8,193 steps, 15x at 32,000.  Every path, offline, online and streaming,
scores each time by `_score`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .pool import pool_map
from .series import DOT_CHUNK, LabeledSeries, check_value, chunked_dot, finite_values

#: lam_hat below this is treated as zero: the score is clamped to 0 and flagged.
LAM_FLOOR = 1e-9

#: steps per range of a pooled online fit: at least eight past one dot chunk
STEPS_PER_RANGE = DOT_CHUNK // 8


class TrendNotEstimable(ValueError):
    """Raised when (nu_hat, b_hat) cannot be computed from the prefix."""


@dataclass(frozen=True)
class TrendFit:
    nu: float
    slope: float
    t0: int
    t: int

    def lam(self, s):
        """lam_hat(s) = slope * s^nu for 1-based times s."""
        return _lam(self.nu, self.slope, s)


def _lam(nu: float, slope: float, s):
    # numpy takes the exponents -1 and 0.5 as 1/s and sqrt(s) here, which
    # np.power over an array of exponents does not: online mode therefore
    # calls this once per time rather than once for all times
    return slope * np.asarray(s, dtype=float) ** nu


@dataclass
class StandardizeResult:
    scores: LabeledSeries
    fit: TrendFit | None
    #: indices where the score is a fallback (identity or clamped zero)
    flagged: list[int]


def _comoment_step(moments: tuple, j: int, a: float, b: float) -> tuple:
    """Welford's update of (mean ln s, mean ln L, C_xx, C_xy) by the j-th
    kept time, with (a, b) its (ln s, ln L), in Python floats: every path
    carries its co-moments by this one rule, so their bits agree."""
    mean_a, mean_b, c_xx, c_xy = moments
    da = a - mean_a
    mean_a += da / j
    mean_b += (b - mean_b) / j
    return mean_a, mean_b, c_xx + da * (a - mean_a), c_xy + da * (b - mean_b)


def _trend_terms(values: np.ndarray, t0: int):
    """Per-time terms of the fit for s in (t0, len(values)].

    None of them depends on the end t of the fit, so prefixes serve every
    t and online mode computes them once.  The exponent's regression uses
    only the times with L > 0: n_kept[m - 1] counts them among the first m
    times, and c_xx[k - 1] and c_xy[k - 1] are the co-moments of (ln s,
    ln L) over the first k of them.
    """
    if t0 < 0:
        raise ValueError("t0 must be non-negative")
    x = values[t0:]
    log_s = np.log(np.arange(t0 + 1, t0 + len(x) + 1, dtype=float))
    cum = np.cumsum(x)
    kept = cum > 0
    # iterating a memoryview yields one Python float at a time, and an
    # array('d') stores 8 bytes per value: no list of float objects is held
    c_xx, c_xy, moments = array("d"), array("d"), (0.0, 0.0, 0.0, 0.0)
    for j, (a, b) in enumerate(zip(memoryview(log_s[kept]), memoryview(np.log(cum[kept]))), 1):
        moments = _comoment_step(moments, j, a, b)
        c_xx.append(moments[2])
        c_xy.append(moments[3])
    return x, log_s, np.cumsum(kept), np.frombuffer(c_xx), np.frombuffer(c_xy)


def _fit_step(terms, m: int, work: np.ndarray) -> tuple[float, float]:
    """(nu_hat, b_hat) on the first m times of ``terms`` (built by `_trend_terms`).

    nu_hat + 1 = C_xy / C_xx is O(1).  The slope's regressor u = s^nu_hat
    goes into ``work`` (at least m long), so a step allocates no array of
    its length, and its two dot products are `chunked_dot`s.  A regressor
    or dot that overflows reads inf and is refused as degenerate: callers
    run their steps under ``np.errstate(over="ignore")``.
    """
    x, log_s, n_kept, c_xx, c_xy = terms
    k = int(n_kept[m - 1])
    if k < 2:
        raise TrendNotEstimable("fewer than two times with a positive cumulative count")
    nu = float(c_xy[k - 1] / c_xx[k - 1]) - 1.0
    u = np.multiply(log_s[:m], nu, out=work[:m])
    np.exp(u, out=u)
    denom = chunked_dot(u, u)
    if denom <= 0 or not math.isfinite(denom):
        raise TrendNotEstimable("degenerate regressor")
    slope = chunked_dot(x[:m], u) / denom
    if not math.isfinite(slope):
        raise TrendNotEstimable("non-finite counts")
    return nu, slope


def estimate_trend(values, t0: int = 0) -> TrendFit:
    """Fit (nu_hat, b_hat) on the 1-based time range (t0, t], t the number
    of values.

    Raises TrendNotEstimable when t <= max(t0, 1), when fewer than two
    times in the range have a positive cumulative count, or when the
    regressor is degenerate.
    """
    values = np.asarray(values, dtype=float)
    t = len(values)
    terms = _trend_terms(values, t0)
    if t <= t0 + 1 or t < 2:
        raise TrendNotEstimable(f"need at least two observations past t0, got (t0={t0}, t={t})")
    with np.errstate(over="ignore"):
        return TrendFit(*_fit_step(terms, t - t0, np.empty(t - t0)), t0, t)


def _score(x: float, lam: float | None) -> tuple[float, bool]:
    """The score (x - lam) / sqrt(lam) and whether it is flagged: the raw
    value where no trend is fitted (lam None), zero where lam is below the
    floor or not finite, both flagged."""
    if lam is not None and math.isfinite(lam) and lam >= LAM_FLOOR:
        return (x - lam) / math.sqrt(lam), False
    return (x if lam is None else 0.0), True


def _online_range(terms, t0: int, steps: range):
    """At every i of ``steps``, lam_hat(i + 1) from the fit on (t0, i + 1],
    None where that fit does not exist, and the last fit: one `_fit_step`
    per time, on a work row of this range's own."""
    work = np.empty(steps[-1] + 1 - t0)
    lam, last = [], None
    with np.errstate(over="ignore"):
        for i in steps:
            try:
                last = (*_fit_step(terms, i + 1 - t0, work), i + 1)
            except TrendNotEstimable:
                lam.append(None)
                continue
            lam.append(float(_lam(*last)))
    return lam, last


def _online(values: np.ndarray, t0: int):
    """The last fit, and at every time s lam_hat(s) from the fit on (t0, s],
    None where that fit does not exist.  Past one dot chunk the steps go to
    the pool in ranges of `STEPS_PER_RANGE`, latest (costliest) first, and
    the last range bounds the speed-up at about n / 2,048; the steps share
    only the terms, so the bits are those of the serial loop."""
    n = len(values)
    terms = _trend_terms(values, t0)
    step = STEPS_PER_RANGE if len(terms[0]) > DOT_CHUNK else max(n, 1)
    ranges = [range(a, min(a + step, n)) for a in range(t0 + 1, n, step)]
    done = pool_map(lambda steps: _online_range(terms, t0, steps), ranges[::-1])[::-1]
    head = min(t0 + 1, n)  # s = i + 1 needs two times past t0
    lam = [None] * head + [v for d in done for v in d[0]]
    last = next((d[1] for d in reversed(done) if d[1]), None)
    fit = TrendFit(last[0], last[1], t0, last[2]) if last else None
    return fit, lam


def standardize(series: LabeledSeries | np.ndarray, t0: int = 0,
                mode: str = "offline") -> StandardizeResult:
    """Standardized scores for a count series; labels are carried through.

    Indices where no trend is estimable keep the raw value (identity
    fallback) and are flagged; indices with lam_hat below the floor get a
    zero score and are flagged.  A count that is NaN, infinite or beyond
    `~predcomp.series.MAX_ABS` raises the ValueError of
    :func:`~predcomp.series.finite_values`.
    """
    if mode not in ("offline", "online"):
        raise ValueError("mode must be 'offline' or 'online'")
    values = finite_values(series)
    wrap = series if isinstance(series, LabeledSeries) else LabeledSeries(values)
    n = len(values)
    if mode == "online":
        fit, lam = _online(values, t0)
    else:
        try:
            fit = estimate_trend(values, t0=t0)
        except TrendNotEstimable:
            fit = None
        lam = fit.lam(np.arange(1, n + 1)).tolist() if fit else [None] * n
    scores, flags = np.empty(n), np.empty(n, dtype=bool)
    for i, (x, lam_i) in enumerate(zip(values.tolist(), lam)):
        scores[i], flags[i] = _score(x, lam_i)
    return StandardizeResult(wrap.with_values(scores), fit, np.flatnonzero(flags).tolist())


class OnlineStandardizer:
    """Streaming wrapper around the online mode: push one count, get one score.

    Re-estimates the trend from all data seen so far at each step, with the
    online mode's fit, and scores the count by `_score`, the one rule of
    every path, so scores and flags are the online mode's bit for bit.  A
    push appends its time's `_trend_terms`, its co-moments by the same
    `_comoment_step`, so it rebuilds no prefix: the exponent is O(1) and
    the slope, over a reused work row, linear in the history.  A count that
    :func:`standardize` refuses raises the ValueError of
    :func:`~predcomp.series.check_value` and leaves the state as it was.
    """

    def __init__(self, t0: int = 0):
        if t0 < 0:
            raise ValueError("t0 must be non-negative")
        self.t0, self._n = t0, 0
        # `_trend_terms`' five arrays as rows, one column per time past t0:
        # x, ln s, n_kept and the kept times' co-moments C_xx and C_xy
        self._terms, self._work = np.empty((5, 64)), np.empty(64)
        self._cum, self._k = 0.0, 0  # L and n_kept at the newest time
        self._moments = (0.0, 0.0, 0.0, 0.0)  # `_comoment_step`'s state
        self.fit: TrendFit | None = None
        self.flagged: list[int] = []

    def push(self, x: float) -> float:
        x, i, m = float(x), self._n, self._n + 1 - self.t0
        check_value(i, x)
        self._n += 1
        if m > self._terms.shape[1]:
            self._terms = np.concatenate([self._terms, self._terms], axis=1)
            self._work = np.empty(self._terms.shape[1])
        terms, k = self._terms, self._k
        if m > 0:  # time i + 1's terms; L adds left to right, as np.cumsum
            terms[0, m - 1], terms[1, m - 1], terms[2, m - 1] = x, np.log(float(i + 1)), k
            self._cum += x
            if self._cum > 0:
                self._moments = _comoment_step(self._moments, k + 1, float(terms[1, m - 1]),
                                               float(np.log(self._cum)))
                terms[3, k], terms[4, k] = self._moments[2:]
                terms[2, m - 1] = self._k = k + 1
        lam = None
        try:
            if m >= 2:
                with np.errstate(over="ignore"):
                    self.fit = TrendFit(*_fit_step(terms, m, self._work), self.t0, i + 1)
                lam = float(self.fit.lam(i + 1))
        except TrendNotEstimable:
            pass
        score, flagged = _score(x, lam)
        self.flagged += [i] if flagged else []
        return score
