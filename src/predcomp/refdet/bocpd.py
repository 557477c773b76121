"""Bayesian online change point detection, Gaussian model.

Run-length recursion with a constant hazard H: at every step each run
either grows (weight 1-H) or breaks (weight H, pooled into run length
zero).  Observations follow a Normal with unknown mean and variance under
a Normal-Inverse-Gamma prior, so the one-step predictive is Student-t.
All bookkeeping is in log space; the posterior over run lengths is
normalized at every step and the per-step normalizers accumulate into the
log evidence.

Run length convention: r = 0 means the current observation opens a new
segment, matching P(r_t > r_{t-1}) = 1 - H for the growth move.  The
detector alarms when the posterior mass on run lengths <= r_min exceeds
the threshold; it restarts from the prior after each alarm, and alarms
are suppressed for the first r_min + 1 steps of each segment where short
runs hold all the mass by construction.

Storage.  ``mu``, ``beta`` and the log posterior are kept newest-first
at the end of buffers allocated once: after ``steps`` steps from the
prior the live runs are the last ``n = max(steps, 1)`` entries, run
length r at ``buf[-n + r]``.  A step writes the new r = 0 entry just
before them and updates the grown entries in place, because run length r
becomes r + 1 without moving; m steps fill m(m + 1)/2 cells.  The caller
sizes the state: it holds ``capacity`` steps from the prior, and a step
past them raises ``ValueError``.  :func:`bocpd_sweep` sizes it to the
series.  The state also holds its hazard: the model fixes H, so the state
checks it once and keeps log H and log(1 - H), and a step takes only the
observation.

Tables.  Every run receives the same sequence of ``+0.5`` (alpha) and
``+1.0`` (kappa) increments, so alpha and kappa depend only on how many
observations a run has absorbed.  They, and every predictive term built
from them alone (the log-gamma difference, the degrees of freedom and the
constant factors), are tables computed once per prior by the same
additions, and a step only slices them.  Entry 0, a run with no
observations, holds the constants of the prior predictive.

Log-sum-exp.  ``_logsumexp`` transcribes the algorithm of
``scipy.special.logsumexp`` (scipy 1.17, ``scipy/special/_logsumexp.py``):
the maxima are left out of the shifted sum and counted.  A plain max-shift
rounds differently; following scipy's steps keeps every result bit for bit
equal to the direct recursion built on scipy while skipping its per-call
overhead, which dominated the cost of a step.

Sweeps.  The state does not depend on the threshold, and after an alarm
the detector restarts from the prior, so :func:`bocpd_sweep` steps one
state, made for the sweep's hazard, through each segment start once, for
every threshold that restarts there, until the highest of them has fired;
the lower ones fire on the way (:func:`predcomp.refdet.sweep.sweep`).  It
reads the series as Python floats, taken once.  Its one per-step record,
``trace``, takes the short-run probability rows of a single threshold, as
the other kinds' sweeps take theirs.  :func:`bocpd_detect` is its
one-threshold case.

Log-gamma.  The tables' log-normaliser comes from ``_lgam``, a
transcription of cephes ``lgam`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), the routine behind
``scipy.special.gammaln``.  It takes cephes' operations in cephes' order, on
Python floats with ``math.log``, so every table entry is scipy's bit for
bit, and BOCPD loads no scipy module (``scipy.special`` costs about 0.3 s
to import).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..series import MAX_ABS, Detection, check_value, finite_values
from .sweep import sweep


@dataclass(frozen=True)
class NigPrior:
    """The Normal-Inverse-Gamma prior.  Its bounds keep the predictive's
    constants and every step on values within `MAX_ABS` finite: |mu0| at most
    `MAX_ABS`, and kappa0, alpha0 and beta0 in [1 / `MAX_ABS`, `MAX_ABS`]."""

    mu0: float = 0.0
    kappa0: float = 1.0
    alpha0: float = 1.0
    beta0: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            low = -MAX_ABS if name == "mu0" else 1 / MAX_ABS
            if not low <= value <= MAX_ABS:  # NaN included
                raise ValueError(f"{name} must be in [{low:g}, {MAX_ABS:g}], got {value}")


def _logsumexp(a: np.ndarray):
    """log(sum(exp(a))) of a non-empty 1-D array, rounded as scipy's is."""
    i_max = a.argmax()
    a_max = a[i_max]
    if math.isfinite(a_max):
        is_max = a == a_max
        m = float(np.count_nonzero(is_max))
        shifted = np.exp(a - a_max)
        if m == 1:
            shifted[i_max] = 0.0
        else:
            shifted[is_max] = 0.0
        # scipy divides only a nonzero sum; 0.0 / m is 0.0 all the same
        out = np.log1p(shifted.sum() / m) + np.log(m) + a_max
        if math.isfinite(out):
            return out
    # scipy falls back to the direct sum wherever its result is not finite
    with np.errstate(divide="ignore", over="ignore"):
        return np.log(np.sum(np.exp(a)))


# cephes lgam's coefficients: A of the Stirling series on [13, 1000), B/C of the
# rational function on [2, 3)
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _lgam(x: float) -> float:
    """log(Gamma(x)) for x > 0, as cephes ``lgam`` rounds it."""
    if x < 13.0:
        # the recurrence into [2, 3), then the B/C rational function there
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        num = _B[0]
        for b in _B[1:]:
            num = num * x + b
        den = x + _C[0]
        for c in _C[1:]:
            den = den * x + c
        return math.log(z) + x * num / den
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _A[0]
    for a in _A[1:]:
        poly = poly * p + a
    return q + poly / x


class _RunLengthTables:
    """Terms of the predictive that depend only on the run length.

    Entry j belongs to a run that has absorbed j observations; each
    column is built by the additions the recursion itself would make.
    """

    def __init__(self, prior: NigPrior, size: int):
        alpha = np.cumsum(np.concatenate(([prior.alpha0], np.full(size - 1, 0.5))))
        self.kappa = np.cumsum(np.concatenate(([prior.kappa0], np.full(size - 1, 1.0))))
        df = 2.0 * alpha
        self.df = df
        self.half_df1 = (df + 1) / 2
        self.log_norm = np.array([_lgam((d + 1) / 2) - _lgam(d / 2) for d in df.tolist()])
        self.df_pi = df * np.pi
        self.kappa1 = self.kappa + 1.0
        self.two_kappa1 = 2.0 * self.kappa1
        self.alpha_kappa = alpha * self.kappa


class BocpdState:
    """Posterior over run lengths with per-run NIG sufficient statistics.

    The state is made for one hazard H, as the model fixes it: it checks H
    and keeps its logs, so :meth:`step` takes only the observation.  A step
    checks its observation by :func:`~predcomp.series.check_value`, naming it
    by its index since the prior, before it changes the state.
    ``log_evidence``, log p(x_1..x_t) since the prior, drives no alarm: it is
    the model evidence that acceptance criterion 8 and
    ``test_state_equals_reference_over_a_long_stream`` check.
    """

    def __init__(self, prior: NigPrior, hazard: float, capacity: int = 64):
        if not 0.0 < hazard <= 1.0:
            raise ValueError("hazard must be in (0, 1]")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.prior = p = prior
        # the break and growth weights; at H = 1 no run grows
        self._log_h, self._log_grow = np.log(hazard), np.log1p(-hazard) if hazard < 1.0 else None
        self._lp, self._mu, self._beta = (np.empty(capacity) for _ in range(3))
        # a step reads the entries of runs with up to capacity - 1 observations
        self._tab = _RunLengthTables(prior, capacity)
        self._reset()
        # the prior predictive (a run with no observations: table entry 0) and
        # the r = 0 update, minus their x terms
        tab = self._tab
        self._df0, self._half_df0 = float(tab.df[0]), float(tab.half_df1[0])
        self._scale0 = float(p.beta0 * tab.kappa1[0] / tab.alpha_kappa[0])
        self._log_norm0 = tab.log_norm[0] - 0.5 * np.log(tab.df_pi[0] * self._scale0)
        self._mu0_part = p.mu0 * p.kappa0 / (p.kappa0 + 1)

    def _reset(self) -> None:
        """Back to the prior, before any data, keeping the buffers."""
        self._lp[-1], self._mu[-1], self._beta[-1] = 0.0, self.prior.mu0, self.prior.beta0
        self.steps = 0
        self.log_evidence = 0.0

    @property
    def log_post(self) -> np.ndarray:
        """log P(r_t = r), r = 0..steps-1 (a copy)."""
        return self._lp[-max(self.steps, 1):].copy()

    def step(self, x: float) -> None:
        if self.steps == len(self._lp):
            raise ValueError(f"the state holds {len(self._lp)} steps from the prior")
        check_value(self.steps, x)
        tab, p = self._tab, self.prior
        # the live runs; run length r has absorbed t0 + r observations, t0 = 0 only before any step
        n, t0 = max(self.steps, 1), min(self.steps, 1)
        lp, mu, beta = (buf[-n:] for buf in (self._lp, self._mu, self._beta))
        s = slice(t0, t0 + n)
        sq = (x - mu) ** 2
        scale2 = beta * tab.kappa1[s] / tab.alpha_kappa[s]
        pred = (tab.log_norm[s] - 0.5 * np.log(tab.df_pi[s] * scale2)
                - tab.half_df1[s] * np.log1p(sq / scale2 / tab.df[s]))
        sq0 = (x - p.mu0) ** 2
        if self.steps == 0:
            # the first observation opens the first run; no transition yet
            lp += pred
            lo = -n
        else:
            # a break makes x the first observation of a fresh segment, so
            # its likelihood is the prior predictive
            prior_pred = self._log_norm0 - self._half_df0 * np.log1p(sq0 / self._scale0 / self._df0)
            lo = -n - 1
            self._lp[lo] = _logsumexp(lp) + self._log_h + prior_pred
            lp += pred
            if self._log_grow is None:
                lp[:] = -np.inf
            else:
                lp += self._log_grow
        new = self._lp[lo:]
        norm = _logsumexp(new)
        self.log_evidence += norm
        new -= norm
        # grown entries absorb x; the r = 0 entry restarts from the prior in scalars of its own:
        # sq0 is Python's ** (libm pow), which differs from numpy's square in the last bit on
        # some x, and its mean is the prior's own expression, so a fold into the vectors moves bits
        k = tab.kappa[s]
        beta += k * sq / tab.two_kappa1[s]
        mu *= k
        mu += x
        mu /= tab.kappa1[s]
        if self.steps:
            self._mu[lo] = self._mu0_part + x / (p.kappa0 + 1)
            self._beta[lo] = p.beta0 + p.kappa0 * sq0 / (2.0 * (p.kappa0 + 1.0))
        self.steps += 1

    def map_run_length(self) -> int:
        return int(np.argmax(self._lp[-max(self.steps, 1):]))

    def _mass_below(self, count: int) -> float:
        """P(r_t < count), exponentiating only the first ``count`` log entries."""
        return float(np.exp(self._lp[-max(self.steps, 1):][:count]).sum())


def bocpd_detect(series, hazard: float, prior: NigPrior | None = None,
                 r_min: int = 5, threshold: float = 0.5,
                 keep_posterior: bool = False):
    """Detections plus, when requested, the short-run probability path.

    Returns (detections, info) where ``info["short_run_prob"]`` holds the
    ``(index, P(r_t <= r_min))`` rows of :func:`bocpd_sweep`'s ``trace``,
    empty unless ``keep_posterior``.  ``located_time`` of a detection is the
    start of the MAP run.  Raises ``ValueError`` on a NaN or infinite value.
    """
    info = {"short_run_prob": []}
    (detections,) = bocpd_sweep(series, hazard, [threshold], prior, r_min,
                                trace=info["short_run_prob"] if keep_posterior else None)
    return detections, info


def bocpd_sweep(series, hazard: float, thresholds, prior: NigPrior | None = None,
                r_min: int = 5, trace: list | None = None) -> list[list[Detection]]:
    """The detections of :func:`bocpd_detect` at each threshold.

    One state steps through each segment until the highest threshold that
    restarts there has fired.  ``trace``, with a single threshold, receives
    its rows (index, short-run probability P(r_t <= r_min)).
    """
    if not all(0.0 < threshold < 1.0 for threshold in thresholds):
        raise ValueError("threshold must be in (0, 1)")
    values = finite_values(series).tolist()
    n = len(values)
    state = BocpdState(prior or NigPrior(), hazard, max(n, 1))

    def scan(start: int, levels: list) -> list[Detection]:
        found = []
        state._reset()
        for i in range(start, n):
            state.step(values[i])
            p_short = state._mass_below(r_min + 1)
            if trace is not None:
                trace.append((i, p_short))
            if state.steps <= r_min + 1:
                continue  # all mass is on short runs this early, by construction
            fired = bisect_left(levels, p_short, len(found))  # thresholds below p_short
            if fired > len(found):
                # the state holds i - start + 1 steps, so the MAP run starts at start or later
                det = Detection(detect_time=i, located_time=i - state.map_run_length(),
                                detector="bocpd")
                found += [det] * (fired - len(found))
                if fired == len(levels):
                    break
        return found

    return sweep(scan, thresholds, record=trace)
