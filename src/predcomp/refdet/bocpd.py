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
in preallocated buffers: run length r sits at ``buf[head + r]``, so the
current state is the positive-stride slice ``buf[head:head + n]``.  A step
writes the new r = 0 entry at ``head - 1`` and updates the grown entries
in place, because run length r becomes r + 1 without moving.  When
``head`` reaches zero the buffers double.

Tables.  Every run receives the same sequence of ``+0.5`` (alpha) and
``+1.0`` (kappa) increments, so alpha and kappa depend only on how many
observations a run has absorbed.  They, and every predictive term built
from them alone (the gammaln difference, the degrees of freedom and the
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
state through each segment start once, for every threshold that restarts
there, until the highest of them has fired; the lower ones fire on the
way (:func:`predcomp.refdet.sweep.sweep`).  :func:`bocpd_detect` is its
one-threshold case.

``gammaln`` has one call site, :class:`_RunLengthTables`, and is imported
there, so that importing this module does not load scipy.special (about
0.3 s, paid by every CLI command).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..series import Detection, finite_values
from .sweep import require_single, sweep


@dataclass(frozen=True)
class NigPrior:
    mu0: float = 0.0
    kappa0: float = 1.0
    alpha0: float = 1.0
    beta0: float = 1.0

    def __post_init__(self) -> None:
        if not all(0 < v < np.inf for v in (self.kappa0, self.alpha0, self.beta0)):
            raise ValueError("kappa0, alpha0, beta0 must be finite and positive")
        if not np.isfinite(self.mu0):
            raise ValueError("mu0 must be finite")


def _logsumexp(a: np.ndarray):
    """log(sum(exp(a))) of a non-empty 1-D array, rounded as scipy's is."""
    i_max = a.argmax()
    a_max = a[i_max]
    if np.isfinite(a_max):
        is_max = a == a_max
        m = float(np.count_nonzero(is_max))
        shifted = np.exp(a - a_max)
        if m == 1:
            shifted[i_max] = 0.0
        else:
            shifted[is_max] = 0.0
        s = shifted.sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if np.isfinite(out):
            return out
    # scipy falls back to the direct sum wherever its result is not finite
    with np.errstate(divide="ignore", over="ignore"):
        return np.log(np.sum(np.exp(a)))


class _RunLengthTables:
    """Terms of the predictive that depend only on the run length.

    Entry j belongs to a run that has absorbed j observations; each
    column is built by the additions the recursion itself would make.
    """

    def __init__(self, prior: NigPrior, size: int):
        from scipy.special import gammaln
        alpha = np.cumsum(np.concatenate(([prior.alpha0], np.full(size - 1, 0.5))))
        self.kappa = np.cumsum(np.concatenate(([prior.kappa0], np.full(size - 1, 1.0))))
        df = 2.0 * alpha
        self.df = df
        self.half_df1 = (df + 1) / 2
        self.log_norm = gammaln((df + 1) / 2) - gammaln(df / 2)
        self.df_pi = df * np.pi
        self.kappa1 = self.kappa + 1.0
        self.two_kappa1 = 2.0 * self.kappa1
        self.alpha_kappa = alpha * self.kappa


class BocpdState:
    """Posterior over run lengths with per-run NIG sufficient statistics."""

    def __init__(self, prior: NigPrior):
        self.prior = p = prior
        self._n = 0
        self._head = 0
        self._lp = self._mu = self._beta = np.empty(0)
        self._grow(64)
        self._reset()
        # the prior predictive (a run with no observations: table entry 0) and
        # the r = 0 update, minus their x terms
        tab = self._tab
        self._df0, self._half_df0 = float(tab.df[0]), float(tab.half_df1[0])
        self._scale0 = float(p.beta0 * tab.kappa1[0] / tab.alpha_kappa[0])
        self._log_norm0 = tab.log_norm[0] - 0.5 * np.log(tab.df_pi[0] * self._scale0)
        self._mu0_part = p.mu0 * p.kappa0 / (p.kappa0 + 1)

    def _grow(self, capacity: int) -> None:
        """Room for ``capacity`` run lengths, keeping the current ones."""
        n, h = self._n, self._head
        head = capacity - n
        bufs = []
        for old in (self._lp, self._mu, self._beta):
            buf = np.empty(capacity)
            buf[head:] = old[h:h + n]
            bufs.append(buf)
        self._lp, self._mu, self._beta = bufs
        self._head = head
        self._tab = _RunLengthTables(self.prior, capacity + 1)

    def _reserve(self, steps: int) -> None:
        if steps > len(self._lp):
            self._grow(steps)

    def _reset(self) -> None:
        """Back to the prior, before any data, keeping the buffers."""
        h = len(self._lp) - 1
        self._lp[h], self._mu[h], self._beta[h] = 0.0, self.prior.mu0, self.prior.beta0
        self._head, self._n = h, 1
        self._t0 = 0  # table entry of run length 0
        self.steps = 0
        self.log_evidence = 0.0

    @property
    def log_post(self) -> np.ndarray:
        """log P(r_t = r), r = 0..steps-1 (a copy)."""
        return self._lp[self._head:self._head + self._n].copy()

    def step(self, x: float, hazard: float) -> None:
        if self.steps and self._head == 0:
            self._grow(2 * len(self._lp))
        h, n, tab, p = self._head, self._n, self._tab, self.prior
        lp, mu, beta = (buf[h:h + n] for buf in (self._lp, self._mu, self._beta))
        s = slice(self._t0, self._t0 + n)
        sq = (x - mu) ** 2
        scale2 = beta * tab.kappa1[s] / tab.alpha_kappa[s]
        pred = (tab.log_norm[s] - 0.5 * np.log(tab.df_pi[s] * scale2)
                - tab.half_df1[s] * np.log1p(sq / scale2 / tab.df[s]))
        sq0 = (x - p.mu0) ** 2
        if self.steps == 0:
            # the first observation opens the first run; no transition yet
            lp += pred
            lo = h
        else:
            # a break makes x the first observation of a fresh segment, so
            # its likelihood is the prior predictive
            log_cp = -np.inf
            if hazard > 0:
                prior_pred = self._log_norm0 - self._half_df0 * np.log1p(sq0 / self._scale0 / self._df0)
                log_cp = _logsumexp(lp) + np.log(hazard) + prior_pred
            lp += pred
            if hazard < 1.0:
                lp += np.log1p(-hazard)
            else:
                lp[:] = -np.inf
            lo = h - 1
            self._lp[lo] = log_cp
        new = self._lp[lo:h + n]
        norm = _logsumexp(new)
        self.log_evidence += norm
        new -= norm
        # grown entries absorb x, the r = 0 entry restarts from the prior
        k = tab.kappa[s]
        beta += k * sq / tab.two_kappa1[s]
        mu *= k
        mu += x
        mu /= tab.kappa1[s]
        if self.steps == 0:
            self._t0 = 1
        else:
            self._mu[lo] = self._mu0_part + x / (p.kappa0 + 1)
            self._beta[lo] = p.beta0 + p.kappa0 * sq0 / (2.0 * (p.kappa0 + 1.0))
            self._head, self._n = lo, n + 1
        self.steps += 1

    def run_length_posterior(self) -> np.ndarray:
        """P(r_t = r), r = 0..steps-1; sums to one."""
        return np.exp(self._lp[self._head:self._head + self._n])

    def map_run_length(self) -> int:
        return int(np.argmax(self._lp[self._head:self._head + self._n]))

    def _mass_below(self, count: int) -> float:
        """``run_length_posterior()[:count].sum()``, exponentiating only that slice."""
        h = self._head
        return float(np.exp(self._lp[h:h + self._n][:count]).sum())


def bocpd_detect(series, hazard: float, prior: NigPrior | None = None,
                 r_min: int = 5, threshold: float = 0.5,
                 keep_posterior: bool = False):
    """Detections plus per-step diagnostics.

    Returns (detections, info) where info holds the cumulative log
    evidence per segment and, when requested, the short-run probability
    path.  ``located_time`` of a detection is the start of the MAP run.
    Raises ``ValueError`` on a NaN or infinite value.
    """
    info = {"segment_log_evidence": [], "short_run_prob": []}
    (detections,) = bocpd_sweep(series, hazard, [threshold], prior, r_min,
                                evidence=info["segment_log_evidence"],
                                posterior=info["short_run_prob"] if keep_posterior else None)
    return detections, info


def bocpd_sweep(series, hazard: float, thresholds, prior: NigPrior | None = None,
                r_min: int = 5, evidence: list | None = None,
                posterior: list | None = None) -> list[list[Detection]]:
    """The detections of :func:`bocpd_detect` at each threshold.

    One state steps through each segment until the highest threshold that
    restarts there has fired.  With a single threshold, ``evidence`` and
    ``posterior`` receive the ``segment_log_evidence`` and
    ``short_run_prob`` rows of :func:`bocpd_detect`.
    """
    require_single(thresholds, evidence)
    require_single(thresholds, posterior)
    if not 0.0 < hazard <= 1.0:
        raise ValueError("hazard must be in (0, 1]")
    if not all(0.0 < threshold < 1.0 for threshold in thresholds):
        raise ValueError("threshold must be in (0, 1)")
    prior = prior or NigPrior()
    values = finite_values(series)
    n = len(values)
    state = BocpdState(prior)
    state._reserve(n)

    def scan(start: int, group: list[int]) -> list[Detection | None]:
        order = sorted(group, key=lambda j: thresholds[j])
        levels = [thresholds[j] for j in order]
        found, done = {}, 0
        state._reset()
        for i in range(start, n):
            state.step(float(values[i]), hazard)
            p_short = state._mass_below(r_min + 1)
            if posterior is not None:
                posterior.append((i, p_short))
            if state.steps <= r_min + 1:
                continue  # all mass is on short runs this early, by construction
            fired = bisect_left(levels, p_short, done)  # thresholds below p_short
            if fired > done:
                det = Detection(detect_time=i, located_time=max(i - state.map_run_length(), start),
                                detector="bocpd", stat_value=p_short)
                found.update(dict.fromkeys(order[done:fired], det))
                if evidence is not None:
                    evidence.append((start, i, state.log_evidence))
                done = fired
                if done == len(order):
                    break
        else:
            if evidence is not None:
                evidence.append((start, n - 1, state.log_evidence))
        return [found.get(j) for j in group]

    return sweep(scan, len(thresholds))
