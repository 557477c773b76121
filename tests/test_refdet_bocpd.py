"""Tests for Bayesian online change point detection.

The recursion is checked against brute-force enumeration of all 2^(n-1)
segmentations of a short series: under a constant hazard H a segmentation
with k breaks has prior weight H^k (1-H)^(n-1-k) and each segment
contributes its Normal-Inverse-Gamma marginal likelihood.  Both the
total evidence and the final run-length posterior must agree to machine
precision.

The preallocated implementation is also checked for exact equality (``==``)
against the direct recursion kept below as a plain reference: it rebuilds
the run-length statistics with ``np.concatenate`` at every step and
normalizes with ``scipy.special.logsumexp``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from predcomp.refdet.bocpd import (BocpdState, NigPrior, _lgam, _logsumexp, bocpd_detect,
                                   bocpd_sweep)
from predcomp.seeding import spawn_rng
from predcomp.series import Detection


def student_t_logpdf(x, df, loc, scale2):
    """log density of the location-scale Student-t (scale2 = squared scale)."""
    z2 = (x - loc) ** 2 / scale2
    return (gammaln((df + 1) / 2) - gammaln(df / 2)
            - 0.5 * np.log(df * np.pi * scale2)
            - (df + 1) / 2 * np.log1p(z2 / df))


class ReferenceState:
    """The direct run-length recursion, one array per statistic."""

    def __init__(self, prior: NigPrior):
        self.prior = prior
        self.log_post = np.array([0.0])
        self.mu = np.array([prior.mu0])
        self.kappa = np.array([prior.kappa0])
        self.alpha = np.array([prior.alpha0])
        self.beta = np.array([prior.beta0])
        self.steps = 0
        self.log_evidence = 0.0

    def step(self, x: float, hazard: float) -> None:
        p = self.prior
        df = 2.0 * self.alpha
        scale2 = self.beta * (self.kappa + 1.0) / (self.alpha * self.kappa)
        pred = student_t_logpdf(x, df, self.mu, scale2)
        if self.steps == 0:
            log_grow = pred + self.log_post
            log_cp = np.array([-np.inf])
        else:
            joint = self.log_post + pred
            log_grow = joint + np.log1p(-hazard) if hazard < 1.0 else np.full_like(joint, -np.inf)
            prior_pred = student_t_logpdf(x, 2.0 * p.alpha0, p.mu0,
                                          p.beta0 * (p.kappa0 + 1.0) / (p.alpha0 * p.kappa0))
            log_cp = np.array([logsumexp(self.log_post) + np.log(hazard) + prior_pred]) \
                if hazard > 0 else np.array([-np.inf])
        new_log_post = np.concatenate((log_cp, log_grow)) if self.steps else log_grow
        norm = logsumexp(new_log_post)
        self.log_evidence += norm
        self.log_post = new_log_post - norm
        mu_new = (self.kappa * self.mu + x) / (self.kappa + 1.0)
        beta_new = self.beta + self.kappa * (x - self.mu) ** 2 / (2.0 * (self.kappa + 1.0))
        if self.steps == 0:
            self.mu, self.kappa = mu_new, self.kappa + 1.0
            self.alpha, self.beta = self.alpha + 0.5, beta_new
        else:
            self.mu = np.concatenate(([p.mu0 * p.kappa0 / (p.kappa0 + 1) + x / (p.kappa0 + 1)], mu_new))
            self.kappa = np.concatenate(([p.kappa0 + 1.0], self.kappa + 1.0))
            self.alpha = np.concatenate(([p.alpha0 + 0.5], self.alpha + 0.5))
            self.beta = np.concatenate(
                ([p.beta0 + p.kappa0 * (x - p.mu0) ** 2 / (2.0 * (p.kappa0 + 1.0))], beta_new))
        self.steps += 1


def reference_detect(values, hazard, prior, r_min, threshold):
    detections = []
    info = {"segment_log_evidence": [], "short_run_prob": []}
    state = ReferenceState(prior)
    seg_start = 0
    for i, x in enumerate(values):
        state.step(float(x), hazard)
        p_short = float(np.exp(state.log_post)[:r_min + 1].sum())
        info["short_run_prob"].append((i, p_short))
        if state.steps <= r_min + 1:
            continue
        if p_short > threshold:
            located = i - int(np.argmax(state.log_post))
            detections.append(Detection(detect_time=i, located_time=max(located, seg_start),
                                        detector="bocpd", stat_value=p_short))
            info["segment_log_evidence"].append((seg_start, i, state.log_evidence))
            state = ReferenceState(prior)
            seg_start = i + 1
    info["segment_log_evidence"].append((seg_start, len(values) - 1, state.log_evidence))
    return detections, info


def shifted_series(seed: int, n: int = 600) -> np.ndarray:
    """N(0,1) noise whose mean jumps by 3 to 5 every 100 steps."""
    rng = spawn_rng(seed, "bocpd-oracle")
    y = rng.normal(0.0, 1.0, size=n)
    for start in range(100, n, 100):
        y[start:] += rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 5.0)
    return y


def seg_log_marginal(x, p: NigPrior) -> float:
    x = np.asarray(x, dtype=float)
    m = len(x)
    xbar = x.mean()
    kap = p.kappa0 + m
    alp = p.alpha0 + m / 2
    bet = (p.beta0 + 0.5 * np.sum((x - xbar) ** 2)
           + p.kappa0 * m * (xbar - p.mu0) ** 2 / (2 * kap))
    return float(gammaln(alp) - gammaln(p.alpha0) + p.alpha0 * np.log(p.beta0)
                 - alp * np.log(bet) + 0.5 * (np.log(p.kappa0) - np.log(kap))
                 - (m / 2) * np.log(2 * np.pi))


def enumerate_evidence(x, hazard: float, p: NigPrior):
    """Exact evidence and last-run-length posterior by enumeration."""
    n = len(x)
    logs = []
    last_mass: dict[int, list[float]] = {}
    for brk in itertools.product([0, 1], repeat=n - 1):
        k = sum(brk)
        lw = k * np.log(hazard) + (n - 1 - k) * np.log1p(-hazard)
        cuts = [0] + [i + 1 for i, b in enumerate(brk) if b] + [n]
        for a, b in zip(cuts[:-1], cuts[1:]):
            lw += seg_log_marginal(x[a:b], p)
        logs.append(lw)
        last_mass.setdefault(cuts[-1] - cuts[-2], []).append(lw)
    lev = float(logsumexp(logs))
    post = {length - 1: float(np.exp(logsumexp(v) - lev))
            for length, v in last_mass.items()}
    return lev, post


@pytest.mark.parametrize("hazard,prior", [
    (0.15, NigPrior()),
    (0.5, NigPrior(1.0, 0.5, 2.0, 3.0)),
    (0.01, NigPrior()),
])
def test_recursion_matches_enumeration(hazard, prior):
    rng = spawn_rng(5, "bocpd-enum")
    x = np.round(rng.normal(0.0, 1.0, size=8), 3)
    state = BocpdState(prior, hazard)
    for v in x:
        state.step(float(v))
    lev, post = enumerate_evidence(x, hazard, prior)
    assert state.log_evidence == pytest.approx(lev, abs=1e-12)
    rl = np.exp(state.log_post)
    for r, q in post.items():
        assert rl[r] == pytest.approx(q, abs=1e-12)


def test_posterior_normalized_every_step():
    rng = spawn_rng(6, "bocpd-norm")
    state = BocpdState(NigPrior(), 0.1)
    for v in rng.normal(0.0, 1.0, size=40):
        state.step(float(v))
        assert np.exp(state.log_post).sum() == pytest.approx(1.0, abs=1e-12)
    assert len(state.log_post) == 40


def test_step_past_capacity_raises():
    for capacity in (3, 1):
        values = (0.1, -0.4, 0.7)[:capacity]
        state = BocpdState(NigPrior(), 0.1, capacity)
        for v in values:
            state.step(v)
        before = state.log_post
        with pytest.raises(ValueError, match=f"holds {capacity} steps"):
            state.step(0.2)
        assert state.steps == capacity and np.array_equal(state.log_post, before)
        assert len(state._lp) == capacity  # nothing grew
        state._reset()
        for v in values:
            state.step(v)
    with pytest.raises(ValueError, match="at least 1"):
        BocpdState(NigPrior(), 0.1, 0)


@pytest.mark.parametrize("hazard", [0.0, 1.5, np.nan])
def test_state_refuses_a_hazard_outside_the_unit_interval(hazard):
    """The state checks its hazard when it is made, with the sweep's message."""
    with pytest.raises(ValueError, match=r"^hazard must be in \(0, 1\]$"):
        BocpdState(NigPrior(), hazard)
    with pytest.raises(ValueError, match=r"^hazard must be in \(0, 1\]$"):
        bocpd_sweep(np.zeros(3), hazard, [0.5])


def test_student_t_reduces_to_cauchy():
    # df=1, loc=0, scale=1 is the standard Cauchy
    x = np.array([-2.0, 0.0, 0.5, 3.0])
    expect = -np.log(np.pi * (1 + x ** 2))
    assert np.allclose(student_t_logpdf(x, 1.0, 0.0, 1.0), expect, atol=1e-12)


def test_detects_mean_shift_and_resets():
    rng = spawn_rng(0, "bocpd-shift")
    y = rng.normal(0.0, 1.0, size=300)
    y[150:] += 4.0
    dets, info = bocpd_detect(y, hazard=0.01, r_min=5, threshold=0.5,
                              keep_posterior=True)
    assert [(d.detect_time, d.located_time) for d in dets] == [(150, 150)]
    assert dets[0].stat_value > 0.9
    # one closed segment plus the open tail
    segs = info["segment_log_evidence"]
    assert segs[0][:2] == (0, 150)
    assert segs[1][:2] == (151, 299)
    probs = [p for _, p in info["short_run_prob"]]
    assert len(probs) == 300
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in probs)


def test_alarms_suppressed_during_burn_in():
    rng = spawn_rng(1, "bocpd-early")
    y = np.concatenate([np.zeros(3), 8.0 + rng.normal(0.0, 0.1, size=40)])
    dets, _ = bocpd_detect(y, hazard=0.05, r_min=5, threshold=0.5)
    assert dets
    # alarms are impossible for the first r_min + 1 observations
    assert dets[0].detect_time == 6
    assert dets[0].located_time == 3


def test_located_time_clamped_to_segment():
    rng = spawn_rng(2, "bocpd-clamp")
    y = rng.normal(0.0, 1.0, size=200)
    y[60:] += 3.0
    y[140:] += 3.0
    dets, _ = bocpd_detect(y, hazard=0.02, r_min=5, threshold=0.5)
    assert len(dets) >= 2
    seg_start = 0
    for d in dets:
        assert seg_start <= d.located_time <= d.detect_time
        seg_start = d.detect_time + 1


def test_quiet_on_in_control_data():
    rng = spawn_rng(3, "bocpd-null")
    y = rng.normal(0.0, 1.0, size=400)
    dets, _ = bocpd_detect(y, hazard=0.005, r_min=5, threshold=0.9)
    assert dets == []


def test_parameter_validation():
    y = np.zeros(10)
    with pytest.raises(ValueError):
        bocpd_detect(y, hazard=0.0)
    with pytest.raises(ValueError):
        bocpd_detect(y, hazard=1.5)
    with pytest.raises(ValueError):
        bocpd_detect(y, hazard=0.1, threshold=0.0)
    with pytest.raises(ValueError):
        bocpd_detect(y, hazard=0.1, threshold=1.0)
    with pytest.raises(ValueError):
        NigPrior(0.0, -1.0, 1.0, 1.0)


def test_logsumexp_equals_scipy():
    rng = spawn_rng(8, "bocpd-lse")
    cases = [np.array([0.3]), np.array([-np.inf]), np.array([-np.inf, -np.inf]),
             np.array([2.0, 2.0, -1.0]), np.array([-np.inf, 1.5, 1.5, 1.5])]
    for n in (2, 7, 8, 9, 100, 1001):
        for scale in (1e-3, 1.0, 50.0):
            a = rng.normal(0.0, scale, size=n)
            a[rng.integers(n)] = -np.inf
            cases.append(a)
            tied = a.copy()
            tied[rng.integers(n)] = tied.max()  # two or more maxima
            cases.append(tied)
    for a in cases:
        assert _logsumexp(a) == logsumexp(a)


def test_lgam_equals_scipy():
    """On the table arguments of several priors, on seeded random values, and
    on both sides of each branch point of cephes lgam."""
    rng = spawn_rng(9, "bocpd-lgam")
    points = [2.0, 3.0, 13.0, 1000.0, 1e8]
    cases = [points, np.nextafter(points, 0.0), np.nextafter(points, np.inf),
             [0.01, 0.5, 1.0, 1.5, 2.5, 1e9, 1e15],
             rng.uniform(0.01, 20.0, 5000), rng.uniform(0.01, 1e5, 5000)]
    for alpha0 in (0.01, 0.5, 1.0, 1.3, 2.0, 7.7):
        df = 2.0 * np.cumsum(np.concatenate(([alpha0], np.full(2999, 0.5))))
        cases += [(df + 1) / 2, df / 2]
    x = np.concatenate(cases)
    assert np.array_equal(np.array([_lgam(v) for v in x.tolist()]), gammaln(x))


@pytest.mark.parametrize("hazard", [0.005, 0.1, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detect_equals_reference_recursion(seed, hazard):
    y = shifted_series(seed)
    prior = NigPrior()
    ref_dets, ref_info = reference_detect(y, hazard, prior, r_min=5, threshold=0.5)
    dets, info = bocpd_detect(y, hazard, prior, r_min=5, threshold=0.5, keep_posterior=True)
    assert len(ref_dets) >= 5
    assert dets == ref_dets
    assert info["short_run_prob"] == ref_info["short_run_prob"]
    assert info["segment_log_evidence"] == ref_info["segment_log_evidence"]


def test_state_equals_reference_over_a_long_stream():
    # 5,000 steps fill the buffers to their last entry
    rng = spawn_rng(7, "bocpd-long")
    y = rng.normal(0.0, 1.0, size=5000)
    y[1800:] += 2.0
    y[3500:] -= 3.0
    prior = NigPrior(0.5, 2.0, 1.5, 0.7)
    state, ref = BocpdState(prior, 0.01, 5000), ReferenceState(prior)
    for v in y:
        state.step(float(v))
        ref.step(float(v), 0.01)
        assert np.array_equal(state.log_post, ref.log_post)
        assert state.log_evidence == ref.log_evidence
    assert state.steps == 5000
    assert state.map_run_length() == int(np.argmax(ref.log_post))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    y = np.zeros(30)
    y[17] = bad
    with pytest.raises(ValueError, match="index 17"):
        bocpd_detect(y, hazard=0.1)
