"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Each test prints `[criterion NN] PASS/FAIL name: details` before asserting,
so the measured numbers are visible in the report even when a criterion
fails.  Criterion 6 encodes a contrast that the shipped causal classic
chart does not produce (see its docstring for the measured numbers); it
is kept failing rather than weakened.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from predcomp.cli import main
from predcomp.cusum import CusumChart
from predcomp.evaluate import arlp, attribute, find_target, score_run
from predcomp.lstm import init_lstm
from predcomp.pnc import PncConfig, run_stream
from predcomp.predictors import ArimaPredictor, fit_predictor
from predcomp.refdet.bocpd import BocpdState, NigPrior
from predcomp.refdet.classic import classic_cusum_detect
from predcomp.refdet.ocd import ocd_detect
from predcomp.seeding import spawn_rng
from predcomp.series import CpLabel, Detection, LabeledSeries
from predcomp.simulate import WearIntensity, sample_wear_series
from predcomp.standardize import estimate_trend, standardize


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_01_cusum_recursion_equals_reevaluation():
    """Recursive chart values match a from-scratch evaluation at every step.

    Streams live on a dyadic lattice (multiples of 1/8), so both routes
    are exact in floating point and equality can be required bitwise.
    The closed form of the decision-interval statistic is
    S_j = max(0, P_{j+1} - min_{i<=j} P_i) with P the increment prefix
    sums; every 100th stream is additionally re-evaluated with a literal
    per-j maximization.
    """
    t0 = time.time()
    rng = spawn_rng(0, "accept1")
    n_ok = 0
    for s in range(1000):
        length = int(rng.integers(20, 201))
        x = rng.integers(-16, 17, size=length) / 8.0
        th = rng.integers(0, 9, size=length) / 8.0
        k = 0.5
        chart = CusumChart(1e18, k, "up")
        rec = np.empty(length)
        for j in range(length):
            chart.step(j, float(x[j]), float(th[j]))
            rec[j] = chart.value
        inc = x - th - k
        pref = np.concatenate(([0.0], np.cumsum(inc)))
        closed = np.maximum(0.0, pref[1:] - np.minimum.accumulate(pref[:-1]))
        ok = np.array_equal(rec, closed)
        chart = CusumChart(1e18, k, "down")
        rec_dn = np.empty(length)
        for j in range(length):
            chart.step(j, float(x[j]), float(th[j]))
            rec_dn[j] = chart.value
        inc_dn = x - th + k
        pref_dn = np.concatenate(([0.0], np.cumsum(inc_dn)))
        closed_dn = np.minimum(0.0, pref_dn[1:] - np.maximum.accumulate(pref_dn[:-1]))
        ok = ok and np.array_equal(rec_dn, closed_dn)
        if s % 100 == 0:
            literal = np.array([max(0.0, max(pref[j + 1] - pref[i] for i in range(j + 1)))
                                for j in range(length)])
            ok = ok and np.array_equal(rec, literal)
        n_ok += ok
    dt = time.time() - t0
    passed = n_ok == 1000 and dt < 10.0
    _report(1, "cusum recursion vs re-evaluation", passed,
            f"{n_ok}/1000 streams bit-exact (up+down) in {dt:.1f}s")
    assert passed


def test_criterion_02_first_alarm_threshold_monotonicity():
    """Raising the threshold never makes any detector alarm earlier."""
    t0 = time.time()
    cusum_grid = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
    ocd_grid = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
    violations = 0
    for s in range(100):
        rng = spawn_rng(s, "accept2")
        x = rng.normal(0.0, 1.0, size=300)
        cp = int(rng.integers(120, 260))
        x[cp:] += 2.0
        last = -1
        for th in cusum_grid:
            dets, _ = classic_cusum_detect(x, threshold=th, allowance=0.5,
                                           target_window=50)
            first = dets[0].detect_time if dets else 10 ** 9
            violations += first < last
            last = first
        last = -1
        for th in ocd_grid:
            dets, _ = ocd_detect(x, diag=th, h_tail=20, baseline_window=50)
            first = dets[0].detect_time if dets else 10 ** 9
            violations += first < last
            last = first
        pred = fit_predictor({"kind": "mean"}, x[:50])
        last = -1
        for th in cusum_grid:
            dets, _ = run_stream(pred, PncConfig(50, 25, th, 0.5), x)
            first = dets[0].detect_time if dets else 10 ** 9
            violations += first < last
            last = first
    dt = time.time() - t0
    passed = violations == 0 and dt < 30.0
    _report(2, "first-alarm monotonicity", passed,
            f"{violations} violations over 100 streams x 10 thresholds x 3 detectors "
            f"in {dt:.1f}s")
    assert passed


def test_criterion_03_standardization_moments():
    """Tail moments and exponent of standardized homogeneous Poisson data.

    Requirement: over 20 seeds of Poisson(4), n=50,000, the tail-half
    scores have mean in [-0.1, 0.1] and variance in [0.8, 1.2] for >= 18
    seeds, with the trend exponent within +-0.05 of 0; the noiseless
    quadratic cumulative case must give an exponent within +-0.05 of 1.

    The exponent is the log-log OLS slope of the cumulative count with its
    intercept fitted, so a flat rate gives nu near 0 whatever the rate.
    The report still prints ln(4)/ln(50000) = 0.1281: the flat-rate bias
    of the earlier estimator ln(sum X)/ln(t) - 1, which forced that
    intercept to zero and failed the mean and exponent clauses here.
    """
    t0 = time.time()
    mean_ok = var_ok = nu_ok = 0
    means, variances, nus = [], [], []
    for seed in range(20):
        rng = spawn_rng(seed, "accept3")
        x = rng.poisson(4.0, size=50000).astype(float)
        res = standardize(LabeledSeries(x, [], name="hpp"), t0=0, mode="offline")
        tail = res.scores.values[25000:]
        m, v = float(tail.mean()), float(tail.var())
        means.append(m)
        variances.append(v)
        nus.append(res.fit.nu)
        mean_ok += -0.1 <= m <= 0.1
        var_ok += 0.8 <= v <= 1.2
        nu_ok += abs(res.fit.nu) <= 0.05
    quad = np.diff(np.arange(0, 50001, dtype=float) ** 2)
    nu_quad = estimate_trend(quad, t0=0).nu
    quad_ok = abs(nu_quad - 1.0) <= 0.05
    dt = time.time() - t0
    passed = (mean_ok >= 18 and var_ok >= 18 and nu_ok == 20 and quad_ok
              and dt < 60.0)
    _report(3, "standardization moments", passed,
            f"mean_ok={mean_ok}/20 ({min(means):.4f}..{max(means):.4f}), "
            f"var_ok={var_ok}/20 ({min(variances):.4f}..{max(variances):.4f}), "
            f"nu_ok={nu_ok}/20 ({min(nus):.4f}..{max(nus):.4f}, "
            f"flat-rate bias ln(4)/ln(50000)={np.log(4) / np.log(50000):.4f}), "
            f"nu_quad={nu_quad:.6f} in {dt:.1f}s")
    assert passed


def test_criterion_04_lstm_gradient_check(gradient_check):
    """BPTT gradients vs central finite differences on a small net."""
    t0 = time.time()
    net = init_lstm(6, 2, hidden=4, seed=0, scale=0.5)
    rng = spawn_rng(0, "accept4")
    X = rng.normal(size=(10, 6))
    target = rng.normal(size=(10, 2))
    err = gradient_check(net, X, target)
    dt = time.time() - t0
    passed = err < 1e-4 and dt < 10.0
    _report(4, "lstm gradient check", passed,
            f"max relative error {err:.2e} over all parameters, 10 inputs, "
            f"in {dt:.1f}s")
    assert passed


def test_criterion_05_arima_recovery():
    """AR(1) coefficient recovery and differencing on a ramp."""
    t0 = time.time()
    ok = 0
    phis = []
    for seed in range(10):
        rng = spawn_rng(seed, "accept5")
        e = rng.normal(0.0, 1.0, size=2000)
        y = np.empty(2000)
        y[0] = e[0]
        for i in range(1, 2000):
            y[i] = 0.5 * y[i - 1] + e[i]
        model = ArimaPredictor.fit(y, (1, 0, 0))
        phis.append(float(model.phi[0]))
        ok += abs(model.phi[0] - 0.5) <= 0.1
    ramp = np.arange(2000, dtype=float) * 0.3 + 5.0
    ramp += spawn_rng(99, "accept5-ramp").normal(0.0, 0.1, size=2000)
    auto = ArimaPredictor.fit(ramp, "auto")
    dt = time.time() - t0
    passed = ok >= 9 and auto.d >= 1 and dt < 60.0
    _report(5, "arima recovery", passed,
            f"{ok}/10 seeds with phi within +-0.1 ({min(phis):.3f}..{max(phis):.3f}); "
            f"auto order on ramp = ({auto.p},{auto.d},{auto.q}) in {dt:.1f}s")
    assert passed


def test_criterion_06_false_positive_advantage_over_classic():
    """Prediction-assisted chart vs classic chart on a step at index 100.

    Requirement (majority >= 16/20 seeds): at the smallest threshold where
    the prediction-assisted chart is clean before the step and detects
    within 30 steps, (A) the classic chart at the same threshold has a
    false positive, and (B) the classic chart's own smallest clean
    threshold detects strictly later.

    The classic detector here uses a strictly causal running-mean target,
    which tracks a flat pre-change stream almost exactly as well as the
    predictor does; on shared noise both charts accumulate nearly the
    same increments, so at the shared threshold the classic chart is
    usually also clean (clause A fails) and their detection times tie
    (clause B fails).  The advantage described by the requirement arises
    for a chart centered on the non-causal global series mean, whose
    target is inflated by the post-change data; that mechanism is
    demonstrated in test_global_mean_target_creates_false_positives.
    Measured here: clause A ~2/20, clause B ~1/20, so this criterion
    fails by construction and is reported rather than gamed.
    """
    t0 = time.time()
    lambdas = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
    cp = 100
    a_ok = b_ok = usable = 0
    for seed in range(20):
        rng = spawn_rng(seed, "fig7")
        x = rng.normal(0.0, 1.0, size=200)
        x[cp:] += 3.0
        pred = fit_predictor({"kind": "ar", "p": 3}, x[:50])
        pnc_first = {}
        classic_first = {}
        for lam in lambdas:
            dets, _ = run_stream(pred, PncConfig(50, 25, lam, 0.5), x)
            pnc_first[lam] = dets[0].detect_time if dets else None
            dets_c, _ = classic_cusum_detect(x, threshold=lam, allowance=0.5,
                                             target_window=50)
            classic_first[lam] = dets_c[0].detect_time if dets_c else None
        lam_star = next((lam for lam in lambdas
                         if pnc_first[lam] is not None
                         and cp < pnc_first[lam] <= cp + 30), None)
        if lam_star is None:
            continue
        usable += 1
        if classic_first[lam_star] is not None and classic_first[lam_star] < cp:
            a_ok += 1
        lam_clean = next((lam for lam in lambdas
                          if classic_first[lam] is not None
                          and classic_first[lam] > cp), None)
        if lam_clean is not None and classic_first[lam_clean] > pnc_first[lam_star]:
            b_ok += 1
    dt = time.time() - t0
    passed = usable == 20 and a_ok >= 16 and b_ok >= 16 and dt < 60.0
    _report(6, "false-positive advantage over classic chart", passed,
            f"usable={usable}/20, clause A (classic FP at shared threshold) "
            f"{a_ok}/20, clause B (clean classic strictly later) {b_ok}/20 "
            f"in {dt:.1f}s")
    assert passed


def test_global_mean_target_creates_false_positives(run_chart):
    """Companion to criterion 6: the mechanism behind the expected contrast.

    Centering the chart on the global series mean (a non-causal target
    that averages pre- and post-change data) guarantees pre-change false
    positives at thresholds where the prediction-assisted chart is clean:
    before the step the observations sit below the inflated target by a
    near-constant margin, which a two-sided chart accumulates steadily.
    """
    hits_a = 0
    cp = 100
    for seed in range(20):
        rng = spawn_rng(seed, "fig7")
        x = rng.normal(0.0, 1.0, size=200)
        x[cp:] += 3.0
        pred = fit_predictor({"kind": "ar", "p": 3}, x[:50])
        lam_star = None
        for lam in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0):
            dets, _ = run_stream(pred, PncConfig(50, 25, lam, 0.5), x)
            if dets and cp < dets[0].detect_time <= cp + 30:
                lam_star = lam
                break
        assert lam_star is not None
        theta = float(x.mean())  # inflated by the post-change half
        dets_dn, _ = run_chart(x[50:], np.full(150, theta), lam_star, 0.5,
                               direction="down", start=50)
        if dets_dn and dets_dn[0][0] < cp:
            hits_a += 1
    assert hits_a >= 16, f"global-mean chart produced FPs in only {hits_a}/20 seeds"


def test_criterion_07_metric_fidelity():
    """Delay metric value and the discard rule for post-target detections."""
    t0 = time.time()
    phase_len = 3158.0
    delay = 7.32 * phase_len / 100.0  # back-solved: 231.1656 steps
    value = arlp(3200.0 + delay, 3200.0, phase_len)
    labels = [CpLabel(800, "E", "K"), CpLabel(3200, "K", "A"), CpLabel(6358, "A", "V")]
    series = LabeledSeries(np.zeros(7000), labels, name="fixture")
    target = find_target(series, "K>A")
    dets = [Detection(detect_time=700, detector="d"),
            Detection(detect_time=3476, detector="d"),
            Detection(detect_time=6000, detector="d")]
    att = attribute(dets, series, target)
    dt = time.time() - t0
    passed = (abs(value - 7.32) < 1e-9 and att.fpc == 1 and att.target_found
              and att.target_detection.detect_time == 3476 and att.discarded == 1
              and dt < 1.0)
    _report(7, "metric fidelity", passed,
            f"arlp(back-solved delay {delay:.4f}) = {value:.10f}; "
            f"fixture: fpc={att.fpc}, found at {att.target_detection.detect_time}, "
            f"discarded={att.discarded} in {dt:.2f}s")
    assert passed


def test_criterion_08_bayesian_ocpd_exactness():
    """Recursion evidence vs enumeration over all segmentations, n <= 12."""
    t0 = time.time()

    def seg_log_marginal(x, p):
        x = np.asarray(x, dtype=float)
        m = len(x)
        xbar = x.mean()
        kap = p.kappa0 + m
        alp = p.alpha0 + m / 2
        bet = (p.beta0 + 0.5 * np.sum((x - xbar) ** 2)
               + p.kappa0 * m * (xbar - p.mu0) ** 2 / (2 * kap))
        return (gammaln(alp) - gammaln(p.alpha0) + p.alpha0 * np.log(p.beta0)
                - alp * np.log(bet) + 0.5 * (np.log(p.kappa0) - np.log(kap))
                - (m / 2) * np.log(2 * np.pi))

    worst_ev = 0.0
    worst_norm = 0.0
    n_series = 0
    for n in range(2, 13):
        rng = spawn_rng(n, "accept8")
        x = rng.normal(0.0, 1.0, size=n)
        if n >= 6:
            x[n // 2:] += 2.5  # half the fixtures contain a genuine break
        for hazard in (0.15, 0.5):
            n_series += 1
            prior = NigPrior()
            state = BocpdState(prior, hazard)
            for v in x:
                state.step(float(v))
                worst_norm = max(worst_norm,
                                 abs(np.exp(state.log_post).sum() - 1.0))
            logs = []
            for brk in itertools.product([0, 1], repeat=n - 1):
                breaks = sum(brk)
                lw = breaks * np.log(hazard) + (n - 1 - breaks) * np.log1p(-hazard)
                cuts = [0] + [i + 1 for i, b in enumerate(brk) if b] + [n]
                for a, b in zip(cuts[:-1], cuts[1:]):
                    lw += seg_log_marginal(x[a:b], prior)
                logs.append(lw)
            worst_ev = max(worst_ev, abs(state.log_evidence - float(logsumexp(logs))))
    dt = time.time() - t0
    passed = worst_ev < 1e-8 and worst_norm < 1e-12 and dt < 30.0
    _report(8, "bayesian ocpd exactness", passed,
            f"{n_series} fixtures; worst |log-evidence error| {worst_ev:.2e} "
            f"(relative), worst posterior normalization error {worst_norm:.2e} "
            f"in {dt:.1f}s")
    assert passed


def test_criterion_09_end_to_end_wear_scenario(tmp_path):
    """Wear datasets: default prediction-assisted chart finds the K->A change,
    and the full demo grid finishes quickly with a winners report."""
    t0 = time.time()
    found_ok = 0
    for seed in range(20):
        intensity = WearIntensity(a=120.0, lam=0.02, c=3.0, d=0.02, t2=1200)
        series = sample_wear_series(intensity, 2000, seed, stream="wear_mild",
                                    name="wear_mild")
        scores = standardize(series, t0=0, mode="offline").scores
        pred = fit_predictor({"kind": "ar", "p": 5}, scores.values[:600])
        dets, _ = run_stream(pred, PncConfig(200, 50, 10.0, 0.5), scores,
                             name="pnc_ar")
        rec = score_run(dets, scores, find_target(scores, "K>A"),
                        "wear_mild", "pnc_ar", {"desInt": 10})
        found_ok += rec.fpc <= 10 and rec.target_found
    from pathlib import Path

    demo = str(Path(__file__).resolve().parents[1] / "configs" / "demo.yaml")
    out = tmp_path / "demo"
    rc_sim = main(["simulate", "-c", demo, "--out", str(out)])
    rc_grid = main(["grid", "-c", demo, "--out", str(out)])
    report_path = tmp_path / "winners.txt"
    rc_eval = main(["eval", "-c", demo, "--metrics", str(out / "metrics.csv"),
                    "--out", str(report_path)])
    text = report_path.read_text() if report_path.exists() else ""
    import csv

    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    points: dict[str, set[str]] = {}
    datasets = set()
    for ds, det, params, *_ in rows:
        datasets.add(ds)
        points.setdefault(det, set()).add(params)
    min_points = min(len(v) for v in points.values()) if points else 0
    dt = time.time() - t0
    passed = (found_ok >= 18 and rc_sim == rc_grid == rc_eval == 0
              and len(points) >= 3 and min_points >= 5 and len(datasets) == 3
              and "per_dataset winners" in text and "overall winners" in text
              and dt < 600.0)
    _report(9, "end-to-end wear scenario", passed,
            f"{found_ok}/20 seeds with fpc<=10 and target found at defaults; "
            f"grid of {len(rows)} runs ({len(points)} detectors x >= {min_points} "
            f"points x {len(datasets)} datasets) + report in {dt:.1f}s")
    assert passed


CRITERION_10_CONFIG = """\
schema_version: 1
seed: 11
output_dir: {out}
train_prefix: 300
datasets:
  - id: s1
    source: {{kind: step, pre_mean: 0.0, post_mean: 3.0, sigma: 1.0, cp_at: 500, n: 800}}
detectors:
  - id: pnc_ar
    kind: pnc
    predictor: {{kind: ar, p: 2}}
    params: {{l: 100, b: 25, k: 0.5}}
    grid: {{desInt: [8]}}
  - id: cusum
    kind: cusum
    params: {{k: 0.5, window: 50}}
    grid: {{desInt: [5]}}
evaluation:
  target: K>A
  baseline: {{n_fp: [0], repetitions: 20}}
lstm: {{nh: 12, nz: 4, hidden: 6, epochs: 3, batch_size: 16, learning_rate: 0.01}}
"""


#: sha256 of each criterion-10 output as this code writes it; a change that
#: moves the bits of both runs the same way fails here, not in the re-run check
CRITERION_10_SHA256 = {
    "series": "2953fff68105bed7f44be47fe3119785bb6479909149459c4ad11af1b682e875",
    "manifest": "9aa4408d8e624f56d2161638f424471b95f786d0cfadf88d87da1b34bd4217f5",
    "detections": "4daa8b6ab8c8120195977b28feb058adb87b1949748689dd3e9c56c8537e3a8d",
    "trace": "413658debf96985bccf961d47f3821093c2a8651765a032629f13a663cea3cef",
    "svg": "6565058d67433d7c61f042ff9f2cd9e1e4bab488818b9001505991e59ec2a7a8",
    "metrics": "5997f86e980af571f5bafc4c0dab3787b652e5d03fc8e84d2fd6562b5c49f723",
    "model": "d01eca04893964268b15fab6687f540a5d06950d81918d879108355a9d4649be",
    "loss": "8da40ab563bea42d9fd54bb60c33378357e2a802688ec6654f32eedac3c5d986",
    "scores": "91fd901e258d46156c04a756d01a934816f8ad0635bd0c32fb4f38254db309fe",
    "eval": "35707aa64df2e764a89dd9cc8c7a6dc57cb41d20f28068f9e87d7c1c5aac164e",
    "report": "c1a1d66c628ea9672f1f48671d8ba14f7f68fa567311879d19f1e952c108d272",
}


def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    """Re-running every command with the same config and seed reproduces
    every output byte for byte, and each output is the committed one
    (CRITERION_10_SHA256)."""
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    t0 = time.time()
    out = tmp_path / "out"
    cfg = tmp_path / "c.yaml"
    model = tmp_path / "model.json"
    cfg.write_text(CRITERION_10_CONFIG.format(out=out))
    outputs = {
        "series": out / "s1.csv",
        "manifest": out / "manifest.json",
        "detections": tmp_path / "d.csv",
        "trace": tmp_path / "t.csv",
        "svg": tmp_path / "t.svg",
        "metrics": out / "metrics.csv",
        "model": model,
        "loss": tmp_path / "loss.csv",
        "scores": tmp_path / "scores.csv",
        "eval": tmp_path / "eval.txt",
        "report": tmp_path / "report.txt",
    }

    def run_all():
        assert main(["simulate", "-c", str(cfg)]) == 0
        assert main(["detect", "-c", str(cfg), "--dataset", "s1",
                     "--detector", "pnc_ar", "--out", str(outputs["detections"]),
                     "--trace", str(outputs["trace"]), "--svg", str(outputs["svg"])]) == 0
        assert main(["grid", "-c", str(cfg)]) == 0
        assert main(["train-lstm", "-c", str(cfg), "--dataset", "s1",
                     "--out", str(model), "--loss", str(outputs["loss"])]) == 0
        assert main(["standardize", str(outputs["series"]),
                     str(outputs["scores"])]) == 0
        assert main(["eval", "-c", str(cfg), "--metrics", str(outputs["metrics"]),
                     "--out", str(outputs["eval"])]) == 0
        assert main(["report", "--metrics", str(outputs["metrics"]),
                     "--out", str(outputs["report"])]) == 0
        return {key: path.read_bytes() for key, path in outputs.items()}

    first = run_all()
    second = run_all()
    capsys.readouterr()
    differing = sorted(key for key in first if first[key] != second[key])
    dt = time.time() - t0
    passed = not differing
    _report(10, "determinism", passed,
            f"{len(first)} outputs byte-identical across re-runs in {dt:.1f}s"
            + (f"; differing: {differing}" if differing else ""))
    assert passed
    assert {key: hashlib.sha256(data).hexdigest() for key, data in first.items()} == \
        CRITERION_10_SHA256


@pytest.mark.parametrize("config", ["demo", "criterion_10"])
def test_pooled_grid_equals_the_serial_one(tmp_path, monkeypatch, config):
    """The grid's units on two forked workers score every run as on one CPU."""
    from predcomp.cli import build_dataset, build_detector, prepare_series
    from predcomp.config import load_config
    from predcomp.evaluate import run_grid
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    path = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
    if config == "criterion_10":
        path = tmp_path / "c.yaml"
        path.write_text(CRITERION_10_CONFIG.format(out=tmp_path / "out"))
    doc = load_config(path)
    datasets = [prepare_series(doc, build_dataset(ds, doc["seed"])) for ds in doc["datasets"]]
    detectors = [build_detector(det, doc) for det in doc["detectors"]]
    records = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        records.append(run_grid(datasets, detectors, doc["evaluation"]["target"]))
    assert multiprocessing.active_children() == []
    assert records[1] == records[0]
