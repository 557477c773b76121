"""The detector table: what config validation takes from it, the README
reference drawn from it, and `detect` and `grid` running each kind alike."""

from __future__ import annotations

import csv
import inspect
import json
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import predcomp.series as series_module
from predcomp.cli import build_dataset, build_detector, main, prepare_series
from predcomp.config import ConfigError, load_config
from predcomp.config import KINDS, MAX_N, REQUIRED, run_unit
from predcomp.evaluate import params_id
from predcomp.io import write_lstm
from predcomp.lstm import LstmPredictor, init_lstm
from predcomp.pnc import PncConfig, PncStream, run_stream
from predcomp.predictors import fit_predictor
from predcomp.refdet import NigPrior, bocpd_detect, classic_cusum_detect, mosum_detect, ocd_detect
from predcomp.refdet.bocpd import BocpdState, bocpd_sweep
from predcomp.refdet.classic import classic_cusum_sweep
from predcomp.refdet.mosum import mosum_sweep
from predcomp.refdet.ocd import ocd_sweep
from predcomp.seeding import spawn_rng
from predcomp.series import MAX_ABS, LabeledSeries
from predcomp.standardize import OnlineStandardizer, standardize

ROOT = Path(__file__).resolve().parents[1]


def test_readme_table_lists_each_kinds_parameters():
    readme = (ROOT / "README.md").read_text()
    listed: dict[str, list[tuple[str, str]]] = {}
    for kind, name, default in re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", readme, re.M):
        listed.setdefault(kind, []).append((name, default.strip()))
    assert sorted(listed) == sorted(KINDS)
    for kind, entry in KINDS.items():
        assert [name for name, _ in listed[kind]] == list(entry.params), kind
        for name, cell in listed[kind]:
            default = entry.params[name][1]
            if default is REQUIRED:
                assert cell == "required", (kind, name)
            elif default is None:
                assert cell.startswith("unset"), (kind, name)
            else:
                assert cell == f"`{default}`", (kind, name)


# config key -> (the functions it feeds, their argument); pnc's l and b feed
# PncConfig's window_len and horizon, which have no default
FEEDS = {
    "pnc": {"k": ([PncConfig], "allowance"), "direction": ([PncConfig], "direction"),
            "refit": ([PncConfig], "refit"),
            "min_refit_history": ([PncConfig], "min_refit_history")},
    "cusum": {"k": ([classic_cusum_detect, classic_cusum_sweep], "allowance"),
              "window": ([classic_cusum_detect, classic_cusum_sweep], "target_window")},
    "bocpd": {"cpthreshold": ([bocpd_detect], "threshold"), "r_min": ([bocpd_detect], "r_min"),
              **{name: ([NigPrior], name) for name in ("mu0", "kappa0", "alpha0", "beta0")}},
    "ocd": {"h_tail": ([ocd_detect, ocd_sweep], "h_tail"),
            "baseline_window": ([ocd_detect, ocd_sweep], "baseline_window")},
    "mosum": {"minHist": ([mosum_detect, mosum_sweep], "min_hist"),
              "histFact": ([mosum_detect, mosum_sweep], "hist_fact"),
              "h": ([mosum_detect, mosum_sweep], "h_band"), "level": ([mosum_detect], "level"),
              "harmonics": ([mosum_detect, mosum_sweep], "harmonics"),
              "period": ([mosum_detect, mosum_sweep], "period"),
              "monitor_from": ([mosum_detect, mosum_sweep], "monitor_from")},
}


def test_config_defaults_equal_the_python_api_defaults():
    for kind, entry in KINDS.items():
        with_default = {name for name, (_, default) in entry.params.items()
                        if default is not REQUIRED}
        assert set(FEEDS[kind]) == with_default - ({"l", "b"} if kind == "pnc" else set()), kind
        for name, (functions, arg) in FEEDS[kind].items():
            for fn in functions:
                api = inspect.signature(fn).parameters[arg].default
                assert api == entry.params[name][1], (kind, name, fn.__name__)
                assert type(api) is type(entry.params[name][1]), (kind, name, fn.__name__)


AGREE_CONFIG = """\
schema_version: 1
seed: 4
output_dir: {out}
train_prefix: 300
datasets:
  - id: up
    source: {{kind: step, pre_mean: 0.0, post_mean: 3.0, sigma: 1.0, cp_at: 500, n: 800}}
  - id: down
    source: {{kind: step, pre_mean: 0.0, post_mean: -3.0, sigma: 1.0, cp_at: 500, n: 800}}
detectors:
  - id: pnc_down
    kind: pnc
    predictor: {{kind: ar, p: 2}}
    params: {{l: 100, b: 25, direction: down, refit: on_detection, min_refit_history: 20}}
    grid: {{desInt: [4, 8]}}
  - id: cusum
    kind: cusum
    grid: {{desInt: [5, 10], k: [0.5, 1.0]}}
  - id: bocpd
    kind: bocpd
    params: {{hazard: 0.01}}
    grid: {{cpthreshold: [0.5, 0.8]}}
  - id: ocd
    kind: ocd
    grid: {{diag: [8.0, 16.0]}}
  - id: mosum
    kind: mosum
    params: {{minHist: 150}}
    grid: {{level: [0.05, 0.1]}}
"""


@pytest.fixture(scope="module")
def agree_grid(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("agree")
    cfg = tmp / "agree.yaml"
    cfg.write_text(AGREE_CONFIG.format(out=tmp / "out"))
    assert main(["grid", "-c", str(cfg)]) == 0
    with open(tmp / "out" / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return cfg, load_config(cfg), rows


@pytest.mark.parametrize("detector, dataset, pins", [
    ("pnc_down", "down", {"desInt": 8}),
    ("cusum", "up", {"desInt": 10, "k": 1.0}),
    ("bocpd", "up", {"cpthreshold": 0.8}),
    ("ocd", "up", {"diag": 16.0}),
    ("mosum", "up", {"level": 0.1}),
], ids=["pnc", "cusum", "bocpd", "ocd", "mosum"])
def test_detect_and_grid_agree_for_every_kind(agree_grid, tmp_path, capsys, read_detections,
                                              detector, dataset, pins):
    cfg, doc, rows = agree_grid
    assert sorted(d["kind"] for d in doc["detectors"]) == sorted(KINDS)
    det_cfg = next(d for d in doc["detectors"] if d["id"] == detector)
    ds_cfg = next(d for d in doc["datasets"] if d["id"] == dataset)
    series = prepare_series(doc, build_dataset(ds_cfg, doc["seed"]))
    want = [(d.detect_time, d.located_time)
            for d in build_detector(det_cfg, doc).runner(series, **pins)]
    dets_csv = tmp_path / "dets.csv"
    sets = [arg for key, value in pins.items() for arg in ("--set", f"{key}={value}")]
    assert main(["detect", "-c", str(cfg), "--dataset", dataset, "--detector", detector,
                 *sets, "--out", str(dets_csv)]) == 0
    got = [(dt, loc) for *_, dt, loc in read_detections(dets_csv)]
    assert got == want and any(t >= 499 for t, _ in got)
    row = next(r for r in rows if r[:3] == [dataset, detector, params_id(pins)])
    assert int(row[3]) == len(got)
    capsys.readouterr()


def _level_series(seed: int, name: str) -> LabeledSeries:
    """600 points around 5 * seed whose mean rises by 3 at index 450."""
    y = spawn_rng(seed, "cache").normal(5.0 * seed, 1.0, size=600)
    y[450:] += 3.0
    return LabeledSeries(y, name=name)


@pytest.mark.parametrize("det_cfg, outside, other", [
    ({"id": "p", "kind": "pnc", "predictor": {"kind": "ar", "p": 2},
      "params": {"l": 100, "b": 25}, "grid": {"desInt": [4.0, 8.0]}}, 6.0, {"k": 1.0}),
    ({"id": "c", "kind": "cusum", "grid": {"desInt": [5.0, 10.0]}}, 7.0, {"k": 1.0}),
    ({"id": "b", "kind": "bocpd", "params": {"hazard": 0.01}, "grid": {"cpthreshold": [0.5, 0.8]}},
     0.6, {"hazard": 0.02}),
    ({"id": "o", "kind": "ocd", "grid": {"diag": [8.0, 16.0]}}, 12.0, {"h_tail": 20}),
    ({"id": "m", "kind": "mosum", "grid": {"level": [0.05, 0.1]}}, 0.2, {"h": 0.5}),
], ids=["pnc", "cusum", "bocpd", "ocd", "mosum"])
def test_a_run_keeps_what_it_fits_or_sweeps_to_its_own_series(det_cfg, outside, other):
    """One unit, run on unnamed series in turn, whose ids may be reused, and
    on series that share a name, gives each series at each point what a
    fresh one-point unit gives it: at the configured thresholds and at one
    outside them, with a second value of another key, in shuffled order and
    with one point twice."""
    doc = {"train_prefix": 300}
    kind = KINDS[det_cfg["kind"]]
    key = kind.threshold
    points = [{key: value, **extra} for extra in ({}, other)
              for value in [*det_cfg["grid"][key], outside]]
    points = [points[i] for i in spawn_rng(0, "points").permutation(len(points))]
    points.insert(3, points[1])
    got = []
    for seed, name in [(0, ""), (1, ""), (2, ""), (1, "same"), (2, "same")]:
        series = _level_series(seed, name)
        runs = run_unit(det_cfg, doc, series, points, keep_trace=True)
        assert len(runs) == len(points)
        for point, run in zip(points, runs):
            pinned = dict(det_cfg, params={**det_cfg.get("params", {}), **point}, grid={})
            (fresh,) = run_unit(pinned, doc, series, [point], keep_trace=True)
            assert run == fresh, (seed, name, point)
            got.append(fresh[0])
    assert len({tuple(d.detect_time for d in dets) for dets in got}) > 1


@pytest.mark.parametrize("direction, sign", [("up", 1.0), ("down", -1.0)])
def test_a_pnc_unit_returns_the_rows_its_stream_records(direction, sign):
    det_cfg = {"id": "p", "kind": "pnc", "predictor": {"kind": "ar", "p": 2},
               "params": {"l": 100, "b": 25, "direction": direction},
               "grid": {"desInt": [4.0, 8.0]}}
    series = LabeledSeries(sign * _level_series(0, "").values, name="s")
    points = [{"desInt": 4.0}, {"desInt": 8.0}]
    runs = run_unit(det_cfg, {"train_prefix": 300}, series, points, keep_trace=True)
    predictor = fit_predictor(det_cfg["predictor"], series.values[:300])
    for point, (detections, trace) in zip(points, runs):
        cfg = PncConfig(100, 25, point["desInt"], direction=direction)
        want, stream = run_stream(predictor, cfg, series, name="p", keep_trace=True)
        assert detections and detections == want
        assert trace == stream.trace
        assert {row.bound for row in trace} == {sign * point["desInt"]}


BAD_CONFIG = """\
schema_version: 1
seed: 1
output_dir: {out}
datasets:
  - id: s
    source: {{kind: step, pre_mean: 0.0, post_mean: 3.0, sigma: 1.0, cp_at: 300, n: 400}}
detectors:
  - {detector}
"""


@pytest.mark.parametrize("detector, message", [
    ("{id: c, kind: cusum, params: {k: 0.5}}", "desInt has no default"),
    ("{id: c, kind: bocpd, grid: {cpthreshold: [0.5]}}", "hazard has no default"),
    ("{id: c, kind: ocd}", "diag has no default"),
    ("{id: c, kind: pnc, predictor: {kind: mean}}", "desInt has no default"),
    ("{id: c, kind: cusum, grid: {desInt: [5, abc]}}", "desInt must be float, got 'abc'"),
    ("{id: c, kind: cusum, params: {desInt: 5, window: [50]}}", "window must be int"),
    ("{id: c, kind: pnc, predictor: {kind: mean}, params: {desInt: 5, direction: sideways}}",
     "direction must be up or down, got 'sideways'"),
    ("{id: c, kind: mosum, params: {monitor_from: soon}}", "monitor_from must be int"),
    # values of the right type that the detector would reject when it runs
    ("{id: c, kind: pnc, predictor: {kind: mean}, params: {desInt: 5, l: 0}}",
     "l must be int > 0, got 0"),
    ("{id: c, kind: pnc, predictor: {kind: mean}, params: {desInt: 5}, grid: {b: [5, -1]}}",
     "b must be int > 0, got -1"),
    ("{id: c, kind: pnc, predictor: {kind: mean}, params: {desInt: 0}}",
     "desInt must be float > 0, got 0"),
    ("{id: c, kind: pnc, predictor: {kind: mean}, params: {desInt: 5, k: -0.5}}",
     "k must be float >= 0, got -0.5"),
    ("{id: c, kind: cusum, grid: {desInt: [5, -5]}}", "desInt must be float > 0, got -5"),
    ("{id: c, kind: cusum, params: {desInt: 5, k: -1}}", "k must be float >= 0, got -1"),
    ("{id: c, kind: cusum, grid: {desInt: [5, .nan, 10]}}", "desInt must be float > 0, got nan"),
    ("{id: c, kind: ocd, params: {diag: .nan}}", "diag must be float > 0, got nan"),
    ("{id: c, kind: cusum, params: {desInt: 5, k: .nan}}", "k must be float >= 0, got nan"),
    ("{id: c, kind: cusum, params: {desInt: 5, window: 0}}", "window must be int > 0, got 0"),
    ("{id: c, kind: bocpd, params: {hazard: 0}}", "hazard must be float in (0, 1], got 0"),
    ("{id: c, kind: bocpd, params: {hazard: 1.5}}", "hazard must be float in (0, 1], got 1.5"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, cpthreshold: 1.0}}",
     "cpthreshold must be float in (0, 1), got 1.0"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01}, grid: {cpthreshold: [0.5, 0]}}",
     "cpthreshold must be float in (0, 1), got 0"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, kappa0: 0}}", "kappa0 must be float > 0, got 0"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, alpha0: -1}}",
     "alpha0 must be float > 0, got -1"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, beta0: 0.0}}",
     "beta0 must be float > 0, got 0.0"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, alpha0: .inf}}",
     "alpha0 must be finite, got inf"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01}, grid: {kappa0: [1.0, .inf]}}",
     "kappa0 must be finite, got inf"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, beta0: .nan}}", "beta0 must be finite, got nan"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, mu0: -.inf}}", "mu0 must be finite, got -inf"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, mu0: abc}}", "mu0 must be float, got 'abc'"),
    ("{id: c, kind: ocd, params: {diag: -1}}", "diag must be float > 0, got -1"),
    ("{id: c, kind: ocd, params: {diag: 8, h_tail: 0}}", "h_tail must be int >= 1, got 0"),
    ("{id: c, kind: ocd, params: {diag: 8, baseline_window: 1}}",
     "baseline_window must be int >= 2, got 1"),
    ("{id: c, kind: mosum, params: {histFact: 0}}", "histFact must be float in (0, 1], got 0"),
    ("{id: c, kind: mosum, grid: {h: [0.25, 1.5]}}", "h must be float in (0, 1], got 1.5"),
    # an infinite threshold would load and never alarm
    ("{id: c, kind: pnc, predictor: {kind: mean}, params: {desInt: .inf}}",
     "desInt must be finite, got inf"),
    ("{id: c, kind: cusum, grid: {desInt: [5, .inf]}}", "desInt must be finite, got inf"),
    ("{id: c, kind: ocd, params: {diag: .inf}}", "diag must be finite, got inf"),
    # an infinite allowance never alarms either; the rest would run as something else
    ("{id: c, kind: cusum, params: {desInt: 5, k: .inf}}", "k must be finite, got inf"),
    ("{id: c, kind: pnc, predictor: {kind: mean}, params: {desInt: 5, k: .inf}}",
     "k must be finite, got inf"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, r_min: -3}}", "r_min must be int >= 0, got -3"),
    ("{id: c, kind: mosum, params: {minHist: 0}}", "minHist must be int > 0, got 0"),
    ("{id: c, kind: mosum, grid: {minHist: [100, -10]}}", "minHist must be int > 0, got -10"),
    ("{id: c, kind: mosum, params: {monitor_from: -5}}", "monitor_from must be int >= 0, got -5"),
    ("{id: c, kind: mosum, params: {harmonics: -2}}", "harmonics must be int >= 0, got -2"),
    ("{id: c, kind: mosum, params: {harmonics: 1, period: .nan}}",
     "period must be finite, got nan"),
    ("{id: c, kind: pnc, predictor: {kind: mean}, params: {desInt: 5, min_refit_history: -5}}",
     "min_refit_history must be int >= 0, got -5"),
], ids=["cusum-desInt", "bocpd-hazard", "ocd-diag", "pnc-desInt", "grid-value", "params-value",
        "choice", "monitor_from", "pnc-l", "pnc-b", "pnc-desInt-range", "pnc-k",
        "cusum-desInt-range", "cusum-k", "cusum-desInt-nan", "ocd-diag-nan", "cusum-k-nan",
        "cusum-window", "bocpd-hazard-0", "bocpd-hazard-1.5",
        "bocpd-cpthreshold-1", "bocpd-cpthreshold-0", "bocpd-kappa0", "bocpd-alpha0",
        "bocpd-beta0", "bocpd-alpha0-inf", "bocpd-kappa0-inf", "bocpd-beta0-nan", "bocpd-mu0-inf",
        "bocpd-mu0-untyped", "ocd-diag-range", "ocd-h_tail", "ocd-baseline_window",
        "mosum-histFact", "mosum-h", "pnc-desInt-inf", "cusum-desInt-inf", "ocd-diag-inf",
        "cusum-k-inf", "pnc-k-inf", "bocpd-r_min", "mosum-minHist-0", "mosum-minHist-negative",
        "mosum-monitor_from", "mosum-harmonics", "mosum-period-nan", "pnc-min_refit_history"])
def test_missing_or_unreadable_parameter_exits_2(tmp_path, capsys, detector, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(BAD_CONFIG.format(out=tmp_path / "out", detector=detector))
    with pytest.raises(ConfigError, match=re.escape(f"detector 'c': {message}")):
        load_config(cfg)
    assert main(["grid", "-c", str(cfg)]) == 2
    assert f"detector 'c': {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("detector, pins, message", [
    ("{id: c, kind: mosum, grid: {level: [0.05, 0.3]}}", None,
     "level 0.3 not calibrated; available: [0.01, 0.05, 0.1, 0.2]"),
    ("{id: c, kind: mosum, params: {harmonics: 1}}", None,
     "harmonics 1 need a period > 0, got period 0.0"),
    ("{id: c, kind: mosum, grid: {level: [0.05, 0.1]}}", ["level=0.07"],
     "level 0.07 not calibrated"),
    ("{id: c, kind: mosum, params: {period: 50.0}, grid: {harmonics: [0, 2]}}",
     ["harmonics=2", "period=-1"],
     "harmonics 2 need a period > 0, got period -1.0"),
    ("{id: c, kind: mosum, params: {minHist: 100}, grid: {monitor_from: [0, 99, 100, 200]}}",
     None, "monitor_from must be at least the history minimum, got 0 < 100"),
    ("{id: c, kind: mosum, grid: {minHist: [50, 100], monitor_from: [100, 200]}}",
     ["minHist=100", "monitor_from=40"],
     "monitor_from must be at least the history minimum, got 40 < 100"),
], ids=["grid-level", "grid-harmonics", "detect-level", "detect-period", "grid-monitor_from",
        "detect-monitor_from"])
def test_mosum_setting_the_table_cannot_check_exits_2(tmp_path, capsys, detector, pins, message):
    """A level missing from the calibration table, harmonic terms without a
    period, or monitoring from before the first history could be fitted,
    fail when the config loads, over the grid, or at the point `detect` pins."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(BAD_CONFIG.format(out=tmp_path / "out", detector=detector))
    if pins is None:
        with pytest.raises(ConfigError, match=re.escape(f"detector 'c': {message}")):
            load_config(cfg)
        assert main(["grid", "-c", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()
    else:
        load_config(cfg)  # the grid's own points are in range
        out = tmp_path / "dets.csv"
        sets = [arg for pin in pins for arg in ("--set", pin)]
        assert main(["detect", "-c", str(cfg), "--dataset", "s", "--detector", "c", *sets,
                     "--out", str(out)]) == 2
        assert not out.exists()
    assert f"detector 'c': {message}" in capsys.readouterr().err


#: each reference kind's sweep at one point of its config keys, every key given
SWEEP_AT = {
    "cusum": lambda x, p: classic_cusum_sweep(x, [p["desInt"]], p["k"], p["window"]),
    "bocpd": lambda x, p: bocpd_sweep(x, p["hazard"], [p["cpthreshold"]], NigPrior(
        p["mu0"], p["kappa0"], p["alpha0"], p["beta0"]), p["r_min"]),
    "ocd": lambda x, p: ocd_sweep(x, [p["diag"]], p["h_tail"], p["baseline_window"]),
    "mosum": lambda x, p: mosum_sweep(x, [p["level"]], p["minHist"], p["histFact"], p["h"],
                                      p["harmonics"], p["period"], p["monitor_from"]),
}
SWEEP = "the sweep's own message"


@pytest.fixture(scope="module")
def wear_mild():
    doc = load_config(ROOT / "configs" / "demo.yaml")
    return doc, prepare_series(doc, build_dataset(doc["datasets"][0], doc["seed"]))


@pytest.mark.parametrize("kind, point, message", [
    ("cusum", {"desInt": 5.0, "k": 0.0, "window": 1}, None),
    ("cusum", {"desInt": 0.0}, "desInt must be float > 0, got 0.0"),
    ("cusum", {"desInt": 5.0, "k": -0.5}, "k must be float >= 0, got -0.5"),
    ("cusum", {"desInt": 5.0, "window": 0}, "window must be int > 0, got 0"),
    ("bocpd", {"hazard": 1.0, "cpthreshold": 0.01, "r_min": 0}, None),
    ("bocpd", {"hazard": 1.5}, "hazard must be float in (0, 1], got 1.5"),
    ("bocpd", {"hazard": 0.5, "cpthreshold": 1.0}, "cpthreshold must be float in (0, 1), got 1.0"),
    ("bocpd", {"hazard": 0.5, "kappa0": 0.0}, "kappa0 must be float > 0, got 0.0"),
    ("ocd", {"diag": 8.0, "h_tail": 1, "baseline_window": 2}, None),
    ("ocd", {"diag": 0.0}, "diag must be float > 0, got 0.0"),
    ("ocd", {"diag": 8.0, "h_tail": 0}, "h_tail must be int >= 1, got 0"),
    ("ocd", {"diag": 8.0, "baseline_window": 1}, "baseline_window must be int >= 2, got 1"),
    ("mosum", {"level": 0.2, "harmonics": 1, "period": 50.0, "monitor_from": 100}, None),
    ("mosum", {"harmonics": 0, "period": -1.0}, None),
    ("mosum", {"level": 0.07}, SWEEP),
    ("mosum", {"harmonics": 1, "period": 0.0}, SWEEP),
    ("mosum", {"minHist": 100, "monitor_from": 99}, SWEEP),
    ("mosum", {"histFact": 1.5}, "histFact must be float in (0, 1], got 1.5"),
    ("mosum", {"h": 0.0}, "h must be float in (0, 1], got 0.0"),
], ids=["cusum-ok", "cusum-desInt", "cusum-k", "cusum-window", "bocpd-ok", "bocpd-hazard",
        "bocpd-cpthreshold", "bocpd-prior", "ocd-ok", "ocd-diag", "ocd-h_tail",
        "ocd-baseline_window", "mosum-ok", "mosum-period-unused", "mosum-level",
        "mosum-period", "mosum-monitor_from", "mosum-histFact", "mosum-h"])
def test_load_and_run_unit_refuse_a_point_where_its_sweep_raises(tmp_path, wear_mild, kind,
                                                                 point, message):
    """A point of a reference kind fails when the config loads, and in
    ``run_unit``, if and only if the kind's sweep raises on the demo's
    wear_mild at it: with the sweep's own message where the key table
    cannot tell (MOSUM's cross-key rules and calibrated levels)."""
    doc, series = wear_mild
    keys = {**{name: default for name, (_, default) in KINDS[kind].params.items()}, **point}
    try:
        SWEEP_AT[kind](series, keys)
        raised = None
    except ValueError as exc:
        raised = str(exc)
    assert (raised is None) == (message is None)
    message = raised if message is SWEEP else message
    det = {"id": "d", "kind": kind, "params": {}, "grid": {}}
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"schema_version: 1\ndatasets: {json.dumps(doc['datasets'][:1])}\n"
                   f"detectors: [{json.dumps(dict(det, params=point))}]\n")
    if message is None:
        load_config(cfg)
        assert len(run_unit(det, doc, series, [point])) == 1
        return
    with pytest.raises(ConfigError) as at_load:
        load_config(cfg)
    with pytest.raises(ConfigError) as in_unit:
        run_unit(det, doc, series, [point])
    assert str(at_load.value) == str(in_unit.value) == f"detector 'd': {message}"


@pytest.mark.parametrize("pins, message", [
    (["desInt=abc"], "desInt must be float, got 'abc'"),
    (["desInt=true"], "desInt must be float, got True"),
    (["desInt=5", "bogus=1"], "unknown parameters ['bogus']"),
], ids=["untyped", "boolean", "unknown"])
def test_detect_pin_is_checked_against_the_table(tmp_path, capsys, pins, message):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(BAD_CONFIG.format(out=tmp_path / "out",
                                     detector="{id: c, kind: cusum, grid: {desInt: [5, 10]}}"))
    out = tmp_path / "dets.csv"
    sets = [arg for pin in pins for arg in ("--set", pin)]
    assert main(["detect", "-c", str(cfg), "--dataset", "s", "--detector", "c", *sets,
                 "--out", str(out)]) == 2
    assert f"detector 'c': {message}" in capsys.readouterr().err
    assert not out.exists()


LSTM_CONFIG = """\
schema_version: 1
seed: 1
output_dir: {out}
train_prefix: 200
datasets:
  - id: s
    source: {{kind: step, pre_mean: 0.0, post_mean: 4.0, sigma: 0.5, cp_at: 300, n: 400}}
detectors:
  - id: pnc_lstm
    kind: pnc
    predictor: {predictor}
    params: {params}
    grid: {{desInt: [10]}}
"""


def _lstm_config(tmp_path, predictor, params="{l: 24, b: 6}"):
    cfg = tmp_path / "lstm.yaml"
    cfg.write_text(LSTM_CONFIG.format(out=tmp_path / "out", predictor=predictor, params=params))
    return cfg


def _detect(cfg, tmp_path, *extra):
    return main(["detect", "-c", str(cfg), "--dataset", "s", "--detector", "pnc_lstm",
                 "--out", str(tmp_path / "dets.csv"), *extra])


def test_lstm_predictor_needs_a_model_path(tmp_path, capsys):
    cfg = _lstm_config(tmp_path, "{kind: lstm}")
    with pytest.raises(ConfigError, match=re.escape(
            "detectors[0].predictor.model_path has no default; set it")):
        load_config(cfg)
    assert _detect(cfg, tmp_path) == 2
    capsys.readouterr()


@pytest.mark.parametrize("contents", [None, "not json\n", "[1, 2]\n",
                                      '{"schema_version": 1, "kind": "ar"}\n'],
                         ids=["missing", "not-json", "not-an-object", "not-lstm"])
def test_lstm_model_file_that_cannot_be_read_exits_2(tmp_path, capsys, contents):
    model = tmp_path / "model.json"
    if contents is not None:
        model.write_text(contents)
    cfg = _lstm_config(tmp_path, f"{{kind: lstm, model_path: {model}}}")
    assert _detect(cfg, tmp_path) == 2
    assert main(["grid", "-c", str(cfg)]) == 2
    assert capsys.readouterr().err.count(f"error: {model}") == 2
    assert not (tmp_path / "dets.csv").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("params, pin, detect_ok, grid_ok", [
    ("{l: 24, b: 6}", [], True, True),
    ("{b: 6}", [], True, True),  # l at its default of 50
    ("{l: 12, b: 6}", [], False, False),
    ("{l: 24, b: 8}", [], False, False),
    ("{l: 24, b: 6}", ["--set", "l=12"], False, True),
], ids=["fits", "default-l", "short-window", "long-horizon", "pinned-short-window"])
def test_lstm_window_and_horizon_are_checked_against_the_model(tmp_path, capsys, params, pin,
                                                               detect_ok, grid_ok):
    model = tmp_path / "model.json"
    write_lstm(model, init_lstm(24, 6, hidden=4))
    cfg = _lstm_config(tmp_path, f"{{kind: lstm, model_path: {model}}}", params)
    assert _detect(cfg, tmp_path, *pin) == (0 if detect_ok else 2)
    assert main(["grid", "-c", str(cfg)]) == (0 if grid_ok else 2)
    err = capsys.readouterr().err
    assert (detect_ok and grid_ok) or "detector 'pnc_lstm': the model" in err
    assert (tmp_path / "dets.csv").exists() == detect_ok
    assert (tmp_path / "out" / "metrics.csv").exists() == grid_ok


@pytest.mark.parametrize("predictor, l, ok", [
    ("{kind: ar, p: 5}", 3, False),
    ("{kind: arima, order: [2, 1, 2]}", 3, False),
    ("{kind: ar, p: 5}", 5, True),
], ids=["ar5-l3", "arima212-l3", "ar5-l5"])
def test_window_the_predictor_cannot_forecast_from_exits_2(tmp_path, capsys, predictor, l, ok):
    """Before the check, a window shorter than the model's skipped every
    anchor, and grid wrote one empty row."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(BAD_CONFIG.format(out=tmp_path / "out", detector=(
        f"{{id: c, kind: pnc, predictor: {predictor}, params: {{l: {l}, b: 6}}, "
        "grid: {desInt: [8]}}")))
    out = tmp_path / "dets.csv"
    assert main(["detect", "-c", str(cfg), "--dataset", "s", "--detector", "c",
                 "--out", str(out)]) == (0 if ok else 2)
    assert main(["grid", "-c", str(cfg)]) == (0 if ok else 2)
    err = capsys.readouterr().err
    assert ok or err.count(f"error: detector 'c': the model cannot forecast b=6 from l={l}: ") == 2
    assert out.exists() == ok and (tmp_path / "out").exists() == ok


#: 300-point series of magnitude at most 1: the shapes with the largest sums,
#: squares, spreads and jumps
_T = np.arange(300)
EXTREMES = {"constant": np.ones(300), "alternating": (-1.0) ** _T,
            "step": np.where(_T < 150, -1.0, 1.0), "ramp": np.linspace(0.0, 1.0, 300),
            "noise": spawn_rng(0, "extremes").uniform(-1.0, 1.0, 300)}
#: each corner of the BOCPD prior's bounds
PRIOR_CORNERS = [NigPrior(mu0, *rest) for mu0 in (-MAX_ABS, MAX_ABS)
                 for rest in product((1 / MAX_ABS, MAX_ABS), repeat=3)]


def _all_finite(rows) -> bool:
    return bool(np.all(np.isfinite(np.asarray(rows, dtype=float))))


@pytest.mark.parametrize("shape", sorted(EXTREMES))
def test_values_at_the_bound_overflow_nowhere_up_to_max_n_points(monkeypatch, shape):
    """Standardization, each detector and each model a pnc detector fits
    overflow nowhere on 300 values at MAX_ABS * MAX_N, and their traces and
    scores stay finite; the BOCPD prior takes each corner of its bounds.  A
    sum over MAX_N values at MAX_ABS whose degree in the length is at most its
    degree in the values, such as a sum of squares or a square of a sum, is
    at most such a sum over these values."""
    monkeypatch.setattr(series_module, "MAX_ABS", MAX_ABS * MAX_N)  # lets these values in
    x = EXTREMES[shape] * (MAX_ABS * MAX_N)
    with np.errstate(all="raise", under="ignore"):
        for counts, mode in product((x, np.abs(x)), ("offline", "online")):
            assert _all_finite(standardize(counts, mode=mode).scores.values)
        traces = [classic_cusum_detect(x, 1.0, keep_trace=True)[1],
                  ocd_detect(x, 1.0, keep_trace=True)[1],
                  mosum_detect(x, min_hist=50, keep_trace=True)[1]]
        for prior in PRIOR_CORNERS:
            traces.append(bocpd_detect(x, 0.01, prior, keep_posterior=True)[1]["short_run_prob"])
        models = [fit_predictor(spec, x[:100]) for spec in (
            {"kind": "naive"}, {"kind": "mean"}, {"kind": "ar", "p": 5},
            {"kind": "arima", "order": [1, 1, 1]}, {"kind": "arima", "order": [2, 0, 2]})]
        for model, direction in product(models + [LstmPredictor(init_lstm(12, 4, 8))],
                                        ("up", "down")):
            cfg = PncConfig(50, 4, 1.0, 0.5, direction, "on_detection", 20)
            traces.append(run_stream(model, cfg, x, keep_trace=True)[1].trace)
    assert all(trace and _all_finite(trace) for trace in traces)


@pytest.mark.parametrize("run", [
    standardize, lambda x: classic_cusum_detect(x, 5.0), lambda x: bocpd_detect(x, 0.01),
    lambda x: ocd_detect(x, 5.0), lambda x: mosum_detect(x, min_hist=50),
    lambda x: run_stream(fit_predictor({"kind": "naive"}, x), PncConfig(50, 10, 5.0), x)],
    ids=["standardize", "cusum", "bocpd", "ocd", "mosum", "pnc"])
def test_each_whole_series_function_takes_values_up_to_the_bound(run):
    x = np.zeros(200)
    x[150] = -MAX_ABS
    run(x)
    x[150] = -2 * MAX_ABS
    with pytest.raises(ValueError, match=r"^series value at index 150 is -2e\+50, of magnitude "
                                         r"above 1e\+50$"):
        run(x)


#: each class that takes one value at a time: a fresh instance, its step on
#: one value, what its state shows, and the whole-series function it replays
ONE_VALUE_CLASSES = {
    "standardizer": (OnlineStandardizer, OnlineStandardizer.push,
                     lambda st: (st.flagged, st.fit),
                     lambda x: standardize(x, mode="online")),
    "pnc": (lambda: PncStream(fit_predictor({"kind": "naive"}, []), PncConfig(20, 5, 3.0),
                              keep_trace=True),
            PncStream.push, lambda st: (st.trace, st.diagnostics),
            lambda x: run_stream(fit_predictor({"kind": "naive"}, []), PncConfig(20, 5, 3.0), x)),
    "bocpd": (lambda: BocpdState(NigPrior(), 0.05, 200), BocpdState.step,
              lambda st: (st.steps, st.log_evidence, st.log_post.tolist()),
              lambda x: bocpd_detect(x, 0.05)),
}


@pytest.mark.parametrize("bad, message", [
    (np.nan, r"is not finite \(nan\)"), (np.inf, r"is not finite \(inf\)"),
    (2 * MAX_ABS, r"is 2e\+50, of magnitude above 1e\+50")], ids=["nan", "inf", "2e50"])
@pytest.mark.parametrize("kind", sorted(ONE_VALUE_CLASSES))
def test_each_one_value_class_refuses_what_its_whole_series_function_refuses(kind, bad, message):
    """A push or step refuses a value as the whole-series function refuses it,
    naming its index since the start, and leaves the state as it was: the
    instance that went on past the refusal equals one that never saw it."""
    make, step, state, whole = ONE_VALUE_CLASSES[kind]
    x = spawn_rng(4, "one-value").poisson(5.0, 150).astype(float)
    x[100:] += 6.0
    clean = make()
    clean_out = [step(clean, v) for v in x]
    pattern = rf"^series value at index 60 {message}$"
    with pytest.raises(ValueError, match=pattern):
        whole(np.concatenate((x[:60], [bad], x[60:])))
    inst = make()
    out = [step(inst, v) for v in x[:60]]
    with pytest.raises(ValueError, match=pattern):
        step(inst, bad)
    out += [step(inst, v) for v in x[60:]]
    assert out == clean_out and state(inst) == state(clean)
