"""End-to-end tests of the command line interface (in-process)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from predcomp.cli import main
from predcomp.io import read_detections_csv, read_series_csv

ROOT = Path(__file__).resolve().parents[1]


CONFIG = """\
schema_version: 1
seed: 3
output_dir: {out}
train_prefix: 300
datasets:
  - id: step1
    source: {{kind: step, pre_mean: 0.0, post_mean: 3.0, sigma: 1.0, cp_at: 500, n: 800}}
  - id: step2
    source: {{kind: step, pre_mean: 0.0, post_mean: 2.0, sigma: 1.0, cp_at: 450, n: 800}}
detectors:
  - id: pnc_ar
    kind: pnc
    predictor: {{kind: ar, p: 2}}
    params: {{l: 100, b: 25, k: 0.5}}
    grid: {{desInt: [4, 8]}}
  - id: cusum
    kind: cusum
    params: {{k: 0.5, window: 50}}
    grid: {{desInt: [5]}}
evaluation:
  target: K>A
  subset: [step1]
  baseline: {{n_fp: [0, avg_max], repetitions: 20}}
"""


@pytest.fixture()
def config_path(tmp_path):
    out = tmp_path / "out"
    p = tmp_path / "config.yaml"
    p.write_text(CONFIG.format(out=out))
    return p


def test_usage_errors_exit_1(capsys, config_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate"]) == 1  # missing --config
    assert main(["detect", "-c", str(config_path), "--dataset", "nope",
                 "--detector", "cusum"]) == 1
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "nope"]) == 1
    # --trace is a pnc-only feature
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "cusum", "--trace", "t.csv"]) == 1
    capsys.readouterr()


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["simulate", "-c", str(missing)]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nbogus: 1\n")
    assert main(["simulate", "-c", str(bad)]) == 2
    capsys.readouterr()


def test_simulate_writes_csv_and_manifest(config_path, tmp_path, capsys):
    assert main(["simulate", "-c", str(config_path)]) == 0
    out = tmp_path / "out"
    series = read_series_csv(out / "step1.csv")
    assert len(series) == 800
    assert [(lab.time, lab.key()) for lab in series.cp_labels] == [(499, "K>A")]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert [d["id"] for d in manifest["datasets"]] == ["step1", "step2"]
    assert manifest["datasets"][0]["labels"] == [[500, "K>A"]]
    capsys.readouterr()


def test_simulate_is_deterministic_and_seed_sensitive(config_path, tmp_path,
                                                      capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(config_path)]) == 0
    first = (out / "step1.csv").read_bytes()
    assert main(["simulate", "-c", str(config_path)]) == 0
    assert (out / "step1.csv").read_bytes() == first
    monkeypatch.setenv("PREDCOMP_SEED", "77")
    assert main(["simulate", "-c", str(config_path)]) == 0
    assert (out / "step1.csv").read_bytes() != first
    capsys.readouterr()


def test_simulate_only_filter(config_path, tmp_path, capsys):
    assert main(["simulate", "-c", str(config_path), "--only", "step2"]) == 0
    out = tmp_path / "out"
    assert not (out / "step1.csv").exists()
    assert (out / "step2.csv").exists()
    capsys.readouterr()


def test_detect_with_pinned_grid_value(config_path, tmp_path, capsys):
    dets_csv = tmp_path / "dets.csv"
    # two grid values: must pin one
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "pnc_ar", "--out", str(dets_csv)]) == 2
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "pnc_ar", "--set", "desInt=8",
                 "--out", str(dets_csv)]) == 0
    rows = read_detections_csv(dets_csv)
    assert rows
    ds, det, pid, d = rows[0]
    assert (ds, det) == ("step1", "pnc_ar")
    assert "desInt=8" in pid
    assert d.detect_time >= 499  # the change is at index 499
    capsys.readouterr()


def test_detect_trace_and_svg(config_path, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    svg = tmp_path / "chart.svg"
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "pnc_ar", "--set", "desInt=8",
                 "--out", str(tmp_path / "d.csv"),
                 "--trace", str(trace), "--svg", str(svg)]) == 0
    header = trace.read_text().splitlines()[0]
    assert header == "time,value,target,stat,threshold,alarm"
    assert svg.read_text().startswith("<svg ")
    capsys.readouterr()


def test_detect_single_valued_grid_needs_no_pin(config_path, tmp_path, capsys):
    dets_csv = tmp_path / "c.csv"
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "cusum", "--out", str(dets_csv)]) == 0
    rows = read_detections_csv(dets_csv)
    assert rows and rows[0][1] == "cusum"
    capsys.readouterr()


def test_grid_eval_report_pipeline(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["grid", "-c", str(config_path)]) == 0
    metrics = out / "metrics.csv"
    # 2 datasets x (2 pnc points + 1 cusum point) = 6 rows
    assert len(metrics.read_text().splitlines()) == 7
    report_path = tmp_path / "winners.txt"
    assert main(["eval", "-c", str(config_path), "--metrics", str(metrics),
                 "--out", str(report_path)]) == 0
    text = report_path.read_text()
    assert "per_dataset winners" in text
    assert "overall winners" in text
    assert "subset winners (step1)" in text
    assert "random baseline" in text
    assert "n_fp=0" in text and "avg_max=" in text
    capsys.readouterr()

    assert main(["report", "--metrics", str(metrics), "--scope", "overall"]) == 0
    top = capsys.readouterr().out
    assert top.startswith("overall winners")
    assert main(["report", "--metrics", str(metrics), "--scope", "per_dataset",
                 "--reversed"]) == 0
    rev = capsys.readouterr().out
    assert "(reversed rule)" in rev
    assert main(["report", "--metrics", str(metrics), "--scope", "subset"]) == 1
    assert main(["report", "--metrics", str(metrics), "--scope", "subset",
                 "--datasets", "step1"]) == 0
    capsys.readouterr()


def test_grid_is_deterministic(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["grid", "-c", str(config_path)]) == 0
    first = (out / "metrics.csv").read_bytes()
    assert main(["grid", "-c", str(config_path)]) == 0
    assert (out / "metrics.csv").read_bytes() == first
    capsys.readouterr()


def test_standardize_round_trip(config_path, tmp_path, capsys):
    assert main(["simulate", "-c", str(config_path), "--only", "step1"]) == 0
    src = tmp_path / "out" / "step1.csv"
    dst = tmp_path / "scores.csv"
    assert main(["standardize", str(src), str(dst)]) == 0
    scores = read_series_csv(dst)
    assert len(scores) == 800
    # labels survive the transform
    assert [(lab.time, lab.key()) for lab in scores.cp_labels] == [(499, "K>A")]
    out = capsys.readouterr().out
    assert "nu_hat=" in out or "trend not estimable" in out


def test_train_lstm_writes_model_and_loss(tmp_path, capsys):
    cfg = tmp_path / "lstm.yaml"
    out = tmp_path / "out"
    cfg.write_text(f"""\
schema_version: 1
seed: 1
output_dir: {out}
train_prefix: 200
datasets:
  - id: s
    source: {{kind: step, pre_mean: 0.0, post_mean: 1.0, sigma: 0.3, cp_at: 900, n: 1000}}
lstm: {{nh: 12, nz: 4, hidden: 6, epochs: 5, batch_size: 16, learning_rate: 0.01}}
""")
    model = tmp_path / "model.json"
    loss = tmp_path / "loss.csv"
    assert main(["train-lstm", "-c", str(cfg), "--dataset", "s",
                 "--out", str(model), "--loss", str(loss)]) == 0
    doc = json.loads(model.read_text())
    assert doc["kind"] == "lstm" and doc["nh"] == 12 and doc["nz"] == 4
    lines = loss.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 6
    capsys.readouterr()


def test_lstm_predictor_usable_in_detect(tmp_path, capsys):
    out = tmp_path / "out"
    model = tmp_path / "model.json"
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"""\
schema_version: 1
seed: 1
output_dir: {out}
train_prefix: 400
datasets:
  - id: s
    source: {{kind: step, pre_mean: 0.0, post_mean: 4.0, sigma: 0.5, cp_at: 600, n: 900}}
detectors:
  - id: pnc_lstm
    kind: pnc
    predictor: {{kind: lstm, model_path: {model}}}
    params: {{l: 24, b: 6, k: 0.5}}
    grid: {{desInt: [10]}}
lstm: {{nh: 24, nz: 6, hidden: 8, epochs: 10, batch_size: 16, learning_rate: 0.01}}
""")
    assert main(["train-lstm", "-c", str(cfg), "--dataset", "s",
                 "--out", str(model)]) == 0
    dets_csv = tmp_path / "d.csv"
    assert main(["detect", "-c", str(cfg), "--dataset", "s",
                 "--detector", "pnc_lstm", "--out", str(dets_csv)]) == 0
    rows = read_detections_csv(dets_csv)
    assert rows, "the 8-sigma step should be caught"
    assert rows[0][3].detect_time >= 599
    capsys.readouterr()


def test_committed_demo_metrics_are_current(tmp_path, capsys, monkeypatch):
    # out/demo/metrics.csv must be what the current code writes for the demo
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    assert main(["grid", "-c", str(ROOT / "configs" / "demo.yaml"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").read_bytes() == \
        (ROOT / "out" / "demo" / "metrics.csv").read_bytes()
    capsys.readouterr()
