"""End-to-end tests of the command line interface (in-process)."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from predcomp.cli import main
from predcomp.config import _Loader
from predcomp.io import read_series_csv

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


def test_simulate_builds_every_series_before_it_writes(config_path, tmp_path, capsys):
    """A second source that cannot be read exits 2 and leaves no file, not
    the first dataset's CSV without a manifest."""
    missing = tmp_path / "nosuch.csv"
    config_path.write_text(config_path.read_text().replace(
        "{kind: step, pre_mean: 0.0, post_mean: 2.0, sigma: 1.0, cp_at: 450, n: 800}",
        f"{{kind: csv, path: {missing}}}"))
    assert main(["simulate", "-c", str(config_path)]) == 2
    assert f"error: {missing}: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_only_filter(config_path, tmp_path, capsys):
    assert main(["simulate", "-c", str(config_path), "--only", "step2"]) == 0
    out = tmp_path / "out"
    assert not (out / "step1.csv").exists()
    assert (out / "step2.csv").exists()
    capsys.readouterr()


def test_detect_with_pinned_grid_value(config_path, tmp_path, capsys, read_detections):
    dets_csv = tmp_path / "dets.csv"
    # two grid values: must pin one
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "pnc_ar", "--out", str(dets_csv)]) == 2
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "pnc_ar", "--set", "desInt=8",
                 "--out", str(dets_csv)]) == 0
    rows = read_detections(dets_csv)
    assert rows
    ds, det, pid, detect_time, _ = rows[0]
    assert (ds, det) == ("step1", "pnc_ar")
    assert "desInt=8" in pid
    assert detect_time >= 499  # the change is at index 499
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


def test_detect_single_valued_grid_needs_no_pin(config_path, tmp_path, capsys,
                                                read_detections):
    dets_csv = tmp_path / "c.csv"
    assert main(["detect", "-c", str(config_path), "--dataset", "step1",
                 "--detector", "cusum", "--out", str(dets_csv)]) == 0
    rows = read_detections(dets_csv)
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


METRICS_HEADER = ("dataset,detector,params,n_detections,fpc,target_found,arlp,detect_time,"
                  "located_time,valid\n")


@pytest.mark.parametrize("contents, message", [
    (None, "metrics.csv: cannot read"),
    ("dataset,detector,params,detect_time,located_time\ns,c,desInt=5,301,290\n",
     "metrics.csv: expected header dataset,detector,params,n_detections"),
    (METRICS_HEADER + "a,d,h=1,2,1,1,8.7,301\n", "metrics.csv:2: expected 10 columns"),
    (METRICS_HEADER + "a,d,h=1,2,1,1,8.7,301,,1\na,d,h=2,two,0,0,,,,1\n",
     "metrics.csv:3: invalid literal for int()"),
    (b"\xff\xfe\x00\x01", "metrics.csv: cannot read"),
    # rows that read as numbers but that eval and report cannot rank
    (METRICS_HEADER + "a,d,h=1,2,1,1,nan,301,,1\n", "metrics.csv:2: arlp must be finite, got nan"),
    (METRICS_HEADER + "a,d,h=1,2,1,1,inf,301,,1\n", "metrics.csv:2: arlp must be finite, got inf"),
    (METRICS_HEADER + "a,d,h=1,-2,1,1,8.7,301,,1\n",
     "metrics.csv:2: n_detections must be >= 0, got -2"),
    (METRICS_HEADER + "a,d,h=1,2,-1,1,8.7,301,,1\n", "metrics.csv:2: fpc must be >= 0, got -1"),
    (METRICS_HEADER + "a,d,h=1,2,1,2,8.7,301,,1\n",
     "metrics.csv:2: target_found must be 0 or 1, got '2'"),
    (METRICS_HEADER + "a,d,h=1,2,1,1,8.7,301,,2\n", "metrics.csv:2: valid must be 0 or 1, got '2'"),
    (METRICS_HEADER + "a,d,h=1,2,1,0,,,,1\na,d,h=2,2,1,1,,301,,1\n",
     "metrics.csv:3: a found target needs an arlp"),
    # a hand-merged file would count this run's Fpc twice in the overall scope
    (METRICS_HEADER + "s,c,desInt=2.0,1,9,1,8.7,301,,1\ns,c,desInt=2.0,1,9,1,8.7,301,,1\n",
     "metrics.csv:3: a second row of the run s,c,desInt=2.0"),
], ids=["missing", "header", "short-row", "count", "undecodable", "arlp-nan", "arlp-inf",
        "n_detections-negative", "fpc-negative", "target_found-2", "valid-2", "found-no-arlp",
        "repeated-run"])
def test_bad_metrics_file_exits_2_and_writes_nothing(config_path, tmp_path, capsys, contents,
                                                     message):
    metrics = tmp_path / "metrics.csv"
    if isinstance(contents, bytes):
        metrics.write_bytes(contents)
    elif contents is not None:
        metrics.write_text(contents)
    out = tmp_path / "report.txt"
    for command in (["eval", "-c", str(config_path)], ["report"]):
        assert main([*command, "--metrics", str(metrics), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_eval_avg_max_budget_needs_rows_for_every_dataset(config_path, tmp_path, capsys):
    """The avg_max budget of a dataset is read from its rows in metrics.csv."""
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(METRICS_HEADER + "step1,cusum,desInt=5,1,0,1,12.5,530,,1\n")
    out = tmp_path / "eval.txt"
    assert main(["eval", "-c", str(config_path), "--metrics", str(metrics), "--out", str(out)]) == 2
    assert (f"error: {metrics}: no rows for dataset 'step2', whose avg_max baseline budget "
            "reads them") in capsys.readouterr().err
    assert not out.exists()
    config_path.write_text(config_path.read_text().replace("n_fp: [0, avg_max]", "n_fp: [0]"))
    assert main(["eval", "-c", str(config_path), "--metrics", str(metrics), "--out", str(out)]) == 0
    capsys.readouterr()


def test_eval_baseline_leaves_out_a_dataset_without_the_target(config_path, tmp_path, capsys):
    """A dataset without the target label has no baseline, and its avg_max
    budget reads no rows."""
    config_path.write_text(config_path.read_text().replace("\ndetectors:", (
        "\n  - id: flat\n    source: {kind: wear, a: 20.0, lam: 0.05, c: 5.0, n: 400}"
        "\ndetectors:")))
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(METRICS_HEADER + "step1,cusum,desInt=5,1,0,1,12.5,530,,1\n"
                       "step2,cusum,desInt=5,1,0,1,12.5,480,,1\n")
    out = tmp_path / "eval.txt"
    assert main(["eval", "-c", str(config_path), "--metrics", str(metrics), "--out", str(out)]) == 0
    baseline = out.read_text().split("random baseline\n===============\n\n")[1]
    assert [line.split()[0] for line in baseline.splitlines()] == ["step1"] * 2 + ["step2"] * 2
    capsys.readouterr()


@pytest.mark.parametrize("command, parent", [
    ("simulate", "file"), ("grid", "file"),
    *((command, parent) for command in ("standardize", "detect", "train-lstm", "eval", "report")
      for parent in ("missing", "file")),
    *((command, parent) for command in ("detect-trace", "detect-svg", "train-lstm-loss")
      for parent in ("missing", "file"))])
def test_an_output_path_that_cannot_be_written_exits_2_and_writes_nothing(
        config_path, tmp_path, capsys, monkeypatch, command, parent):
    """A missing directory, or a regular file where a directory should be,
    is a data error that names the path asked for, and nothing is written:
    every output path is checked before the work, a second one too."""
    import predcomp.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the output paths were checked")
    monkeypatch.setattr(cli, "run_grid", never)
    monkeypatch.setattr(cli.lstm_mod, "train_lstm", never)
    config_path.write_text(config_path.read_text()
                           + "lstm: {nh: 12, nz: 4, hidden: 4, epochs: 2, batch_size: 16}\n")
    assert main(["simulate", "-c", str(config_path), "--only", "step1"]) == 0
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(METRICS_HEADER + "step1,cusum,desInt=5,1,0,1,12.5,530,,1\n"
                       "step2,cusum,desInt=5,1,0,1,10.0,480,,1\n")
    base = tmp_path / ("nosuch" if parent == "missing" else "afile")
    if parent == "file":
        base.write_text("")
    cfg, to, ok = str(config_path), str(base / "x"), str(tmp_path / "ok")
    pnc = ["detect", "-c", cfg, "--dataset", "step1", "--detector", "pnc_ar", "--set", "desInt=4",
           "--out", ok]
    args = {"simulate": ["simulate", "-c", cfg, "--out", to],
            "grid": ["grid", "-c", cfg, "--out", to],
            "standardize": ["standardize", str(tmp_path / "out" / "step1.csv"), to],
            "detect": ["detect", "-c", cfg, "--dataset", "step1", "--detector", "cusum",
                       "--out", to],
            "train-lstm": ["train-lstm", "-c", cfg, "--dataset", "step1", "--out", to],
            "detect-trace": [*pnc, "--trace", to],
            "detect-svg": [*pnc, "--svg", to],
            "train-lstm-loss": ["train-lstm", "-c", cfg, "--dataset", "step1", "--out", ok,
                                "--loss", to],
            "eval": ["eval", "-c", cfg, "--metrics", str(metrics), "--out", to],
            "report": ["report", "--metrics", str(metrics), "--out", to]}[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(args) == 2
    assert f"error: {to}: cannot " in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("cap, code", [("nan", 2), ("inf", 0), ("-1", 0)])
def test_report_cap_is_read_as_the_config_reads_fpc_cap(tmp_path, capsys, cap, code):
    out = tmp_path / "report.txt"
    assert main(["report", "--metrics", str(ROOT / "out" / "demo" / "metrics.csv"),
                 "--cap", cap, "--out", str(out)]) == code
    if code:
        assert "--cap must be float not NaN, got nan" in capsys.readouterr().err
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("subset, message", [
    ("[step1, nosuch]", "got ['step1', 'nosuch']; unknown ['nosuch']"),
    ("[]", "got []"),
], ids=["unknown", "empty"])
def test_eval_subset_names_configured_datasets(config_path, tmp_path, capsys, subset, message):
    config_path.write_text(config_path.read_text().replace("subset: [step1]",
                                                           f"subset: {subset}"))
    out = tmp_path / "report.txt"
    assert main(["eval", "-c", str(config_path), "--out", str(out),
                 "--metrics", str(ROOT / "out" / "demo" / "metrics.csv")]) == 2
    err = capsys.readouterr().err
    assert "evaluation.subset must be a non-empty list of dataset ids" in err and message in err
    assert not out.exists()


def test_eval_subset_takes_integer_dataset_ids(config_path, tmp_path, capsys, read_detections):
    """metrics.csv holds every id as text, so an int id in the subset is read as text, as
    are the ids that ``simulate --only``, ``detect --dataset`` and ``--detector`` select."""
    config_path.write_text(config_path.read_text().replace("id: step1", "id: 1")
                           .replace("id: step2", "id: 2").replace("subset: [step1]", "subset: [1]")
                           .replace("id: pnc_ar", "id: 7"))
    assert main(["simulate", "-c", str(config_path), "--only", "1",
                 "--out", str(tmp_path / "one")]) == 0
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == ["1.csv", "manifest.json"]
    dets = tmp_path / "dets.csv"
    assert main(["detect", "-c", str(config_path), "--dataset", "1", "--detector", "7",
                 "--set", "desInt=8", "--out", str(dets)]) == 0
    assert {row[:2] for row in read_detections(dets)} == {("1", "7")}
    metrics = tmp_path / "out" / "metrics.csv"
    assert main(["grid", "-c", str(config_path)]) == 0
    assert main(["eval", "-c", str(config_path), "--metrics", str(metrics)]) == 0
    subset = capsys.readouterr().out.split("subset winners (1)\n")[1].split("random baseline")[0]
    assert main(["report", "--metrics", str(metrics), "--scope", "subset", "--datasets", "1"]) == 0
    report = capsys.readouterr().out
    assert "\nsubset       -            cusum" in subset and subset.strip().endswith(
        report.split("\n", 2)[2].strip())


@pytest.mark.parametrize("first, second", [("step1", "step2"), ("pnc_ar", "cusum")],
                         ids=["datasets", "detectors"])
def test_ids_equal_as_text_are_duplicates(config_path, tmp_path, capsys, first, second):
    """Outputs name entries by their ids' text, so 1 and "1" in one section collide."""
    config_path.write_text(config_path.read_text().replace(f"id: {first}", "id: 1")
                           .replace(f"id: {second}", 'id: "1"'))
    for command in ("simulate", "grid"):
        assert main([command, "-c", str(config_path)]) == 2
        assert "[1]: duplicate id '1' (ids compare as text)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_int_id_is_the_text_of_its_digits(config_path, tmp_path, capsys):
    """`id: 5` names, seeds and records the dataset that `id: "5"` does."""
    base, outs = config_path.read_text(), []
    for written in ("5", '"5"'):
        config_path.write_text(base.replace("id: step1", f"id: {written}")
                               .replace("subset: [step1]", f"subset: [{written}]"))
        outs.append(tmp_path / f"out-{len(outs)}")
        assert main(["simulate", "-c", str(config_path), "--out", str(outs[-1])]) == 0
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == ["5.csv", "manifest.json", "step2.csv"]
    assert files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    capsys.readouterr()


def test_a_negative_int_id_runs(config_path, tmp_path, capsys):
    config_path.write_text(config_path.read_text().replace("id: step1", "id: -1")
                           .replace("subset: [step1]", "subset: [-1]")
                           .replace("id: cusum", "id: -1"))
    assert main(["simulate", "-c", str(config_path)]) == 0
    assert main(["grid", "-c", str(config_path)]) == 0
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    assert (tmp_path / "out" / "-1.csv").exists() and any(r.startswith("-1,-1,") for r in rows)
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["../x", "a/b", "/tmp", "", ".", "..", "a\\0b"])
@pytest.mark.parametrize("entry", ["step2", "cusum"], ids=["dataset", "detector"])
def test_an_id_that_is_not_a_plain_file_name_exits_2_and_writes_nothing(
        config_path, tmp_path, capsys, entry, bad):
    """`simulate` and `detect` name files after ids, so an id is refused at
    load where it would name a file outside the output directory, or none."""
    (tmp_path / "run").mkdir()
    config_path.write_text(config_path.read_text().replace(f"id: {entry}", f'id: "{bad}"'))
    section = "datasets" if entry == "step2" else "detectors"
    for command in ("simulate", "grid"):
        assert main([command, "-c", str(config_path), "--out", str(tmp_path / "run" / "out")]) == 2
        assert f"error: {section}[1].id must be str naming a file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.yaml", "run"]


@pytest.mark.parametrize("args, message", [
    (["--scope", "subset", "--datasets", "wear_mild,nosuch"],
     "unknown dataset id 'nosuch' in --datasets"),
    (["--scope", "overall", "--datasets", "wear_mild"],
     "report --datasets is for --scope subset, not overall"),
], ids=["unknown", "other-scope"])
def test_report_datasets_name_a_subset_of_the_metrics(tmp_path, capsys, args, message):
    out = tmp_path / "report.txt"
    assert main(["report", "--metrics", str(ROOT / "out" / "demo" / "metrics.csv"), *args,
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    assert all(line.split(",")[2] for line in lines[1:])
    # without a validation split the val_loss field is empty
    cfg.write_text(cfg.read_text().replace("0.01}", "0.01, validation_fraction: 0}"))
    assert main(["train-lstm", "-c", str(cfg), "--dataset", "s",
                 "--out", str(model), "--loss", str(loss)]) == 0
    data = loss.read_bytes()
    assert data.count(b"\r\n") == 6  # line ends as in every other CSV
    assert [line.split(",")[2] for line in data.decode().splitlines()] == ["val_loss"] + [""] * 5
    capsys.readouterr()


def test_train_lstm_without_an_lstm_section_exits_2_and_writes_nothing(config_path, tmp_path,
                                                                        capsys):
    model, loss = tmp_path / "model.json", tmp_path / "loss.csv"
    assert main(["train-lstm", "-c", str(config_path), "--dataset", "step1",
                 "--out", str(model), "--loss", str(loss)]) == 2
    assert capsys.readouterr().err == "error: config lacks an lstm section\n"
    assert not model.exists() and not loss.exists()


def test_lstm_predictor_usable_in_detect(tmp_path, capsys, read_detections):
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
    rows = read_detections(dets_csv)
    assert rows, "the 8-sigma step should be caught"
    assert rows[0][3] >= 599
    capsys.readouterr()


def test_committed_demo_metrics_are_current(tmp_path, capsys, monkeypatch):
    # out/demo/metrics.csv must be what the current code writes for the demo
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    assert main(["grid", "-c", str(ROOT / "configs" / "demo.yaml"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").read_bytes() == \
        (ROOT / "out" / "demo" / "metrics.csv").read_bytes()
    capsys.readouterr()


#: the CLI tests' config with one int dataset id and one int detector id
INT_AND_TEXT_IDS = (CONFIG.replace("id: step1", "id: 5").replace("subset: [step1]", "subset: [5]")
                    .replace("id: pnc_ar", "id: 7"))


def _grid_records(config: str, tmp_path):
    """The config's ``run_grid`` records: the demo's, or INT_AND_TEXT_IDS's."""
    from predcomp.cli import build_dataset, build_detector, prepare_series
    from predcomp.config import load_config
    from predcomp.evaluate import run_grid
    path = ROOT / "configs" / "demo.yaml"
    if config != "demo":
        path = tmp_path / "config.yaml"
        path.write_text(INT_AND_TEXT_IDS.format(out=tmp_path / "out"))
    doc = load_config(path)
    datasets = [prepare_series(doc, build_dataset(ds, doc["seed"])) for ds in doc["datasets"]]
    return run_grid(datasets, [build_detector(det, doc) for det in doc["detectors"]])


@pytest.mark.parametrize("config", ["demo", "int-and-text-ids"])
def test_demo_grid_records_round_trip_through_metrics_csv(tmp_path, monkeypatch, config):
    """A record read back from ``metrics.csv`` is the record ``run_grid``
    scored, but for its arlp, which the file keeps to 6 decimals."""
    import dataclasses
    from predcomp.io import read_metrics_csv, write_metrics_csv
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    records = _grid_records(config, tmp_path)
    write_metrics_csv(tmp_path / "metrics.csv", records)
    assert read_metrics_csv(tmp_path / "metrics.csv") == [
        dataclasses.replace(r, arlp=None if r.arlp is None else round(r.arlp, 6))
        for r in records]


def test_select_best_ranks_the_grid_records_of_int_and_text_ids(tmp_path, monkeypatch):
    from predcomp.evaluate import select_best
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    records = _grid_records("int-and-text-ids", tmp_path)
    assert {(w.dataset_id, w.detector_id) for w in select_best(records)} == {
        (ds, det) for ds in ("5", "step2") for det in ("7", "cusum")}
    assert {w.detector_id for w in select_best(records, scope="overall")} == {"7", "cusum"}
    assert {w.detector_id for w in select_best(records, scope="subset", datasets=["5"])} == {
        "7", "cusum"}


def test_per_point_runners_score_the_demo_as_the_units_do(monkeypatch):
    """A grid rebuilt from each detector's per-point ``runner``, the way the
    traced benchmark wraps it, scores the demo as the detectors' units do."""
    from predcomp.cli import build_dataset, build_detector, prepare_series
    from predcomp.config import load_config
    from predcomp.evaluate import DetectorGrid, run_grid
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    doc = load_config(ROOT / "configs" / "demo.yaml")
    datasets = [prepare_series(doc, build_dataset(ds, doc["seed"])) for ds in doc["datasets"]]
    grids = [build_detector(det, doc) for det in doc["detectors"]]
    per_point = [DetectorGrid(g.detector_id, g.runner, g.grid) for g in grids]
    assert run_grid(datasets, per_point) == run_grid(datasets, grids)


def test_committed_demo_series_are_current(tmp_path, capsys, monkeypatch):
    # out/demo/manifest.json and wear_*.csv must be what `simulate` writes for the demo
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    assert main(["simulate", "-c", str(ROOT / "configs" / "demo.yaml"),
                 "--out", str(tmp_path)]) == 0
    committed = sorted(p.name for p in (ROOT / "out" / "demo").iterdir()
                       if p.name not in ("metrics.csv", "eval.txt", "detect"))
    assert committed == sorted(p.name for p in tmp_path.iterdir())
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / "demo" / name).read_bytes(), name
    capsys.readouterr()


def test_committed_demo_eval_is_current(tmp_path, capsys, monkeypatch):
    # out/demo/eval.txt must be what `eval` writes for the committed metrics.csv
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    assert main(["eval", "-c", str(ROOT / "configs" / "demo.yaml"), "--metrics",
                 str(ROOT / "out" / "demo" / "metrics.csv"), "--out", str(tmp_path / "eval.txt")]) == 0
    assert (tmp_path / "eval.txt").read_bytes() == (ROOT / "out" / "demo" / "eval.txt").read_bytes()
    capsys.readouterr()


#: the point each demo detector is pinned to in out/demo/detect/<id>.csv
DEMO_DETECT = {"pnc_ar": ["desInt=10"], "cusum": ["desInt=10"], "bocpd": ["cpthreshold=0.5"],
               "ocd": ["diag=16"], "mosum": ["h=0.25", "level=0.05"]}
DEMO_DETECT_FILES = [*(f"{det}.csv" for det in DEMO_DETECT), "pnc_ar_trace.csv", "pnc_ar.svg"]


@pytest.mark.parametrize("name", DEMO_DETECT_FILES)
def test_committed_demo_detect_outputs_are_current(tmp_path, capsys, monkeypatch, name):
    """Each file under out/demo/detect is what `detect` writes for it on
    wear_mild: a detector's detections at its DEMO_DETECT point, and pnc_ar's
    `--trace` CSV and `--svg` chart."""
    monkeypatch.delenv("PREDCOMP_SEED", raising=False)
    committed = ROOT / "out" / "demo" / "detect"
    assert sorted(p.name for p in committed.iterdir()) == sorted(DEMO_DETECT_FILES)
    det = name.split(".")[0].removesuffix("_trace")
    args = ["detect", "-c", str(ROOT / "configs" / "demo.yaml"), "--dataset", "wear_mild",
            "--detector", det, "--out", str(tmp_path / f"{det}.csv")]
    for point in DEMO_DETECT[det]:
        args += ["--set", point]
    if det == "pnc_ar":
        args += ["--trace", str(tmp_path / "pnc_ar_trace.csv"), "--svg", str(tmp_path / "pnc_ar.svg")]
    assert main(args) == 0
    assert (tmp_path / name).read_bytes() == (committed / name).read_bytes()
    capsys.readouterr()


def test_cli_import_leaves_out_scipy_optimize_and_signal():
    # together over a second of every CLI start; only ARIMA fitting needs them
    code = ("import sys, predcomp.cli; print(sorted(m for m in "
            "('scipy.optimize', 'scipy.signal', 'scipy.special') if m in sys.modules))")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_demo_grid_loads_no_scipy_module(tmp_path):
    # BOCPD's log-gamma is transcribed; on one CPU every unit runs in this process
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0}; "
            "from predcomp.cli import main; "
            f"rc = main(['grid', '-c', {str(ROOT / 'configs' / 'demo.yaml')!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "0 []"
    assert (tmp_path / "metrics.csv").exists()


def test_cli_import_leaves_out_multiprocessing():
    # the ARIMA order search imports it when it maps; other CLI starts need not pay for it
    code = ("import sys, predcomp.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_src_reads_the_cpu_count_only_in_the_pool():
    """`pool_map` sizes its pool; a caller that sized its work by the CPU
    count too would split it by a second rule."""
    src = ROOT / "src"
    calls = [(path.relative_to(src).as_posix(), line.strip())
             for path in sorted(src.rglob("*.py")) for line in path.read_text().splitlines()
             if re.search(r"\bsched_getaffinity\b|\bcpu_count\b", line)]
    assert calls == [("predcomp/pool.py", "n = min(len(os.sched_getaffinity(0)), len(items))")]


# every module `import predcomp.cli` loads: no scipy module, and nothing else
CLI_MODULES = ["predcomp", "predcomp.cli", "predcomp.config", "predcomp.cusum",
               "predcomp.evaluate", "predcomp.io", "predcomp.lstm", "predcomp.pnc",
               "predcomp.pool", "predcomp.predictors", "predcomp.refdet",
               "predcomp.refdet.baseline", "predcomp.refdet.bocpd", "predcomp.refdet.classic",
               "predcomp.refdet.mosum", "predcomp.refdet.ocd", "predcomp.refdet.sweep",
               "predcomp.seeding", "predcomp.series", "predcomp.simulate",
               "predcomp.standardize"]


@pytest.mark.parametrize("code, loads", [
    ("import predcomp.config", None),
    ("import numpy, predcomp.predictors as p; p.fit_predictor({'kind': 'ar', 'p': 2}, "
     "numpy.arange(100.0) % 7)", None),
    ("import predcomp.refdet", None),
    ("import predcomp.cli", CLI_MODULES),
    ("import predcomp", ["predcomp"]),
    ("import predcomp.evaluate", None),
    ("import predcomp.io", None),
    ("import predcomp.lstm", None),
    ("import predcomp.pnc", None),
    ("import predcomp.simulate", None),
    ("import predcomp.standardize", None),
    ("import predcomp.refdet.baseline", None),
], ids=["config", "predictors", "refdet", "cli", "package", "evaluate", "io", "lstm", "pnc",
        "simulate", "standardize", "refdet.baseline"])
def test_each_module_imports_first_without_a_cycle(code, loads):
    """In a fresh interpreter each module can be the first one imported;
    `predcomp.cli` then loads exactly CLI_MODULES, and the package root,
    a namespace, loads no module of its own."""
    code += ("; import sys; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('predcomp', 'scipy')))")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    if loads is not None:
        assert out.stdout.strip() == str(loads)


def test_refdet_reexports_only_the_names_the_benchmark_imports():
    """Every other reference-detector name has one import path, its module."""
    import predcomp.refdet as refdet
    assert sorted(refdet.__all__) == ["NigPrior", "bocpd_detect", "classic_cusum_detect",
                                      "mosum_detect", "ocd_detect"]


DOWN_CONFIG = """\
schema_version: 1
seed: 4
output_dir: {out}
train_prefix: 300
datasets:
  - id: down
    source: {{kind: step, pre_mean: 0.0, post_mean: -3.0, sigma: 1.0, cp_at: 500, n: 800}}
detectors:
  - id: pnc_down
    kind: pnc
    predictor: {{kind: ar, p: 2}}
    params: {{l: 100, b: 25, k: 0.5, direction: down, refit: on_detection,
              min_refit_history: 20}}
    grid: {{desInt: [4, 8]}}
"""


def test_detect_and_grid_agree_on_a_downward_pnc(tmp_path, capsys, read_detections):
    from predcomp.cli import build_dataset, build_detector, prepare_series
    from predcomp.config import load_config
    cfg = tmp_path / "down.yaml"
    cfg.write_text(DOWN_CONFIG.format(out=tmp_path / "out"))
    doc = load_config(cfg)
    series = prepare_series(doc, build_dataset(doc["datasets"][0], doc["seed"]))
    grid = build_detector(doc["detectors"][0], doc)
    assert main(["grid", "-c", str(cfg)]) == 0
    metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    for des_int in (4, 8):
        dets_csv = tmp_path / f"dets_{des_int}.csv"
        assert main(["detect", "-c", str(cfg), "--dataset", "down", "--detector", "pnc_down",
                     "--set", f"desInt={des_int}", "--out", str(dets_csv)]) == 0
        got = [(dt, loc) for *_, dt, loc in read_detections(dets_csv)]
        want = [(d.detect_time, d.located_time) for d in grid.runner(series, desInt=des_int)]
        assert got == want and any(t >= 499 for t, _ in got)
        row = next(r.split(",") for r in metrics if f"desInt={des_int}" in r)
        assert int(row[3]) == len(got)
    capsys.readouterr()


def test_downward_trace_shows_the_bound_its_chart_crosses(tmp_path, capsys):
    """The threshold column reads -desInt, the bound below zero that the
    chart alarms past, and the SVG draws it inside the plot."""
    cfg = tmp_path / "down.yaml"
    cfg.write_text(DOWN_CONFIG.format(out=tmp_path / "out"))
    trace, svg = tmp_path / "trace.csv", tmp_path / "chart.svg"
    assert main(["detect", "-c", str(cfg), "--dataset", "down", "--detector", "pnc_down",
                 "--set", "desInt=4", "--out", str(tmp_path / "d.csv"),
                 "--trace", str(trace), "--svg", str(svg)]) == 0
    rows = list(csv.DictReader(trace.read_text().splitlines()))
    assert any(r["alarm"] == "1" for r in rows)
    for r in rows:
        assert float(r["threshold"]) == -4.0
        assert (float(r["stat"]) < -4.0) == (r["alarm"] == "1")
    polylines = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="(\w+)"',
                           svg.read_text())
    ys = {color: [float(xy.split(",")[1]) for xy in points.split()] for points, color in polylines}
    # the dashed bound (red) is inside the plot, and below the statistic's zero, its top
    assert all(25 <= y <= 275 for y in ys["red"])
    assert min(ys["red"]) > min(ys["black"])
    capsys.readouterr()


def test_eval_builds_its_datasets_without_standardizing_them(tmp_path, capsys, monkeypatch):
    """The baseline reads labels, name and length, which standardizing keeps."""
    import predcomp.cli as cli
    cfg = _bound_config(tmp_path, (), {"standardize": {"enabled": True, "mode": "online"}})
    assert main(["grid", "-c", str(cfg)]) == 0
    args = ["eval", "-c", str(cfg), "--metrics", str(tmp_path / "out" / "metrics.csv")]
    capsys.readouterr()
    assert main(args) == 0
    text = capsys.readouterr().out

    def no_standardize(doc, series):
        raise AssertionError("eval standardized a dataset")

    monkeypatch.setattr(cli, "prepare_series", no_standardize)
    assert main(args) == 0
    assert capsys.readouterr().out == text and "random baseline" in text


def test_detect_with_no_step_to_draw_writes_nothing(tmp_path, capsys):
    """A series of l points charts no step; the detections and the
    trace were written before the SVG was refused."""
    cfg = _bound_config(tmp_path, STEP, {"n": 50, "cp_at": 30})
    paths = [tmp_path / name for name in ("d.csv", "t.csv", "t.svg")]
    assert main(["detect", "-c", str(cfg), "--dataset", "s", "--detector", "p",
                 "--out", str(paths[0]), "--trace", str(paths[1]), "--svg", str(paths[2])]) == 2
    assert "empty trace" in capsys.readouterr().err
    assert not any(path.exists() for path in paths)


CHARTLESS_KINDS = pytest.mark.parametrize(
    "kind, params", [("cusum", {"desInt": 5.0}), ("bocpd", {"hazard": 0.01}),
                     ("ocd", {"diag": 8.0}), ("mosum", {})], ids=["cusum", "bocpd", "ocd", "mosum"])


@pytest.mark.parametrize("flag", ["--trace", "--svg"])
@CHARTLESS_KINDS
def test_detect_chart_of_a_kind_without_a_trace_exits_1_and_writes_nothing(tmp_path, capsys,
                                                                            kind, params, flag):
    cfg = _bound_config(tmp_path, (), {"detectors": [{"id": "r", "kind": kind, "params": params}]})
    paths = [tmp_path / "d.csv", tmp_path / "chart"]
    assert main(["detect", "-c", str(cfg), "--dataset", "s", "--detector", "r",
                 "--out", str(paths[0]), flag, str(paths[1])]) == 1
    assert (f"usage error: --trace/--svg: {kind} detectors have no chart trace"
            in capsys.readouterr().err)
    assert not any(path.exists() for path in paths)


@CHARTLESS_KINDS
def test_detect_chart_of_a_kind_without_a_trace_is_refused_before_any_work(tmp_path, capsys,
                                                                            monkeypatch, kind,
                                                                            params):
    import predcomp.cli as cli

    def no_build(*args, **kwargs):
        raise RuntimeError("a dataset was built")

    monkeypatch.setattr(cli, "build_dataset", no_build)
    cfg = _bound_config(tmp_path, (), {"detectors": [{"id": "r", "kind": kind, "params": params}]})
    paths = [tmp_path / "d.csv", tmp_path / "t.csv", tmp_path / "t.svg"]
    assert main(["detect", "-c", str(cfg), "--dataset", "s", "--detector", "r",
                 "--out", str(paths[0]), "--trace", str(paths[1]), "--svg", str(paths[2])]) == 1
    assert (f"usage error: --trace/--svg: {kind} detectors have no chart trace"
            in capsys.readouterr().err)
    assert not any(path.exists() for path in paths)


@pytest.mark.parametrize("detector, pin, code, message", [
    ("pnc_ar", ["--set", "nokey"], 1, "--set expects key=value, got 'nokey'"),
    ("bocpd", [], 2, "`detect` needs a single value for cpthreshold"),
    ("mosum", ["--set", "level=0.07"], 2, "detector 'mosum': level 0.07 not calibrated"),
    ("pnc_ar", ["--set", "desInt=["], 1, "usage error: --set 'desInt=[': not YAML: ")],
    ids=["malformed-set", "unpinned-grid", "uncalibrated-level", "not-yaml-set"])
def test_detect_refuses_its_parameter_point_before_any_work(tmp_path, capsys, monkeypatch,
                                                            detector, pin, code, message):
    import predcomp.cli as cli

    def no_build(*args, **kwargs):
        raise RuntimeError("a dataset was built")

    monkeypatch.setattr(cli, "build_dataset", no_build)
    cfg = tmp_path / "demo.yaml"  # the demo, with a mosum grid whose levels are calibrated
    cfg.write_text((ROOT / "configs" / "demo.yaml").read_text().replace(
        "grid: {h: [0.25, 0.5], level: [0.01, 0.05, 0.1, 0.2]}", "grid: {level: [0.05, 0.1]}"))
    out = tmp_path / "d.csv"
    assert main(["detect", "-c", str(cfg), "--dataset", "wear_mild",
                 "--detector", detector, "--out", str(out), *pin]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("detect", ["--out", "same.csv", "--trace", "same.csv"]),
    ("detect", ["--out", "d.csv", "--trace", "t.csv", "--svg", "sub/../t.csv"]),
    ("train-lstm", ["--out", "m", "--loss", "m"])], ids=["detect-out-trace", "detect-trace-svg",
                                                         "train-lstm-out-loss"])
def test_a_path_given_for_two_outputs_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                              command, flags):
    """Two outputs written to one file would leave only the second: the
    paths are compared resolved, before the dataset is built."""
    import predcomp.cli as cli

    def no_build(*args, **kwargs):
        raise RuntimeError("a dataset was built")

    monkeypatch.setattr(cli, "build_dataset", no_build)
    (tmp_path / "sub").mkdir()
    flags = [str(tmp_path / flag) if i % 2 else flag for i, flag in enumerate(flags)]
    which = ["--detector", "pnc_ar", "--set", "desInt=10"] if command == "detect" else []
    assert main([command, "-c", str(ROOT / "configs" / "demo.yaml"), "--dataset", "wear_mild",
                 *which, *flags]) == 2
    assert "given for two outputs of one command" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize("bad", ["directory", "not-utf8"])
def test_a_config_that_cannot_be_read_exits_2_and_writes_nothing(tmp_path, capsys, bad):
    from predcomp.config import ConfigError, load_config
    cfg = tmp_path / "c.yaml"
    if bad == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg))}: cannot read the config: "):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["grid", "-c", str(cfg), "--out", str(out)]) == 2
    assert f"error: {cfg}: cannot read the config: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_csv_exits_2_and_writes_nothing(tmp_path, capsys, bad):
    src = tmp_path / "bad.csv"
    src.write_text("time,value,phase,cp\n" + "".join(
        f"{t},{bad if t == 201 else 1.0},,{'K>A' if t == 300 else ''}\n" for t in range(1, 401)))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"""\
schema_version: 1
output_dir: {tmp_path / 'out'}
datasets:
  - id: bad
    source: {{kind: csv, path: {src}}}
detectors:
  - id: cusum
    kind: cusum
    grid: {{desInt: [5]}}
""")
    scores, dets = tmp_path / "scores.csv", tmp_path / "dets.csv"
    assert main(["standardize", str(src), str(scores)]) == 2
    assert main(["detect", "-c", str(cfg), "--dataset", "bad", "--detector", "cusum",
                 "--out", str(dets)]) == 2
    assert main(["grid", "-c", str(cfg)]) == 2
    assert capsys.readouterr().err.count(f"error: {src}:202: value '{bad}' is not finite") == 3
    assert not scores.exists() and not dets.exists() and not (tmp_path / "out").exists()


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["standardize", str(missing), str(tmp_path / "scores.csv")]) == 2
    assert f"error: {missing}: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


@pytest.mark.parametrize("config_t0, cli_t0, message", [
    ("-1", None, "standardize.t0 must be int >= 0, got -1"),
    ("abc", None, "standardize.t0 must be int, got 'abc'"),
    (None, "-1", "--t0 must be int >= 0, got -1"),
], ids=["config-negative", "config-untyped", "cli-negative"])
def test_bad_t0_exits_2_and_writes_nothing(tmp_path, capsys, config_t0, cli_t0, message):
    """t0 is checked where it enters: in a config at load, and as --t0."""
    out = tmp_path / "out"
    if config_t0 is not None:
        cfg = tmp_path / "c.yaml"
        cfg.write_text(CONFIG.format(out=out)
                       + f"standardize: {{enabled: true, t0: {config_t0}}}\n")
        assert main(["grid", "-c", str(cfg)]) == 2
    else:
        src = tmp_path / "raw.csv"
        src.write_text("time,value\n" + "".join(f"{t},{t % 4}\n" for t in range(1, 101)))
        assert main(["standardize", str(src), str(out), "--t0", cli_t0]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


DELETE = object()
# one config for every bad value below: a step and a wear dataset, a pnc detector
BOUND_CONFIG = {
    "schema_version": 1, "seed": 1, "train_prefix": 200,
    "datasets": [{"id": "s", "source": {"kind": "step", "post_mean": 3.0, "cp_at": 300, "n": 400}},
                 {"id": "w", "source": {"kind": "wear", "a": 100.0, "lam": 0.02, "c": 3.0,
                                        "d": 0.05, "t2": 300, "n": 400}}],
    "detectors": [{"id": "p", "kind": "pnc", "predictor": {"kind": "ar", "p": 2},
                   "params": {"l": 50, "b": 10}, "grid": {"desInt": [8]}}],
    "evaluation": {"target": "K>A", "baseline": {"n_fp": [0], "repetitions": 5}},
    "lstm": {"nh": 12, "nz": 4},
}
STEP, WEAR, DET = ("datasets", 0, "source"), ("datasets", 1, "source"), ("detectors", 0)


def _bound_config(tmp_path, path, update):
    import copy
    doc = copy.deepcopy(BOUND_CONFIG)
    doc["output_dir"] = str(tmp_path / "out")
    node = doc
    for key in path:
        node = node[key]
    for key, value in update.items():
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.dump(doc, Dumper=_Dumper))
    return cfg


class _Dumper(yaml.SafeDumper):
    """Quotes each string that the config reader would read as another type,
    such as '1e3', which YAML 1.1 leaves as text."""
    yaml_implicit_resolvers = _Loader.yaml_implicit_resolvers


BAD_VALUES = [
    (STEP, {"n": "lots"}, "datasets[0].source.n must be int"),
    (STEP, {"n": 0}, "datasets[0].source.n must be int > 0"),
    (STEP, {"n": 2.5}, "datasets[0].source.n must be int, got 2.5"),
    (STEP, {"n": True}, "datasets[0].source.n must be int, got True"),
    (STEP, {"n": "300"}, "datasets[0].source.n must be int, got '300'"),
    (("datasets", 0), {"id": True}, "datasets[0].id must be str, got True"),
    (DET, {"id": True}, "detectors[0].id must be str, got True"),
    (STEP, {"cp_at": 11, "n": 10}, "datasets[0].source: cp_at must be <= n"),
    (STEP, {"sigma": -1}, "datasets[0].source.sigma must be float >= 0"),
    (STEP, {"sigma": float("nan")}, "datasets[0].source.sigma must be float >= 0"),
    (STEP, {"pre_mean": float("inf")}, "datasets[0].source.pre_mean must be finite"),
    (WEAR, {"n": DELETE}, "datasets[1].source.n has no default"),
    (WEAR, {"n": "1e3"}, "datasets[1].source.n must be int, got '1e3'"),
    (WEAR, {"lam": 0}, "datasets[1].source.lam must be float > 0"),
    (WEAR, {"lam": True}, "datasets[1].source.lam must be float, got True"),
    (WEAR, {"c": "3"}, "datasets[1].source.c must be float, got '3'"),
    (WEAR, {"lam": float("nan")}, "datasets[1].source.lam must be finite"),
    (WEAR, {"c": float("inf")}, "datasets[1].source.c must be finite"),
    (WEAR, {"c": [1, 2]}, "datasets[1].source.c must be float"),
    (WEAR, {"scale": -1}, "datasets[1].source.scale must be float >= 0"),
    (WEAR, {"scale": float("nan")}, "datasets[1].source.scale must be float >= 0"),
    (WEAR, {"t2": "abc", "d": 0.1}, "datasets[1].source.t2 must be int"),
    (WEAR, {"a": 100, "lam": 0.001, "d": 0.1, "t2": 50}, "datasets[1].source: run-in ends"),
    (DET, {"predictor": {"kind": "ar", "p": "lots"}}, "detectors[0].predictor.p must be int"),
    (DET, {"predictor": {"kind": "ar", "p": 0}}, "detectors[0].predictor.p must be int > 0"),
    (DET, {"predictor": {"kind": "ar", "p": 2.7}}, "detectors[0].predictor.p must be int"),
    (DET, {"grid": {"desInt": [True]}}, "detector 'p': desInt must be float, got True"),
    (DET, {"grid": {"desInt": ["5", 5.0]}}, "detector 'p': desInt must be float, got '5'"),
    (DET, {"params": {"l": 50, "b": 10, "k": "0.5"}}, "detector 'p': k must be float, got '0.5'"),
    (DET, {"predictor": {"kind": "arima", "order": ["1", 0, 0]}},
     "detectors[0].predictor.order must be auto or [p, d, q], got ['1', 0, 0]"),
    (DET, {"predictor": {"kind": "naive", "p": 3}}, "detectors[0].predictor: unknown parameters"),
    (DET, {"predictor": {"kind": "arima", "order": [1, 2]}}, "detectors[0].predictor.order"),
    (DET, {"predictor": {"kind": "arima", "order": "abc"}}, "detectors[0].predictor.order"),
    (DET, {"predictor": {"kind": "arima", "order": [9, 0, 0]}}, "detectors[0].predictor.order"),
    ((), {"seed": "abc"}, "seed must be int"),
    ((), {"train_prefix": "lots"}, "train_prefix must be int"),
    ((), {"train_prefix": 0}, "train_prefix must be int > 0"),
    ((), {"standardize": {"enabled": "maybe"}}, "standardize.enabled must be bool"),
    (("evaluation",), {"fpc_cap": "lots"}, "evaluation.fpc_cap must be float"),
    (("evaluation", "baseline"), {"repetitions": "lots"},
     "evaluation.baseline.repetitions must be int"),
    (("evaluation", "baseline"), {"n_fp": ["bad"]}, "evaluation.baseline.n_fp must be"),
    (("evaluation",), {"target": "XYZ"}, "evaluation.target must be"),
    (("lstm",), {"nh": "lots"}, "lstm.nh must be int"),
    (("lstm",), {"epochs": -1}, "lstm.epochs must be int > 0"),
    (("lstm",), {"learning_rate": float("nan")}, "lstm.learning_rate must be finite"),
    (("lstm",), {"learning_rate": "0.01"}, "lstm.learning_rate must be float, got '0.01'"),
    (WEAR, {"a": 1e300}, "datasets[1].source: the Poisson means"),
    (WEAR, {"c": 1e300}, "datasets[1].source: the Poisson means"),
    (WEAR, {"d": 1e300}, "datasets[1].source: the Poisson means"),
    (WEAR, {"scale": 1e-10}, "datasets[1].source: the Poisson means"),
]


@pytest.mark.parametrize("path, update, message", BAD_VALUES,
                         ids=[f"{'.'.join(map(str, path)) or 'top'}:"
                              f"{ {k: 'deleted' if v is DELETE else v for k, v in update.items()} }"
                              for path, update, _ in BAD_VALUES])
def test_bad_config_value_exits_2_and_writes_nothing(tmp_path, capsys, path, update, message):
    """Each value exits 2 at load, naming its key, with no file written;
    before the config schema each one exited 3 or ran with the value
    altered or ignored."""
    cfg = _bound_config(tmp_path, path, update)
    for command in (["simulate"], ["grid"]):
        assert main([*command, "-c", str(cfg)]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, update", [
    (STEP, {"n": 300.0}), (STEP, {"cp_at": 400}), (STEP, {"cp_at": 1}), (STEP, {"sigma": 0}),
    (STEP, {"sigma": 1e45}),
    (WEAR, {"scale": 0}), (WEAR, {"lam": 1e300}), (WEAR, {"a": 0}), (WEAR, {"decay_cutoff": 0.5}),
    (WEAR, {"c": 1e18}),
    (DET, {"predictor": {"kind": "ar", "p": 2.0}}),
    (DET, {"predictor": {"kind": "arima", "order": [1, 0, 0]}}),
    ((), {"seed": 0}), ((), {"train_prefix": 10**6}),
    (("evaluation",), {"fpc_cap": float("inf")}),
], ids=lambda v: str(v))
def test_values_inside_the_bounds_load_and_run(tmp_path, capsys, path, update):
    cfg = _bound_config(tmp_path, path, update)
    assert main(["grid", "-c", str(cfg)]) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()
    capsys.readouterr()


def test_simulate_only_an_unknown_id_exits_1_and_writes_nothing(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(config_path)]) == 0
    manifest = (out / "manifest.json").read_bytes()
    assert main(["simulate", "-c", str(config_path), "--only", "nope"]) == 1
    assert "unknown dataset id 'nope'" in capsys.readouterr().err
    assert (out / "manifest.json").read_bytes() == manifest
    assert main(["simulate", "-c", str(config_path), "--out", str(tmp_path / "new"),
                 "--only", "nope"]) == 1
    assert not (tmp_path / "new").exists()
    capsys.readouterr()


def test_predictor_that_cannot_be_fitted_on_the_prefix_exits_2(tmp_path, capsys):
    cfg = _bound_config(tmp_path, DET, {"predictor": {"kind": "arima", "order": [2, 0, 1]}})
    cfg.write_text(cfg.read_text().replace("train_prefix: 200", "train_prefix: 4"))
    dets = tmp_path / "dets.csv"
    assert main(["grid", "-c", str(cfg)]) == 2
    assert main(["detect", "-c", str(cfg), "--dataset", "s", "--detector", "p",
                 "--out", str(dets)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: detector 'p': train_prefix: history too short for ARIMA(2, 0, 1)") == 2
    assert not (tmp_path / "out").exists() and not dets.exists()


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "pooled"])
def test_grid_exits_with_the_first_failing_unit_and_writes_nothing(config_path, capsys,
                                                                    monkeypatch, cpus):
    """The cusum units run last: step1's raises an internal error slowly, and
    step2's, after it in the serial order, a fitting error at once."""
    import multiprocessing

    import predcomp.config as config
    from predcomp.predictors import PredictorError

    def failing(series, thresholds, *args, **kwargs):
        if not len(series):  # the check of each point, on an empty series
            return [[] for _ in thresholds]
        if series.name == "step1":
            time.sleep(0.5)
            raise RuntimeError("slow")
        raise PredictorError("fast")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(config, "classic_cusum_sweep", failing)
    assert main(["grid", "-c", str(config_path)]) == 3
    assert "internal error: RuntimeError: slow" in capsys.readouterr().err
    assert not (config_path.parent / "out").exists()
    assert multiprocessing.active_children() == []


def test_dataset_without_the_target_label_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    import predcomp.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a detector ran")

    monkeypatch.setattr(cli, "run_grid", no_run)
    cfg = _bound_config(tmp_path, ("evaluation",), {"target": "E>K"})
    assert main(["grid", "-c", str(cfg)]) == 2
    assert "error: dataset 's' has no E>K label (evaluation.target)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_without_a_detector_exits_2_before_building_a_dataset(tmp_path, capsys,
                                                                    monkeypatch):
    import predcomp.cli as cli

    def no_build(*args, **kwargs):
        raise AssertionError("a dataset was built")

    monkeypatch.setattr(cli, "build_dataset", no_build)
    cfg = _bound_config(tmp_path, (), {"detectors": []})
    assert main(["grid", "-c", str(cfg)]) == 2
    assert "error: grid needs at least one dataset and one detector" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lstm_training_that_diverges_exits_2_and_writes_no_model(tmp_path, capsys):
    cfg = _bound_config(tmp_path, ("lstm",), {"learning_rate": 1e300, "hidden": 4, "epochs": 2})
    model = tmp_path / "model.json"
    assert main(["train-lstm", "-c", str(cfg), "--dataset", "s", "--out", str(model)]) == 2
    assert "error: training diverged: the loss is not finite" in capsys.readouterr().err
    assert not model.exists()


def test_lstm_that_cannot_be_trained_on_the_prefix_exits_2(tmp_path, capsys):
    cfg = _bound_config(tmp_path, (), {"train_prefix": 10})
    model = tmp_path / "model.json"
    assert main(["train-lstm", "-c", str(cfg), "--dataset", "s", "--out", str(model)]) == 2
    assert "error: history too short for the requested windows" in capsys.readouterr().err
    assert not model.exists()


def test_detect_reads_a_set_value_in_exponent_form_as_a_number(tmp_path, capsys):
    outs = [tmp_path / "exponent.csv", tmp_path / "decimal.csv"]
    for value, out in zip(["1e1", "10.0"], outs):
        assert main(["detect", "-c", str(ROOT / "configs" / "demo.yaml"), "--dataset", "wear_mild",
                     "--detector", "cusum", "--set", f"desInt={value}", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()
