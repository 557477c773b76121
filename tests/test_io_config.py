"""Tests for file formats (CSV/JSON/SVG) and config validation."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from predcomp.config import ConfigError, load_config
from predcomp.io import (
    DataError,
    check_output,
    read_labels_csv,
    read_lstm,
    read_metrics_csv,
    read_series_csv,
    write_detections_csv,
    write_lstm,
    write_metrics_csv,
    write_series_csv,
    write_text,
    write_trace_csv,
    write_trace_svg,
)
from predcomp.evaluate import EvalRecord
from predcomp.lstm import init_lstm
from predcomp.series import CpLabel, Detection, LabeledSeries


def _series():
    vals = np.array([5.0, 0.1, -2.25, 7.0, 3.5, 8.0])
    labels = [CpLabel(2, "E", "K"), CpLabel(4, "K", "A")]
    return LabeledSeries(vals, labels, name="demo")


def test_series_round_trip_and_stable_bytes(tmp_path):
    p = tmp_path / "s.csv"
    series = _series()
    write_series_csv(p, series)
    back = read_series_csv(p)
    assert np.array_equal(back.values, series.values)
    assert back.cp_labels == series.cp_labels
    assert back.name == "s"  # falls back to the file stem
    first = p.read_bytes()
    write_series_csv(p, back)
    assert p.read_bytes() == first


def test_series_file_layout(tmp_path):
    p = tmp_path / "s.csv"
    write_series_csv(p, _series())
    lines = p.read_text().splitlines()
    assert lines[0] == "time,value,phase,cp"
    # 1-based times, integer-valued floats compact, labels inline
    assert lines[1] == "1,5,E,"
    assert lines[2] == "2,0.1,E,"
    assert lines[3] == "3,-2.25,K,E>K"
    assert lines[5] == "5,3.5,A,K>A"


@pytest.mark.parametrize("parent, reason", [("missing", "No such file or directory"),
                                            ("file", "Not a directory")])
def test_a_writer_on_a_path_without_a_directory_raises_and_leaves_no_file(tmp_path, parent,
                                                                          reason):
    if parent == "file":
        (tmp_path / parent).write_text("")
    before = sorted(tmp_path.rglob("*"))
    path = tmp_path / parent / "s.csv"
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: cannot write: {reason}$"):
        write_series_csv(path, _series())
    assert sorted(tmp_path.rglob("*")) == before


def test_series_read_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n")
    with pytest.raises(DataError):
        read_series_csv(p)
    p.write_text("time,value,phase,cp\n1,1.0,E\n")
    with pytest.raises(DataError):
        read_series_csv(p)  # wrong column count
    p.write_text("time,value,phase,cp\n2,1.0,E,\n")
    with pytest.raises(DataError):
        read_series_csv(p)  # times must start at 1
    p.write_text("time,value,phase,cp\n1,1.0,E,\n3,2.0,E,\n")
    with pytest.raises(DataError):
        read_series_csv(p)  # gap in the times
    p.write_text("time,value,phase,cp\n1,1.0,Q,\n")
    with pytest.raises(DataError):
        read_series_csv(p)  # unknown phase letter
    p.write_text("time,value,phase,cp\n1,1.0,E,EK\n")
    with pytest.raises(DataError):
        read_series_csv(p)  # malformed label
    p.write_text("time,value,phase,cp\n1,x,E,\n")
    with pytest.raises(DataError):
        read_series_csv(p)  # bad value
    p.write_text("time,value,phase,cp\n")
    with pytest.raises(DataError):
        read_series_csv(p)  # no rows


def test_labels_sidecar(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("time,from,to\n301,E,K\n1201,K,A\n")
    labels = read_labels_csv(p)
    assert labels == [CpLabel(300, "E", "K"), CpLabel(1200, "K", "A")]
    p.write_text("t,f,g\n1,E,K\n")
    with pytest.raises(DataError):
        read_labels_csv(p)
    p.write_text("time,from,to\nx,E,K\n")
    with pytest.raises(DataError):
        read_labels_csv(p)


def test_detections_csv_layout(tmp_path):
    p = tmp_path / "d.csv"
    rows = [
        ("ds1", "pnc", "desInt=5", Detection(detect_time=99, located_time=90,
                                             detector="pnc")),
        ("ds1", "mosum", "level=0.05", Detection(detect_time=200, located_time=None,
                                                 detector="mosum")),
    ]
    write_detections_csv(p, rows)
    lines = p.read_text().splitlines()
    assert lines[1] == "ds1,pnc,desInt=5,100,91"   # 1-based on disk
    assert lines[2] == "ds1,mosum,level=0.05,201,"  # locator-less stays empty


def test_metrics_csv_layout(tmp_path):
    p = tmp_path / "m.csv"
    rec = EvalRecord(dataset_id="a", detector_id="d", params_id="h=1",
                     n_detections=2, fpc=1, target_found=True, arlp=8.7397086,
                     detect_time=3476, located_time=None, valid=True)
    miss = EvalRecord(dataset_id="a", detector_id="d", params_id="h=2",
                      n_detections=0, fpc=0, target_found=False, arlp=None,
                      detect_time=None, located_time=None, valid=False)
    write_metrics_csv(p, [rec, miss])
    lines = p.read_text().splitlines()
    assert lines[0] == ("dataset,detector,params,n_detections,fpc,target_found,"
                        "arlp,detect_time,located_time,valid")
    assert lines[1] == "a,d,h=1,2,1,1,8.739709,3477,,1"
    assert lines[2] == "a,d,h=2,0,0,0,,,,0"


def test_metrics_round_trip(tmp_path):
    p, again = tmp_path / "m.csv", tmp_path / "again.csv"
    rec = EvalRecord(dataset_id="a", detector_id="d", params_id="h=1",
                     n_detections=2, fpc=1, target_found=True, arlp=8.7397086,
                     detect_time=3476, located_time=3470, valid=True)
    miss = EvalRecord(dataset_id="a", detector_id="d", params_id="h=2",
                      n_detections=0, fpc=0, target_found=False, arlp=None,
                      detect_time=None, located_time=None, valid=False)
    write_metrics_csv(p, [rec, miss])
    back = read_metrics_csv(p)
    # arlp comes back rounded to 6 decimals, empty fields as None
    assert back == [dataclasses.replace(rec, arlp=8.739709), miss]
    write_metrics_csv(again, back)
    assert again.read_bytes() == p.read_bytes()


@pytest.mark.parametrize("times", ["0,", "5,-4", ",0"],
                         ids=["detect-0", "located-negative", "located-0"])
def test_metrics_reader_rejects_times_below_1(tmp_path, times):
    p = tmp_path / "m.csv"
    p.write_text("dataset,detector,params,n_detections,fpc,target_found,arlp,detect_time,"
                 f"located_time,valid\na,d,h=1,1,0,1,2.5,{times},1\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}:2: time must be >= 1"):
        read_metrics_csv(p)


def test_model_round_trip(tmp_path):
    p = tmp_path / "model.json"
    net = init_lstm(5, 3, hidden=4, seed=9)
    write_lstm(p, net)
    doc = json.loads(p.read_text())
    assert doc["kind"] == "lstm"
    assert (doc["nh"], doc["nz"], doc["hidden"]) == (5, 3, 4)
    assert doc["arrays"]["W"] == {"shape": [16, 5], "data": net.W.ravel().tolist()}
    assert doc["schema_version"] == 1
    back = read_lstm(p)
    assert (back.nh, back.nz, back.hidden) == (5, 3, 4)
    for key, arr in net.params().items():
        assert np.array_equal(back.params()[key], arr)


def test_model_schema_checks(tmp_path):
    p = tmp_path / "model.json"
    write_lstm(p, init_lstm(5, 3, hidden=4, seed=9))
    good = json.loads(p.read_text())
    no_by = {**good, "arrays": {k: v for k, v in good["arrays"].items() if k != "by"}}
    nan_by = {**good, "arrays": {**good["arrays"],
                                 "by": {"shape": [3], "data": [0, float("nan"), 0]}}}
    for doc in ({**good, "schema_version": 99}, {"schema_version": 1}, {**good, "kind": "ar"},
                no_by, [1, 2], {**good, "hidden": 8}, nan_by):
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: not an lstm model file"):
            read_lstm(p)


def test_trace_csv_and_svg(tmp_path):
    rows = [(i, float(i), 0.0, 0.1 * i, 5.0, i == 3) for i in range(4)]
    pc = tmp_path / "trace.csv"
    write_trace_csv(pc, rows)
    lines = pc.read_text().splitlines()
    assert lines[0] == "time,value,target,stat,threshold,alarm"
    assert lines[1] == "1,0.0,0.0,0.0,5.0,0"
    assert lines[4] == "4,3.0,0.0,0.30000000000000004,5.0,1"
    ps = tmp_path / "trace.svg"
    write_trace_svg(ps, rows)
    svg = ps.read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 2
    assert '<circle' in svg and "1 alarm(s)" in svg
    with pytest.raises(DataError):
        write_trace_svg(tmp_path / "empty.svg", [])


def test_svg_of_a_downward_chart_stays_on_the_canvas(tmp_path):
    rows = [(i, 0.0, 0.0, -4.0 - 0.1 * i, -5.0, i == 8) for i in range(9)]
    p = tmp_path / "down.svg"
    write_trace_svg(p, rows)
    svg = p.read_text()
    width, height = map(int, re.search(r'width="(\d+)" height="(\d+)"', svg).groups())
    xy = [tuple(map(float, pt.split(","))) for pts in re.findall(r'points="([^"]*)"', svg)
          for pt in pts.split()]
    xy += [tuple(map(float, c)) for c in re.findall(r'cx="([^"]+)" cy="([^"]+)"', svg)]
    assert len(xy) == 2 * len(rows) + 1
    assert all(0 <= x <= width and 0 <= y <= height for x, y in xy)


def _write_config(tmp_path, text):
    p = tmp_path / "c.yaml"
    p.write_text(text)
    return p


def test_minimal_config_defaults(tmp_path):
    doc = load_config(_write_config(tmp_path, "schema_version: 1\n"))
    assert doc["seed"] == 0
    assert doc["output_dir"] == "out"
    assert doc["train_prefix"] == 600


def test_config_env_seed_override(tmp_path, monkeypatch):
    p = _write_config(tmp_path, "schema_version: 1\nseed: 5\n")
    assert load_config(p)["seed"] == 5
    monkeypatch.setenv("PREDCOMP_SEED", "99")
    assert load_config(p)["seed"] == 99
    monkeypatch.setenv("PREDCOMP_SEED", "nope")
    with pytest.raises(ConfigError):
        load_config(p)
    monkeypatch.setenv("PREDCOMP_SEED", "-1")
    with pytest.raises(ConfigError, match="PREDCOMP_SEED must be int >= 0, got -1"):
        load_config(p)


def test_config_rejects_unknowns_and_bad_versions(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "schema_version: 1\nbogus: 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "seed: 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "schema_version: 2\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "- 1\n- 2\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "a: [\n"))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_config_dataset_validation(tmp_path):
    base = "schema_version: 1\ndatasets:\n"
    ok = base + "  - id: w\n    source: {kind: wear, a: 100, lam: 0.02, c: 3, d: 0.02, t2: 1200, n: 2000}\n"
    assert load_config(_write_config(tmp_path, ok))["datasets"][0]["id"] == "w"
    dup = ok + "  - id: w\n    source: {kind: step, cp_at: 5, n: 10}\n"
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, dup))
    with pytest.raises(ConfigError, match=r"datasets\[1\]: duplicate id '1' \(ids compare as text"):
        load_config(_write_config(tmp_path, ok.replace("id: w", "id: 1")
                                  + "  - id: '1'\n    source: {kind: step, cp_at: 5, n: 10}\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(
            tmp_path, base + "  - id: w\n    source: {kind: magic}\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(
            tmp_path, base + "  - id: w\n    source: {kind: wear, nope: 1}\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(
            tmp_path, base + "  - id: w\n    source: {kind: csv}\n"))
    with pytest.raises(ConfigError, match=r"datasets\[0\]\.id must be str, got True"):
        load_config(_write_config(tmp_path, ok.replace("id: w", "id: yes")))


def test_config_detector_validation(tmp_path):
    base = "schema_version: 1\ndetectors:\n"
    ok = (base + "  - id: p\n    kind: pnc\n    predictor: {kind: ar, p: 5}\n"
          "    params: {l: 50, b: 25, k: 0.5}\n    grid: {desInt: [4, 6]}\n")
    doc = load_config(_write_config(tmp_path, ok))
    assert doc["detectors"][0]["kind"] == "pnc"
    with pytest.raises(ConfigError):  # pnc needs a predictor
        load_config(_write_config(tmp_path, base + "  - id: p\n    kind: pnc\n"))
    with pytest.raises(ConfigError):  # others must not take one
        load_config(_write_config(
            tmp_path, base + "  - id: c\n    kind: cusum\n    predictor: {kind: ar}\n"))
    with pytest.raises(ConfigError):  # unknown detector kind
        load_config(_write_config(tmp_path, base + "  - id: x\n    kind: magic\n"))
    with pytest.raises(ConfigError):  # unknown param name
        load_config(_write_config(
            tmp_path, base + "  - id: c\n    kind: cusum\n    params: {bogus: 1}\n"))
    with pytest.raises(ConfigError):  # grid entries must be non-empty lists
        load_config(_write_config(
            tmp_path, base + "  - id: c\n    kind: cusum\n    grid: {desInt: 5}\n"))
    with pytest.raises(ConfigError):  # unknown predictor kind
        load_config(_write_config(
            tmp_path, base + "  - id: p\n    kind: pnc\n    predictor: {kind: magic}\n"))
    dup = ok + "  - id: p\n    kind: cusum\n"
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, dup))
    with pytest.raises(ConfigError, match=r"detectors\[1\]: duplicate id '1' \(ids compare as text"):
        load_config(_write_config(tmp_path, ok.replace("id: p", "id: '1'")
                                  + "  - id: 1\n    kind: cusum\n"))
    with pytest.raises(ConfigError, match=r"detectors\[0\]\.id must be str, got False"):
        load_config(_write_config(tmp_path, ok.replace("id: p", "id: off")))


@pytest.mark.parametrize("kind, grid, key", [
    ("cusum", "{desInt: [2.0, 2.0]}", "desInt"), ("cusum", "{desInt: [5, 5.0]}", "desInt"),
    ("mosum", "{h: [0.25, 0.5], level: [0.05, 0.1, 0.05]}", "level"),
    ("mosum", "{monitor_from: [null, ~]}", "monitor_from"),
], ids=["same-float", "int-and-float", "mosum-level", "null"])
def test_a_grid_list_that_repeats_a_typed_value_is_refused(tmp_path, kind, grid, key):
    """A repeated point would be run and scored once per copy, and the
    overall and subset scopes would sum its Fpc over the copies."""
    with pytest.raises(ConfigError, match=rf"^detectors\[0\]\.grid\.{key}: expected distinct "):
        load_config(_write_config(tmp_path, "schema_version: 1\ndetectors:\n"
                                  f"  - {{id: c, kind: {kind}, grid: {grid}}}\n"))


def test_ocd_takes_no_off_diagonal_threshold(tmp_path):
    # the univariate scan has no cross-coordinate statistic to bound
    with pytest.raises(ConfigError, match=r"unknown parameters \['offDiag'\]"):
        load_config(_write_config(
            tmp_path, "schema_version: 1\ndetectors:\n"
                      "  - {id: o, kind: ocd, params: {diag: 8, offDiag: 1.0}}\n"))


def test_config_section_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_config(
            tmp_path, "schema_version: 1\nstandardize: {enabled: true, mode: sideways}\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(
            tmp_path, "schema_version: 1\nevaluation: {bogus: 1}\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(
            tmp_path, "schema_version: 1\nevaluation: {baseline: {bogus: 1}}\n"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, "schema_version: 1\nlstm: {nh: 24}\n"))
    ok = load_config(_write_config(
        tmp_path, "schema_version: 1\nlstm: {nh: 24, nz: 6, epochs: 10}\n"))
    assert ok["lstm"]["epochs"] == 10


def _series_with_nan():
    vals = np.linspace(0.0, 1.0, 600)
    vals[300] = np.nan  # the value formatter fails on row 301
    return LabeledSeries(vals, [], name="nan")


@pytest.mark.parametrize("write, bad", [
    (write_series_csv, _series_with_nan()),
    (write_lstm, dataclasses.replace(init_lstm(5, 3, hidden=4),
                                     by=np.array([0.5, 0.5, object()], dtype=object))),
    (write_trace_csv, [(i, 0.5, 0.0, 1.0, 5.0, False) for i in range(500)]
     + [(500, "not a number", 0.0, 1.0, 5.0, False)]),
])
def test_failed_write_leaves_the_old_file(tmp_path, write, bad):
    old = tmp_path / "old.out"
    old.write_bytes(b"old contents\n")
    with pytest.raises((ValueError, TypeError)):
        write(old, bad)
    assert old.read_bytes() == b"old contents\n"
    with pytest.raises((ValueError, TypeError)):
        write(tmp_path / "new.out", bad)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["old.out"]


def test_write_text_replaces_the_file(tmp_path):
    p = tmp_path / "t.txt"
    write_text(p, "first\n")
    write_text(p, "second\n")
    assert p.read_text() == "second\n"
    assert [f.name for f in tmp_path.iterdir()] == ["t.txt"]


def test_check_output_takes_what_a_write_can_make_and_nothing_else(tmp_path):
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    check_output(tmp_path / "afile", tmp_path / "new.csv", None)  # replaced, made, no output
    check_output(tmp_path / "adir", tmp_path / "new" / "deeper", directory=True)
    for path, directory, reason in [
            ("adir", False, "cannot write: Is a directory"),
            ("nosuch/x", False, "cannot write: No such file or directory"),
            ("afile/x", False, "cannot write: Not a directory"),
            ("afile", True, "cannot make the directory: Not a directory"),
            ("afile/x/y", True, "cannot make the directory: Not a directory")]:
        with pytest.raises(DataError, match=f"^{tmp_path / path}: {reason}$"):
            check_output(tmp_path / path, directory=directory)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["adir", "afile"]


def test_check_output_compares_the_paths_it_is_given_resolved(tmp_path):
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    check_output(tmp_path / "a", tmp_path / "c")  # a symlink loop is replaced, as a file is
    with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path / 'c'))}: given for two "
                                        "outputs of one command$"):
        check_output(tmp_path / "c", tmp_path / "sub" / ".." / "c")


def test_readme_tables_list_each_config_key():
    """The README's source, predictor, standardize, evaluation and lstm tables
    name every key of the code's tables, in order, with its default."""
    from pathlib import Path

    from predcomp.config import BASELINE, EVALUATION, LSTM, PREDICTORS, SOURCES, STANDARDIZE
    from predcomp.config import REQUIRED
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = [(name, cell.strip()) for name, cell in
              re.findall(r"^\| `(\w+(?:\.\w+)+)` \| ([^|]+) \|", readme, re.M)]
    tables = ([(kind, entry.params) for kind, entry in SOURCES.items()]
              + [(kind, entry.params) for kind, entry in PREDICTORS.items()]
              + [("standardize", STANDARDIZE), ("evaluation", EVALUATION),
                 ("evaluation.baseline", BASELINE), ("lstm", LSTM)])
    want = [(f"{prefix}.{key}", default) for prefix, table in tables
            for key, (_, default) in table.items()]
    assert [name for name, _ in listed] == [name for name, _ in want]
    for (name, cell), (_, default) in zip(listed, want):
        if default is REQUIRED:
            assert cell == "required", name
        elif default is None:
            assert cell.startswith("unset"), name
        else:
            shown = (str(default).lower() if isinstance(default, bool)
                     else str(list(default)) if isinstance(default, tuple) else str(default))
            assert cell == f"`{shown}`", name


def test_loaded_sections_are_typed_with_defaults(tmp_path):
    from predcomp.lstm import TrainConfig
    doc = load_config(_write_config(tmp_path, "schema_version: 1\nlstm: {nh: 24, nz: 6}\n"))
    assert doc["standardize"] == {"enabled": False, "t0": 0, "mode": "offline"}
    assert doc["evaluation"] == {"target": "K>A", "fpc_cap": None, "overall_cap": None,
                                 "subset": None, "subset_cap": None, "baseline": None}
    assert doc["lstm"]["epochs"] == TrainConfig.epochs and doc["lstm"]["max_windows"] == 500
    assert list(doc["datasets"]) == [] and list(doc["detectors"]) == []
    doc = load_config(_write_config(tmp_path, "schema_version: 1\nevaluation: {baseline: {}}\n"))
    assert doc["lstm"] is None
    assert doc["evaluation"]["baseline"] == {"n_fp": (0,), "repetitions": 100}
    # null leaves a key that is unset by default unset, as leaving it out does
    doc = load_config(_write_config(
        tmp_path, "schema_version: 1\nevaluation: {fpc_cap: null, subset: ~, baseline: null}\n"
                  "lstm: null\ndetectors:\n  - {id: m, kind: mosum, params: {monitor_from: null}}\n"))
    assert doc["evaluation"]["fpc_cap"] is None and doc["evaluation"]["subset"] is None
    assert doc["evaluation"]["baseline"] is None and doc["lstm"] is None
    with pytest.raises(ConfigError, match="seed must be int, got None"):
        load_config(_write_config(tmp_path, "schema_version: 1\nseed: null\n"))


def test_demo_config_loads_as_written():
    """Every value the demo config sets loads as written (numbers equal,
    sources the same mapping), the predictor spec and params included."""
    import yaml
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
    raw, doc = yaml.safe_load(path.read_text()), load_config(path)

    def same(a, b, where):
        if isinstance(a, dict):
            for key in a:
                same(a[key], b[key], f"{where}.{key}")
        elif isinstance(a, list):
            assert len(a) == len(b), where
            for i, (x, y) in enumerate(zip(a, b)):
                same(x, y, f"{where}[{i}]")
        else:
            assert a == b, where

    same({k: v for k, v in raw.items() if k != "seed"}, doc, "doc")
    assert [ds["source"] for ds in doc["datasets"]] == [ds["source"] for ds in raw["datasets"]]


@pytest.mark.parametrize("key, value", [
    ("window", 50.0), ("window", 50),
], ids=["integral-float", "int"])
def test_integral_int_values_load(tmp_path, key, value):
    from predcomp.config import resolve_params
    doc = load_config(_write_config(
        tmp_path, f"schema_version: 1\ndetectors:\n  - {{id: c, kind: cusum, "
                  f"params: {{desInt: 5, {key}: {value!r}}}}}\n"))
    assert resolve_params(doc["detectors"][0], {})[key] == 50


@pytest.mark.parametrize("detector, message", [
    ("{id: c, kind: cusum, params: {desInt: 5, window: 20.7}}", "window must be int, got 20.7"),
    ("{id: c, kind: cusum, params: {desInt: 5, window: '50'}}", "window must be int, got '50'"),
    ("{id: c, kind: bocpd, params: {hazard: 0.01, r_min: true}}", "r_min must be int, got True"),
    ("{id: c, kind: ocd, grid: {diag: [8], h_tail: [50, 2.5]}}", "h_tail must be int, got 2.5"),
    ("{id: c, kind: mosum, params: {minHist: .inf}}", "minHist must be int, got inf"),
], ids=["cusum-window", "cusum-window-text", "bocpd-r_min", "ocd-h_tail",
        "mosum-minHist"])
def test_detector_int_keys_refuse_fractions_and_booleans(tmp_path, detector, message):
    with pytest.raises(ConfigError, match=re.escape(f"detector 'c': {message}")):
        load_config(_write_config(tmp_path, f"schema_version: 1\ndetectors:\n  - {detector}\n"))


def test_fit_predictor_refuses_keys_its_kind_ignores():
    from predcomp.predictors import fit_predictor
    with pytest.raises(ConfigError, match="predictor: unknown parameters"):
        fit_predictor({"kind": "naive", "p": 3}, np.arange(100.0))
    with pytest.raises(ConfigError, match=r"predictor\.p must be int, got 2\.7"):
        fit_predictor({"kind": "ar", "p": 2.7}, np.arange(100.0))


def test_arima_auto_refuses_an_explicit_order(tmp_path, monkeypatch):
    """The order search that ``auto: true`` asks for would ignore an order
    beside it; each way of asking for the search alone still searches."""
    from predcomp import predictors
    refused = "auto: true searches every order, so it takes no order; got order [2, 0, 1]"
    config = ("schema_version: 1\ndetectors:\n"
              "  - {{id: p, kind: pnc, predictor: {spec}, params: {{desInt: 5}}}}\n")
    with pytest.raises(ConfigError, match=re.escape(f"detectors[0].predictor: {refused}")):
        load_config(_write_config(tmp_path, config.format(
            spec="{kind: arima, order: [2, 0, 1], auto: true}")))
    with pytest.raises(ConfigError, match=re.escape(f"predictor: {refused}")):
        predictors.fit_predictor({"kind": "arima", "order": [2, 0, 1], "auto": True},
                                 np.arange(100.0))
    searched = []
    monkeypatch.setattr(predictors.ArimaPredictor, "_fit_auto",
                        classmethod(lambda cls, history: searched.append(len(history))))
    for spec in ({"kind": "arima"}, {"kind": "arima", "order": "auto"},
                 {"kind": "arima", "auto": True}, {"kind": "arima", "order": "auto", "auto": True}):
        load_config(_write_config(tmp_path, config.format(spec=spec)))
        predictors.fit_predictor(spec, np.arange(100.0))
    assert searched == [100] * 4


@pytest.mark.parametrize("text, key, line", [
    ("schema_version: 1\nseed: 1\nseed: 2\n", "seed", 3),
    ("schema_version: 1\ndatasets:\n  - id: s\n    source: {kind: step, n: 300, n: 400}\n", "n", 4),
    ("schema_version: 1\ndetectors:\n  - id: c\n    kind: cusum\n    grid: {desInt: [5.0]}\n"
     "    grid: {desInt: [10.0]}\n", "grid", 6),
], ids=["seed", "source-n", "grid"])
def test_a_key_given_twice_in_a_mapping_exits_2(tmp_path, capsys, text, key, line):
    """YAML would keep the last value: a second seed, length or grid ran
    in silence."""
    from predcomp.cli import main
    cfg = _write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=f"{cfg}: not valid YAML") as exc:
        load_config(cfg)
    assert f"found key {key!r} again\n  in \"<unicode string>\", line {line}," in str(exc.value)
    assert main(["simulate", "-c", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"found key {key!r} again" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, value", [
    ("1e-3", 0.001), ("1.0e3", 1000.0), ("1E5", 1e5), (".5e1", 5.0), ("1.e3", 1000.0),
    ("-2e2", -200.0), ("1.0e300", 1e300), ("1e5x", "1e5x"), ("1.5", 1.5), ("15", 15), ("08", "08"),
])
def test_numbers_in_exponent_form_are_floats(text, value):
    from predcomp.config import read_yaml
    assert read_yaml(text) == value and type(read_yaml(text)) is type(value)


def test_exponent_form_loads_in_a_config_and_an_id_so_written_is_refused(tmp_path):
    import yaml
    from predcomp.config import read_yaml, resolve_params
    doc = load_config(_write_config(tmp_path, "schema_version: 1\ndetectors:\n  - {id: b, "
                                    "kind: bocpd, params: {hazard: 1e-3, beta0: 1.0e30}}\n"))
    point = resolve_params(doc["detectors"][0], {})
    assert (point["hazard"], point["beta0"]) == (0.001, 1e30)
    with pytest.raises(ConfigError, match=re.escape("detectors[0].id must be str, got 100000.0")):
        load_config(_write_config(tmp_path, "schema_version: 1\ndetectors:\n"
                                  "  - {id: 1e5, kind: ocd, params: {diag: 8}}\n"))
    demo = (Path(__file__).resolve().parents[1] / "configs" / "demo.yaml").read_text()
    assert read_yaml(demo) == yaml.safe_load(demo)


def test_src_reads_yaml_only_through_the_config_reader():
    """A second reader would bring back YAML 1.1's numbers and its silence on
    a key given twice."""
    src = Path(__file__).resolve().parents[1] / "src"
    calls = [(path.relative_to(src).as_posix(), line.strip())
             for path in sorted(src.rglob("*.py")) for line in path.read_text().splitlines()
             if re.search(r"\byaml\.\w*load\w*\(|\bfrom yaml import", line)]
    assert calls == [("predcomp/config.py", "return yaml.load(text, Loader=_Loader)")]
