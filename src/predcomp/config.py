"""Experiment configuration file.

YAML with a mandatory ``schema_version: 1``.  Unknown keys are rejected
so typos fail loudly.  Detector parameters keep the names used in the
experiments (desInt, k, l, b, minHist, histFact, h, level, cpthreshold,
diag, offDiag, hazard); their types and defaults are the table in
:mod:`predcomp.detectors`, and the full key reference lives in the README.
The environment variable ``PREDCOMP_SEED`` overrides ``seed``.

Skeleton::

    schema_version: 1
    seed: 1234
    output_dir: out
    standardize: {enabled: true, t0: 0, mode: offline}
    train_prefix: 600
    datasets:
      - id: wear1
        source: {kind: wear, a: 150, lam: 0.02, c: 3, d: 0.02, t2: 1200, n: 2000}
    detectors:
      - id: pnc_ar
        kind: pnc
        predictor: {kind: ar, p: 8}
        params: {l: 50, b: 25, k: 0.5}
        grid: {desInt: [4, 6, 8]}
    evaluation:
      target: K>A
      fpc_cap: 10
      overall_cap: 150
      subset: []
      subset_cap: 30
      baseline: {n_fp: [0, 10, avg_max], repetitions: 100}
"""

from __future__ import annotations

import os
from pathlib import Path

import yaml

from .detectors import KINDS, REQUIRED, OutOfRange

SCHEMA_VERSION = 1
SEED_ENV = "PREDCOMP_SEED"


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_keys(d: dict, allowed: set[str], where: str, required: set[str] = frozenset()) -> None:
    _require(isinstance(d, dict), f"{where}: expected a mapping")
    unknown = set(d) - allowed
    _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    _require(not missing, f"{where}: missing keys {sorted(missing)}")


_SOURCE_KEYS = {
    "wear": {"kind", "a", "lam", "c", "d", "t2", "n", "decay_cutoff", "scale"},
    "step": {"kind", "pre_mean", "post_mean", "sigma", "cp_at", "n"},
    "csv": {"kind", "path", "labels"},
}

_PREDICTOR_KEYS = {"kind", "p", "order", "auto", "model_path"}


def check_t0(value, where: str = "standardize.t0") -> int:
    """The standardization start t0 as an int; a value int() cannot read,
    or one below 0, is a ConfigError naming ``where``."""
    try:
        t0 = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be int, got {value!r}") from None
    _require(t0 >= 0, f"{where} must be int >= 0, got {value!r}")
    return t0


def _check_detector(d: dict, where: str) -> None:
    _check_keys(d, {"id", "kind", "predictor", "params", "grid"}, where, {"id", "kind"})
    kind = d["kind"]
    _require(kind in KINDS, f"{where}: unknown detector kind {kind!r}")
    allowed = set(KINDS[kind].params)
    for sect in ("params", "grid"):
        if sect in d:
            _check_keys(d[sect], allowed, f"{where}.{sect}")
            if sect == "grid":
                for key, vals in d[sect].items():
                    _require(isinstance(vals, list) and vals,
                             f"{where}.grid.{key}: expected a non-empty list")
    if kind == "pnc":
        _require("predictor" in d, f"{where}: pnc detector needs a predictor")
        pred = d["predictor"]
        _check_keys(pred, _PREDICTOR_KEYS, f"{where}.predictor", {"kind"})
        _require(pred["kind"] in ("naive", "mean", "ar", "arima", "lstm"),
                 f"{where}.predictor: unknown kind {pred['kind']!r}")
        _require(pred["kind"] != "lstm" or "model_path" in pred,
                 f"{where}.predictor: an lstm predictor needs a model_path")
    else:
        _require("predictor" not in d, f"{where}: only pnc detectors take a predictor")


def param_values(det_cfg: dict, key: str) -> list:
    """Every value of a detector parameter over the grid, typed: its grid
    list, else its ``params`` value, else its default.  A required key with
    none of these, or a value its type cannot read or rejects, is a ConfigError."""
    typ, default = KINDS[det_cfg["kind"]].params[key]
    where = f"detector {det_cfg['id']!r}"
    if key not in det_cfg.get("grid", {}) and key not in det_cfg.get("params", {}):
        _require(default is not REQUIRED,
                 f"{where}: {key} has no default; set it under params or grid")
        return [default]
    out = []
    for value in det_cfg.get("grid", {}).get(key) or [det_cfg["params"][key]]:
        try:
            out.append(typ(value))
        except (TypeError, ValueError) as exc:
            need = exc if isinstance(exc, OutOfRange) else typ.__name__
            raise ConfigError(f"{where}: {key} must be {need}, got {value!r}") from None
    return out


def resolve_params(det_cfg: dict, point: dict) -> dict:
    """A detector's typed parameters at one point: ``point`` over its
    ``params``, with every other key at its table default."""
    params = {**det_cfg.get("params", {}), **point}
    table = KINDS[det_cfg["kind"]].params
    unknown = set(params) - set(table)
    _require(not unknown, f"detector {det_cfg['id']!r}: unknown parameters {sorted(unknown)}")
    pinned = dict(det_cfg, params=params, grid={})
    return {key: param_values(pinned, key)[0] for key in table}


def load_config(path) -> dict:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    _require(isinstance(doc, dict), f"{path}: top level must be a mapping")
    _check_keys(doc, {"schema_version", "seed", "output_dir", "standardize", "train_prefix",
                      "datasets", "detectors", "evaluation", "lstm"},
                str(path), {"schema_version"})
    _require(doc["schema_version"] == SCHEMA_VERSION,
             f"{path}: schema_version must be {SCHEMA_VERSION}, got {doc['schema_version']!r}")
    doc.setdefault("seed", 0)
    doc.setdefault("output_dir", "out")
    doc.setdefault("train_prefix", 600)
    if SEED_ENV in os.environ:
        try:
            doc["seed"] = int(os.environ[SEED_ENV])
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer") from None
    if "standardize" in doc:
        _check_keys(doc["standardize"], {"enabled", "t0", "mode"}, "standardize")
        doc["standardize"]["t0"] = check_t0(doc["standardize"].get("t0", 0))
        mode = doc["standardize"].get("mode", "offline")
        _require(mode in ("offline", "online"), f"standardize.mode: bad value {mode!r}")
    ids = set()
    for i, ds in enumerate(doc.get("datasets", [])):
        where = f"datasets[{i}]"
        _check_keys(ds, {"id", "source"}, where, {"id", "source"})
        _require(ds["id"] not in ids, f"{where}: duplicate id {ds['id']!r}")
        ids.add(ds["id"])
        src = ds["source"]
        _require(isinstance(src, dict) and "kind" in src, f"{where}.source: needs a kind")
        _require(src["kind"] in _SOURCE_KEYS, f"{where}.source: unknown kind {src['kind']!r}")
        _check_keys(src, _SOURCE_KEYS[src["kind"]], f"{where}.source")
        if src["kind"] == "csv":
            _require("path" in src, f"{where}.source: csv source needs a path")
    det_ids = set()
    for i, det in enumerate(doc.get("detectors", [])):
        where = f"detectors[{i}]"
        _check_detector(det, where)
        _require(det["id"] not in det_ids, f"{where}: duplicate id {det['id']!r}")
        det_ids.add(det["id"])
        for key in KINDS[det["kind"]].params:
            param_values(det, key)
    if "evaluation" in doc:
        _check_keys(doc["evaluation"],
                    {"target", "fpc_cap", "overall_cap", "subset", "subset_cap", "baseline"},
                    "evaluation")
        if "baseline" in doc["evaluation"]:
            _check_keys(doc["evaluation"]["baseline"], {"n_fp", "repetitions"},
                        "evaluation.baseline")
    if "lstm" in doc:
        _check_keys(doc["lstm"], {"nh", "nz", "hidden", "epochs", "batch_size", "learning_rate",
                                  "clip_norm", "validation_fraction", "max_windows"},
                    "lstm", {"nh", "nz"})
    return doc
