"""Experiment configuration file (YAML, ``schema_version: 1``): its schema and loader.

Every section is a table mapping each key to ``(type, default)``, with
``REQUIRED`` where there is none, as :data:`predcomp.detectors.KINDS` is for
detector parameters; :func:`typed` applies one, and an unknown key, a missing
required key, a wrong type and a value out of range are each a
:class:`ConfigError` naming ``where.key``.  :func:`load_config` returns each
section typed with defaults filled in, but keeps as written a dataset's
``source`` (``simulate`` copies it into its manifest; :func:`source` types it)
and a detector's ``params`` and ``grid`` (their values name each run in
``metrics.csv``; :func:`param_values` types them).  ``PREDCOMP_SEED``
overrides ``seed``.  The README lists every key with its default and range.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from .detectors import (_FINITE_POSITIVE, _NON_NEGATIVE, _NON_NEGATIVE_INT, _OPEN_UNIT,
                        _POSITIVE_INT, KINDS, REQUIRED, OutOfRange, _choice, _finite,
                        _finite_of, _int, _of, _range, _type)
from .io import read_series_csv
from .lstm import TrainConfig
from .predictors import (MAX_D, MAX_P, MAX_Q, ArimaPredictor, ArPredictor, MeanPredictor,
                         NaivePredictor)
from .series import PHASES
from .simulate import WearIntensity, sample_step_series, sample_wear_series

SCHEMA_VERSION = 1
SEED_ENV = "PREDCOMP_SEED"


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def typed(d, table: dict, where: str, sep: str = ".") -> dict:
    """The mapping ``d`` typed against ``table``: defaults filled in, null kept for unset keys."""
    _require(isinstance(d, dict), f"{where}: expected a mapping, got {d!r}")
    unknown = [key for key in d if key not in table]
    _require(not unknown, f"{where}: unknown parameters {unknown}")
    out = {}
    for key, (typ, default) in table.items():
        _require(key in d or default is not REQUIRED, f"{where}{sep}{key} has no default; set it")
        try:
            out[key] = default if d.get(key, default) is default else typ(d[key])
        except (TypeError, ValueError) as exc:
            need = exc if isinstance(exc, OutOfRange) else typ.__name__
            raise ConfigError(f"{where}{sep}{key} must be {need}, got {d[key]!r}") from None
    return out


def kind_of(d, kinds: dict, where: str) -> tuple[str, dict]:
    """The ``kind`` of the mapping ``d``, and its other keys typed against ``kinds[kind].params``."""
    kind = typed({"kind": d.get("kind")}, {"kind": (_choice(*kinds), REQUIRED)}, where)["kind"]
    return kind, typed({k: v for k, v in d.items() if k != "kind"}, kinds[kind].params, where)


_FINITE_NON_NEGATIVE = _finite_of(_NON_NEGATIVE)
_NUMBER = _range(float, "not NaN", lambda v: v != v)
_target = _choice(*(f"{a}>{b}" for a in PHASES for b in PHASES if a != b))
_budgets = _type("a list of ints >= 0 and avg_max", lambda v: not isinstance(v, list),
                 lambda v: [x if x == "avg_max" else _NON_NEGATIVE_INT(x) for x in v])
_order = _range(_type("auto or [p, d, q]",
                      lambda v: v != "auto" and not (isinstance(v, (list, tuple)) and len(v) == 3),
                      lambda v: v if v == "auto" else tuple(map(_int, v))),
                f"in [0, {MAX_P}] x [0, {MAX_D}] x [0, {MAX_Q}]",
                lambda o: o != "auto" and not all(0 <= v <= most for v, most in
                                                   zip(o, (MAX_P, MAX_D, MAX_Q))))


class Builder(NamedTuple):
    """A dataset source or predictor kind; an LSTM predictor has no build (it trains on windows)."""
    params: dict[str, tuple[Callable, object]]
    build: Callable | None  # (keys, dataset id, seed) -> LabeledSeries, or (keys, history)
    check: Callable = lambda keys: None  # a ValueError on what the types cannot rule out


def _intensity(src: dict) -> WearIntensity:
    return WearIntensity(src["a"], src["lam"], src["c"], src["d"], src["t2"], src["decay_cutoff"])


SOURCES: dict[str, Builder] = {
    "wear": Builder({"a": (_FINITE_NON_NEGATIVE, WearIntensity.a),
                     "lam": (_FINITE_POSITIVE, WearIntensity.lam),
                     "c": (_FINITE_NON_NEGATIVE, WearIntensity.c),
                     "d": (_FINITE_NON_NEGATIVE, WearIntensity.d), "t2": (_int, WearIntensity.t2),
                     "n": (_POSITIVE_INT, REQUIRED),
                     "decay_cutoff": (_OPEN_UNIT, WearIntensity.decay_cutoff),
                     "scale": (_FINITE_NON_NEGATIVE, 1.0)},
                    lambda src, name, seed: sample_wear_series(
                        _intensity(src), src["n"], seed, stream=name, name=name, scale=src["scale"]),
                    lambda src: _intensity(src).cp_labels(src["n"])),
    "step": Builder({"pre_mean": (_finite, 0.0), "post_mean": (_finite, 1.0),
                     "sigma": (_FINITE_NON_NEGATIVE, 1.0), "cp_at": (_POSITIVE_INT, 1),
                     "n": (_POSITIVE_INT, REQUIRED)},
                    lambda src, name, seed: sample_step_series(**src, seed=seed, stream=name,
                                                               name=name),
                    lambda src: _require(src["cp_at"] <= src["n"], f"cp_at must be <= n, got "
                                         f"cp_at {src['cp_at']} and n {src['n']}")),
    "csv": Builder({"path": (_of(str), REQUIRED), "labels": (_of(str), None)},
                   lambda src, name, seed: read_series_csv(src["path"], name, src["labels"])),
}
PREDICTORS: dict[str, Builder] = {
    "naive": Builder({}, lambda keys, history: NaivePredictor()),
    "mean": Builder({}, lambda keys, history: MeanPredictor()),
    "ar": Builder({"p": (_POSITIVE_INT, 1)}, lambda keys, history: ArPredictor.fit(history, keys["p"])),
    "arima": Builder({"order": (_order, "auto"), "auto": (_of(bool), False)},
                     lambda keys, history: ArimaPredictor.fit(
                         history, keys["order"], keys["auto"] or keys["order"] == "auto")),
    "lstm": Builder({"model_path": (_of(str), REQUIRED)}, None)}
TOP = {"schema_version": (_range(_int, f"== {SCHEMA_VERSION}", lambda v: v != SCHEMA_VERSION),
                          REQUIRED),
       "seed": (_NON_NEGATIVE_INT, 0), "output_dir": (_of(str), "out"),
       "train_prefix": (_POSITIVE_INT, 600), "standardize": (_of(dict), {}),
       "datasets": (_of(list), ()), "detectors": (_of(list), ()),
       "evaluation": (_of(dict), {}), "lstm": (_of(dict), None)}
STANDARDIZE = {"enabled": (_of(bool), False), "t0": (_NON_NEGATIVE_INT, 0),
               "mode": (_choice("offline", "online"), "offline")}
# the Fpc caps stay unset by default, so select_best applies its own
EVALUATION = {"target": (_target, "K>A"), "fpc_cap": (_NUMBER, None),
              "overall_cap": (_NUMBER, None), "subset": (_of(list), None),
              "subset_cap": (_NUMBER, None), "baseline": (_of(dict), None)}
BASELINE = {"n_fp": (_budgets, (0,)), "repetitions": (_POSITIVE_INT, 100)}
TRAIN = {"hidden": (_POSITIVE_INT, TrainConfig.hidden),
         "epochs": (_POSITIVE_INT, TrainConfig.epochs),
         "batch_size": (_POSITIVE_INT, TrainConfig.batch_size),
         "learning_rate": (_finite, TrainConfig.learning_rate),
         "clip_norm": (_NUMBER, TrainConfig.clip_norm),
         "validation_fraction": (_range(float, "in [0, 1)", lambda v: not 0 <= v < 1),
                                 TrainConfig.validation_fraction)}
LSTM = {"nh": (_POSITIVE_INT, REQUIRED), "nz": (_POSITIVE_INT, REQUIRED), **TRAIN,
        "max_windows": (_range(_int, ">= 2", lambda v: v < 2), 500)}
DATASET = {"id": (_of(str, int), REQUIRED), "source": (_of(dict), REQUIRED)}
DETECTOR = {"id": (_of(str, int), REQUIRED), "kind": (_choice(*KINDS), REQUIRED),
            "predictor": (_of(dict), None), "params": (_of(dict), {}), "grid": (_of(dict), {})}


def source(src, where: str) -> tuple[Builder, dict]:
    """A dataset source's SOURCES entry and its keys, typed with defaults
    filled in; a setting its generator rejects is a ConfigError too."""
    kind, keys = kind_of(src, SOURCES, where)
    try:
        SOURCES[kind].check(keys)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return SOURCES[kind], keys


def _check_detector(det: dict, where: str) -> None:
    for key, vals in det["grid"].items():
        _require(isinstance(vals, list) and vals, f"{where}.grid.{key}: expected a non-empty list")
    pred = det["predictor"]
    _require((pred is None) == (det["kind"] != "pnc"), f"{where}: " + (
        "a pnc detector needs a predictor" if pred is None else "only pnc detectors take one"))
    if pred is not None:
        _require(pred.get("kind") != "lstm" or "model_path" in pred,
                 f"{where}.predictor: an lstm predictor needs a model_path")
        pred_kind, keys = kind_of(pred, PREDICTORS, f"{where}.predictor")
        det["predictor"] = {"kind": pred_kind, **keys}
    resolve_params(det, {key: vals[0] for key, vals in det["grid"].items()})
    for key in det["grid"]:
        param_values(det, key)


def param_values(det_cfg: dict, key: str) -> list:
    """Every value of a detector parameter over the grid, typed: its grid
    list, else its ``params`` value, else its default."""
    grid, params = det_cfg.get("grid", {}), det_cfg.get("params", {})
    points = ([{key: v} for v in grid[key]] if key in grid
              else [{key: params[key]}] if key in params else [{}])
    table = {key: KINDS[det_cfg["kind"]].params[key]}
    return [typed(point, table, f"detector {det_cfg['id']!r}", ": ")[key] for point in points]


def resolve_params(det_cfg: dict, point: dict) -> dict:
    """A detector's typed parameters at one point: ``point`` over its
    ``params``, with every other key at its table default."""
    return typed({**det_cfg.get("params", {}), **point}, KINDS[det_cfg["kind"]].params,
                 f"detector {det_cfg['id']!r}", ": ")


def load_config(path) -> dict:
    path = Path(path)
    try:
        doc = typed(yaml.safe_load(path.read_text()), TOP, str(path), ": ")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if SEED_ENV in os.environ:
        doc["seed"] = typed({SEED_ENV: os.environ[SEED_ENV]}, {SEED_ENV: TOP["seed"]}, "", "")[SEED_ENV]
    doc["standardize"] = typed(doc["standardize"], STANDARDIZE, "standardize")
    ev = doc["evaluation"] = typed(doc["evaluation"], EVALUATION, "evaluation")
    if ev["baseline"] is not None:
        ev["baseline"] = typed(ev["baseline"], BASELINE, "evaluation.baseline")
    if doc["lstm"] is not None:
        doc["lstm"] = typed(doc["lstm"], LSTM, "lstm")
    for section, table in (("datasets", DATASET), ("detectors", DETECTOR)):
        for i, entry in enumerate(doc[section]):
            where = f"{section}[{i}]"
            entry = doc[section][i] = typed(entry, table, where)
            _require(entry["id"] not in [e["id"] for e in doc[section][:i]],
                     f"{where}: duplicate id {entry['id']!r}")
            if section == "datasets":
                source(entry["source"], f"{where}.source")
            else:
                _check_detector(entry, where)
    return doc
