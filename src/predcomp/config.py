"""Experiment configuration file (YAML, ``schema_version: 1``): its schema and loader.

Every section is a table mapping each key to ``(type, default)``, with
``REQUIRED`` where there is none.  A type rejects the values its consumer
raises ValueError on, and an :class:`OutOfRange` names the rule a value of
the right type breaks (an infinite alarm threshold, which never alarms, is
one).  :func:`typed` applies a table; an unknown key, a missing required key,
a wrong type and a value out of range are each a :class:`ConfigError`
naming ``where.key``.

``SOURCES``, ``PREDICTORS`` and ``KINDS`` (detectors) map each kind to a
:class:`Kind`: its key table, its build and its check of what the types
cannot rule out, of a source's keys (:func:`kind_of` runs it) or of a
detector's config (the build runs it).  ``KINDS[kind].build(det_cfg, doc)``
returns ``run(series, params, keep_trace) -> (detections, trace)``, where
``params`` is one point over the ``params`` section (:func:`resolve_params`
types it) and ``trace`` is the chart for ``pnc``, None for the other kinds.
A reference kind (cusum, bocpd, ocd, mosum) sweeps its ``threshold`` key:
the first time its ``run`` is asked for a series and a setting of the other
keys, it runs its ``*_sweep`` over every threshold the detector is
configured with, sharing each segment the runs have in common
(:mod:`predcomp.refdet.sweep`), and serves the other thresholds from that
result.  A ``pnc`` run is one run per point, with its predictor built once
per series and checked to forecast each (l, b) of the grid from zeros.

:func:`load_config` returns each section typed with defaults filled in, but
keeps as written a dataset's ``source`` (``simulate`` copies it into its
manifest; ``cli.build_dataset`` types it) and a detector's ``params`` and
``grid`` (their values name each run in ``metrics.csv``;
:func:`param_values` types them).  ``PREDCOMP_SEED`` overrides ``seed``.
The README lists every key with its default and range.
"""

from __future__ import annotations

import math
import os
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .io import DataError, load_model, read_series_csv
from .lstm import LstmNet, LstmPredictor, TrainConfig
from .pnc import PncConfig, run_stream
from .predictors import (MAX_D, MAX_P, MAX_Q, ArimaPredictor, ArPredictor, MeanPredictor,
                         NaivePredictor, PredictorError, fit_predictor)
from .refdet import NigPrior, bocpd_sweep, classic_cusum_sweep, mosum_sweep, ocd_sweep
from .refdet.mosum import boundary_constant
from .series import PHASES
from .simulate import WearIntensity, sample_step_series, sample_wear_series

SCHEMA_VERSION = 1
SEED_ENV = "PREDCOMP_SEED"
REQUIRED = object()


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


class OutOfRange(ValueError):
    """A value of the right type that its consumer does not run with."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# ---------------------------------------------------------------------------
# types

def _type(name: str, bad, convert=lambda value: value):
    """A type named ``name``: a ValueError where ``bad(value)``, else ``convert(value)``."""
    def check(value):
        if bad(value):
            raise ValueError(value)
        return convert(value)
    check.__name__ = name
    return check


def _choice(*options):
    return _type(" or ".join(options), lambda v: v not in options)


def _of(*types):
    return _type(types[0].__name__, lambda v: not isinstance(v, types))


def _range(typ, rule: str, bad):
    """``typ``, with an OutOfRange naming ``rule`` where ``bad(value)``."""
    def check(value):
        if bad(value := typ(value)):
            raise OutOfRange(f"{typ.__name__} {rule}")
        return value
    check.__name__ = typ.__name__
    return check


def _finite_of(typ):
    """``typ``, with an OutOfRange "finite" where the value is infinite or NaN."""
    def check(value):
        if not math.isfinite(value := typ(value)):
            raise OutOfRange("finite")
        return value
    check.__name__ = typ.__name__
    return check


_int = _type("int", lambda v: isinstance(v, bool) or isinstance(v, float) and not v.is_integer(),
             int)
_finite = _finite_of(float)
_POSITIVE_INT = _range(_int, "> 0", lambda v: v <= 0)
_NON_NEGATIVE_INT = _range(_int, ">= 0", lambda v: v < 0)
_POSITIVE = _range(float, "> 0", lambda v: not v > 0)  # NaN included
_FINITE_POSITIVE = _range(_finite, "> 0", lambda v: v <= 0)
_NON_NEGATIVE = _range(float, ">= 0", lambda v: not v >= 0)
_FINITE_NON_NEGATIVE = _finite_of(_NON_NEGATIVE)
_UNIT = _range(float, "in (0, 1]", lambda v: not 0 < v <= 1)
_OPEN_UNIT = _range(float, "in (0, 1)", lambda v: not 0 < v < 1)
_NUMBER = _range(float, "not NaN", lambda v: v != v)
# an infinite alarm threshold loads but never alarms; NaN fails _POSITIVE first
_threshold = _finite_of(_POSITIVE)
_target = _choice(*(f"{a}>{b}" for a in PHASES for b in PHASES if a != b))
_budgets = _type("a list of ints >= 0 and avg_max", lambda v: not isinstance(v, list),
                 lambda v: [x if x == "avg_max" else _NON_NEGATIVE_INT(x) for x in v])
_order = _range(_type("auto or [p, d, q]",
                      lambda v: v != "auto" and not (isinstance(v, (list, tuple)) and len(v) == 3),
                      lambda v: v if v == "auto" else tuple(map(_int, v))),
                f"in [0, {MAX_P}] x [0, {MAX_D}] x [0, {MAX_Q}]",
                lambda o: o != "auto" and not all(0 <= v <= most for v, most in
                                                   zip(o, (MAX_P, MAX_D, MAX_Q))))


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


class Kind(NamedTuple):
    """A dataset source, predictor or detector kind."""
    params: dict[str, tuple[Callable, object]]
    build: Callable  # (keys, dataset id, seed), (keys, history) or (det_cfg, doc)
    check: Callable = lambda keys: None  # a ValueError on what the types cannot rule out
    threshold: str | None = None


def kind_of(d, kinds: dict, where: str) -> tuple[str, dict]:
    """The ``kind`` of the mapping ``d``, and its other keys typed against
    ``kinds[kind].params``; what the kind's check rejects is a ConfigError too."""
    kind = typed({"kind": d.get("kind")}, {"kind": (_choice(*kinds), REQUIRED)}, where)["kind"]
    keys = typed({k: v for k, v in d.items() if k != "kind"}, kinds[kind].params, where)
    try:
        kinds[kind].check(keys)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return kind, keys


# ---------------------------------------------------------------------------
# dataset sources and predictors

#: numpy's Poisson sampler refuses a larger mean ("lam value too large")
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


def _intensity(src: dict) -> WearIntensity:
    return WearIntensity(src["a"], src["lam"], src["c"], src["d"], src["t2"], src["decay_cutoff"])


def _check_wear(src: dict) -> None:
    """The intensity's own checks, and Poisson means that can be drawn from."""
    intensity = _intensity(src)
    intensity.cp_labels(src["n"])
    with np.errstate(all="ignore"):  # an overflow reads inf, which is refused below
        means = intensity.bin_means(src["n"]) / src["scale"] ** 2
    if src["scale"] > 0 and not np.all(means <= _POISSON_MAX):
        raise ValueError(f"the Poisson means bin_means(n) / scale**2 must be finite and at most "
                         f"{_POISSON_MAX:.4g}")


SOURCES: dict[str, Kind] = {
    "wear": Kind({"a": (_FINITE_NON_NEGATIVE, WearIntensity.a),
                  "lam": (_FINITE_POSITIVE, WearIntensity.lam),
                  "c": (_FINITE_NON_NEGATIVE, WearIntensity.c),
                  "d": (_FINITE_NON_NEGATIVE, WearIntensity.d), "t2": (_int, WearIntensity.t2),
                  "n": (_POSITIVE_INT, REQUIRED),
                  "decay_cutoff": (_OPEN_UNIT, WearIntensity.decay_cutoff),
                  "scale": (_FINITE_NON_NEGATIVE, 1.0)},
                 lambda src, name, seed: sample_wear_series(
                     _intensity(src), src["n"], seed, stream=name, name=name, scale=src["scale"]),
                 _check_wear),
    "step": Kind({"pre_mean": (_finite, 0.0), "post_mean": (_finite, 1.0),
                  "sigma": (_FINITE_NON_NEGATIVE, 1.0), "cp_at": (_POSITIVE_INT, 1),
                  "n": (_POSITIVE_INT, REQUIRED)},
                 lambda src, name, seed: sample_step_series(**src, seed=seed, stream=name,
                                                            name=name),
                 lambda src: _require(src["cp_at"] <= src["n"], f"cp_at must be <= n, got "
                                      f"cp_at {src['cp_at']} and n {src['n']}")),
    "csv": Kind({"path": (_of(str), REQUIRED), "labels": (_of(str), None)},
                lambda src, name, seed: read_series_csv(src["path"], name, src["labels"])),
}


def _load_lstm(keys: dict, history) -> LstmPredictor:
    """The LSTM saved at ``model_path``; it trains on windows (``train-lstm``), not on ``history``."""
    doc = load_model(keys["model_path"])
    try:
        return LstmPredictor(LstmNet.from_dict(doc))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{keys['model_path']}: not an lstm model ({exc!r})") from None


PREDICTORS: dict[str, Kind] = {
    "naive": Kind({}, lambda keys, history: NaivePredictor()),
    "mean": Kind({}, lambda keys, history: MeanPredictor()),
    "ar": Kind({"p": (_POSITIVE_INT, 1)}, lambda keys, history: ArPredictor.fit(history, keys["p"])),
    "arima": Kind({"order": (_order, "auto"), "auto": (_of(bool), False)},
                  lambda keys, history: ArimaPredictor.fit(
                      history, keys["order"], keys["auto"] or keys["order"] == "auto")),
    "lstm": Kind({"model_path": (_of(str), REQUIRED)}, _load_lstm)}


# ---------------------------------------------------------------------------
# detectors

def _cached(cache: list, series, key, make):
    """The entry of ``cache`` for this series and ``key``, made on first use.

    An entry holds the series' values array and matches by identity, so
    only the same series finds it, whatever its name."""
    for values, entry_key, entry in cache:
        if values is series.values and entry_key == key:
            return entry
    entry = make()
    cache.append((series.values, key, entry))
    return entry


def _build_pnc(det_cfg: dict, doc: dict):
    spec, fitted, where = det_cfg["predictor"], [], f"detector {det_cfg['id']!r}"

    def fit(series):
        try:
            predictor = fit_predictor(spec, series.values[:doc["train_prefix"]])
        except PredictorError as exc:
            raise ConfigError(f"{where}: train_prefix: {exc}") from None
        # zeros: a check of the window sizes the model takes, not of the data
        for l, b in product(param_values(det_cfg, "l"), param_values(det_cfg, "b")):
            try:
                predictor.forecast(np.zeros(l), b)
            except PredictorError as exc:
                raise ConfigError(f"{where}: the model cannot forecast b={b} from l={l}: "
                                  f"{exc}") from None
        return predictor

    def run(series, params, keep_trace=False):
        p = resolve_params(det_cfg, params)
        cfg = PncConfig(p["l"], p["b"], p["desInt"], p["k"], p["direction"], p["refit"],
                        p["min_refit_history"])
        predictor = _cached(fitted, series, None, lambda: fit(series))
        detections, stream = run_stream(predictor, cfg, series, name=det_cfg["id"],
                                        keep_trace=keep_trace)
        # the signed bound the chart crosses: a downward chart alarms below -desInt
        bound = cfg.threshold if cfg.direction == "up" else -cfg.threshold
        return detections, [(r.index, r.value, r.target, r.stat, bound, r.alarm)
                            for r in stream.trace]
    return run


def _check_mosum(det_cfg: dict) -> None:
    """Every level must be calibrated, and harmonic terms need a period > 0."""
    where = f"detector {det_cfg['id']!r}"
    harmonics, periods = param_values(det_cfg, "harmonics"), param_values(det_cfg, "period")
    if max(harmonics) > 0 and min(periods) <= 0:
        raise ConfigError(f"{where}: harmonics > 0 need a period > 0, got harmonics "
                          f"{sorted(set(harmonics))}, period {sorted(set(periods))}")
    for h, level in product(param_values(det_cfg, "h"), param_values(det_cfg, "level")):
        try:
            boundary_constant(h, level)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None


def _reference(sweep):
    """The build of a kind that runs ``sweep(series, thresholds, p)`` with
    thresholds of its kind's key and the resolved parameters ``p``, once the
    kind's check has passed; it has no trace."""
    def build(det_cfg: dict, doc: dict):
        kind = KINDS[det_cfg["kind"]]
        kind.check(det_cfg)
        key, runs = kind.threshold, []

        def run(series, params, keep_trace=False):
            p = resolve_params(det_cfg, params)
            rest = {name: value for name, value in p.items() if name != key}
            found = _cached(runs, series, rest, dict)
            if p[key] not in found:
                thresholds = [t for t in dict.fromkeys([*param_values(det_cfg, key), p[key]])
                              if t not in found]
                found.update(zip(thresholds, sweep(series, thresholds, p)))
            return found[p[key]], None
        return run
    return build


KINDS: dict[str, Kind] = {
    "pnc": Kind({"l": (_POSITIVE_INT, 50), "b": (_POSITIVE_INT, 25),
                 "desInt": (_threshold, REQUIRED), "k": (_NON_NEGATIVE, 0.5),
                 "direction": (_choice("up", "down"), "up"),
                 "refit": (_choice("never", "on_detection"), "never"),
                 "min_refit_history": (_int, 50)}, _build_pnc),
    "cusum": Kind({"desInt": (_threshold, REQUIRED), "k": (_NON_NEGATIVE, 0.5),
                   "window": (_POSITIVE_INT, 50)},
                  _reference(lambda x, ts, p: classic_cusum_sweep(
                      x, ts, allowance=p["k"], target_window=p["window"])), threshold="desInt"),
    "bocpd": Kind({"hazard": (_UNIT, REQUIRED),
                   "cpthreshold": (_OPEN_UNIT, 0.5),
                   "r_min": (_int, 5), "mu0": (_finite, 0.0), "kappa0": (_FINITE_POSITIVE, 1.0),
                   "alpha0": (_FINITE_POSITIVE, 1.0), "beta0": (_FINITE_POSITIVE, 1.0)},
                  _reference(lambda x, ts, p: bocpd_sweep(
                      x, p["hazard"], ts, r_min=p["r_min"],
                      prior=NigPrior(p["mu0"], p["kappa0"], p["alpha0"], p["beta0"]))),
                  threshold="cpthreshold"),
    "ocd": Kind({"diag": (_threshold, REQUIRED), "offDiag": (float, None),
                 "h_tail": (_range(_int, ">= 1", lambda v: v < 1), 50),
                 "baseline_window": (_range(_int, ">= 2", lambda v: v < 2), 100)},
                _reference(lambda x, ts, p: ocd_sweep(
                    x, ts, off_diag=p["offDiag"], h_tail=p["h_tail"],
                    baseline_window=p["baseline_window"])), threshold="diag"),
    "mosum": Kind({"minHist": (_int, 100), "histFact": (_UNIT, 0.5), "h": (_UNIT, 0.25),
                   "level": (float, 0.05), "harmonics": (_int, 0), "period": (float, 0.0),
                   "monitor_from": (_int, None)},
                  _reference(lambda x, ts, p: mosum_sweep(
                      x, ts, min_hist=p["minHist"], hist_fact=p["histFact"], h_band=p["h"],
                      harmonics=p["harmonics"], period=p["period"],
                      monitor_from=p["monitor_from"])), _check_mosum, "level"),
}


# ---------------------------------------------------------------------------
# sections

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
                kind_of(entry["source"], SOURCES, f"{where}.source")
            else:
                _check_detector(entry, where)
    return doc
