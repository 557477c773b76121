"""Experiment configuration file (YAML, ``schema_version: 1``): its schema and loader.

:func:`read_yaml` reads configs and ``--set`` values: a key given twice in
one mapping is an error, and a number in exponent form (``1e-3``) is a
float, as in YAML 1.2.  Every section is a table mapping each key to
``(type, default)``, with ``REQUIRED`` where there is none.  A type rejects
the values its consumer raises ValueError on, and an :class:`OutOfRange`
names the rule a value of the right type breaks (an infinite alarm
threshold, which never alarms, is one).  :func:`typed` applies a table; an
unknown key, a missing required key, a wrong type and a value out of range
are each a :class:`ConfigError` naming ``where.key``.

``SOURCES``, ``PREDICTORS`` and ``KINDS`` (detectors) map each kind to a
:class:`Kind`: its key table, its build and its ``check`` of what the types
cannot rule out of one typed entry.  :meth:`Kind.entry` types and checks a
source's or predictor's keys (:func:`kind_of`) and a detector's point
(:func:`resolve_params`).  The check of a reference kind (:func:`_reference`)
runs its sweep on an empty series at the point, so a point fails at load, in
the sweep's words, where its run would.
:func:`run_unit` is the one unit path of every detector kind: it resolves
each point, so it refuses what the load refuses, and calls
``KINDS[kind].build(det_cfg, doc, series)`` and the runner ``runs(thresholds,
p, keep_trace)`` this returns once per setting ``p`` of the keys other than
the kind's ``threshold``; each run gives ``(detections, trace)``, with the
chart as the trace of ``pnc`` and None for the reference kinds (cusum, bocpd,
ocd, mosum).  These sweep the thresholds in one ``*_sweep``, sharing each
segment the runs have in common (:mod:`predcomp.refdet.sweep`).  A ``pnc``
runner fits its predictor once and, for each setting, checks that it
forecasts ``b`` values from ``l`` zeros before it runs each threshold.

:func:`load_config` returns each section typed with defaults filled in,
after the check of every source, predictor and detector.  It keeps as
written a dataset's ``source`` (``simulate`` copies it into its manifest;
``cli.build_dataset`` types it) and a detector's ``params`` and ``grid``
(their values name each run in ``metrics.csv``; :func:`resolve_params` types
a point of them).  A dataset's or detector's ``id`` is text from here on, an
int id the text of its digits: it selects the entry on the command line,
names its RNG stream, its rows of ``metrics.csv`` and its output files, so it
must be a plain file name.  ``PREDCOMP_SEED`` overrides ``seed``.
The README lists every key with its default and range.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import suppress
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .io import read_lstm, read_series_csv, time_field
from .lstm import LstmPredictor, TrainConfig
from .pnc import PncConfig, run_stream
from .predictors import (MAX_D, MAX_P, MAX_Q, ArimaPredictor, ArPredictor, MeanPredictor,
                         NaivePredictor, PredictorError, fit_predictor)
from .refdet.bocpd import NigPrior, bocpd_sweep
from .refdet.classic import classic_cusum_sweep
from .refdet.mosum import mosum_sweep
from .refdet.ocd import ocd_sweep
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


class _Loader(yaml.SafeLoader):
    """``yaml.safe_load``'s reader, but a key given twice in one mapping is an
    error, and a number in exponent form such as ``1e-3`` is a float (YAML 1.2)."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node in own:  # the keys are built already; a merged one may be overridden
            if (key := self.construct_object(key_node)) in seen:
                raise yaml.constructor.ConstructorError("while constructing a mapping",
                                                        node.start_mark, f"found key {key!r} again",
                                                        key_node.start_mark)
            seen.add(key)
        return mapping


#: YAML 1.2's float in exponent form, tried after YAML 1.1's int and float: so it
#: reads what 1.1 leaves as text for want of a dot or a sign, such as 1e-3 and 1.0e3
#: (the exponent is required, so the text 08, which 1.1 does not read as octal, stays text)
_FLOAT_1_2 = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")
_Loader.add_implicit_resolver("tag:yaml.org,2002:float", _FLOAT_1_2, list("-+.0123456789"))


def read_yaml(text: str):
    """The YAML document ``text``, as configs and ``--set`` values are read."""
    return yaml.load(text, Loader=_Loader)


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


# a number key takes numbers only: YAML's true and "5" are not 1 and 5
_int = _type("int", lambda v: isinstance(v, (bool, str))
             or isinstance(v, float) and not v.is_integer(), int)
_float = _type("float", lambda v: isinstance(v, (bool, str)), float)
_finite = _finite_of(_float)
_POSITIVE_INT = _range(_int, "> 0", lambda v: v <= 0)
_NON_NEGATIVE_INT = _range(_int, ">= 0", lambda v: v < 0)
_POSITIVE = _range(_float, "> 0", lambda v: not v > 0)  # NaN included
_FINITE_POSITIVE = _range(_finite, "> 0", lambda v: v <= 0)
_NON_NEGATIVE = _range(_float, ">= 0", lambda v: not v >= 0)
_FINITE_NON_NEGATIVE = _finite_of(_NON_NEGATIVE)
_UNIT = _range(_float, "in (0, 1]", lambda v: not 0 < v <= 1)
_OPEN_UNIT = _range(_float, "in (0, 1)", lambda v: not 0 < v < 1)
_NUMBER = _range(_float, "not NaN", lambda v: v != v)
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
# an id is text, an int id its digits, not YAML's yes or true; outputs are named after it
_id = _range(_type("str", lambda v: isinstance(v, bool) or not isinstance(v, (str, int)), str),
             "naming a file: not empty, . or .., and without / or NUL",
             lambda v: v in ("", ".", "..") or "/" in v or "\0" in v)
_ids = _type("a list of ids", lambda v: not isinstance(v, list), lambda v: [_id(x) for x in v])


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
    build: Callable  # (keys, dataset id, seed), (keys, history) or (det_cfg, doc, series) -> runs
    check: Callable = lambda keys: None  # a ValueError on a typed entry the types let pass
    threshold: str | None = None

    def entry(self, d, where: str, sep: str = ".") -> dict:
        """The mapping ``d`` typed against ``params``; what ``check`` refuses of
        the typed entry is a ConfigError too."""
        keys = typed(d, self.params, where, sep)
        try:
            self.check(keys)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        return keys


def kind_of(d, kinds: dict, where: str) -> tuple[str, dict]:
    """The ``kind`` of the mapping ``d``, and its other keys typed and checked
    as an entry of ``kinds[kind]``."""
    kind = typed({"kind": d.get("kind")}, {"kind": (_choice(*kinds), REQUIRED)}, where)["kind"]
    return kind, kinds[kind].entry({k: v for k, v in d.items() if k != "kind"}, where)


# ---------------------------------------------------------------------------
# dataset sources and predictors

#: numpy's Poisson sampler refuses a larger mean ("lam value too large")
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)
#: the longest simulated series, 80 MB of float64 values: a longer one is refused
#: at load, before the wear check's few n-length arrays or a draw are allocated
MAX_N = 10**7
_N = _range(_POSITIVE_INT, f"<= {MAX_N}", lambda v: v > MAX_N)


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


def _step_series(src: dict, name: str, seed):
    """The step source's draw, refused where a value overflows to inf."""
    series = sample_step_series(**src, seed=seed, stream=name, name=name)
    bad = np.flatnonzero(~np.isfinite(series.values))
    if bad.size:
        raise ConfigError(f"dataset {name!r}: source: the draw overflows to "
                          f"{series.values[bad[0]]} at time {time_field(bad[0])}; sigma, "
                          "pre_mean and post_mean must keep every value finite")
    return series


SOURCES: dict[str, Kind] = {
    "wear": Kind({"a": (_FINITE_NON_NEGATIVE, WearIntensity.a),
                  "lam": (_FINITE_POSITIVE, WearIntensity.lam),
                  "c": (_FINITE_NON_NEGATIVE, WearIntensity.c),
                  "d": (_FINITE_NON_NEGATIVE, WearIntensity.d), "t2": (_int, WearIntensity.t2),
                  "n": (_N, REQUIRED),
                  "decay_cutoff": (_OPEN_UNIT, WearIntensity.decay_cutoff),
                  "scale": (_FINITE_NON_NEGATIVE, 1.0)},
                 lambda src, name, seed: sample_wear_series(
                     _intensity(src), src["n"], seed, stream=name, name=name, scale=src["scale"]),
                 _check_wear),
    "step": Kind({"pre_mean": (_finite, 0.0), "post_mean": (_finite, 1.0),
                  "sigma": (_FINITE_NON_NEGATIVE, 1.0), "cp_at": (_POSITIVE_INT, 1),
                  "n": (_N, REQUIRED)},
                 _step_series,
                 lambda src: _require(src["cp_at"] <= src["n"], f"cp_at must be <= n, got "
                                      f"cp_at {src['cp_at']} and n {src['n']}")),
    "csv": Kind({"path": (_of(str), REQUIRED), "labels": (_of(str), None)},
                lambda src, name, seed: read_series_csv(src["path"], name, src["labels"])),
}


def _check_arima(keys: dict) -> None:
    """An explicit order would be ignored by the search ``auto: true`` asks for."""
    if keys["auto"] and keys["order"] != "auto":
        raise ValueError(f"auto: true searches every order, so it takes no order; got order "
                         f"{list(keys['order'])}")


PREDICTORS: dict[str, Kind] = {
    "naive": Kind({}, lambda keys, history: NaivePredictor()),
    "mean": Kind({}, lambda keys, history: MeanPredictor()),
    "ar": Kind({"p": (_POSITIVE_INT, 1)}, lambda keys, history: ArPredictor.fit(history, keys["p"])),
    "arima": Kind({"order": (_order, "auto"), "auto": (_of(bool), False)},
                  lambda keys, history: ArimaPredictor.fit(
                      history, "auto" if keys["auto"] else keys["order"]),
                  _check_arima),
    # the LSTM trains on windows (``train-lstm``), not on ``history``
    "lstm": Kind({"model_path": (_of(str), REQUIRED)},
                 lambda keys, history: LstmPredictor(read_lstm(keys["model_path"])))}


# ---------------------------------------------------------------------------
# detectors

def _pnc(det_cfg: dict, doc: dict, series):
    """A pnc unit's runner: one ``run_stream`` per threshold, all on one fitted predictor."""
    spec, where = det_cfg["predictor"], f"detector {det_cfg['id']!r}"
    try:
        predictor = fit_predictor(spec, series.values[:doc["train_prefix"]])
    except PredictorError as exc:
        raise ConfigError(f"{where}: train_prefix: {exc}") from None

    def runs(thresholds, p, keep_trace):
        for key in ("l", "b"):  # a window the series cannot fill, refused before it is allocated
            if p[key] > len(series):
                raise ConfigError(f"{where}: {key} must be at most the length of series "
                                  f"{series.name!r}, {len(series)}, got {p[key]}")
        try:  # zeros: a check of the window sizes the model takes, not of the data
            predictor.forecast(np.zeros(p["l"]), p["b"])
        except PredictorError as exc:
            raise ConfigError(f"{where}: the model cannot forecast b={p['b']} from l={p['l']}: "
                              f"{exc}") from None
        out = []
        for threshold in thresholds:
            cfg = PncConfig(p["l"], p["b"], threshold, p["k"], p["direction"], p["refit"],
                            p["min_refit_history"])
            detections, stream = run_stream(predictor, cfg, series, name=det_cfg["id"],
                                            keep_trace=keep_trace)
            out.append((detections, stream.trace))
        return out
    return runs


def _reference(params: dict, threshold: str, sweep) -> Kind:
    """A kind whose runner is ``sweep(series, thresholds, p)``, which shares the
    segments its runs have in common, with no trace; its check runs the sweep on
    an empty series at the point, so it refuses exactly what a run would."""
    return Kind(params, lambda det_cfg, doc, series: lambda thresholds, p, keep_trace: [
        (detections, None) for detections in sweep(series, thresholds, p)],
        lambda p: sweep(np.empty(0), [p[threshold]], p), threshold)


KINDS: dict[str, Kind] = {
    "pnc": Kind({"l": (_POSITIVE_INT, 50), "b": (_POSITIVE_INT, 25),
                 "desInt": (_threshold, REQUIRED), "k": (_FINITE_NON_NEGATIVE, 0.5),
                 "direction": (_choice("up", "down"), "up"),
                 "refit": (_choice("never", "on_detection"), "never"),
                 "min_refit_history": (_NON_NEGATIVE_INT, 50)}, _pnc, threshold="desInt"),
    "cusum": _reference({"desInt": (_threshold, REQUIRED), "k": (_FINITE_NON_NEGATIVE, 0.5),
                         "window": (_POSITIVE_INT, 50)}, "desInt",
                        lambda x, ts, p: classic_cusum_sweep(x, ts, allowance=p["k"],
                                                             target_window=p["window"])),
    "bocpd": _reference({"hazard": (_UNIT, REQUIRED),
                         "cpthreshold": (_OPEN_UNIT, 0.5), "r_min": (_NON_NEGATIVE_INT, 5),
                         "mu0": (_finite, 0.0), "kappa0": (_FINITE_POSITIVE, 1.0),
                         "alpha0": (_FINITE_POSITIVE, 1.0), "beta0": (_FINITE_POSITIVE, 1.0)},
                        "cpthreshold", lambda x, ts, p: bocpd_sweep(
                            x, p["hazard"], ts, r_min=p["r_min"],
                            prior=NigPrior(p["mu0"], p["kappa0"], p["alpha0"], p["beta0"]))),
    "ocd": _reference({"diag": (_threshold, REQUIRED),
                       "h_tail": (_range(_int, ">= 1", lambda v: v < 1), 50),
                       "baseline_window": (_range(_int, ">= 2", lambda v: v < 2), 100)},
                      "diag", lambda x, ts, p: ocd_sweep(
                          x, ts, h_tail=p["h_tail"], baseline_window=p["baseline_window"])),
    "mosum": _reference({"minHist": (_POSITIVE_INT, 100), "histFact": (_UNIT, 0.5),
                         "h": (_UNIT, 0.25), "level": (_float, 0.05),
                         "harmonics": (_NON_NEGATIVE_INT, 0), "period": (_finite, 0.0),
                         "monitor_from": (_NON_NEGATIVE_INT, None)},
                        "level", lambda x, ts, p: mosum_sweep(
                            x, ts, min_hist=p["minHist"], hist_fact=p["histFact"], h_band=p["h"],
                            harmonics=p["harmonics"], period=p["period"],
                            monitor_from=p["monitor_from"])),
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
              "overall_cap": (_NUMBER, None), "subset": (_ids, None),
              "subset_cap": (_NUMBER, None), "baseline": (_of(dict), None)}
BASELINE = {"n_fp": (_budgets, (0,)), "repetitions": (_POSITIVE_INT, 100)}
TRAIN = {"hidden": (_POSITIVE_INT, TrainConfig.hidden),
         "epochs": (_POSITIVE_INT, TrainConfig.epochs),
         "batch_size": (_POSITIVE_INT, TrainConfig.batch_size),
         "learning_rate": (_finite, TrainConfig.learning_rate),
         "clip_norm": (_NUMBER, TrainConfig.clip_norm),
         "validation_fraction": (_range(_float, "in [0, 1)", lambda v: not 0 <= v < 1),
                                 TrainConfig.validation_fraction)}
LSTM = {"nh": (_POSITIVE_INT, REQUIRED), "nz": (_POSITIVE_INT, REQUIRED), **TRAIN,
        "max_windows": (_range(_int, ">= 2", lambda v: v < 2), 500)}
DATASET = {"id": (_id, REQUIRED), "source": (_of(dict), REQUIRED)}
DETECTOR = {"id": (_id, REQUIRED), "kind": (_choice(*KINDS), REQUIRED),
            "predictor": (_of(dict), None), "params": (_of(dict), {}), "grid": (_of(dict), {})}


def check_detector(det: dict, where: str) -> None:
    """The grid lists and predictor of the detector entry ``det`` (the predictor
    typed in place), and every point of its grid (:func:`resolve_params`)."""
    grid = det["grid"]
    for key, vals in grid.items():
        _require(isinstance(vals, list) and vals, f"{where}.grid.{key}: expected a non-empty list")
    pred = det["predictor"]
    _require((pred is None) == (det["kind"] != "pnc"), f"{where}: " + (
        "a pnc detector needs a predictor" if pred is None else "only pnc detectors take one"))
    if pred is not None:
        pred_kind, keys = kind_of(pred, PREDICTORS, f"{where}.predictor")
        det["predictor"] = {"kind": pred_kind, **keys}
    points = [resolve_params(det, dict(zip(grid, vals))) for vals in product(*grid.values())]
    for key, vals in grid.items():  # 5 and 5.0 are one float point
        _require(len({p[key] for p in points}) == len(vals),
                 f"{where}.grid.{key}: expected distinct values, got {vals!r}")


def resolve_params(det_cfg: dict, point: dict) -> dict:
    """A detector's typed and checked parameters at one point: ``point`` over
    its ``params``, with every other key at its table default."""
    return KINDS[det_cfg["kind"]].entry({**det_cfg.get("params", {}), **point},
                                        f"detector {det_cfg['id']!r}", ": ")


def run_unit(det_cfg: dict, doc: dict, series, points, keep_trace: bool = False) -> list:
    """One ``(detections, trace)`` per point, in the order of ``points``
    (repeats included), of the detector run on ``series`` at that point.
    A point the config's load would refuse is a ConfigError, before any run."""
    kind = KINDS[det_cfg["kind"]]
    resolved = [resolve_params(det_cfg, point) for point in points]
    runs = kind.build(det_cfg, doc, series)
    groups = {}  # the other keys' values -> the indices of the points with them
    for i, p in enumerate(resolved):
        groups.setdefault(tuple(v for name, v in p.items() if name != kind.threshold), []).append(i)
    found = {}
    for idx in groups.values():
        found.update(zip(idx, runs([resolved[i][kind.threshold] for i in idx], resolved[idx[0]],
                                   keep_trace)))
    return [found[i] for i in range(len(points))]


def load_config(path) -> dict:
    path = Path(path)
    try:
        doc = typed(read_yaml(path.read_text()), TOP, str(path), ": ")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not text
        raise ConfigError(f"{path}: cannot read the config: "
                          f"{getattr(exc, 'strerror', None) or exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if SEED_ENV in os.environ:
        seed = os.environ[SEED_ENV]
        with suppress(ValueError):  # the variable is text: an int seed is its base-10 digits
            seed = int(seed)
        doc["seed"] = typed({SEED_ENV: seed}, {SEED_ENV: TOP["seed"]}, "", "")[SEED_ENV]
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
                     f"{where}: duplicate id {entry['id']!r} (ids compare as text)")
            if section == "datasets":
                kind_of(entry["source"], SOURCES, f"{where}.source")
            else:
                check_detector(entry, where)
    if (subset := ev["subset"]) is not None:
        unknown = [ds for ds in subset if ds not in [e["id"] for e in doc["datasets"]]]
        _require(subset and not unknown, "evaluation.subset must be a non-empty list of "
                 f"dataset ids, got {subset!r}" + (f"; unknown {unknown}" if unknown else ""))
    return doc
