"""Detector kinds: each one's parameters and how it runs.

``KINDS[kind].params`` maps every parameter name to ``(type, default)``,
with ``REQUIRED`` where there is no default; a type rejects the values its
detector raises ValueError on, and an infinite alarm threshold, which would
never alarm (:class:`OutOfRange`), so they fail at load; the other config
sections (:mod:`predcomp.config`) use the same types.
``KINDS[kind].build(det_cfg, doc)`` returns ``run(series, params,
keep_trace) -> (detections, trace)``, where ``params`` is one point over
the detector's ``params`` section (:func:`predcomp.config.resolve_params`
types it and fills in defaults) and ``trace`` is the chart for ``pnc``,
None for the other kinds.  A build imports its detector module, so
importing this one loads none.

``KINDS[kind].threshold`` names the key a reference kind (cusum, bocpd,
ocd, mosum) sweeps.  The first time its ``run`` is asked for a series and
a setting of the other keys, it runs that kind's ``*_sweep`` over every
threshold the detector is configured with, sharing each segment the runs
have in common (:mod:`predcomp.refdet.sweep`), and serves the other
thresholds from that result.  A ``pnc`` run is one run per point.
"""

from __future__ import annotations

import math
from importlib import import_module
from itertools import product
from typing import Callable, NamedTuple

REQUIRED = object()


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


class OutOfRange(ValueError):
    """A parameter value of the right type that its detector does not run with."""


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
_UNIT = _range(float, "in (0, 1]", lambda v: not 0 < v <= 1)
_OPEN_UNIT = _range(float, "in (0, 1)", lambda v: not 0 < v < 1)


# an infinite alarm threshold loads but never alarms; NaN fails _POSITIVE first
_threshold = _finite_of(_POSITIVE)


class Kind(NamedTuple):
    params: dict[str, tuple[Callable, object]]
    build: Callable
    threshold: str | None = None


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
    from .config import ConfigError, resolve_params
    from .pnc import PncConfig, run_stream
    from .predictors import PredictorError, fit_predictor
    spec, fitted = det_cfg["predictor"], []
    lstm = _lstm_predictor(det_cfg) if spec["kind"] == "lstm" else None

    def fit(series):
        try:
            return fit_predictor(spec, series.values[:doc["train_prefix"]])
        except PredictorError as exc:
            raise ConfigError(f"detector {det_cfg['id']!r}: train_prefix: {exc}") from None

    def run(series, params, keep_trace=False):
        p = resolve_params(det_cfg, params)
        cfg = PncConfig(p["l"], p["b"], p["desInt"], p["k"], p["direction"], p["refit"],
                        p["min_refit_history"])
        predictor = _cached(fitted, series, None, lambda: lstm or fit(series))
        detections, stream = run_stream(predictor, cfg, series, name=det_cfg["id"],
                                        keep_trace=keep_trace)
        return detections, [(r.index, r.value, r.target, r.stat, cfg.threshold, r.alarm)
                            for r in stream.trace]
    return run


def _lstm_predictor(det_cfg: dict):
    """The detector's LSTM model, checked against every l and b it runs with."""
    from .config import ConfigError, param_values
    from .io import DataError, load_model
    from .lstm import LstmNet, LstmPredictor
    path = det_cfg["predictor"]["model_path"]
    doc = load_model(path)
    try:
        net = LstmNet.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not an lstm model ({exc!r})") from None
    ls, bs = param_values(det_cfg, "l"), param_values(det_cfg, "b")
    if min(ls) < net.nh or max(bs) > net.nz:
        raise ConfigError(f"detector {det_cfg['id']!r}: the model {path} needs l >= {net.nh} "
                          f"and b <= {net.nz}, got l {sorted(set(ls))}, b {sorted(set(bs))}")
    return LstmPredictor(net)


def _check_mosum(det_cfg: dict, mod) -> None:
    """Every level must be calibrated, and harmonic terms need a period > 0."""
    from .config import ConfigError, param_values
    where = f"detector {det_cfg['id']!r}"
    harmonics, periods = param_values(det_cfg, "harmonics"), param_values(det_cfg, "period")
    if max(harmonics) > 0 and min(periods) <= 0:
        raise ConfigError(f"{where}: harmonics > 0 need a period > 0, got harmonics "
                          f"{sorted(set(harmonics))}, period {sorted(set(periods))}")
    for h, level in product(param_values(det_cfg, "h"), param_values(det_cfg, "level")):
        try:
            mod.boundary_constant(h, level)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None


def _reference(module: str, sweep, check=None):
    """The build of a kind that runs ``sweep(module, series, thresholds, p)``
    with the detector module, thresholds of its kind's key and the resolved
    parameters ``p``; it has no trace.  ``check(det_cfg, module)``, where
    given, raises a ConfigError on what the table's types cannot rule out."""
    def build(det_cfg: dict, doc: dict):
        from .config import param_values, resolve_params
        mod = import_module(module, __package__)
        if check is not None:
            check(det_cfg, mod)
        key = KINDS[det_cfg["kind"]].threshold
        runs = []

        def run(series, params, keep_trace=False):
            p = resolve_params(det_cfg, params)
            rest = {name: value for name, value in p.items() if name != key}
            found = _cached(runs, series, rest, dict)
            if p[key] not in found:
                thresholds = [t for t in dict.fromkeys([*param_values(det_cfg, key), p[key]])
                              if t not in found]
                found.update(zip(thresholds, sweep(mod, series, thresholds, p)))
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
                  _reference(".refdet.classic", lambda m, x, ts, p: m.classic_cusum_sweep(
                      x, ts, allowance=p["k"], target_window=p["window"])), "desInt"),
    "bocpd": Kind({"hazard": (_UNIT, REQUIRED),
                   "cpthreshold": (_OPEN_UNIT, 0.5),
                   "r_min": (_int, 5), "mu0": (_finite, 0.0), "kappa0": (_FINITE_POSITIVE, 1.0),
                   "alpha0": (_FINITE_POSITIVE, 1.0), "beta0": (_FINITE_POSITIVE, 1.0)},
                  _reference(".refdet.bocpd", lambda m, x, ts, p: m.bocpd_sweep(
                      x, p["hazard"], ts, r_min=p["r_min"],
                      prior=m.NigPrior(p["mu0"], p["kappa0"], p["alpha0"], p["beta0"]))),
                  "cpthreshold"),
    "ocd": Kind({"diag": (_threshold, REQUIRED), "offDiag": (float, None),
                 "h_tail": (_range(_int, ">= 1", lambda v: v < 1), 50),
                 "baseline_window": (_range(_int, ">= 2", lambda v: v < 2), 100)},
                _reference(".refdet.ocd", lambda m, x, ts, p: m.ocd_sweep(
                    x, ts, off_diag=p["offDiag"], h_tail=p["h_tail"],
                    baseline_window=p["baseline_window"])), "diag"),
    "mosum": Kind({"minHist": (_int, 100), "histFact": (_UNIT, 0.5), "h": (_UNIT, 0.25),
                   "level": (float, 0.05), "harmonics": (_int, 0), "period": (float, 0.0),
                   "monitor_from": (_int, None)},
                  _reference(".refdet.mosum", lambda m, x, ts, p: m.mosum_sweep(
                      x, ts, min_hist=p["minHist"], hist_fact=p["histFact"], h_band=p["h"],
                      harmonics=p["harmonics"], period=p["period"],
                      monitor_from=p["monitor_from"]), _check_mosum), "level"),
}
