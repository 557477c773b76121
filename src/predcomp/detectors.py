"""Detector kinds: each one's parameters and how it runs.

``KINDS[kind].params`` maps every parameter name to ``(type, default)``,
with ``REQUIRED`` where there is no default; a type rejects the values its
detector raises ValueError on (:class:`OutOfRange`), so they fail at load.
``KINDS[kind].build(det_cfg, doc)`` returns ``run(series, params,
keep_trace) -> (detections, trace)``, where ``params`` is one point over
the detector's ``params`` section (:func:`predcomp.config.resolve_params`
types it and fills in defaults) and ``trace`` is the chart for ``pnc``,
None for the other kinds.  Config validation, ``grid`` and ``detect`` all
read this table; a build imports its detector module, so importing this
one loads none.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, NamedTuple

REQUIRED = object()


def _choice(*options):
    def choice(value):
        if value not in options:
            raise ValueError(value)
        return value
    choice.__name__ = " or ".join(options)
    return choice


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


_POSITIVE_INT = _range(int, "> 0", lambda v: v <= 0)
_POSITIVE = _range(float, "> 0", lambda v: v <= 0)
_NON_NEGATIVE = _range(float, ">= 0", lambda v: v < 0)
_UNIT = _range(float, "in (0, 1]", lambda v: not 0 < v <= 1)


class Kind(NamedTuple):
    params: dict[str, tuple[Callable, object]]
    build: Callable


def _build_pnc(det_cfg: dict, doc: dict):
    from .config import resolve_params
    from .pnc import PncConfig, run_stream
    from .predictors import fit_predictor
    spec, fitted = det_cfg["predictor"], {}
    lstm = _lstm_predictor(det_cfg) if spec["kind"] == "lstm" else None

    def run(series, params, keep_trace=False):
        p = resolve_params(det_cfg, params)
        cfg = PncConfig(p["l"], p["b"], p["desInt"], p["k"], p["direction"], p["refit"],
                        p["min_refit_history"])
        key = series.name or str(id(series))
        if key not in fitted:
            fitted[key] = lstm or fit_predictor(
                spec, series.values[:min(int(doc["train_prefix"]), len(series))])
        detections, stream = run_stream(fitted[key], cfg, series, name=det_cfg["id"],
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


def _reference(module: str, call):
    """The build of a kind that runs ``call(module, series, p)`` with the
    detector module and the resolved parameters ``p``; it has no trace."""
    def build(det_cfg: dict, doc: dict):
        from .config import resolve_params
        mod = import_module(module, __package__)

        def run(series, params, keep_trace=False):
            return call(mod, series, resolve_params(det_cfg, params))[0], None
        return run
    return build


KINDS: dict[str, Kind] = {
    "pnc": Kind({"l": (_POSITIVE_INT, 50), "b": (_POSITIVE_INT, 25),
                 "desInt": (_POSITIVE, REQUIRED), "k": (_NON_NEGATIVE, 0.5),
                 "direction": (_choice("up", "down"), "up"),
                 "refit": (_choice("never", "on_detection"), "never"),
                 "min_refit_history": (int, 50)}, _build_pnc),
    "cusum": Kind({"desInt": (_POSITIVE, REQUIRED), "k": (_NON_NEGATIVE, 0.5),
                   "window": (_POSITIVE_INT, 50)},
                  _reference(".refdet.classic", lambda m, x, p: m.classic_cusum_detect(
                      x, threshold=p["desInt"], allowance=p["k"], target_window=p["window"]))),
    "bocpd": Kind({"hazard": (_UNIT, REQUIRED),
                   "cpthreshold": (_range(float, "in (0, 1)", lambda v: not 0 < v < 1), 0.5),
                   "r_min": (int, 5), "mu0": (float, 0.0), "kappa0": (_POSITIVE, 1.0),
                   "alpha0": (_POSITIVE, 1.0), "beta0": (_POSITIVE, 1.0)},
                  _reference(".refdet.bocpd", lambda m, x, p: m.bocpd_detect(
                      x, hazard=p["hazard"], threshold=p["cpthreshold"], r_min=p["r_min"],
                      prior=m.NigPrior(p["mu0"], p["kappa0"], p["alpha0"], p["beta0"])))),
    "ocd": Kind({"diag": (_POSITIVE, REQUIRED), "offDiag": (float, None),
                 "h_tail": (_range(int, ">= 1", lambda v: v < 1), 50),
                 "baseline_window": (_range(int, ">= 2", lambda v: v < 2), 100)},
                _reference(".refdet.ocd", lambda m, x, p: m.ocd_detect(
                    x, diag=p["diag"], off_diag=p["offDiag"], h_tail=p["h_tail"],
                    baseline_window=p["baseline_window"]))),
    "mosum": Kind({"minHist": (int, 100), "histFact": (_UNIT, 0.5), "h": (_UNIT, 0.25),
                   "level": (float, 0.05), "harmonics": (int, 0), "period": (float, 0.0),
                   "monitor_from": (int, None)},
                  _reference(".refdet.mosum", lambda m, x, p: m.mosum_detect(
                      x, min_hist=p["minHist"], hist_fact=p["histFact"], h_band=p["h"],
                      level=p["level"], harmonics=p["harmonics"], period=p["period"],
                      monitor_from=p["monitor_from"]))),
}
