"""Streaming change point detection with predictive monitoring.

The core idea: fit a model of in-control behaviour, forecast the next
window, and feed the observed values together with the forecasts into a
decision-interval chart.  A change announces itself as a persistent gap
between what the model expects and what arrives.

Modules
-------
series        labeled series container, change labels, detections
simulate      wear-out intensity generator, step series
standardize   power trend fit and Poisson-style score transform
predictors    naive / mean / AR / ARIMA forecasters
lstm          from-scratch LSTM forecaster with exact gradients
cusum         decision-interval chart primitive
pnc           predict-and-compare streaming detector
refdet        reference detectors (classic CUSUM, BOCPD, tail scan,
              moving-sum monitor, random baseline)
evaluate      false-positive count / relative delay scoring, grid search
io            CSV and JSON round trips, trace export
config        YAML experiment configs: every section's keys, types and defaults,
              and the source, predictor and detector kinds and how each runs
cli           command line entry point
"""

from __future__ import annotations

from .cusum import CusumChart, run_chart
from .evaluate import (Attribution, DetectorGrid, EvalRecord, Winner, arlp,
                       attribute, average_max_fpc, find_target, params_id,
                       render_report, run_grid, select_best)
from .pnc import PncConfig, PncStream, run_stream
from .predictors import (ArimaPredictor, ArPredictor, ConstantPredictor,
                         MeanPredictor, NaivePredictor, PredictorError,
                         fit_predictor)
from .series import CpLabel, Detection, LabeledSeries
from .simulate import WearIntensity, sample_step_series, sample_wear_series
from .standardize import (OnlineStandardizer, StandardizeResult, TrendFit,
                          TrendNotEstimable, estimate_trend, standardize)

__version__ = "0.1.0"

__all__ = [
    "ArimaPredictor", "ArPredictor", "Attribution", "ConstantPredictor",
    "CpLabel", "CusumChart", "Detection", "DetectorGrid", "EvalRecord",
    "LabeledSeries", "MeanPredictor", "NaivePredictor", "OnlineStandardizer",
    "PncConfig", "PncStream", "PredictorError", "StandardizeResult",
    "TrendFit", "TrendNotEstimable", "WearIntensity", "Winner", "arlp",
    "attribute", "average_max_fpc", "estimate_trend", "find_target",
    "params_id", "render_report", "run_chart", "run_grid",
    "run_stream", "sample_step_series", "sample_wear_series", "select_best",
    "standardize", "__version__",
]
