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

The package root re-exports nothing: import each name from its own module
(``from predcomp.pnc import run_stream``); ``import predcomp`` loads none.
"""
