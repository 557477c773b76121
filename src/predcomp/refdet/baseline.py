"""Random detector baseline.

Scores are only meaningful relative to chance, so the baseline draws
detections at random under a fixed false-positive budget: ``n_fp``
distinct indices sampled uniformly before the target label (the false
positives) plus one index sampled uniformly inside the target phase (the
detection that ends the run).  Each repetition is scored with the regular
attribution rules and the metrics are averaged.

With n_fp = 0 the baseline lands exactly one post-label detection, so its
Fpc is 0 by construction and its ArlP averages to about half the phase.
The ``avg_max`` budget used in the experiments (mean of the largest Fpc
reached by the real detectors) is computed by the caller and passed in as
a number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seeding import spawn_rng
from ..series import CpLabel, Detection, LabeledSeries
from ..evaluate import attribute


@dataclass
class BaselineResult:
    fpc_mean: float
    arlp_mean: float


def random_baseline(series: LabeledSeries, target: CpLabel, n_fp: int,
                    repetitions: int = 100, seed: int = 0) -> BaselineResult:
    if target not in series.cp_labels:
        raise ValueError("target label must belong to the series")
    if n_fp < 0 or repetitions < 1:
        raise ValueError("n_fp >= 0 and repetitions >= 1 required")
    lo, hi = series.phase_bounds(target)
    pre = np.arange(0, lo)
    phase = np.arange(lo, hi)
    fpcs, arlps = [], []
    for rep in range(repetitions):
        rng = spawn_rng(seed, "baseline", rep)
        m = min(n_fp, len(pre))
        times = sorted(rng.choice(pre, size=m, replace=False).tolist()
                       + [int(rng.choice(phase))])
        dets = [Detection(detect_time=int(t), detector="random") for t in times]
        att = attribute(dets, series, target)  # the last draw, inside the phase, finds it
        fpcs.append(att.fpc)
        arlps.append(att.arlp)
    return BaselineResult(float(np.mean(fpcs)), float(np.mean(arlps)))
