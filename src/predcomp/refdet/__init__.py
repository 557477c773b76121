"""Reference detectors run against the prediction-assisted chart.

Each ``*_detect`` is the one-threshold case of its ``*_sweep``, which runs
many thresholds at once, in any order and with repeats, and shares every
segment their runs have in common: :mod:`predcomp.refdet.sweep` orders and
merges them, and each detector's scan runs one segment for the thresholds
pending at its start.
"""

from .classic import classic_cusum_detect, classic_cusum_sweep
from .bocpd import NigPrior, bocpd_detect, bocpd_sweep
from .ocd import ocd_detect, ocd_sweep
from .mosum import mosum_detect, mosum_sweep
from .baseline import BaselineResult, random_baseline

__all__ = [
    "classic_cusum_detect",
    "classic_cusum_sweep",
    "NigPrior",
    "bocpd_detect",
    "bocpd_sweep",
    "ocd_detect",
    "ocd_sweep",
    "mosum_detect",
    "mosum_sweep",
    "BaselineResult",
    "random_baseline",
]
