"""Reference detectors run against the prediction-assisted chart.

Each ``*_detect`` is the one-threshold case of its ``*_sweep``, which runs
many thresholds at once, in any order and with repeats, and shares every
segment their runs have in common: :mod:`predcomp.refdet.sweep` orders and
merges them, and each detector's scan runs one segment for the thresholds
pending at its start; only ``NigPrior`` and the ``*_detect`` are re-exported.
"""

from .classic import classic_cusum_detect
from .bocpd import NigPrior, bocpd_detect
from .ocd import ocd_detect
from .mosum import mosum_detect

__all__ = ["classic_cusum_detect", "NigPrior", "bocpd_detect", "ocd_detect", "mosum_detect"]
