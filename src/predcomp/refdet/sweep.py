"""Threshold sweeps that share each run up to its alarms.

Up to its first alarm, a reference detector's statistic does not depend on
its threshold, and after an alarm at index i it restarts from a state fixed
by i alone: its next segment starts at i + 1.  So the runs of a sweep over
thresholds share every segment that starts at the same index.  :func:`sweep`
keeps the pending segment starts, each with the thresholds that restart
there, and scans them in increasing order: a threshold that alarms at i
joins the start i + 1, where it merges with every other threshold that
alarmed at i, from whichever start.  The result of each threshold is the
one its own run gives.  This is the one place that orders, dedups and
realigns thresholds; a scan sees the distinct ones of its start in
increasing order, and since a lower one alarms no later, the ones that
alarm are a prefix of them.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..series import Detection


def sweep(scan: Callable[[int, list], Sequence[Detection]], thresholds: Sequence,
          record: list | None = None) -> list[list[Detection]]:
    """The detections of each entry of ``thresholds``, in their order (any,
    with repeats).

    ``scan(start, levels)`` runs one segment from ``start``, 0 for the
    first, for the thresholds pending there, in increasing order, and
    returns their first alarms as a prefix aligned with ``levels``: the
    levels past its end do not alarm before the data end.  ``record``, a
    per-step record the scan fills, is refused with more than one
    threshold, as its segments would interleave several runs.
    """
    if record is not None and len(thresholds) > 1:
        raise ValueError("a trace needs a single threshold")
    runs = {level: [] for level in thresholds}
    pending = {0: list(runs)} if runs else {}
    while pending:
        start = min(pending)
        levels = sorted(pending.pop(start))
        for level, det in zip(levels, scan(start, levels)):
            runs[level].append(det)
            pending.setdefault(det.detect_time + 1, []).append(level)
    return [list(runs[level]) for level in thresholds]
