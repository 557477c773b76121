"""Threshold sweeps that share each run up to its alarms.

Up to its first alarm, a reference detector's statistic does not depend on
its threshold, and after an alarm at index i it restarts from a state fixed
by i alone: its next segment starts at i + 1.  So the runs of a sweep over
thresholds share every segment that starts at the same index.  :func:`sweep`
keeps the pending segment starts, each with the thresholds that restart
there, and scans them in increasing order: a threshold that alarms at i
joins the start i + 1, where it merges with every other threshold that
alarmed at i, from whichever start.  The result of each threshold is the
one its own run gives.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..series import Detection


def sweep(scan: Callable[[int, list[int]], Sequence[Detection | None]], count: int,
          first: int = 0) -> list[list[Detection]]:
    """The detections of each of ``count`` thresholds, first segment at ``first``.

    ``scan(start, group)`` runs one segment from ``start`` for the thresholds
    numbered in ``group``; it returns, aligned with ``group``, each one's
    first alarm in that segment, or None where it does not alarm before the
    data end.
    """
    runs: list[list[Detection]] = [[] for _ in range(count)]
    pending = {first: list(range(count))} if count else {}
    while pending:
        start = min(pending)
        group = pending.pop(start)
        for j, det in zip(group, scan(start, group)):
            if det is not None:
                runs[j].append(det)
                pending.setdefault(det.detect_time + 1, []).append(j)
    return runs


def require_single(thresholds: Sequence, record) -> None:
    """Refuse a per-step record for a sweep over more than one threshold:
    its segments would interleave several runs."""
    if record is not None and len(thresholds) != 1:
        raise ValueError("a trace needs a single threshold")
